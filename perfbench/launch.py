"""Run the robustboost command line the way its console script does, from
the checkout's ``src`` directory.

    python3 perfbench/launch.py [--trace SPANS.json] <robustboost arguments>

With ``--trace`` the public functions are wrapped (see tracing.py) before
``robustboost.cli.main`` runs, and the spans are written to SPANS.json.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))


def main(argv):
    trace_out = None
    if argv[:1] == ["--trace"]:
        trace_out, argv = argv[1], argv[2:]
    from robustboost.cli import main as cli_main

    if trace_out is None:
        return cli_main(argv)
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return cli_main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
