"""robustboost benchmark: run one workload, check its outputs, print metrics.

    python3 perfbench/run.py --workload noise_sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. See perfbench/README.md.
"""

import os
import sys
import time

T_START = time.perf_counter()
# One BLAS/OpenMP thread in this process and in every process it starts.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

from calibrate import Clock, reference_s, scaled  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(os.path.dirname(HERE), ".perfbench_out")
SETUP_SAMPLES = 3  # set-ups per run, this process's own included


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", metavar="DIR",
                    help="set up in DIR, print the set-up time and exit")
    return ap.parse_args(argv)


class Run:
    """The timed rounds of one workload and the tally of their checks."""

    def __init__(self, wl, work):
        self.wl = wl
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.reference = None

    def check(self, out):
        """Check a round's outputs; every round must reproduce the first."""
        self.failed += self.wl.check(out)
        self.attempted += self.wl.ops_per_round
        if self.reference is None:
            self.reference = out
        elif not self.wl.same(self.reference, out):
            raise AssertionError("a round's outputs differ from the first round's")

    def rounds(self, seconds):
        """Whole rounds until their timed parts and reference passes add up to
        ``seconds``. Returns the rounds' times in reference seconds; the raw
        times and the reference passes go to standard error."""
        clock = Clock()
        walls, scaled_walls = [], []
        while not walls or clock.elapsed < seconds:
            out_dir = os.path.join(self.work, f"round{len(walls)}")
            raw, scaled_ = clock.raw, clock.scaled
            out = self.wl.run_round(out_dir, clock)
            walls.append(clock.raw - raw)
            scaled_walls.append(clock.scaled - scaled_)
            self.check(out)
            shutil.rmtree(out_dir, ignore_errors=True)
        print("round wall times: " + " ".join(f"{w:.4f}" for w in walls), file=sys.stderr)
        print("reference times: " + " ".join(f"{r:.4f}" for r in clock.refs), file=sys.stderr)
        return scaled_walls


def setup_samples(args, n):
    """Set-up times of ``n`` fresh processes doing this run's set-up."""
    times = []
    for i in range(n):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--setup-only", os.path.join(OUT, args.workload, f"setup{i}")]
        res = subprocess.run(cmd, capture_output=True, text=True, check=True)
        times.append(json.loads(res.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def setup_done():
    """This process's set-up time so far, in reference seconds."""
    raw = time.perf_counter() - T_START
    return scaled(raw, reference_s())


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args, wl, run):
    wl.prepare()
    wl.warm()
    setups = [setup_done()] + setup_samples(args, SETUP_SAMPLES - 1)
    walls = run.rounds(args.seconds)
    return {
        "setup_s": metric(statistics.median(setups), "s"),
        "wall_s": metric(statistics.median(walls), "s"),
        "peak_rss_mb": metric(wl.peak_rss_mb(), "MB"),
        "test_score": metric(wl.test_score, "ratio"),
    }


def per_layer(args, wl, run, import_s):
    """Untraced rounds, then one traced pass: the set-up's program calls and
    one round, whose outputs must equal the untraced rounds'."""
    from tracing import Tracer, layer_metrics, load_spans

    tracer = Tracer()
    tracer.install()
    try:
        wl.prepare()
    finally:
        tracer.uninstall()
    wl.warm()
    untraced = statistics.median(run.rounds(args.seconds))

    trace_dir = os.path.join(run.work, "trace")
    os.makedirs(trace_dir)
    clock = Clock()
    tracer.install()
    try:
        out = wl.run_round(os.path.join(run.work, "traced"), clock, trace_dir)
    finally:
        tracer.uninstall()
    run.check(out)
    for name in sorted(os.listdir(trace_dir)):  # spans of CLI children
        spans, absent = load_spans(os.path.join(trace_dir, name))
        tracer.merge(spans)
        tracer.absent.extend(absent)
    tracer.dump(os.path.join(run.work, "spans.json"))
    if tracer.absent:
        print(f"absent from the program: {sorted(set(tracer.absent))}", file=sys.stderr)

    metrics = {name: metric(v, unit)
               for name, (v, unit) in layer_metrics(tracer.spans, tracer.absent).items()}
    metrics["cli.import_s"] = metric(import_s, "s")
    metrics["trace.wall_s"] = metric(clock.raw, "s")
    metrics["trace.overhead_s"] = metric(clock.scaled - untraced, "s")
    return metrics


def main(argv):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "robustboost", "__init__.py")):
        print(f"robustboost sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import robustboost.cli  # noqa: F401  (a fresh interpreter's import, timed)
    import_s = time.perf_counter() - t0
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    work = args.setup_only or os.path.join(OUT, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    wl = WORKLOADS[args.workload](args.seed, work)
    if args.setup_only:
        wl.prepare()
        wl.warm()
        print(json.dumps({"setup_s": setup_done()}))
        return 0

    run = Run(wl, work)
    try:
        if args.trace:
            metrics = per_layer(args, wl, run, import_s)
        else:
            metrics = end_to_end(args, wl, run)
        correct = True
    except AssertionError as exc:  # a failed output check, or the program's own
        print(f"output check failed: {exc}", file=sys.stderr)
        correct, metrics = False, {}
    print(json.dumps({"correct": correct, "attempted": max(run.attempted, 1),
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
