"""The outputs that scripts/output_digests.py lists stay bitwise as committed
in tests/output_digests.txt, whether every sweep cell and multi-class fit
runs in this process or on the worker pools."""

import importlib.util
import os
import re

import numpy as np
import pytest

from pools import record_pools

HERE = os.path.dirname(os.path.abspath(__file__))
SCRIPT = os.path.join(os.path.dirname(HERE), "scripts", "output_digests.py")
GOLDEN = os.path.join(HERE, "output_digests.txt")


def load_script():
    spec = importlib.util.spec_from_file_location("output_digests", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def golden():
    """The numpy version the golden listing was made with, and its lines."""
    with open(GOLDEN, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    made_with = re.search(r"numpy (\S+) and Python", lines[0]).group(1)
    return made_with, [line for line in lines if not line.startswith("#")]


@pytest.mark.parametrize("where", ["one core", "every core"])
def test_listing_matches_the_golden_file(monkeypatch, where):
    made_with, expected = golden()
    if np.__version__ != made_with:
        pytest.skip(f"the golden listing was made with numpy {made_with}, not {np.__version__}")
    cores = 1 if where == "one core" else len(os.sched_getaffinity(0))
    pools = record_pools(monkeypatch, cores)
    lines = load_script().listing()
    assert bool(pools) == (cores > 1)
    assert lines == expected
