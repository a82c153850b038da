"""A fixed reference computation that gauges the machine's current speed.

The benchmark's host is shared, and its speed drifts: the same round of work
takes up to a third longer during slow phases of seconds to minutes. No
process time excludes this (CPU time tracks wall time; steal time reads 0),
so a plain median over a 30 s run moves with the phase the run fell in.

The reference is a fixed mix of the kinds of work the program does: numpy
sorts and cumulative sums on columns of 3 000 and 16 000 rows (split search
on small and large nodes) and a pure-Python loop over dicts and floats
(per-node overhead). On this kind of host these slow down together with the
rounds. The reference does not call the program, so a change to the program
never moves it. The benchmark runs it between its timed parts and
reports each time in reference seconds:

    scaled = raw * REF_S / (reference time measured around the raw time)

that is, the time the part would take while the reference takes ``REF_S``
seconds. ``REF_S`` is the reference's median time on the machine the
README's figures come from, so scaled times read close to raw ones there.
"""

import time

import numpy as np

REF_S = 0.22

_RNG = np.random.default_rng(20231007)
_SMALL = (_RNG.normal(size=(3000, 8)), _RNG.normal(size=3000))
_LARGE = (_RNG.normal(size=(16000, 8)), _RNG.normal(size=16000))
_REPS = 5


def _split_scan(X, g):
    n = g.size
    left_n = np.arange(1, n)
    best = 0.0
    for j in range(X.shape[1]):
        order = np.argsort(X[:, j], kind="stable")
        left = np.cumsum(g[order])[:-1]
        gain = left ** 2 / left_n + (g.sum() - left) ** 2 / (n - left_n)
        best = max(best, float(gain.max()))
    return best


def _work():
    best = sum(_split_scan(*_SMALL) for _ in range(6)) + _split_scan(*_LARGE)
    table = {}
    acc = 0.0
    for i in range(60000):
        key = i % 61
        acc += table.get(key, 0.5) * 0.999
        table[key] = acc % 7.0
    return best + acc


def reference_s():
    """Seconds one pass of the reference takes now."""
    t0 = time.perf_counter()
    for _ in range(_REPS):
        _work()
    return time.perf_counter() - t0


def scaled(raw_s, *refs):
    """``raw_s`` in reference seconds, given the reference times around it."""
    return raw_s * REF_S * len(refs) / sum(refs)


class Clock:
    """Times the parts of a run, with a pass of the reference after each, and
    keeps their sums in raw and in reference seconds."""

    def __init__(self):
        self.refs = [reference_s()]
        self.raw = 0.0
        self.scaled = 0.0

    def time(self, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        raw = time.perf_counter() - t0
        self.refs.append(reference_s())
        self.raw += raw
        self.scaled += scaled(raw, self.refs[-2], self.refs[-1])
        return out

    @property
    def elapsed(self):
        """Seconds spent in timed parts and reference passes."""
        return self.raw + sum(self.refs)
