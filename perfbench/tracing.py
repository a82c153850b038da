"""Outside-in span tracing of robustboost's public functions.

The tracer replaces each target function with a timing wrapper on its own
module and on every robustboost module that imported it by name (for
example ``booster.grow_tree`` and ``experiment.fit``), so the program's
source stays untouched. Spans are kept in memory as
``(name, start, end, parent, count)`` tuples and written out at the end of
the run; self time and the per-layer metrics are derived from them.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


# (module, attribute, span name, count taken from (args, kwargs, result)).
# Several attributes may share one span name: both noise protocols are
# reported as ``noise.inject``.
TARGETS = (
    ("cli", "cmd_predict", "cli.predict", None),
    ("experiment", "run_sweep", "experiment.run_sweep", None),
    ("experiment", "fit_tuned", "experiment.fit_tuned", None),
    ("booster", "fit", "booster.fit", None),
    ("booster", "predict_proba", "booster.predict_proba", None),
    ("booster", "serialize", "booster.serialize", None),
    ("booster", "deserialize", "booster.deserialize", None),
    ("tree", "grow_tree", "tree.grow_tree", lambda a, k, r: r.n_leaves - 1),
    ("tree", "best_split", "tree.best_split",
     lambda a, k, r: len(_arg(a, k, 2, "rows"))),
    ("tree", "Tree.predict", "tree.predict", None),
    ("losses", "grad_hess", "losses.grad_hess", None),
    ("noise", "inject_binary", "noise.inject", None),
    ("noise", "inject_multiclass", "noise.inject", None),
    ("data", "load_csv", "data.load_csv", lambda a, k, r: r.n_samples),
    ("data", "train_test_split", "data.train_test_split", None),
    ("metrics", "aucpr", "metrics.aucpr",
     lambda a, k, r: len(_arg(a, k, 0, "scores"))),
)

# Reported per span: ``.s`` is the time inside the function including its
# children, ``.self_s`` the same minus its traced direct children, ``.calls``
# the number of calls.
REPORTED = ("tree.best_split.s", "tree.best_split.calls", "tree.grow_tree.self_s",
            "tree.grow_tree.calls", "tree.predict.s", "tree.predict.calls",
            "losses.grad_hess.s", "losses.grad_hess.calls", "booster.fit.self_s",
            "booster.fit.calls", "booster.predict_proba.s", "booster.predict_proba.calls",
            "booster.serialize.s", "booster.deserialize.s", "experiment.fit_tuned.self_s",
            "experiment.run_sweep.self_s", "noise.inject.s", "data.load_csv.s",
            "data.train_test_split.s", "metrics.aucpr.s", "metrics.aucpr.calls",
            "cli.predict.self_s")


class Tracer:
    """Installs the wrappers, records spans while installed, and restores
    the original functions on ``uninstall``."""

    def __init__(self):
        self.spans = []
        self.absent = []
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn, count):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            n = 0
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    n = count(args, kwargs, result)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, n)

        return wrapper

    def install(self):
        self.absent = []
        for mod_name, attr, span, count in TARGETS:
            try:
                mod = importlib.import_module(f"robustboost.{mod_name}")
            except ImportError:
                self.absent.append(f"{mod_name}.{attr}")
                continue
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            orig = getattr(owner, fn_name, None) if owner is not None else None
            if orig is None:
                self.absent.append(f"{mod_name}.{attr}")
                continue
            wrapper = self._wrap(span, orig, count)
            if owner_name:
                self._patch(owner, fn_name, wrapper)
                continue
            for m in list(sys.modules.values()):
                if getattr(m, "__name__", "").startswith("robustboost"):
                    for key, value in list(vars(m).items()):
                        if value is orig:
                            self._patch(m, key, wrapper)

    def _patch(self, owner, key, wrapper):
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def uninstall(self):
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches = []

    def merge(self, spans):
        """Append spans recorded by another process, re-basing parents."""
        base = len(self.spans)
        for name, t0, t1, parent, n in spans:
            self.spans.append((name, t0, t1, parent + base if parent >= 0 else -1, n))

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"absent": self.absent, "spans": self.spans}, fh)


def load_spans(path):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return [tuple(s) for s in doc["spans"]], doc["absent"]


def layer_metrics(spans, absent=()):
    """Per-layer metrics, as ``{name: (value, unit)}``, from a list of spans."""
    stats = {"s": {}, "self_s": {}, "calls": {}, "count": {}}
    child = {}
    for name, t0, t1, parent, n in spans:
        stats["s"][name] = stats["s"].get(name, 0.0) + (t1 - t0)
        stats["calls"][name] = stats["calls"].get(name, 0) + 1
        stats["count"][name] = stats["count"].get(name, 0) + n
        if parent >= 0:
            child[parent] = child.get(parent, 0.0) + (t1 - t0)
    for idx, (name, t0, t1, _, _) in enumerate(spans):
        stats["self_s"][name] = stats["self_s"].get(name, 0.0) + (t1 - t0) - child.get(idx, 0.0)

    out = {}
    for metric in REPORTED:
        span, _, kind = metric.rpartition(".")
        out[metric] = (stats[kind].get(span, 0), "count" if kind == "calls" else "s")
    count = stats["count"]
    out["tree.best_split.rows"] = (count.get("tree.best_split", 0), "count")
    out["data.load_csv.rows"] = (count.get("data.load_csv", 0), "count")
    out["metrics.aucpr.rows"] = (count.get("metrics.aucpr", 0), "count")
    # grown splits per split search: count of grow_tree is n_leaves - 1
    searches = stats["calls"].get("tree.best_split", 0)
    out["tree.split_yield"] = (
        count.get("tree.grow_tree", 0) / searches if searches else 0.0, "ratio")
    tuned = {i for i, s in enumerate(spans) if s[0] == "experiment.fit_tuned"}
    fits = sum(1 for s in spans if s[0] == "booster.fit" and s[3] in tuned)
    out["experiment.fit_tuned.fits"] = (fits / len(tuned) if tuned else 0.0, "count")
    out["trace.absent"] = (len(set(absent)), "count")
    return out
