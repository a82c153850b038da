"""Benchmark harness: seeded noise sweeps, hyperparameter grid search on the
noisy training data, and rank reporting.

Seed derivation: every random choice draws from a seed derived from the
master seed via numpy SeedSequence spawn keys, one fixed integer tag per
purpose, so any subset of the sweep reproduces in isolation:

    split seed  = derive(master, TAG_SPLIT, repeat)
    noise seed  = derive(master, TAG_NOISE, gamma_index, repeat)
    tune seed   = derive(master, TAG_TUNE,  gamma_index, repeat, method_index)
    model seed  = derive(master, TAG_MODEL, gamma_index, repeat, method_index)
"""

from __future__ import annotations

import csv
import itertools
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import synthetic
from .booster import BoosterConfig, fit, predict_proba, staged_proba
from .data import SplitError, TabularDataset, check_unique, load_csv, train_test_split, write_csv
from .losses import CATALOG, LossSpec
from .metrics import accuracy, aucpr
from .noise import Flip, NoiseSpec, inject_binary, inject_multiclass, write_flip_log
from .pool import run_tasks
from .tree import TreeConfig

TAG_SPLIT, TAG_NOISE, TAG_TUNE, TAG_MODEL = 1, 2, 3, 4

DEFAULT_DATASET = "synthetic:imbalanced"
DEFAULT_NOISE_LEVELS = (0.0, 0.1, 0.2, 0.3, 0.4)
DEFAULT_GRID_R = (0.5, 1.0, 2.0)
DEFAULT_GRID_Q = (0.3, 0.5, 0.7)
DEFAULT_GRID_LR = (0.05, 0.1)
DEFAULT_GRID_ROUNDS = (100, 300)

# effectively-zero q used when a grid pins "q -> 0" (focal-loss ablation)
Q_ZERO = 1e-6


def derive_seed(master: int, *key: int) -> int:
    ss = np.random.SeedSequence(master, spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1)[0])


@dataclass(frozen=True)
class MethodSpec:
    """A loss family plus the hyperparameter grid searched for it."""

    name: str
    family: str
    grid_r: tuple = DEFAULT_GRID_R
    grid_q: tuple = DEFAULT_GRID_Q
    grid_lr: tuple = DEFAULT_GRID_LR
    grid_rounds: tuple = DEFAULT_GRID_ROUNDS
    eta: float = LossSpec.eta
    sce_alpha: float = LossSpec.sce_alpha
    sce_beta: float = LossSpec.sce_beta

    def __post_init__(self):
        # every grid point must be a valid booster config before a sweep starts,
        # also the r and q values that candidates() drops for this family
        for name in ("grid_r", "grid_q", "grid_lr", "grid_rounds"):
            check_unique(getattr(self, name), ValueError, f"method {self.name!r}: {name} repeats")
        grid = self._grid(self.grid_r, self.grid_q)
        if not grid:
            raise ValueError(f"method {self.name!r} has an empty grid")
        for spec, lr, rounds in grid:
            BoosterConfig(loss=spec, learning_rate=lr, n_rounds=rounds)

    def candidates(self):
        """Canonically ordered (LossSpec, lr, rounds) grid. A grid over a
        parameter the family does not read collapses to r = 0.0 or q = 0.5,
        so no two candidates are the same loss."""
        base, focal = CATALOG[self.family]
        return self._grid(self.grid_r if focal else (0.0,),
                          self.grid_q if base == "gce" else (0.5,))

    def _grid(self, grid_r, grid_q):
        return [(LossSpec(family=self.family, r=r, q=q, eta=self.eta,
                          sce_alpha=self.sce_alpha, sce_beta=self.sce_beta), lr, rounds)
                for r, q, lr, rounds in itertools.product(
                    grid_r, grid_q, self.grid_lr, self.grid_rounds)]


@dataclass
class ExperimentConfig:
    noise_levels: tuple = DEFAULT_NOISE_LEVELS
    repeats: int = 5
    fraction: float = 0.8
    stratified: bool = True
    methods: tuple = ("rfl", "cce")
    method_specs: dict = field(default_factory=dict)  # name -> MethodSpec overrides
    tree: TreeConfig = field(default_factory=TreeConfig)
    tune_fraction: float = 0.75
    master_seed: int = 0
    threads: int = 1

    def __post_init__(self):
        if not self.noise_levels or not self.methods:
            raise ValueError("noise_levels and methods must not be empty")
        for name in ("noise_levels", "methods"):
            check_unique(getattr(self, name), ValueError, f"{name} repeats")
        for g in self.noise_levels:
            if not 0.0 <= g < 0.5:
                raise ValueError(f"noise level {g} outside [0, 0.5)")
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        # a leftover: the benchmark passes threads=1 and its next change deletes the
        # field. The sweep sizes its own worker pool, so refuse any other count.
        if self.threads != 1:
            raise ValueError(f"threads is a leftover that only accepts 1, got {self.threads}")
        if not (0.0 < self.fraction < 1.0 and 0.0 < self.tune_fraction < 1.0):
            raise ValueError("fraction and tune_fraction must be in (0, 1)")

    def resolve_method(self, name: str) -> MethodSpec:
        return self.method_specs.get(name) or MethodSpec(name=name, family=name)


def load_experiment_dataset(dataset: str = DEFAULT_DATASET,
                            label_column: str = "label",
                            synthetic_seed: int = 12345) -> TabularDataset:
    """``synthetic:<name>`` generates a bundled dataset; anything else is a CSV path."""
    if dataset.startswith("synthetic:"):
        return synthetic.make(dataset.split(":", 1)[1], seed=synthetic_seed)
    return load_csv(dataset, label_column=label_column)


def _inject(labels, n_classes, rate, seed):
    if rate == 0.0:
        return np.asarray(labels).copy(), []
    if n_classes == 2:
        spec = NoiseSpec(rate=rate, protocol="binary_pairflip", seed=seed)
        return inject_binary(labels, spec)
    spec = NoiseSpec(rate=rate, protocol="multiclass_pairflip", seed=seed)
    return inject_multiclass(labels, n_classes, spec)


def metric_name(n_classes):
    """The task's score: AUCPR for a binary task, else accuracy."""
    return "aucpr" if n_classes == 2 else "accuracy"


def task_metric(proba, data):
    """(name, value) of the task's score, as ``metric_name`` names it."""
    name = metric_name(data.n_classes)
    if name == "aucpr":
        return name, aucpr(proba[:, 1], data.labels)
    return name, accuracy(np.argmax(proba, axis=1), data.labels)


def fit_tuned(train: TabularDataset, method: MethodSpec, tree: TreeConfig,
              tune_fraction: float, tune_seed: int, model_seed: int):
    """Grid-search on an internal split of (possibly noisy) training data,
    then refit the winner on the full training set.

    Staged: the candidates sharing a (loss, lr) are fitted once, at their
    longest ``rounds``, and each is scored on that model's first ``rounds``
    trees, which are exactly a ``rounds``-round fit with the same seed. The
    tuning rows' scores are built up one round at a time and read at each
    distinct ``rounds`` in ascending order, so each tuning tree is evaluated
    once. The first candidate in ``candidates()`` order with the highest
    score wins, so a tie goes to the earlier grid value, not to the shorter
    fit.
    """
    candidates = method.candidates()
    if len(candidates) > 1:
        try:
            plan = train_test_split(train, tune_fraction, seed=tune_seed, stratified=True)
        except SplitError:  # a class too small to stratify
            plan = train_test_split(train, tune_fraction, seed=tune_seed, stratified=False)
        sub_train = train.subset(plan.train_indices)
        sub_valid = train.subset(plan.test_indices)
        best = None
        # candidates() puts rounds innermost, so each (loss, lr) group is adjacent
        for (spec, lr), group in itertools.groupby(enumerate(candidates),
                                                   key=lambda c: c[1][:2]):
            group = list(group)
            stages = sorted({rounds for _, (_, _, rounds) in group})
            model = fit(sub_train, BoosterConfig(
                loss=spec, tree=tree, learning_rate=lr, n_rounds=stages[-1],
                n_classes=train.n_classes, seed=model_seed))
            scores = {rounds: task_metric(proba, sub_valid)[1]
                      for rounds, proba in zip(stages, staged_proba(model, sub_valid, stages))}
            for i, (_, _, rounds) in group:
                if best is None or scores[rounds] > best[0]:
                    best = (scores[rounds], i)
            del model  # one tuning model alive at a time
        spec, lr, rounds = candidates[best[1]]
    else:
        spec, lr, rounds = candidates[0]
    cfg = BoosterConfig(loss=spec, tree=tree, learning_rate=lr,
                        n_rounds=rounds, n_classes=train.n_classes, seed=model_seed)
    return fit(train, cfg), cfg


@dataclass
class SweepRow:
    dataset: str
    method: str
    gamma: float
    repeat: int
    metric: str
    value: float
    params: str


def run_sweep(cfg: ExperimentConfig, out_dir: str, dataset: TabularDataset, dataset_name: str):
    """Full noise sweep of ``cfg.methods`` on ``dataset``, whose name fills
    results.csv's ``dataset`` column. Per repeat, one train/test split; per
    noise level, one noise draw and its flip log (with dataset-global sample
    indices); per method, one cell: a tuned fit scored on the test rows.
    Writes the flip logs, then results.csv and summary.csv, into ``out_dir``.

    The cells run on one worker process per usable core, never more than
    there are cells; with one worker, in this process. A cell holds only its
    split's row indices, its noisy labels and its seeds: a forked worker
    takes the rows from the dataset it inherits. A multi-class fit in a
    worker grows its score columns in that worker, one after another; in this
    process it may start its own pool (see ``booster.fit``). No setting
    changes the worker counts. Every cell is seeded on its own, so the files
    do not depend on the worker count. Every repeat is split before
    ``out_dir`` is made, so a dataset that cannot be split leaves no
    directory; every flip log is written before the first cell runs; if
    cells fail, the first failing one in cell order raises.
    """
    plans = [train_test_split(dataset, cfg.fraction,
                              seed=derive_seed(cfg.master_seed, TAG_SPLIT, rep),
                              stratified=cfg.stratified)
             for rep in range(cfg.repeats)]
    os.makedirs(out_dir, exist_ok=True)
    methods = [cfg.resolve_method(m) for m in cfg.methods]
    n_classes = dataset.n_classes

    keys, cells = [], []
    for rep, plan in enumerate(plans):
        train_labels = dataset.labels[plan.train_indices]
        test_idx = set(plan.test_indices.tolist())
        for gi, gamma in enumerate(cfg.noise_levels):
            noisy, log = _inject(train_labels, n_classes, gamma,
                                 derive_seed(cfg.master_seed, TAG_NOISE, gi, rep))
            log = [Flip(int(plan.train_indices[f.index]), f.old_label, f.new_label)
                   for f in log]
            if {f.index for f in log} & test_idx:
                raise AssertionError("noise was applied to test indices")
            write_flip_log(log, os.path.join(out_dir, f"fliplog_g{gi}_r{rep}.csv"))
            for mi, method in enumerate(methods):
                keys.append((method.name, gamma, rep))
                cells.append((plan, noisy, method, cfg.tree, cfg.tune_fraction,
                              derive_seed(cfg.master_seed, TAG_TUNE, gi, rep, mi),
                              derive_seed(cfg.master_seed, TAG_MODEL, gi, rep, mi)))

    scored = run_tasks(_run_cell, dataset, cells)
    results = [SweepRow(dataset_name, name, gamma, rep, *cell)
               for (name, gamma, rep), cell in zip(keys, scored)]
    results.sort(key=lambda r: (r.dataset, r.method, r.gamma, r.repeat))
    _write_results(results, os.path.join(out_dir, "results.csv"))
    _write_summary(results, os.path.join(out_dir, "summary.csv"))
    return results


def _run_cell(dataset, cell):
    """One sweep cell: (metric, value, params) of a tuned fit on the noisy
    training rows, scored on the test rows."""
    plan, noisy, method, tree, tune_fraction, tune_seed, model_seed = cell
    train = dataset.subset(plan.train_indices).with_labels(noisy)
    test = dataset.subset(plan.test_indices)
    model, used = fit_tuned(train, method, tree, tune_fraction, tune_seed, model_seed)
    metric_name, value = task_metric(predict_proba(model, test), test)
    params = (f"family={used.loss.family};r={used.loss.r};q={used.loss.q};"
              f"lr={used.learning_rate};rounds={used.n_rounds}")
    return metric_name, value, params


def run_ablation(cfg: ExperimentConfig, out_dir: str, dataset: TabularDataset, dataset_name: str):
    """``run_sweep`` of three variants of ``cfg``'s rfl method, whatever
    ``cfg.methods`` lists, with everything else fixed: the full focal robust
    loss, its r=0 degeneration, and its q->0 degeneration.
    """
    base = cfg.resolve_method("rfl")
    variants = (replace(base, name="rfl_full"),
                replace(base, name="rfl_r0", grid_r=(0.0,)),
                replace(base, name="rfl_q0", grid_q=(Q_ZERO,)))
    return run_sweep(replace(cfg, methods=tuple(v.name for v in variants),
                             method_specs={v.name: v for v in variants}),
                     out_dir, dataset, dataset_name)


# results.csv's columns, SweepRow's fields, with the type read_results parses each as
RESULT_COLUMNS = {"dataset": str, "method": str, "gamma": float, "repeat": int,
                  "metric": str, "value": float, "params": str}


def _write_results(rows, path):
    write_csv(path, list(RESULT_COLUMNS), [[getattr(r, name) for r in rows]
                                           for name in RESULT_COLUMNS])


def _write_summary(rows, path):
    cells = {}
    for r in rows:
        cells.setdefault((r.dataset, r.method, r.gamma, r.metric), []).append(r.value)
    keys = sorted(cells)
    write_csv(path, ["dataset", "method", "gamma", "metric", "mean_value"],
              [*([key[i] for key in keys] for i in range(4)),
               [float(np.mean(cells[key])) for key in keys]])


def read_results(path):
    """The rows of a ``results.csv``. A cell that does not parse raises
    ``ValueError`` naming the file, its line and its column."""
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        absent = [name for name in RESULT_COLUMNS if name not in (reader.fieldnames or ())]
        if absent:
            raise ValueError(f"{path} lacks the column(s) {', '.join(map(repr, absent))}")
        for rec in reader:
            cells = {}
            for name, parse in RESULT_COLUMNS.items():
                try:
                    cells[name] = parse(rec[name])
                except (TypeError, ValueError):  # TypeError: a short row's missing cell
                    raise ValueError(f"{path}: line {reader.line_num}, column {name!r}: "
                                     f"cannot read {rec[name]!r} as {parse.__name__}") from None
            rows.append(SweepRow(**cells))
    return rows
