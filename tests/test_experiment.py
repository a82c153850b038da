import concurrent.futures
import itertools
import multiprocessing
import os
import re
import time
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustboost import experiment, synthetic
from robustboost.booster import BoosterConfig, fit, predict_proba, serialize
from robustboost.data import SplitError, TabularDataset, from_arrays, train_test_split
from robustboost.experiment import (TAG_MODEL, ExperimentConfig, MethodSpec, derive_seed,
                                   fit_tuned, run_sweep, task_metric)
from robustboost.losses import FAMILIES, loss_value
from robustboost.metrics import MetricError
from robustboost.tree import Tree, TreeConfig

from pools import record_pools

TUNED_CCE = MethodSpec(name="cce", family="cce", grid_lr=(0.1, 0.3), grid_rounds=(3,))


def singleton_class_dataset():
    """Three classes; the third has one sample, too few to stratify."""
    rng = np.random.default_rng(0)
    y = np.array([0] * 20 + [1] * 19 + [2])
    X = rng.normal(size=(y.size, 2)) + y[:, None]
    return from_arrays(X, y, class_names=["a", "b", "c"])


def recording_split(monkeypatch, stratified_error=None):
    calls, real = [], experiment.train_test_split

    def split(dataset, fraction, seed, stratified=True):
        calls.append(stratified)
        if stratified and stratified_error is not None:
            raise stratified_error
        return real(dataset, fraction, seed=seed, stratified=stratified)

    monkeypatch.setattr(experiment, "train_test_split", split)
    return calls


def test_fit_tuned_falls_back_to_unstratified_split(monkeypatch):
    calls = recording_split(monkeypatch)
    model, cfg = fit_tuned(singleton_class_dataset(), TUNED_CCE, TreeConfig(max_leaves=4),
                           tune_fraction=0.75, tune_seed=1, model_seed=2)
    assert calls == [True, False]
    assert len(model.trees) == 3 and cfg.learning_rate in (0.1, 0.3)


def test_fit_tuned_does_not_swallow_other_errors(monkeypatch):
    recording_split(monkeypatch, stratified_error=RuntimeError("boom"))
    with pytest.raises(RuntimeError, match="boom"):
        fit_tuned(singleton_class_dataset(), TUNED_CCE, TreeConfig(),
                  tune_fraction=0.75, tune_seed=1, model_seed=2)


@pytest.mark.parametrize("family", FAMILIES)
def test_candidates_tune_only_the_parameters_a_family_reads(family):
    grids = dict(grid_r=(0.5, 2.0), grid_q=(0.3, 0.7), grid_lr=(0.1, 0.2), grid_rounds=(3,))
    grid = MethodSpec(name=family, family=family, **grids).candidates()
    assert {spec.r for spec, _, _ in grid} == ({0.5, 2.0} if family in ("fl", "rfl") else {0.0})
    assert {spec.q for spec, _, _ in grid} == ({0.3, 0.7} if family in ("gce", "rfl") else {0.5})
    # no two candidates fit the same loss at the same schedule
    u = np.linspace(0.01, 0.99, 99)
    assert len({(loss_value(spec, u).tobytes(), lr, rounds) for spec, lr, rounds in grid}) \
        == len(grid)
    # a grid the family does not read is still checked
    for bad in (dict(grid_r=(-1.0,)), dict(grid_q=())):
        with pytest.raises(ValueError):
            MethodSpec(name=family, family=family, **{**grids, **bad})


def test_resolve_method_takes_a_spec_named_apart_from_its_family():
    spec = MethodSpec(name="focal", family="rfl", grid_r=(1.0,), grid_q=(0.5,))
    cfg = ExperimentConfig(methods=("focal", "cce"), method_specs={"focal": spec})
    assert cfg.resolve_method("focal") is spec
    assert cfg.resolve_method("cce") == MethodSpec(name="cce", family="cce")


@pytest.mark.parametrize("threads", [0, -1, 2])
def test_experiment_config_rejects_non_positive_threads(threads):
    # a leftover field that the benchmark's next change deletes: only threads=1 constructs
    with pytest.raises(ValueError, match="threads"):
        ExperimentConfig(threads=threads)
    assert ExperimentConfig(threads=1).threads == 1


@pytest.mark.parametrize("fields,named", [
    (dict(noise_levels=(0.0, 0.2, 0.0)), "noise_levels repeats 0.0"),
    (dict(methods=("rfl", "cce", "rfl")), "methods repeats 'rfl'"),
])
def test_experiment_config_rejects_repeated_values(fields, named):
    with pytest.raises(ValueError, match=re.escape(named)):
        ExperimentConfig(**fields)


@pytest.mark.parametrize("fields", [dict(grid_lr=()), dict(grid_lr=(1.5,)),
                                    dict(grid_rounds=(0,)), dict(grid_q=(0.0,))])
def test_method_spec_rejects_invalid_grids(fields):
    with pytest.raises(ValueError):
        MethodSpec(name="rfl", family="rfl", **fields)


@pytest.mark.parametrize("name", ["grid_r", "grid_q", "grid_lr", "grid_rounds"])
def test_method_spec_rejects_repeated_grid_values(name):
    grid = {"grid_r": (1.0, 2.0, 1.0), "grid_q": (0.5, 0.7, 0.5),
            "grid_lr": (0.1, 0.1), "grid_rounds": (3, 5, 3)}[name]
    with pytest.raises(ValueError, match=re.escape(f"method 'rfl': {name} repeats {grid[0]!r}")):
        MethodSpec(name="rfl", family="rfl", **{name: grid})


def exhaustive_fit_tuned(train, method, tree, tune_fraction, tune_seed, model_seed):
    """fit_tuned as one fit per candidate: the reference for the staged search."""
    candidates = method.candidates()
    if len(candidates) > 1:
        try:
            plan = train_test_split(train, tune_fraction, seed=tune_seed, stratified=True)
        except SplitError:
            plan = train_test_split(train, tune_fraction, seed=tune_seed, stratified=False)
        sub_train = train.subset(plan.train_indices)
        sub_valid = train.subset(plan.test_indices)
        best = None
        for i, (spec, lr, rounds) in enumerate(candidates):
            cfg = BoosterConfig(loss=spec, tree=tree, learning_rate=lr,
                                n_rounds=rounds, n_classes=train.n_classes, seed=model_seed)
            model = fit(sub_train, cfg)
            score = task_metric(predict_proba(model, sub_valid), sub_valid)[1]
            if best is None or score > best[0]:
                best = (score, i)
        spec, lr, rounds = candidates[best[1]]
    else:
        spec, lr, rounds = candidates[0]
    cfg = BoosterConfig(loss=spec, tree=tree, learning_rate=lr,
                        n_rounds=rounds, n_classes=train.n_classes, seed=model_seed)
    return fit(train, cfg), cfg


@settings(max_examples=20, deadline=None)
@given(n_classes=st.sampled_from([2, 3]), seed=st.integers(0, 2**16),
       family=st.sampled_from(["cce", "rfl", "gce"]),
       grid_r=st.sampled_from([(1.0,), (0.5, 2.0)]),
       grid_lr=st.lists(st.sampled_from([0.1, 0.3, 0.8]), min_size=1, max_size=2, unique=True),
       grid_rounds=st.lists(st.integers(1, 6), min_size=1, max_size=4, unique=True))
def test_staged_tuning_matches_one_fit_per_candidate(n_classes, seed, family, grid_r, grid_lr,
                                                     grid_rounds):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(80, 3))
    y = (X[:, 0] + rng.normal(scale=0.7, size=80) > 0).astype(int) + (
        X[:, 1] > 0.5 if n_classes == 3 else 0)
    X[rng.random(X.shape) < 0.05] = np.nan
    train = from_arrays(X, y, class_names=[str(k) for k in range(n_classes)])
    method = MethodSpec(name=family, family=family, grid_r=grid_r, grid_q=(0.5,),
                        grid_lr=tuple(grid_lr), grid_rounds=tuple(grid_rounds))
    args = (train, method, TreeConfig(max_leaves=4), 0.75, seed + 1, seed + 2)
    model, cfg = fit_tuned(*args)
    ref_model, ref_cfg = exhaustive_fit_tuned(*args)
    assert cfg == ref_cfg
    assert serialize(model) == serialize(ref_model)


def truncating_fit_tuned(train, method, tree, tune_fraction, tune_seed, model_seed):
    """fit_tuned scoring each candidate, in ``candidates()`` order, with
    ``predict_proba`` of its group's longest fit cut to its ``rounds``: the
    reference for the scores built up one round at a time."""
    candidates = method.candidates()
    plan = train_test_split(train, tune_fraction, seed=tune_seed, stratified=True)
    sub_train = train.subset(plan.train_indices)
    sub_valid = train.subset(plan.test_indices)
    best = None
    for (spec, lr), group in itertools.groupby(enumerate(candidates), key=lambda c: c[1][:2]):
        group = list(group)
        model = fit(sub_train, BoosterConfig(
            loss=spec, tree=tree, learning_rate=lr, n_rounds=max(c[2] for _, c in group),
            n_classes=train.n_classes, seed=model_seed))
        for i, (_, _, rounds) in group:
            cut = replace(model, trees=[lst[:rounds] for lst in model.trees])
            score = task_metric(predict_proba(cut, sub_valid), sub_valid)[1]
            if best is None or score > best[0]:
                best = (score, i)
    spec, lr, rounds = candidates[best[1]]
    cfg = BoosterConfig(loss=spec, tree=tree, learning_rate=lr,
                        n_rounds=rounds, n_classes=train.n_classes, seed=model_seed)
    return fit(train, cfg), cfg


@settings(max_examples=20, deadline=None)
@given(n_classes=st.sampled_from([2, 3]), seed=st.integers(0, 2**16),
       family=st.sampled_from(["cce", "rfl"]),
       grid_lr=st.sampled_from([(0.3,), (0.8, 0.1)]),
       grid_rounds=st.sampled_from([(9, 3, 5), (6, 8), (2, 7, 1), (4,), (8, 6, 7, 2)]))
def test_round_by_round_scores_match_predicting_each_cut_model(n_classes, seed, family, grid_lr,
                                                               grid_rounds):
    rng = np.random.default_rng(seed)
    X = np.round(rng.normal(size=(90, 3)), 1)
    y = (X[:, 0] + rng.normal(scale=0.7, size=90) > 0).astype(int) + (
        X[:, 1] > 0.5 if n_classes == 3 else 0)
    X[rng.random(X.shape) < 0.1] = np.nan
    train = from_arrays(X, y, class_names=[str(k) for k in range(n_classes)])
    method = MethodSpec(name=family, family=family, grid_r=(0.5, 2.0), grid_q=(0.5,),
                        grid_lr=grid_lr, grid_rounds=grid_rounds)
    args = (train, method, TreeConfig(max_leaves=4), 0.75, seed + 1, seed + 2)
    model, cfg = fit_tuned(*args)
    ref_model, ref_cfg = truncating_fit_tuned(*args)
    assert (cfg.loss, cfg.learning_rate, cfg.n_rounds) == \
        (ref_cfg.loss, ref_cfg.learning_rate, ref_cfg.n_rounds)
    assert serialize(model) == serialize(ref_model)


def tuned_pick(**grids):
    _, cfg = fit_tuned(synthetic.make("imbalanced", seed=7),
                       MethodSpec(name="mae", family="mae", **grids),
                       TreeConfig(max_leaves=8), tune_fraction=0.75,
                       tune_seed=1, model_seed=2)
    return cfg.learning_rate, cfg.n_rounds


def test_tied_candidates_pick_the_first_in_grid_order(monkeypatch):
    scores, real = [], experiment.task_metric

    def recording_metric(proba, data):
        name, value = real(proba, data)
        scores.append(value)
        return name, value

    monkeypatch.setattr(experiment, "task_metric", recording_metric)
    # mae learns nothing here, so every candidate scores the validation prevalence
    assert tuned_pick(grid_lr=(0.1,), grid_rounds=(8, 4)) == (0.1, 8)
    assert len(scores) == 2 and len(set(scores)) == 1
    assert tuned_pick(grid_lr=(0.1, 0.3), grid_rounds=(4, 8)) == (0.1, 4)
    assert len(scores) == 6 and len(set(scores)) == 1


def test_one_tuning_fit_per_loss_and_learning_rate(monkeypatch):
    calls, alive = [], []

    def counting_fit(data, config):
        # the previous tuning model is dropped before the next fit starts
        assert all(ref() is None for ref in alive)
        calls.append((data.n_samples, config.n_rounds))
        model = fit(data, config)
        alive.append(weakref.ref(model))
        return model

    monkeypatch.setattr(experiment, "fit", counting_fit)
    train = synthetic.make("imbalanced", seed=7)
    method = MethodSpec(name="rfl", family="rfl", grid_r=(0.5, 2.0), grid_q=(0.5,),
                        grid_lr=(0.1,), grid_rounds=(6, 8))
    model, cfg = fit_tuned(train, method, TreeConfig(max_leaves=8),
                           tune_fraction=0.75, tune_seed=1, model_seed=2)
    assert [rounds for _, rounds in calls] == [8, 8, cfg.n_rounds]
    assert calls[0][0] < train.n_samples and calls[2][0] == train.n_samples
    assert len(model.trees[0]) == cfg.n_rounds


@pytest.mark.parametrize("n_classes", [2, 3])
def test_fit_tuned_predicts_each_tuning_tree_once_on_the_tuning_rows(monkeypatch, n_classes):
    record_pools(monkeypatch, 1)  # every tree grows in this process, where the count is seen
    calls, real = [], Tree.predict

    def counted(self, columns):
        calls.append(columns.shape[1])
        return real(self, columns)

    monkeypatch.setattr(Tree, "predict", counted)
    train = sweep_dataset(n_classes, seed=3)
    method = MethodSpec(name="rfl", family="rfl", grid_r=(0.5, 2.0), grid_q=(0.5,),
                        grid_lr=(0.1, 0.3), grid_rounds=(5, 2, 3))
    fit_tuned(train, method, TreeConfig(max_leaves=4), tune_fraction=0.75, tune_seed=1,
              model_seed=2)
    n_tuning = len(train_test_split(train, 0.75, seed=1, stratified=True).test_indices)
    n_cols = 1 if n_classes == 2 else n_classes
    # four (loss, lr) groups, each a 5-round fit
    assert calls == [n_tuning] * (4 * 5 * n_cols)


def per_cell_run_sweep(cfg, out_dir, dataset, dataset_name):
    """run_sweep as one split and one noise draw per (level, repeat, method)
    cell, keeping the first cell's flip log: the reference for the serial
    loop nest."""
    methods = [cfg.resolve_method(m) for m in cfg.methods]
    n_classes = dataset.n_classes
    seed = lambda *key: experiment.derive_seed(cfg.master_seed, *key)  # noqa: E731
    results, flip_logs = [], {}
    for gi, gamma in enumerate(cfg.noise_levels):
        for rep in range(cfg.repeats):
            for mi, method in enumerate(methods):
                plan = train_test_split(dataset, cfg.fraction, seed=seed(experiment.TAG_SPLIT, rep),
                                        stratified=cfg.stratified)
                train = dataset.subset(plan.train_indices)
                noisy, log = experiment._inject(train.labels, n_classes, gamma,
                                                seed(experiment.TAG_NOISE, gi, rep))
                global_log = [experiment.Flip(int(plan.train_indices[f.index]), f.old_label,
                                              f.new_label) for f in log]
                model, used = fit_tuned(
                    train.with_labels(noisy), method, cfg.tree, cfg.tune_fraction,
                    tune_seed=seed(experiment.TAG_TUNE, gi, rep, mi),
                    model_seed=seed(experiment.TAG_MODEL, gi, rep, mi))
                test = dataset.subset(plan.test_indices)
                metric_name, value = task_metric(predict_proba(model, test), test)
                params = (f"family={used.loss.family};r={used.loss.r};q={used.loss.q};"
                          f"lr={used.learning_rate};rounds={used.n_rounds}")
                results.append(experiment.SweepRow(dataset_name, method.name, gamma, rep,
                                                   metric_name, value, params))
                flip_logs.setdefault((gi, rep), (global_log, set(plan.test_indices.tolist())))
    results.sort(key=lambda r: (r.dataset, r.method, r.gamma, r.repeat))
    experiment._write_results(results, os.path.join(out_dir, "results.csv"))
    experiment._write_summary(results, os.path.join(out_dir, "summary.csv"))
    for (gi, rep), (log, test_idx) in sorted(flip_logs.items()):
        experiment.write_flip_log(log, os.path.join(out_dir, f"fliplog_g{gi}_r{rep}.csv"))
        assert not {f.index for f in log} & test_idx
    return results


def sweep_dataset(n_classes, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(60, 3))
    score = X[:, 0] + rng.normal(scale=0.7, size=60) + (X[:, 1] if n_classes == 3 else 0)
    # quantile cuts: imbalanced, but every class keeps enough rows to stratify
    y = np.searchsorted(np.quantile(score, [0.7] if n_classes == 2 else [0.55, 0.85]), score)
    X[rng.random(X.shape) < 0.05] = np.nan
    return from_arrays(X, y, class_names=[f"c{k}" for k in range(n_classes)])


def sweep_config(noise_levels, repeats, master_seed=0):
    specs = {"rfl": MethodSpec(name="rfl", family="rfl", grid_r=(0.5, 2.0), grid_q=(0.5,),
                               grid_lr=(0.3,), grid_rounds=(2, 3)),
             "cce": MethodSpec(name="cce", family="cce", grid_lr=(0.3,), grid_rounds=(3,))}
    return ExperimentConfig(noise_levels=noise_levels, repeats=repeats, methods=("rfl", "cce"),
                            method_specs=specs, tree=TreeConfig(max_leaves=4),
                            master_seed=master_seed)


def read_dir(path):
    return {p.name: p.read_bytes() for p in path.iterdir()}


@settings(max_examples=10, deadline=None)
@given(n_classes=st.sampled_from([2, 3]), seed=st.integers(0, 2**16),
       noisy_levels=st.lists(st.sampled_from([0.1, 0.2, 0.3, 0.4]), max_size=2, unique=True),
       zero_at=st.integers(0, 2), repeats=st.integers(1, 2))
def test_serial_sweep_writes_the_per_cell_files(tmp_path_factory, n_classes, seed, noisy_levels,
                                                zero_at, repeats):
    levels = list(noisy_levels)
    levels.insert(zero_at, 0.0)
    cfg = sweep_config(tuple(levels), repeats, master_seed=seed)
    data = sweep_dataset(n_classes, seed)
    out, ref = tmp_path_factory.mktemp("sweep"), tmp_path_factory.mktemp("ref")
    rows = run_sweep(cfg, str(out), dataset=data, dataset_name="d")
    ref_rows = per_cell_run_sweep(cfg, str(ref), data, "d")
    assert rows == ref_rows
    files = read_dir(out)
    assert len(files) == 2 + len(levels) * repeats
    assert files == read_dir(ref)


def test_sweep_splits_once_per_repeat_and_draws_noise_once_per_level(monkeypatch, tmp_path):
    data = sweep_dataset(2, seed=0)
    splits, draws = [], []
    real_split, real_inject = experiment.train_test_split, experiment._inject

    def split(dataset, fraction, seed, stratified=True):
        if dataset is data:  # not fit_tuned's split of the training rows
            splits.append(seed)
        return real_split(dataset, fraction, seed=seed, stratified=stratified)

    def inject(labels, n_classes, rate, seed):
        draws.append(seed)
        return real_inject(labels, n_classes, rate, seed)

    monkeypatch.setattr(experiment, "train_test_split", split)
    monkeypatch.setattr(experiment, "_inject", inject)
    rows = run_sweep(sweep_config((0.0, 0.2), repeats=2), str(tmp_path), dataset=data,
                     dataset_name="d")
    assert len(rows) == 8
    assert len(splits) == len(set(splits)) == 2
    assert len(draws) == len(set(draws)) == 4


@pytest.mark.parametrize("n_classes", [2, 3])
def test_sweep_files_do_not_depend_on_the_worker_count(monkeypatch, tmp_path, n_classes):
    cfg = sweep_config((0.0, 0.3), repeats=2, master_seed=n_classes)
    data = sweep_dataset(n_classes, seed=n_classes)
    pools, files = record_pools(monkeypatch, cores=1), {}
    for cores in (1, 2, 11):  # 8 cells
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cores: set(range(n)))
        run_sweep(cfg, str(tmp_path / str(cores)), dataset=data, dataset_name="d")
        files[cores] = read_dir(tmp_path / str(cores))
    assert pools == [2, 8]  # none for one core, never more workers than cells
    assert len(files[1]) == 2 + 4
    assert files[1] == files[2] == files[11]


def test_a_failing_cell_raises_in_the_caller_and_leaves_no_worker(monkeypatch, tmp_path):
    pools = record_pools(monkeypatch, cores=2)

    def failing_fit(data, config):
        raise MetricError(f"no fit on {data.n_samples} rows")

    monkeypatch.setattr(experiment, "fit", failing_fit)
    with pytest.raises(MetricError, match=r"^no fit on \d+ rows$"):
        run_sweep(sweep_config((0.0, 0.3), repeats=2), str(tmp_path),
                  dataset=sweep_dataset(2, seed=0), dataset_name="d")
    assert pools == [2]
    assert multiprocessing.active_children() == []


def test_the_first_failing_cell_in_cell_order_raises(monkeypatch, tmp_path):
    record_pools(monkeypatch, cores=2)
    real_fit, late = experiment.fit, tmp_path / "late_cell_failed"

    def fit(data, config):
        if config.seed == second:  # fail only after the last cell has failed
            deadline = time.monotonic() + 60
            while not late.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            raise MetricError("second cell")
        if config.seed == last:
            late.touch()
            raise MetricError("last cell")
        return real_fit(data, config)

    cfg = sweep_config((0.0, 0.3), repeats=2)  # cells run rep, level, method
    second = derive_seed(cfg.master_seed, TAG_MODEL, 0, 0, 1)
    last = derive_seed(cfg.master_seed, TAG_MODEL, 1, 1, 1)
    monkeypatch.setattr(experiment, "fit", fit)
    with pytest.raises(MetricError, match="^second cell$"):
        run_sweep(cfg, str(tmp_path / "out"), dataset=sweep_dataset(2, seed=0),
                  dataset_name="d")
    assert late.exists()
    assert multiprocessing.active_children() == []


def test_one_usable_core_starts_no_pool(monkeypatch, tmp_path):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was built")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    rows = run_sweep(sweep_config((0.0, 0.3), repeats=1), str(tmp_path),
                     dataset=sweep_dataset(2, seed=0), dataset_name="d")
    assert len(rows) == 4


def test_a_multiclass_sweep_builds_only_its_own_pool(monkeypatch, tmp_path):
    # record_pools raises if a fit in a sweep worker builds a pool for its class trees
    pools = record_pools(monkeypatch, cores=2)
    rows = run_sweep(sweep_config((0.0, 0.3), repeats=1), str(tmp_path),
                     dataset=sweep_dataset(3, seed=0), dataset_name="d")
    assert len(rows) == 4
    assert pools == [2]
    assert multiprocessing.active_children() == []


def test_workers_take_the_rows_from_the_dataset_they_inherit(monkeypatch, tmp_path):
    record_pools(monkeypatch, cores=2)

    def no_pickle(self):
        raise AssertionError("the dataset was pickled")

    monkeypatch.setattr(TabularDataset, "__reduce__", no_pickle, raising=False)
    rows = run_sweep(sweep_config((0.0, 0.3), repeats=1), str(tmp_path),
                     dataset=sweep_dataset(2, seed=0), dataset_name="d")
    assert len(rows) == 4
