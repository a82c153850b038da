import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustboost import experiment, synthetic
from robustboost.booster import BoosterConfig, fit, predict_proba, serialize
from robustboost.data import SplitError, from_arrays, train_test_split
from robustboost.experiment import (ExperimentConfig, MethodSpec, default_method, fit_tuned,
                                   task_metric)
from robustboost.tree import TreeConfig

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
                           n_classes=3, tune_fraction=0.75, tune_seed=1, model_seed=2)
    assert calls == [True, False]
    assert len(model.trees) == 3 and cfg.learning_rate in (0.1, 0.3)


def test_fit_tuned_does_not_swallow_other_errors(monkeypatch):
    recording_split(monkeypatch, stratified_error=RuntimeError("boom"))
    with pytest.raises(RuntimeError, match="boom"):
        fit_tuned(singleton_class_dataset(), TUNED_CCE, TreeConfig(), n_classes=3,
                  tune_fraction=0.75, tune_seed=1, model_seed=2)


def test_default_method_overrides_reach_only_used_grids():
    grids = dict(grid_r=(1.5,), grid_q=(0.9,), grid_lr=(0.2,), sce_alpha=5.0)
    cce, rfl = default_method("cce", **grids), default_method("rfl", **grids)
    assert (cce.grid_r, cce.grid_q) == (MethodSpec.grid_r, MethodSpec.grid_q)
    assert (rfl.grid_r, rfl.grid_q) == ((1.5,), (0.9,))
    assert cce.grid_lr == rfl.grid_lr == (0.2,) and cce.sce_alpha == rfl.sce_alpha == 5.0


@pytest.mark.parametrize("threads", [0, -1])
def test_experiment_config_rejects_non_positive_threads(threads):
    with pytest.raises(ValueError, match="threads"):
        ExperimentConfig(threads=threads)


@pytest.mark.parametrize("fields", [dict(grid_lr=()), dict(grid_lr=(1.5,)),
                                    dict(grid_rounds=(0,)), dict(grid_q=(0.0,))])
def test_method_spec_rejects_invalid_grids(fields):
    with pytest.raises(ValueError):
        MethodSpec(name="rfl", family="rfl", **fields)


def exhaustive_fit_tuned(train, method, tree, n_classes, tune_fraction, tune_seed, model_seed):
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
                                n_rounds=rounds, n_classes=n_classes, seed=model_seed)
            model = fit(sub_train, cfg)
            score = task_metric(predict_proba(model, sub_valid), sub_valid)[1]
            if best is None or score > best[0]:
                best = (score, i)
        spec, lr, rounds = candidates[best[1]]
    else:
        spec, lr, rounds = candidates[0]
    cfg = BoosterConfig(loss=spec, tree=tree, learning_rate=lr,
                        n_rounds=rounds, n_classes=n_classes, seed=model_seed)
    return fit(train, cfg), cfg


@settings(max_examples=20, deadline=None)
@given(n_classes=st.sampled_from([2, 3]), seed=st.integers(0, 2**16),
       family=st.sampled_from(["cce", "rfl", "gce"]),
       grid_r=st.sampled_from([(1.0,), (0.5, 2.0)]),
       grid_lr=st.lists(st.sampled_from([0.1, 0.3, 0.8]), min_size=1, max_size=2),
       grid_rounds=st.lists(st.integers(1, 6), min_size=1, max_size=4))
def test_staged_tuning_matches_one_fit_per_candidate(n_classes, seed, family, grid_r, grid_lr,
                                                     grid_rounds):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(80, 3))
    y = (X[:, 0] + rng.normal(scale=0.7, size=80) > 0).astype(int) + (
        X[:, 1] > 0.5 if n_classes == 3 else 0)
    X[rng.random(X.shape) < 0.05] = np.nan
    train = from_arrays(X, y, class_names=[str(k) for k in range(n_classes)])
    method = MethodSpec(name=family, family=family, grid_r=grid_r, grid_lr=tuple(grid_lr),
                        grid_rounds=tuple(grid_rounds))
    args = (train, method, TreeConfig(max_leaves=4), n_classes, 0.75, seed + 1, seed + 2)
    model, cfg = fit_tuned(*args)
    ref_model, ref_cfg = exhaustive_fit_tuned(*args)
    assert cfg == ref_cfg
    assert serialize(model) == serialize(ref_model)


def tuned_pick(**grids):
    _, cfg = fit_tuned(synthetic.make("imbalanced", seed=7), default_method("mae", **grids),
                       TreeConfig(max_leaves=8), n_classes=2, tune_fraction=0.75,
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
    method = default_method("rfl", grid_r=(0.5, 2.0), grid_q=(0.5,), grid_lr=(0.1,),
                            grid_rounds=(6, 8))
    model, cfg = fit_tuned(train, method, TreeConfig(max_leaves=8), n_classes=2,
                           tune_fraction=0.75, tune_seed=1, model_seed=2)
    assert [rounds for _, rounds in calls] == [8, 8, cfg.n_rounds]
    assert calls[0][0] < train.n_samples and calls[2][0] == train.n_samples
    assert len(model.trees[0]) == cfg.n_rounds
