import numpy as np
import pytest

from robustboost import experiment
from robustboost.data import from_arrays
from robustboost.experiment import MethodSpec, default_method, fit_tuned
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


@pytest.mark.parametrize("fields", [dict(grid_lr=()), dict(grid_lr=(1.5,)),
                                    dict(grid_rounds=(0,)), dict(grid_q=(0.0,))])
def test_method_spec_rejects_invalid_grids(fields):
    with pytest.raises(ValueError):
        MethodSpec(name="rfl", family="rfl", **fields)
