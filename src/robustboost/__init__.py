"""Noise-robust second-order gradient boosting with a focal robust loss
layer, plus a label-noise benchmark harness.
"""

from .booster import (BoosterConfig, BoosterModel, deserialize, fit, loss_history,
                      predict_proba, predict_raw, serialize)
from .data import TabularDataset, from_arrays, load_csv, train_test_split
from .losses import LossSpec, check_necessary_condition, grad_hess, loss_d1_d2, loss_value
from .metrics import accuracy, aucpr, rank_methods
from .noise import NoiseSpec, inject_binary, inject_multiclass
from .tree import GainScenario, Tree, TreeConfig, decomposed_gain, grow_tree

__all__ = [
    "BoosterConfig", "BoosterModel", "GainScenario", "LossSpec", "NoiseSpec",
    "TabularDataset", "Tree", "TreeConfig", "accuracy", "decomposed_gain",
    "aucpr", "check_necessary_condition", "deserialize", "fit", "from_arrays",
    "grad_hess", "grow_tree", "inject_binary", "inject_multiclass", "load_csv",
    "loss_d1_d2", "loss_history", "loss_value", "predict_proba", "predict_raw",
    "rank_methods", "serialize", "train_test_split",
]

__version__ = "0.1.0"
