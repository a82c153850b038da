"""Newton boosting loop: accumulate learning-rate-scaled trees on raw scores,
one tree per score column per round (one column for binary, one per class in
one-vs-all mode), probabilities via sigmoid.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .data import TabularDataset
from .losses import LossSpec, grad_hess, loss_value, make_phat, sigmoid
from .tree import ModelFormatError, Tree, TreeConfig, grow_tree, require_fields

MODEL_FORMAT_VERSION = 2
# the BoosterConfig fields that model.json stores under "booster"
BOOSTER_KEYS = ("n_rounds", "seed", "subsample", "early_stopping_rounds")
# the fields deserialize reads after the format tag and version
MODEL_FIELDS = ("n_classes", "feature_names", "class_names", "learning_rate", "loss",
                "tree_config", "booster", "trees")


class BoosterConfigError(ValueError):
    pass


class DataError(ValueError):
    pass


class SchemaMismatchError(ValueError):
    pass


@dataclass(frozen=True)
class BoosterConfig:
    loss: LossSpec = field(default_factory=LossSpec)
    tree: TreeConfig = field(default_factory=TreeConfig)
    learning_rate: float = 0.1
    n_rounds: int = 100
    n_classes: int = 2
    seed: int = 0
    early_stopping_rounds: Optional[int] = None
    subsample: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.learning_rate <= 1.0:
            raise BoosterConfigError(f"learning_rate must be in (0, 1], got {self.learning_rate}")
        if self.n_rounds < 1:
            raise BoosterConfigError("n_rounds must be >= 1")
        if self.n_classes < 2:
            raise BoosterConfigError("n_classes must be >= 2")
        if not 0.0 < self.subsample <= 1.0:
            raise BoosterConfigError(f"subsample must be in (0, 1], got {self.subsample}")
        if self.early_stopping_rounds is not None and self.early_stopping_rounds < 1:
            raise BoosterConfigError("early_stopping_rounds must be >= 1")


@dataclass
class BoosterModel:
    trees: list  # one tree list per score column: 1 for binary, n_classes otherwise
    config: BoosterConfig
    feature_names: list  # the training data's, in column order
    class_names: list  # the training data's label tokens, in class-index order
    train_loss_history: list = field(default_factory=list)
    valid_loss_history: list = field(default_factory=list)
    best_round: Optional[int] = None

    @property
    def is_binary(self) -> bool:
        return len(self.trees) == 1


def _mean_loss(spec: LossSpec, targets, z) -> float:
    """Mean over score columns of each column's mean loss on its 0/1 targets."""
    means = []
    for k, yk in enumerate(targets):
        phat = np.clip(make_phat(yk, sigmoid(z[:, k])), 1e-15, 1.0 - 1e-15)
        means.append(np.mean(loss_value(spec, phat)))
    return float(np.mean(means))


def _sample_rows(rng, n, subsample):
    if subsample >= 1.0:
        return np.arange(n)
    k = max(1, int(round(subsample * n)))
    return np.sort(rng.choice(n, size=k, replace=False))


def fit(data: TabularDataset, config: BoosterConfig,
        valid: Optional[TabularDataset] = None) -> BoosterModel:
    """Train a boosted ensemble on an (n, n_cols) score array: one column
    with targets [y] for binary, one one-vs-all column per class otherwise.
    A round builds every column's tree from the scores frozen at its start.
    """
    y = np.asarray(data.labels)
    if data.n_samples == 0:
        raise DataError("empty dataset")
    # single-sample fits are allowed (degenerate but well-defined Newton step)
    if data.n_samples > 1 and np.unique(y).size < 2:
        raise DataError("need samples from at least 2 classes")
    if y.min() < 0 or y.max() >= config.n_classes:
        raise DataError(f"labels must lie in [0, {config.n_classes})")
    if data.n_classes != config.n_classes:
        raise DataError(f"the data names {data.n_classes} classes, "
                        f"the config has n_classes = {config.n_classes}")

    def column_targets(labels):
        if config.n_classes == 2:
            return [labels]
        return [(labels == k).astype(np.int64) for k in range(config.n_classes)]

    rng = np.random.default_rng(config.seed)
    n = data.n_samples
    targets = column_targets(y)
    model = BoosterModel(trees=[[] for _ in targets], config=config,
                         feature_names=list(data.feature_names),
                         class_names=list(data.class_names))
    z = np.zeros((n, len(targets)))
    if valid is not None:
        valid_targets = column_targets(np.asarray(valid.labels))
        z_valid = np.zeros((valid.n_samples, len(targets)))

    best_score = np.inf
    best_round = None
    for t in range(config.n_rounds):
        rows = _sample_rows(rng, n, config.subsample)
        new_trees = []
        for k, yk in enumerate(targets):
            g, h = grad_hess(config.loss, yk, z[:, k])
            if not (np.all(np.isfinite(g)) and np.all(np.isfinite(h))):
                raise AssertionError("non-finite gradient/Hessian from the loss layer")
            new_trees.append(grow_tree(data.columns, rows, g, h, config.tree))
        for k, tree in enumerate(new_trees):
            model.trees[k].append(tree)
            z[:, k] = z[:, k] + config.learning_rate * tree.predict(data.columns)
            if valid is not None:
                z_valid[:, k] = z_valid[:, k] + config.learning_rate * tree.predict(valid.columns)
        model.train_loss_history.append(_mean_loss(config.loss, targets, z))

        if valid is not None:
            v = _mean_loss(config.loss, valid_targets, z_valid)
            model.valid_loss_history.append(v)
            if v < best_score:
                best_score = v
                best_round = t
            if (config.early_stopping_rounds is not None and best_round is not None
                    and t - best_round >= config.early_stopping_rounds):
                break

    if valid is not None and config.early_stopping_rounds is not None and best_round is not None:
        model.trees = [lst[: best_round + 1] for lst in model.trees]
        model.best_round = best_round
    return model


def align(model: BoosterModel, data: TabularDataset) -> TabularDataset:
    """``data`` with its columns matched to the model's feature names, in
    any order, and its labels encoded through the model's class names."""
    if sorted(data.feature_names) != sorted(model.feature_names):
        missing = sorted(set(model.feature_names) - set(data.feature_names))
        extra = sorted(set(data.feature_names) - set(model.feature_names))
        raise SchemaMismatchError(f"data columns do not match the model's features: "
                                  f"missing {missing}, extra {extra}")
    unseen = sorted(set(data.class_names) - set(model.class_names))
    if unseen:
        raise SchemaMismatchError(
            f"labels {unseen} are not among the model's classes {model.class_names}")
    cols = [data.feature_names.index(name) for name in model.feature_names]
    codes = np.array([model.class_names.index(c) for c in data.class_names], dtype=np.int64)
    return TabularDataset(data.columns[cols], codes[data.labels], list(model.feature_names),
                          list(model.class_names))


def predict_raw(model: BoosterModel, data: TabularDataset):
    """Accumulated raw scores: lr * sum of tree outputs.

    Binary models return shape (n,); multi-class returns (n, n_classes).
    """
    if data.n_features != len(model.feature_names):
        raise SchemaMismatchError(
            f"model expects {len(model.feature_names)} features, got {data.n_features}")
    z = np.zeros((data.n_samples, len(model.trees)))
    for k, lst in enumerate(model.trees):
        for tree in lst:
            z[:, k] = z[:, k] + model.config.learning_rate * tree.predict(data.columns)
    return z[:, 0] if model.is_binary else z


def predict_proba(model: BoosterModel, data: TabularDataset):
    """Class probabilities, shape (n, n_classes).

    Binary: sigmoid of the raw score. Multi-class: per-class sigmoids
    normalized to sum to 1 (argmax is unchanged by the normalization).
    """
    z = predict_raw(model, data)
    if model.is_binary:
        p1 = sigmoid(z)
        return np.column_stack([1.0 - p1, p1])
    s = sigmoid(z)
    return s / s.sum(axis=1, keepdims=True)


def predict_label(model: BoosterModel, data: TabularDataset):
    return np.argmax(predict_proba(model, data), axis=1)


def serialize(model: BoosterModel) -> str:
    """Versioned JSON document; round-trips raw predictions bitwise."""
    doc = {
        "format": "robustboost-model",
        "version": MODEL_FORMAT_VERSION,
        "n_classes": model.config.n_classes,
        "feature_names": model.feature_names,
        "class_names": model.class_names,
        "learning_rate": model.config.learning_rate,
        "loss": asdict(model.config.loss),
        "tree_config": asdict(model.config.tree),
        "booster": {key: getattr(model.config, key) for key in BOOSTER_KEYS},
        "trees": [[t.to_dict() for t in lst] for lst in model.trees],
    }
    return json.dumps(doc, indent=1)


def deserialize(text: str) -> BoosterModel:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"malformed model document: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != "robustboost-model":
        raise ModelFormatError("not a robustboost model document")
    if doc.get("version") != MODEL_FORMAT_VERSION:
        raise ModelFormatError(
            f"unsupported model version {doc.get('version')!r}, "
            f"expected {MODEL_FORMAT_VERSION}")
    require_fields(doc, MODEL_FIELDS, "the model document")
    require_fields(doc["booster"], BOOSTER_KEYS, "the model's booster record")
    config = BoosterConfig(
        loss=LossSpec(**doc["loss"]),
        tree=TreeConfig(**doc["tree_config"]),
        learning_rate=doc["learning_rate"],
        n_classes=doc["n_classes"],
        **{key: doc["booster"][key] for key in BOOSTER_KEYS},
    )
    n_lists = 1 if config.n_classes == 2 else config.n_classes
    if len(doc["trees"]) != n_lists or len(doc["class_names"]) != config.n_classes:
        raise ModelFormatError(
            f"a {config.n_classes}-class model needs {n_lists} tree list(s) and "
            f"{config.n_classes} class names, the document has {len(doc['trees'])} "
            f"and {len(doc['class_names'])}")
    trees = [[Tree.from_dict(record) for record in lst] for lst in doc["trees"]]
    for tree in (t for lst in trees for t in lst):
        tree.check(len(doc["feature_names"]))
    return BoosterModel(trees=trees, config=config, feature_names=doc["feature_names"],
                        class_names=doc["class_names"])
