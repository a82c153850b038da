"""Newton boosting loop: accumulate learning-rate-scaled trees on raw scores,
one tree per score column per round (one column for binary, one per class in
one-vs-all mode), probabilities via sigmoid.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from typing import Optional

import numpy as np

from .data import TabularDataset, check_unique
from .losses import LossSpec, grad_hess, loss_value, make_phat, sigmoid
from .pool import fork_pool
from .tree import (NUMBER, ModelFormatError, Tree, TreeConfig, grow_tree, presort,
                   require_fields)

MODEL_FORMAT_VERSION = 2
# the BoosterConfig fields that model.json stores under "booster", with their JSON types
BOOSTER_KEYS = {"n_rounds": (int,), "seed": (int,), "subsample": NUMBER,
                "early_stopping_rounds": (int, type(None))}
# the fields of model.json with their JSON types; the records are checked on their own
MODEL_FIELDS = {"format": (str,), "version": (int,), "n_classes": (int,),
                "feature_names": (list,), "class_names": (list,), "learning_rate": NUMBER,
                "loss": (), "tree_config": (), "booster": (), "trees": (list,)}


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


def _column_loss(spec: LossSpec, yk, zk):
    """One score column's mean loss on its 0/1 targets ``yk`` at scores ``zk``."""
    return np.mean(loss_value(spec, make_phat(yk, sigmoid(zk))))


def _mean_loss(spec: LossSpec, targets, z) -> float:
    """Mean over score columns of each column's mean loss on its 0/1 targets."""
    return float(np.mean([_column_loss(spec, yk, z[k]) for k, yk in enumerate(targets)]))


def _sample_rows(rng, n, subsample):
    if subsample >= 1.0:
        return np.arange(n)
    k = max(1, int(round(subsample * n)))
    return np.sort(rng.choice(n, size=k, replace=False))


def _grow_column(state, task):
    """Score column k's tree for the round's ``rows``, grown from the column's
    scores ``zk``; the column's scores after the tree, and its mean training
    loss there. The tree is evaluated only on the rows outside ``rows``:
    growing it gives its output on ``rows``."""
    columns, order, targets, config = state
    k, zk, rows = task
    g, h = grad_hess(config.loss, targets[k], zk)
    if not (np.all(np.isfinite(g)) and np.all(np.isfinite(h))):
        raise AssertionError(
            f"non-finite gradient/Hessian from the loss layer in score column {k}")
    out = np.empty(zk.size)
    tree = grow_tree(columns, order, rows, g, h, config.tree, out)
    if rows.size < zk.size:  # a subsampled round
        outside = np.ones(zk.size, dtype=bool)
        outside[rows] = False
        out[outside] = tree.predict(columns[:, outside])
    zk = zk + config.learning_rate * out
    return tree, zk, _column_loss(config.loss, targets[k], zk)


def fit(data: TabularDataset, config: BoosterConfig,
        valid: Optional[TabularDataset] = None) -> BoosterModel:
    """Train a boosted ensemble on n_cols score columns: one column with
    targets [y] for binary, one one-vs-all column per class otherwise.
    A round builds every column's tree from the scores frozen at its start.
    A column's task returns its tree, the column's new training scores and
    its mean training loss: growing the tree gives its output on the
    round's rows, so the tree is evaluated only on the rows a subsampled
    round left out. This process draws each round's rows, stores the scores,
    averages the losses, and scores ``valid`` for early stopping.

    A multi-class fit grows each round's class trees on one forked worker
    per usable core, never more than there are classes, started once for
    the fit; on one core, and inside a sweep's worker, it grows them in this
    process. No setting changes this, and the model is the same either way.
    ``valid`` is matched to the training data's features and classes by
    name (``align``).
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
    if config.early_stopping_rounds is not None and valid is None:
        raise BoosterConfigError("early_stopping_rounds needs a validation set (valid)")

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
    z = np.zeros((len(targets), n))  # one contiguous row of scores per column
    if valid is not None:
        valid = align(model, valid)
        valid_targets = column_targets(valid.labels)
        z_valid = np.zeros((len(targets), valid.n_samples))

    order = presort(data.columns, np.arange(n))  # every tree filters this one sort
    best_score = np.inf
    best_round = None
    # workers inherit the per-fit state; a task sends a column's scores and the rows
    with fork_pool((data.columns, order, targets, config), len(targets)) as run:
        for t in range(config.n_rounds):
            rows = _sample_rows(rng, n, config.subsample)
            grown = run(_grow_column, [(k, z[k], rows) for k in range(len(targets))])
            for k, (tree, zk, _) in enumerate(grown):
                model.trees[k].append(tree)
                z[k] = zk
                if valid is not None:
                    z_valid[k] = z_valid[k] + config.learning_rate * tree.predict(valid.columns)
            model.train_loss_history.append(float(np.mean([loss for _, _, loss in grown])))

            if valid is not None:
                v = _mean_loss(config.loss, valid_targets, z_valid)
                model.valid_loss_history.append(v)
                if v < best_score:
                    best_score = v
                    best_round = t
                if (config.early_stopping_rounds is not None and best_round is not None
                        and t - best_round >= config.early_stopping_rounds):
                    break

    if config.early_stopping_rounds is not None and best_round is not None:
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


def staged_raw(model: BoosterModel, data: TabularDataset, stages):
    """The raw scores, lr * sum of tree outputs, of the model cut to each of
    the ascending round counts ``stages`` in turn; each tree is evaluated
    once. Binary models give shape (n,), multi-class (n, n_classes). Every
    stage yields the same array, which the next stage adds to.
    """
    if data.n_features != len(model.feature_names):
        raise SchemaMismatchError(
            f"model expects {len(model.feature_names)} features, got {data.n_features}")
    z = np.zeros((data.n_samples, len(model.trees)))
    done = 0
    for rounds in stages:
        for k, lst in enumerate(model.trees):
            for tree in lst[done:rounds]:
                z[:, k] = z[:, k] + model.config.learning_rate * tree.predict(data.columns)
        done = rounds
        yield z[:, 0] if model.is_binary else z


def staged_proba(model: BoosterModel, data: TabularDataset, stages):
    """Class probabilities, shape (n, n_classes), of the model cut to each
    of the ascending round counts ``stages`` in turn (see ``staged_raw``).

    Binary: sigmoid of the raw score. Multi-class: per-class sigmoids
    normalized to sum to 1 (argmax is unchanged by the normalization).
    """
    for z in staged_raw(model, data, stages):
        if model.is_binary:
            p1 = sigmoid(z)
            yield np.column_stack([1.0 - p1, p1])
        else:
            s = sigmoid(z)
            yield s / s.sum(axis=1, keepdims=True)


def predict_raw(model: BoosterModel, data: TabularDataset):
    """Accumulated raw scores of every tree (see ``staged_raw``)."""
    (z,) = staged_raw(model, data, [len(model.trees[0])])
    return z


def predict_proba(model: BoosterModel, data: TabularDataset):
    """Class probabilities of every tree (see ``staged_proba``)."""
    (p,) = staged_proba(model, data, [len(model.trees[0])])
    return p


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
    return json.dumps(doc, indent=1, allow_nan=False)


def _non_finite(literal):
    raise ModelFormatError(f"the model document holds the non-finite number {literal}")


def deserialize(text: str) -> BoosterModel:
    try:
        # json accepts NaN, Infinity and -Infinity, which no model holds
        doc = json.loads(text, parse_constant=_non_finite)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"malformed model document: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != "robustboost-model":
        raise ModelFormatError("not a robustboost model document")
    if doc.get("version") != MODEL_FORMAT_VERSION:
        raise ModelFormatError(
            f"unsupported model version {doc.get('version')!r}, "
            f"expected {MODEL_FORMAT_VERSION}")
    require_fields(doc, MODEL_FIELDS, "the model document")
    check_unique(doc["feature_names"], ModelFormatError, "the model document repeats feature name")
    check_unique(doc["class_names"], ModelFormatError, "the model document repeats class name")
    require_fields(doc["booster"], BOOSTER_KEYS, "the model's booster record")
    for key, cls in (("loss", LossSpec), ("tree_config", TreeConfig)):
        # every field of the dataclass, typed as its default (a float field takes any number)
        require_fields(doc[key], {f.name: NUMBER if type(f.default) is float else (type(f.default),)
                                  for f in fields(cls)}, f"the model's {key} record")
    if not all(type(lst) is list for lst in doc["trees"]):
        raise ModelFormatError("the model document's trees are not lists of tree records")
    config = BoosterConfig(
        loss=LossSpec(**doc["loss"]),
        tree=TreeConfig(**doc["tree_config"]),
        learning_rate=doc["learning_rate"],
        n_classes=doc["n_classes"],
        **doc["booster"],
    )
    n_lists = 1 if config.n_classes == 2 else config.n_classes
    if len(doc["trees"]) != n_lists or len(doc["class_names"]) != config.n_classes:
        raise ModelFormatError(
            f"a {config.n_classes}-class model needs {n_lists} tree list(s) and "
            f"{config.n_classes} class names, the document has {len(doc['trees'])} "
            f"and {len(doc['class_names'])}")
    counts = [len(lst) for lst in doc["trees"]]
    if len(set(counts)) != 1 or not 1 <= counts[0] <= config.n_rounds:
        raise ModelFormatError(f"the document's tree lists hold {counts} trees; each must hold "
                               f"the same number, from 1 to n_rounds {config.n_rounds}")
    trees = [[Tree.from_dict(record) for record in lst] for lst in doc["trees"]]
    for tree in (t for lst in trees for t in lst):
        tree.check(len(doc["feature_names"]))
    return BoosterModel(trees=trees, config=config, feature_names=doc["feature_names"],
                        class_names=doc["class_names"])
