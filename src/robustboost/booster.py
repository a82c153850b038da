"""Newton boosting loop: accumulate learning-rate-scaled trees on raw scores,
one tree per score column per round (one column for binary, one per class in
one-vs-all mode), probabilities via sigmoid.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .data import TabularDataset, check_unique
from .losses import LossSpec, grad_hess, loss_value, make_phat, sigmoid
from .pool import run_tasks
from .tree import (NUMBER, ModelFormatError, Tree, TreeConfig, grow_tree, presort,
                   require_fields)

MODEL_FORMAT_VERSION = 3
# the BoosterConfig fields that model.json stores under "booster", with their JSON types
BOOSTER_KEYS = {"n_rounds": (int,), "seed": (int,), "subsample": NUMBER}
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


@dataclass
class BoosterModel:
    trees: list  # one tree list per score column: 1 for binary, n_classes otherwise
    config: BoosterConfig
    feature_names: list  # the training data's, in column order
    class_names: list  # the training data's label tokens, in class-index order

    @property
    def is_binary(self) -> bool:
        return len(self.trees) == 1


def column_targets(labels, n_classes):
    """Each score column's 0/1 targets: [labels] for binary, one
    one-vs-all column per class otherwise."""
    if n_classes == 2:
        return [labels]
    return [(labels == k).astype(np.int64) for k in range(n_classes)]


def _sample_rows(rng, n, subsample):
    if subsample >= 1.0:
        return np.arange(n)
    k = max(1, int(round(subsample * n)))
    return np.sort(rng.choice(n, size=k, replace=False))


def _grow_column(state, k):
    """Score column k's whole tree sequence, grown from zero scores. Column
    k's trees read only column k's scores, so the columns are independent
    for the whole fit. Each round's rows replay ``fit``'s draws from
    ``default_rng(config.seed)``. A tree is evaluated on the training rows
    only outside its round's rows: growing it gives its output on them."""
    columns, order, targets, config = state
    n = columns.shape[1]
    rng = np.random.default_rng(config.seed)
    zk, out = np.zeros(n), np.empty(n)
    trees = []
    for _ in range(config.n_rounds):
        rows = _sample_rows(rng, n, config.subsample)
        g, h = grad_hess(config.loss, targets[k], zk)
        if not (np.all(np.isfinite(g)) and np.all(np.isfinite(h))):
            raise AssertionError(
                f"non-finite gradient/Hessian from the loss layer in score column {k}")
        tree = grow_tree(columns, order, rows, g, h, config.tree, out)
        if rows.size < n:  # a subsampled round
            outside = np.ones(n, dtype=bool)
            outside[rows] = False
            out[outside] = tree.predict(columns[:, outside])
        zk = zk + config.learning_rate * out
        trees.append(tree)
    return trees


def fit(data: TabularDataset, config: BoosterConfig) -> BoosterModel:
    """Train a boosted ensemble on n_cols score columns: one column with
    targets [y] for binary, one one-vs-all column per class otherwise.
    Column k's trees read only column k's scores, so a column's task
    (``_grow_column``) grows its whole tree sequence and returns its trees,
    never scores. The model holds ``config.n_rounds`` trees per column.

    A multi-class fit gives its columns to one forked worker per usable
    core, never more than there are classes, one task per column; on one
    core, and inside a sweep's worker, it grows them in this process. No
    setting changes this, and the model is the same either way.
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
    targets = column_targets(y, config.n_classes)
    order = presort(data.columns, np.arange(data.n_samples))  # every tree filters this one sort
    # workers inherit the per-fit state; a task sends only its column's index
    trees = run_tasks(_grow_column, (data.columns, order, targets, config), range(len(targets)))
    return BoosterModel(trees=trees, config=config, feature_names=list(data.feature_names),
                        class_names=list(data.class_names))


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
    stage yields the same array, which the next stage adds to. ``data`` must
    hold the model's features in its order; ``align`` it first.
    """
    if data.feature_names != model.feature_names:
        raise SchemaMismatchError(f"the data's features {data.feature_names} are not the "
                                  f"model's {model.feature_names}; align the data first")
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


def loss_history(model: BoosterModel, data: TabularDataset):
    """Each round's mean loss on ``data``: the loss of the model cut to that
    round, averaged over each score column's rows, then over the columns in
    class order (see ``staged_raw``). ``data`` must be encoded through the
    model's classes; ``align`` it first."""
    if data.n_samples == 0:
        raise DataError("empty dataset")
    if data.class_names != model.class_names:
        raise SchemaMismatchError(f"the data's classes {data.class_names} are not the model's "
                                  f"{model.class_names}; align the data first")
    spec = model.config.loss
    targets = column_targets(np.asarray(data.labels), model.config.n_classes)
    history = []
    for z in staged_raw(model, data, range(1, len(model.trees[0]) + 1)):
        scores = z[None] if model.is_binary else z.T
        history.append(float(np.mean([np.mean(loss_value(spec, make_phat(yk, sigmoid(zk))))
                                      for yk, zk in zip(targets, scores)])))
    return history


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
    if counts != [config.n_rounds] * n_lists:
        raise ModelFormatError(f"tree lists hold {counts} trees, not n_rounds {config.n_rounds}")
    trees = [[Tree.from_dict(record) for record in lst] for lst in doc["trees"]]
    for tree in (t for lst in trees for t in lst):
        tree.check(len(doc["feature_names"]))
    return BoosterModel(trees=trees, config=config, feature_names=doc["feature_names"],
                        class_names=doc["class_names"])
