"""Transforms of a fit's input that must leave its model bitwise unchanged,
or change it in a way known in advance: relabelling the classes, appending
a column that carries no news, and a strictly increasing transform of a
column. Each runs under both split kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustboost import tree as tree_module
from robustboost.booster import BoosterConfig, fit, predict_raw
from robustboost.data import from_arrays
from robustboost.losses import FAMILIES, LossSpec
from robustboost.tree import TreeConfig

from pools import record_pools


def each_kernel():
    """Yield twice: with every node's split search feature by feature
    (``_scan_feature``), then with every node's in one ``_scan_node`` pass.
    The fits run in this process; a pooled fit gives the same model."""
    for node_cells in (0, 2**62):
        with pytest.MonkeyPatch.context() as patch:
            record_pools(patch, cores=1)
            patch.setattr(tree_module, "NODE_CELLS", node_cells)
            yield node_cells


def draw(seed, n_classes, missing_rate, n=90):
    rng = np.random.default_rng(seed)
    X = np.round(rng.normal(size=(n, 3)), 1)  # repeated values: ties follow row ids
    X[rng.random(X.shape) < missing_rate] = np.nan
    y = rng.integers(0, n_classes, size=n)
    y[:n_classes] = np.arange(n_classes)  # every class present
    return X, y


def names(n_classes):
    return [str(k) for k in range(n_classes)]


def config(n_classes, seed, subsample, family="rfl"):
    return BoosterConfig(loss=LossSpec(family), tree=TreeConfig(max_depth=3, max_leaves=8),
                         learning_rate=0.5, n_rounds=8, n_classes=n_classes, seed=seed,
                         subsample=subsample)


def tree_bits(model):
    """Every tree's node lists; repr keeps each float's bits, signs of zeros included."""
    return repr([[tree.to_dict() for tree in lst] for lst in model.trees])


def raw_bits(model, data):
    return predict_raw(model, data).tobytes()


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**16), n_classes=st.integers(3, 4),
       family=st.sampled_from(FAMILIES), missing_rate=st.floats(0.0, 0.3),
       subsample=st.sampled_from([1.0, 0.8]))
def test_relabelling_the_classes_relabels_the_scores(seed, n_classes, family, missing_rate,
                                                     subsample):
    # one-vs-all: column k reads only whether a row is of class k, and every
    # column draws its rounds' rows from the same seed
    X, y = draw(seed, n_classes, missing_rate)
    perm = np.random.default_rng(seed).permutation(n_classes)  # class k becomes perm[k]
    data = from_arrays(X, y, class_names=names(n_classes))
    permuted = from_arrays(X, perm[y], class_names=[str(k) for k in np.argsort(perm)])
    # binary: phat is sigmoid(z) for y = 1 and sigmoid(-z) for y = 0, so swapping
    # the labels negates every gradient and leaf value, and so every score
    Xb, yb = draw(seed, 2, missing_rate)
    binary = from_arrays(Xb, yb, class_names=["0", "1"])
    swapped = from_arrays(Xb, 1 - yb, class_names=["1", "0"])
    cfg, cfg_b = config(n_classes, seed, subsample, family), config(2, seed, subsample, family)
    for _ in each_kernel():
        raw = predict_raw(fit(data, cfg), data)
        assert raw_bits(fit(permuted, cfg), permuted) == raw[:, np.argsort(perm)].tobytes()
        # scores sum from +0.0, so a zero score is +0.0 in both fits; adding
        # +0.0 turns the negated zero back into +0.0
        raw = predict_raw(fit(binary, cfg_b), binary)
        assert raw_bits(fit(swapped, cfg_b), swapped) == (-raw + 0.0).tobytes()


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**16), n_classes=st.sampled_from([2, 3]),
       missing_rate=st.floats(0.0, 0.3), subsample=st.sampled_from([1.0, 0.8]))
def test_a_column_without_news_leaves_the_fit_unchanged(seed, n_classes, missing_rate,
                                                        subsample):
    # a constant or all-missing column has no cut, and a copy of column 0 ties
    # with it on every cut: gain ties go to the lowest feature
    X, y = draw(seed, n_classes, missing_rate)
    data = from_arrays(X, y, class_names=names(n_classes))
    appended = [np.full(len(y), 1.5), X[:, 0], np.full(len(y), np.nan)]
    cfg = config(n_classes, seed, subsample)
    for _ in each_kernel():
        model = fit(data, cfg)
        for column in appended:
            wider = from_arrays(np.column_stack([X, column]), y, class_names=names(n_classes))
            other = fit(wider, cfg)
            assert tree_bits(other) == tree_bits(model)
            assert raw_bits(other, wider) == raw_bits(model, data)


def without_moved_thresholds(tree):
    """A tree's node lists, the thresholds of its splits on column 0 left out."""
    record = tree.to_dict()
    record["threshold"] = [t if f != 0 else None for f, t in zip(tree.feature, tree.threshold)]
    return repr(record)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**16), n_classes=st.sampled_from([2, 3]),
       missing_rate=st.floats(0.0, 0.3), subsample=st.sampled_from([1.0, 0.8]),
       transform=st.sampled_from([np.exp, lambda x: 3 * x + 1, lambda x: x**3]))
def test_an_increasing_transform_of_a_column_keeps_the_trees(seed, n_classes, missing_rate,
                                                             subsample, transform):
    # Split search reads a column only through its sort, which the transform
    # keeps, so a tree grown on the same gradients has the same splits and
    # leaf values; only the midpoint thresholds on column 0 move. Growth routes
    # a round's rows by the sort, but a row outside the round's sample by the
    # threshold, which a nonlinear transform can move past it. So the fits
    # agree tree for tree until a tree gives some training row another
    # output; with every row in every round (subsample 1) that never happens.
    X, y = draw(seed, n_classes, missing_rate)
    data = from_arrays(X, y, class_names=names(n_classes))
    Xt = X.copy()
    Xt[:, 0] = transform(X[:, 0])
    moved = from_arrays(Xt, y, class_names=names(n_classes))
    cfg = config(n_classes, seed, subsample)
    for _ in each_kernel():
        model, other = fit(data, cfg), fit(moved, cfg)
        for trees, others in zip(model.trees, other.trees):
            for tree, tree_t in zip(trees, others):
                assert without_moved_thresholds(tree_t) == without_moved_thresholds(tree)
                if tree_t.predict(moved.columns).tobytes() != tree.predict(data.columns).tobytes():
                    assert subsample < 1
                    break  # the next round's gradients differ
        if subsample == 1:
            assert raw_bits(other, moved) == raw_bits(model, data)
