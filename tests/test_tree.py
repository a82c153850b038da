import itertools

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustboost import tree as tree_module
from robustboost.tree import (TREE_FIELDS, DegenerateDenominatorError, GainScenario, Tree,
                              TreeConfig, decomposed_gain, best_split,
                              grow_tree, leaf_objective, leaf_weight)


def columns_from(X):
    """The (n_features, n) matrix of an (n, n_features) array, NaN for missing."""
    return np.ascontiguousarray(np.asarray(X, dtype=float).T)


def brute_force_best(columns, missing, g, h, config):
    """Enumerate every (feature, threshold, missing-direction) split."""
    n = len(g)
    best = None
    for f in range(len(columns)):
        vals, miss = columns[f], missing[f]
        present = np.sort(np.unique(vals[~miss]))
        if present.size < 2:
            continue
        for a, b in zip(present[:-1], present[1:]):
            thr = 0.5 * (a + b)
            for miss_left in ((False, True) if miss.any() else (False,)):
                left = np.where(miss, miss_left, vals <= thr)
                nl, nr = int(left.sum()), n - int(left.sum())
                if nl < config.min_samples_leaf or nr < config.min_samples_leaf:
                    continue
                GL, HL = g[left].sum(), h[left].sum()
                GR, HR = g[~left].sum(), h[~left].sum()
                if HL < config.min_sum_hessian or HR < config.min_sum_hessian:
                    continue
                dl, dr = HL + config.lam, HR + config.lam
                dp = (HL + HR) + config.lam
                if min(abs(dl), abs(dr), abs(dp)) < 1e-12:
                    continue
                gain = 0.5 * (GL**2 / dl + GR**2 / dr - (GL + GR)**2 / dp)
                if gain < config.min_gain:
                    continue
                if (best is None or gain > best[0]
                        or (gain == best[0] and (f, thr) < (best[1], best[2]))):
                    best = (gain, f, thr)
    return best


class TestLeafFormulas:
    def test_weight_examples(self):
        assert leaf_weight(1.0, 1.0, 0.0) == -1.0
        assert leaf_weight(0.0, 5.0, 1.0) == 0.0
        assert leaf_weight(-2.0, 3.0, 1.0) == 0.5

    def test_objective_examples(self):
        assert leaf_objective(2.0, 1.0, 1.0) == -1.0
        assert leaf_objective(0.0, 3.0, 0.5) == 0.0

    def test_degenerate_denominator(self):
        with pytest.raises(DegenerateDenominatorError):
            leaf_weight(1.0, -1.0, 1.0)
        with pytest.raises(DegenerateDenominatorError):
            leaf_objective(1.0, 0.0, 0.0)

    @given(gl=st.floats(-5, 5), gr=st.floats(-5, 5),
           hl=st.floats(0.1, 5), hr=st.floats(0.1, 5))
    @settings(max_examples=200, deadline=None)
    def test_gain_objective_identity(self, gl, gr, hl, hr):
        # objective(L) + objective(R) - objective(parent) == -gain (lam=0)
        obj_delta = (leaf_objective(gl, hl, 0.0) + leaf_objective(gr, hr, 0.0)
                     - leaf_objective(gl + gr, hl + hr, 0.0))
        gain = 0.5 * (gl**2 / hl + gr**2 / hr - (gl + gr)**2 / (hl + hr))
        npt.assert_allclose(obj_delta, -gain, rtol=1e-9, atol=1e-12)


class TestBestSplit:
    def four_sample_fixture(self):
        cols = columns_from(np.array([[1.0], [2.0], [3.0], [4.0]]))
        g = np.array([-1.0, -1.0, 1.0, 1.0])
        h = np.ones(4)
        return cols, g, h

    def test_four_sample_example(self):
        cols, g, h = self.four_sample_fixture()
        config = TreeConfig(lam=0.0, min_sum_hessian=0.0, min_gain=0.0,
                            min_samples_leaf=1)
        cand = best_split(cols, np.arange(4), g, h, config)
        assert cand.threshold == 2.5
        npt.assert_allclose(cand.gain, 2.0)
        assert cand.feature == 0

    def test_uniform_grad_no_split_with_delta(self):
        cols = columns_from(np.array([[1.0], [2.0], [3.0], [4.0]]))
        g = np.full(4, 0.3)
        h = np.full(4, 1.0)
        config = TreeConfig(lam=0.0, min_sum_hessian=0.0, min_gain=1e-9,
                            min_samples_leaf=1)
        assert best_split(cols, np.arange(4), g, h, config) is None

    def test_low_hessian_child_excluded(self):
        # the gain-maximal split would isolate the negative-h samples
        cols = columns_from(np.array([[1.0], [2.0], [3.0], [4.0]]))
        g = np.array([-1.0, -1.0, 1.0, 1.0])
        h = np.array([-0.4, -0.4, 1.0, 1.0])
        config = TreeConfig(lam=0.0, min_sum_hessian=0.5, min_gain=0.0,
                            min_samples_leaf=1)
        cand = best_split(cols, np.arange(4), g, h, config)
        # left child of threshold 2.5 has sum_h = -0.8 < 0.5, so either no
        # split or one whose children both clear the bar
        if cand is not None:
            assert cand.h_left >= 0.5 and cand.h_right >= 0.5

    def test_missing_routed_both_ways(self):
        X = np.array([[1.0], [2.0], [3.0], [np.nan], [np.nan]])
        cols = columns_from(X)
        g = np.array([-1.0, -1.0, 1.0, 1.0, 1.0])
        h = np.ones(5)
        config = TreeConfig(lam=0.0, min_sum_hessian=0.0, min_samples_leaf=1)
        cand = best_split(cols, np.arange(5), g, h, config)
        assert cand is not None
        # routing the positive-gradient missing samples right maximizes gain
        assert cand.default_left is False
        assert cand.n_left + cand.n_right == 5

    def test_aggregates_sum_to_parent(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(40, 3))
        cols = columns_from(X)
        g = rng.normal(size=40)
        h = rng.uniform(0.1, 1.0, size=40)
        config = TreeConfig(lam=0.5, min_sum_hessian=0.0, min_samples_leaf=1)
        cand = best_split(cols, np.arange(40), g, h, config)
        npt.assert_allclose(cand.g_left + cand.g_right, g.sum(), rtol=1e-9)
        npt.assert_allclose(cand.h_left + cand.h_right, h.sum(), rtol=1e-9)


class TestGrowTree:
    def test_single_sample_root_only(self):
        cols = columns_from(np.array([[1.0]]))
        g = np.array([-0.5])
        h = np.array([0.25])
        config = TreeConfig(lam=0.0, min_sum_hessian=0.0)
        tree = grow_tree(cols, np.arange(1), g, h, config)
        assert len(tree.feature) == 1
        npt.assert_allclose(tree.value[0], 2.0)

    def test_stump_weights(self):
        cols = columns_from(np.array([[1.0], [2.0], [3.0], [4.0]]))
        g = np.array([-1.0, -1.0, 1.0, 1.0])
        h = np.ones(4)
        config = TreeConfig(lam=0.0, min_sum_hessian=0.0, min_samples_leaf=1,
                            max_leaves=2)
        tree = grow_tree(cols, np.arange(4), g, h, config)
        assert tree.n_leaves == 2
        pred = tree.predict(cols)
        npt.assert_allclose(pred, [1.0, 1.0, -1.0, -1.0])

    def test_all_missing_feature_ignored(self):
        X = np.column_stack([np.full(6, np.nan),
                             np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])])
        cols = columns_from(X)
        g = np.array([-1.0, -1.0, -1.0, 1.0, 1.0, 1.0])
        h = np.ones(6)
        config = TreeConfig(lam=0.0, min_sum_hessian=0.0, min_samples_leaf=1)
        tree = grow_tree(cols, np.arange(6), g, h, config)
        assert all(f != 0 for f in tree.feature if f != -1)
        assert tree.n_leaves >= 2

    def test_max_leaves_cap(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(100, 2))
        cols = columns_from(X)
        g = rng.normal(size=100)
        h = np.ones(100)
        config = TreeConfig(lam=0.1, max_leaves=5, max_depth=20,
                            min_sum_hessian=0.0)
        tree = grow_tree(cols, np.arange(100), g, h, config)
        assert tree.n_leaves <= 5

    def test_max_depth_cap(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(100, 2))
        cols = columns_from(X)
        g = rng.normal(size=100)
        h = np.ones(100)
        config = TreeConfig(lam=0.1, max_leaves=1000, max_depth=2,
                            min_sum_hessian=0.0)
        tree = grow_tree(cols, np.arange(100), g, h, config)

        def depth(node_id, d):
            if tree.feature[node_id] == -1:
                return d
            return max(depth(tree.left[node_id], d + 1), depth(tree.right[node_id], d + 1))

        assert depth(0, 0) <= 2

    def test_first_split_matches_brute_force(self):
        rng = np.random.default_rng(42)
        config = TreeConfig(lam=0.3, min_sum_hessian=0.0, min_gain=0.0,
                            min_samples_leaf=1, max_leaves=2)
        for _ in range(100):
            n = int(rng.integers(2, 31))
            m = int(rng.integers(1, 4))
            X = rng.integers(0, 7, size=(n, m)).astype(float)
            g = rng.normal(size=n)
            h = rng.uniform(0.05, 1.0, size=n)
            cols = columns_from(X)
            expected = brute_force_best(cols, np.isnan(cols), g, h, config)
            tree = grow_tree(cols, np.arange(n), g, h, config)
            if expected is None:
                assert tree.n_leaves == 1
            else:
                assert tree.feature[0] == expected[1]
                npt.assert_allclose(tree.threshold[0], expected[2], rtol=1e-12)

    def test_nonnegative_gains_all_positive_hessian(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(60, 2))
        cols = columns_from(X)
        g = rng.normal(size=60)
        h = rng.uniform(0.1, 1.0, size=60)
        config = TreeConfig(lam=0.0, min_sum_hessian=0.0, min_gain=0.0,
                            min_samples_leaf=1)
        cand = best_split(cols, np.arange(60), g, h, config)
        assert cand.gain >= 0.0

    def test_negated_hessians_shrink_trees(self):
        rng = np.random.default_rng(17)
        X = rng.normal(size=(200, 3))
        g = rng.normal(size=200)
        h = rng.uniform(0.1, 1.0, size=200)
        cols = columns_from(X)
        config = TreeConfig(lam=0.0, min_sum_hessian=1e-3, max_leaves=64,
                            max_depth=12, min_samples_leaf=1)
        medians = []
        for frac in (0.0, 0.25, 0.5):
            leaves = []
            for seed in range(50):
                r2 = np.random.default_rng(seed)
                hh = h.copy()
                k = int(frac * 200)
                if k:
                    hh[r2.choice(200, k, replace=False)] *= -1
                tree = grow_tree(cols, np.arange(200), g, hh, config)
                leaves.append(tree.n_leaves)
            medians.append(np.median(leaves))
        assert medians[0] >= medians[1] >= medians[2]

    def test_serialization_roundtrip(self):
        rng = np.random.default_rng(21)
        X = rng.normal(size=(50, 2))
        cols = columns_from(X)
        g = rng.normal(size=50)
        h = np.ones(50)
        tree = grow_tree(cols, np.arange(50), g, h, TreeConfig(lam=0.1))
        clone = Tree.from_dict(tree.to_dict())
        npt.assert_array_equal(tree.predict(cols), clone.predict(cols))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 80), m=st.integers(1, 4),
       missing_rate=st.sampled_from([0.0, 0.2]), negated=st.sampled_from([0.0, 0.3]),
       max_depth=st.integers(1, 6), max_leaves=st.integers(1, 20),
       min_samples_leaf=st.integers(1, 5), lam=st.sampled_from([0.0, 1.0]))
def test_grown_tree_structure(seed, n, m, missing_rate, negated, max_depth, max_leaves,
                              min_samples_leaf, lam):
    rng = np.random.default_rng(seed)
    X = np.round(rng.normal(size=(n, m)), 1)
    X[rng.random(X.shape) < missing_rate] = np.nan
    cols = columns_from(X)
    g = rng.normal(size=n)
    h = rng.uniform(0.1, 1.0, size=n) * np.where(rng.random(n) < negated, -1.0, 1.0)
    config = TreeConfig(lam=lam, min_sum_hessian=0.0, max_depth=max_depth,
                        max_leaves=max_leaves, min_samples_leaf=min_samples_leaf)
    tree = grow_tree(cols, np.arange(n), g, h, config)

    n_nodes = len(tree.feature)
    assert all(len(getattr(tree, c)) == n_nodes for c in TREE_FIELDS)
    splits = [i for i in range(n_nodes) if tree.feature[i] != -1]
    children = [c for i in splits for c in (tree.left[i], tree.right[i])]
    assert all(i < c < n_nodes for i in splits for c in (tree.left[i], tree.right[i]))
    assert sorted(children) == list(range(1, n_nodes))  # every non-root node has one parent
    assert all(0 <= tree.feature[i] < m for i in splits)
    assert tree.n_leaves == len(splits) + 1
    assert tree.n_leaves <= max_leaves

    depth = [0] * n_nodes
    for i in splits:  # parents come before their children
        depth[tree.left[i]] = depth[tree.right[i]] = depth[i] + 1
    assert max(depth) <= max_depth


def test_no_split_search_past_the_leaf_cap(monkeypatch):
    rng = np.random.default_rng(8)
    cols = columns_from(rng.normal(size=(100, 2)))
    g = rng.normal(size=100)
    h = np.ones(100)
    calls = []
    search = tree_module.best_split

    def counted(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(tree_module, "best_split", counted)
    for max_leaves, searches in ((1, 0), (2, 1)):
        calls.clear()
        config = TreeConfig(lam=0.1, min_sum_hessian=0.0, max_leaves=max_leaves)
        tree = grow_tree(cols, np.arange(100), g, h, config)
        assert tree.n_leaves == max_leaves
        assert len(calls) == searches


# repeats, adjacent doubles, pairs whose sum overflows, subnormals and NaN
SPLIT_VALUES = (0.0, 1.0, np.nextafter(1.0, 2.0), np.nextafter(np.nextafter(1.0, 2.0), 2.0),
                2.0, 1e308, 1.7e308, -1.7e308, 5e-324, 1e-323, np.nan)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 30), m=st.integers(1, 3),
       max_leaves=st.integers(1, 12), lam=st.sampled_from([0.0, 1.0]))
def test_leaf_values_match_the_rows_routed_to_them(data, n, m, max_leaves, lam):
    cells = data.draw(st.lists(st.sampled_from(SPLIT_VALUES), min_size=n * m, max_size=n * m))
    cols = columns_from(np.reshape(cells, (n, m)))
    # quarter-integer g and h: every sum is exact in any order
    g = np.array(data.draw(st.lists(st.integers(-8, 8), min_size=n, max_size=n))) / 4.0
    h = np.array(data.draw(st.lists(st.integers(1, 8), min_size=n, max_size=n))) / 4.0
    rows = np.array(sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1))))
    config = TreeConfig(lam=lam, min_sum_hessian=0.0, max_leaves=max_leaves)
    tree = grow_tree(cols, rows, g, h, config)

    node_ids = Tree(**{**tree.to_dict(), "value": list(range(len(tree.value)))})
    leaf_of = node_ids.predict(cols[:, rows])
    for leaf in (i for i, f in enumerate(tree.feature) if f == -1):
        routed = rows[leaf_of == leaf]
        assert routed.size > 0, f"no training row reaches leaf {leaf}"
        npt.assert_allclose(tree.value[leaf], -g[routed].sum() / (h[routed].sum() + lam),
                            rtol=1e-9)


class TestDecomposedGain:
    def test_theta_one_restores_plain_gain(self):
        s = GainScenario(G=2.0, H=4.0, mu=0.3, nu=0.6, theta=1.0, tau=0.6, lam=0.0)
        plain = 2.0**2 * (0.3**2 / (0.6 * 4) + 0.7**2 / (0.4 * 4) - 1 / 4)
        npt.assert_allclose(decomposed_gain(s), plain, rtol=1e-12)

    def test_frozen_example(self):
        s = GainScenario(G=2.0, H=4.0, mu=0.5, nu=0.5, theta=0.5, tau=0.25, lam=0.0)
        npt.assert_allclose(decomposed_gain(s), 4.0 * (0.25 / 0.5 + 0.25 / 1.5 - 0.5),
                            rtol=1e-12)

    def test_degenerate(self):
        with pytest.raises(DegenerateDenominatorError):
            decomposed_gain(GainScenario(G=1.0, H=0.0, mu=0.5, nu=0.5,
                                       theta=0.5, tau=0.5, lam=0.0))

    @given(G=st.floats(-10, 10), H=st.floats(0.1, 10),
           mu=st.floats(0.01, 0.99), theta=st.floats(0.01, 0.99))
    @settings(max_examples=500, deadline=None)
    def test_zero_when_tau_equals_mu(self, G, H, mu, theta):
        s = GainScenario(G=G, H=H, mu=mu, nu=0.5, theta=theta, tau=mu, lam=0.0)
        assert abs(decomposed_gain(s)) < 1e-12 * max(1.0, G * G / (theta * H))
