import itertools
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustboost import tree as tree_module
from robustboost.tree import (DENOM_EPS, TREE_FIELDS, GainScenario, SplitCandidate, Tree,
                              TreeConfig, decomposed_gain, best_split, grow_tree, leaf_weight,
                              partition_sorted, presort, route_left)


def each_kernel(monkeypatch):
    """Yield twice: with every node's split search feature by feature
    (``_scan_feature``), then with every node's in one ``_scan_node`` pass."""
    for node_cells in (0, 2**62):
        monkeypatch.setattr(tree_module, "NODE_CELLS", node_cells)
        yield node_cells


def columns_from(X):
    """The (n_features, n) matrix of an (n, n_features) array, NaN for missing."""
    return np.ascontiguousarray(np.asarray(X, dtype=float).T)


def fit_sort(columns):
    """The sort that booster.fit hands every tree: ``presort`` of every row."""
    return presort(columns, np.arange(columns.shape[1]))


def grow(columns, rows, g, h, config):
    """grow_tree on the fit's sort, checking that the outputs it writes on
    ``rows`` are the tree's ``predict``, bitwise, and that it writes no other row."""
    out = np.full(columns.shape[1], np.inf)
    tree = grow_tree(columns, fit_sort(columns), rows, g, h, config, out)
    expected = np.full(columns.shape[1], np.inf)
    expected[rows] = tree.predict(columns)[rows]
    assert out.tobytes() == expected.tobytes()
    return tree


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
                if min(abs(dl), abs(dr), abs(dp)) <= DENOM_EPS:
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
        assert leaf_weight(1.0, 2 * DENOM_EPS, 0.0) == -0.5 / DENOM_EPS

    def test_degenerate_denominator(self):
        for sum_h, lam in ((-1.0, 1.0), (DENOM_EPS, 0.0), (-DENOM_EPS, 0.0)):
            assert leaf_weight(1.0, sum_h, lam) == 0.0

    @pytest.mark.parametrize("sum_h", [DENOM_EPS, -DENOM_EPS])
    def test_a_root_whose_denominator_is_exactly_denom_eps_weighs_zero(self, sum_h):
        # the root guard (sum_h below min_sum_hessian) keeps the root a leaf
        cols = columns_from(np.array([[0.0], [1.0]]))
        tree = grow(cols, np.arange(2), np.array([1.0, 1.0]), np.array([sum_h, 0.0]),
                    TreeConfig(lam=0.0))
        assert tree.value == [0.0] and tree.feature == [-1]

    def test_a_node_whose_denominator_is_exactly_denom_eps_is_not_scanned(self, monkeypatch):
        calls = []
        real = tree_module._inadmissible
        monkeypatch.setattr(tree_module, "_inadmissible",
                            lambda *args: calls.append(1) or real(*args))
        cols = columns_from(np.array([[0.0], [1.0]]))
        g, h = np.array([1.0, -1.0]), np.full(2, DENOM_EPS / 2)  # h sums to DENOM_EPS exactly
        for _ in each_kernel(monkeypatch):
            tree = grow(cols, np.arange(2), g, h, TreeConfig(lam=0.0, min_sum_hessian=0.0))
            assert tree.value == [0.0] and tree.feature == [-1]
            assert calls == []  # the scan's parent guard returned before any pass


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -1.0])
@pytest.mark.parametrize("name", ["lam", "min_sum_hessian", "min_gain"])
def test_tree_config_rejects_negative_and_non_finite(name, value):
    # every split and leaf test compares against these, and NaN compares false
    with pytest.raises(ValueError, match="finite and >= 0"):
        TreeConfig(**{name: value})


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
        cand = best_split(cols, presort(cols, np.arange(4)), g, h, config)
        assert cand.threshold == 2.5
        npt.assert_allclose(cand.gain, 2.0)
        assert cand.feature == 0

    def test_uniform_grad_no_split_with_delta(self):
        cols = columns_from(np.array([[1.0], [2.0], [3.0], [4.0]]))
        g = np.full(4, 0.3)
        h = np.full(4, 1.0)
        config = TreeConfig(lam=0.0, min_sum_hessian=0.0, min_gain=1e-9,
                            min_samples_leaf=1)
        assert best_split(cols, presort(cols, np.arange(4)), g, h, config) is None

    def test_low_hessian_child_excluded(self):
        # the gain-maximal split would isolate the negative-h samples
        cols = columns_from(np.array([[1.0], [2.0], [3.0], [4.0]]))
        g = np.array([-1.0, -1.0, 1.0, 1.0])
        h = np.array([-0.4, -0.4, 1.0, 1.0])
        config = TreeConfig(lam=0.0, min_sum_hessian=0.5, min_gain=0.0,
                            min_samples_leaf=1)
        cand = best_split(cols, presort(cols, np.arange(4)), g, h, config)
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
        cand = best_split(cols, presort(cols, np.arange(5)), g, h, config)
        assert cand is not None
        # routing the positive-gradient missing samples right maximizes gain
        assert cand.default_left is False
        assert cand.n_left + cand.n_right == 5

        # missing rows with g = h = 0 give both directions the same gain:
        # the tie goes to missing right
        g[3:] = h[3:] = 0.0
        cand = best_split(cols, presort(cols, np.arange(5)), g, h, config)
        assert cand.threshold == 2.5 and cand.default_left is False
        assert (cand.n_left, cand.n_right) == (2, 3)

    def test_aggregates_sum_to_parent(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(40, 3))
        cols = columns_from(X)
        g = rng.normal(size=40)
        h = rng.uniform(0.1, 1.0, size=40)
        config = TreeConfig(lam=0.5, min_sum_hessian=0.0, min_samples_leaf=1)
        cand = best_split(cols, presort(cols, np.arange(40)), g, h, config)
        npt.assert_allclose(cand.g_left + cand.g_right, g.sum(), rtol=1e-9)
        npt.assert_allclose(cand.h_left + cand.h_right, h.sum(), rtol=1e-9)


class TestGrowTree:
    def test_single_sample_root_only(self):
        cols = columns_from(np.array([[1.0]]))
        g = np.array([-0.5])
        h = np.array([0.25])
        config = TreeConfig(lam=0.0, min_sum_hessian=0.0)
        tree = grow(cols, np.arange(1), g, h, config)
        assert len(tree.feature) == 1
        npt.assert_allclose(tree.value[0], 2.0)

    def test_stump_weights(self):
        cols = columns_from(np.array([[1.0], [2.0], [3.0], [4.0]]))
        g = np.array([-1.0, -1.0, 1.0, 1.0])
        h = np.ones(4)
        config = TreeConfig(lam=0.0, min_sum_hessian=0.0, min_samples_leaf=1,
                            max_leaves=2)
        tree = grow(cols, np.arange(4), g, h, config)
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
        tree = grow(cols, np.arange(6), g, h, config)
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
        tree = grow(cols, np.arange(100), g, h, config)
        assert tree.n_leaves <= 5

    def test_max_depth_cap(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(100, 2))
        cols = columns_from(X)
        g = rng.normal(size=100)
        h = np.ones(100)
        config = TreeConfig(lam=0.1, max_leaves=1000, max_depth=2,
                            min_sum_hessian=0.0)
        tree = grow(cols, np.arange(100), g, h, config)

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
            tree = grow(cols, np.arange(n), g, h, config)
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
        cand = best_split(cols, presort(cols, np.arange(60)), g, h, config)
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
                tree = grow(cols, np.arange(200), g, hh, config)
                leaves.append(tree.n_leaves)
            medians.append(np.median(leaves))
        assert medians[0] >= medians[1] >= medians[2]

    def test_serialization_roundtrip(self):
        rng = np.random.default_rng(21)
        X = rng.normal(size=(50, 2))
        cols = columns_from(X)
        g = rng.normal(size=50)
        h = np.ones(50)
        tree = grow(cols, np.arange(50), g, h, TreeConfig(lam=0.1))
        clone = Tree.from_dict(tree.to_dict())
        npt.assert_array_equal(tree.predict(cols), clone.predict(cols))


def test_root_sums_follow_row_ids():
    # the root value's last bits depend on the order of the sum; model files
    # keep the ascending row-id order, not the order of any feature's sort
    for seed in range(5):
        rng = np.random.default_rng(seed)
        cols = columns_from(rng.normal(size=(200, 3)))
        g, h = rng.normal(size=200), rng.uniform(0.1, 1.0, size=200)
        rows = np.sort(rng.choice(200, 150, replace=False))
        tree = grow(cols, rows, g, h, TreeConfig(lam=1.0))
        assert tree.n_leaves > 1
        assert tree.value[0] == leaf_weight(float(g[rows].sum()), float(h[rows].sum()), 1.0)


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
    tree = grow(cols, np.arange(n), g, h, config)

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
        tree = grow(cols, np.arange(100), g, h, config)
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
    tree = grow(cols, rows, g, h, config)

    node_ids = Tree(**{**tree.to_dict(), "value": list(range(len(tree.value)))})
    leaf_of = node_ids.predict(cols[:, rows])
    for leaf in (i for i, f in enumerate(tree.feature) if f == -1):
        routed = rows[leaf_of == leaf]
        assert routed.size > 0, f"no training row reaches leaf {leaf}"
        npt.assert_allclose(tree.value[leaf], -g[routed].sum() / (h[routed].sum() + lam),
                            rtol=1e-9)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 30), m=st.integers(1, 3),
       max_leaves=st.integers(2, 12))
def test_split_search_reads_each_node_presorted(data, n, m, max_leaves):
    cells = data.draw(st.lists(st.sampled_from(SPLIT_VALUES), min_size=n * m, max_size=n * m))
    cols = columns_from(np.reshape(cells, (n, m)))
    g = np.array(data.draw(st.lists(st.integers(-8, 8), min_size=n, max_size=n))) / 4.0
    h = np.ones(n)
    rows = np.array(sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1))))
    seen = []
    search = tree_module.best_split

    def recorded(*args, **kwargs):
        seen.append(kwargs["rows"])
        return search(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tree_module, "best_split", recorded)
        grow(cols, rows, g, h, TreeConfig(lam=1.0, min_sum_hessian=0.0, max_leaves=max_leaves))
    if rows.size >= 2:
        npt.assert_array_equal(seen[0], presort(cols, rows))
    for node_rows in seen:
        # one row set in every column, ascending by value, NaN last, ties by row id
        npt.assert_array_equal(node_rows, presort(cols, np.sort(node_rows[:, 0])))


def reference_scan(f, vals, g, h, config):
    """Reference for ``tree._scan_feature``: one vector holds every cut with the
    missing rows right, then every cut with them left, and min_samples_leaf
    is a mask of row counts."""
    n_present = int(vals.searchsorted(np.nan))
    pv = vals[:n_present]
    cut = np.nonzero(pv[:-1] < pv[1:])[0]
    if cut.size == 0:
        return None

    cg, ch = g[:n_present].cumsum(), h[:n_present].cumsum()
    g_miss, h_miss = float(g[n_present:].sum()), float(h[n_present:].sum())
    G_tot, H_tot = cg[-1] + g_miss, ch[-1] + h_miss

    denom_p = H_tot + config.lam
    if abs(denom_p) <= DENOM_EPS:
        return None
    parent_term = G_tot * G_tot / denom_p

    n_miss = vals.size - n_present
    left_cut = cut if n_miss else cut[:0]
    GL = np.concatenate((cg[cut], cg[left_cut] + g_miss))
    HL = np.concatenate((ch[cut], ch[left_cut] + h_miss))
    NL = np.concatenate((cut, left_cut + n_miss)) + 1
    GR, HR, NR = G_tot - GL, H_tot - HL, vals.size - NL
    dl, dr = HL + config.lam, HR + config.lam
    gain = 0.5 * (GL * GL / dl + GR * GR / dr - parent_term)
    bad = ((NL < config.min_samples_leaf) | (NR < config.min_samples_leaf)
           | (HL < config.min_sum_hessian) | (HR < config.min_sum_hessian)
           | (np.abs(dl) <= DENOM_EPS) | (np.abs(dr) <= DENOM_EPS) | ~np.isfinite(gain))
    gain[bad] = -np.inf
    k = int(gain.argmax())
    if gain[k] < config.min_gain or not np.isfinite(gain[k]):
        return None
    c = cut[k % cut.size]
    lo, hi = float(pv[c]), float(pv[c + 1])
    mid = 0.5 * lo + 0.5 * hi
    return SplitCandidate(f, mid if mid < hi else lo, float(gain[k]), k >= cut.size,
                          float(GL[k]), float(HL[k]), float(GR[k]), float(HR[k]),
                          int(NL[k]), int(NR[k]))


def reference_best_split(columns, rows, g, h, config):
    best = None
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for f in range(len(columns)):
            ids = rows[:, f]
            cand = reference_scan(f, columns[f][ids], g[ids], h[ids], config)
            if cand is not None and (best is None or cand.gain > best.gain):
                best = cand
    return best


def bitwise(cand):
    """A candidate's fields with their types, each float by its bits."""
    if cand is None:
        return None
    return [(type(v), v.hex() if isinstance(v, float) else v) for v in vars(cand).values()]


QUARTERS = st.integers(-8, 8).map(lambda k: k / 4.0)  # sums exact in any order: gain ties


@settings(max_examples=400, deadline=None)
@given(data=st.data(), n=st.integers(1, 40), m=st.integers(0, 3),
       lam=st.sampled_from([0.0, 1.0]), min_sum_hessian=st.sampled_from([0.0, 0.5]),
       min_gain=st.sampled_from([0.0, 0.1]))
def test_split_scan_matches_the_reference_bitwise(data, n, m, lam, min_sum_hessian, min_gain):
    # one row and no features are nodes too: neither kernel may fail on them
    columns = []
    for _ in range(m):
        kind = data.draw(st.sampled_from(["distinct", "levels", "extremes"]))
        if kind == "distinct":
            present = data.draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n,
                                         unique=True))
        else:  # ties, and for "extremes" also overflowing sums and subnormals
            values = SPLIT_VALUES if kind == "extremes" else (0.0, 1.0, 2.0)
            present = data.draw(st.lists(st.sampled_from(values), min_size=n, max_size=n))
        missing = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        columns.append(np.where(missing, np.nan, present))
    cols = np.array(columns, dtype=float).reshape(m, n)
    g = np.array(data.draw(st.lists(st.one_of(QUARTERS, st.floats(-4, 4)),
                                    min_size=n, max_size=n)), dtype=float)
    # tenths: sums that should cancel leave a rounding residue, a near-zero denominator;
    # floats include subnormals, whose sums overflow the division
    tenths = st.sampled_from([0.1, 0.2, -0.3])
    floats = st.floats(-1, 2)
    h = np.array(data.draw(st.lists(st.one_of(QUARTERS, tenths, floats),
                                    min_size=n, max_size=n)), dtype=float)
    # rows with g = h = 0 tie the two missing directions when they are the missing ones,
    # and with -0.0 test the signs of zero sums
    zero = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    g[zero] = h[zero] = data.draw(st.sampled_from([0.0, -0.0]))
    rows = np.array(sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1))))
    min_samples_leaf = data.draw(st.integers(1, max(1, min(5, rows.size // 2))))
    config = TreeConfig(lam=lam, min_samples_leaf=min_samples_leaf,
                        min_sum_hessian=min_sum_hessian, min_gain=min_gain)
    node = presort(cols, rows)

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for f in range(m):
            ids = node[:, f]
            assert (bitwise(tree_module._scan_feature(f, cols[f][ids], g[ids], h[ids], config))
                    == bitwise(reference_scan(f, cols[f][ids], g[ids], h[ids], config)))
    expected = bitwise(reference_best_split(cols, node, g, h, config))
    with pytest.MonkeyPatch.context() as patch:
        for _ in each_kernel(patch):
            assert bitwise(best_split(cols, node, g, h, config)) == expected


def test_both_kernels_sum_long_missing_suffixes_as_the_reference(monkeypatch):
    # numpy sums 8 or more values pairwise, not in sequence: the missing rows'
    # sums must be taken the same way, so that every parent sum and gain keeps its bits.
    # Feature 0 has no missing rows, so no cut of it sends them left.
    for seed in range(40):
        config = TreeConfig(lam=1.0, min_sum_hessian=0.0, min_samples_leaf=1 + seed % 3 * 4)
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(60, 3))
        X[:, 1:][rng.random((60, 2)) < 0.4] = np.nan
        cols = columns_from(X)
        g, h = rng.normal(size=60), rng.uniform(-0.2, 1.0, size=60)
        node = presort(cols, np.arange(60))
        expected = bitwise(reference_best_split(cols, node, g, h, config))
        for _ in each_kernel(monkeypatch):
            assert bitwise(best_split(cols, node, g, h, config)) == expected


# masked: whether a pass's unmasked first max fails the admissibility check, so
# that the scan builds the mask of inadmissible cuts; in these one-feature nodes
# _scan_node builds it exactly when _scan_feature does
EDGE_CASES = [
    # after the third row the left sum of h is a rounding residue, 5.6e-17, not 0
    ([0, 1, 2, 3], [1, 1, 1, -1], [0.1, 0.2, -0.3, 1], 0.0, 0.0, 1, True),
    # after the second row the right sum of h is 2.8e-17
    ([0, 1, 2, 3], [1, 1, 1, 1], [0.1, 0.1, 0.1, -0.1], 0.0, 0.0, 1, True),
    # the best split leaves one row left, whose g is -0.0: so is g_left
    ([0, 1, 2, 3], [-0.0, 2, 2, 2], [1, 1, 1, 1], 1.0, 0.0, 1, False),
    # the one split, of gain 0, leaves one row left, whose g and h are -0.0
    ([0, 1], [-0.0, 1], [-0.0, 1], 1.0, 0.0, 1, False),
    # tied values: the best cut, after two rows, is the first one min_samples_leaf allows
    ([0, 0, 1, 1, 2, np.nan], [-2, -2, 1, 1, 1, 0], [1, 1, 1, 1, 1, 1], 1.0, 0.0, 2, False),
    # tied values: with the missing rows left, the highest gain leaves one row right
    ([0, 1, 1, 2, np.nan, np.nan], [1, 1, 1, -5, 1, 1], [1, 1, 1, 1, 1, 1], 1.0, 0.0, 2, False),
    # the first max is NaN: after the third row the sum of h is inf, the right one
    # inf - inf, and only the gain's finiteness rules the cut out
    ([0, 1, 2, 3], [2, 1, 1, 1], [1, 1e308, 1e308, 1], 1.0, 0.0, 1, True),
    # the first max is +inf: 1 / 1e-320 overflows
    ([0, 1, 2, 3], [1, 1, -1, 1], [1e-320, 1, 1, 1], 0.0, 0.0, 1, True),
    # the first max's left denominator is DENOM_EPS itself, which is too near zero
    ([0, 1, 2, 3], [1, 1, -1, 1], [DENOM_EPS, 1, 1, 1], 0.0, 0.0, 1, True),
    # the first max's left sum of h is below min_sum_hessian ...
    ([0, 1, 2, 3], [-4, 1, 1, 1], [0.25, 1, 1, 1], 1.0, 0.5, 1, True),
    # ... or equal to it, which admits it
    ([0, 1, 2, 3], [-4, 1, 1, 1], [0.25, 1, 1, 1], 1.0, 0.25, 1, False),
    # the first max (gain 2.125, left h 0.25) is below min_sum_hessian; the next cut
    # ties it exactly and wins
    ([0, 1, 2], [1, 1.125, -2.125], [0.25, 1.875, 2.125], 0.0, 0.5, 1, True),
    # the third case with a missing row, sent right by the best split: g_left is -0.0
    ([0, 1, 2, 3, np.nan], [-0.0, 2, 2, 2, 2], [1, 1, 1, 1, 1], 1.0, 0.0, 1, False),
]


@pytest.mark.parametrize("x,g,h,lam,min_sum_hessian,min_samples_leaf,masked", EDGE_CASES,
                         ids=[f"x{i}-g{i}-h{i}-{case[3]}-{case[5]}"
                              for i, case in enumerate(EDGE_CASES)])
def test_split_scan_edge_cases(monkeypatch, x, g, h, lam, min_sum_hessian, min_samples_leaf,
                               masked):
    cols = columns_from(np.array(x, dtype=float)[:, None])
    g, h = np.array(g, dtype=float), np.array(h, dtype=float)
    config = TreeConfig(lam=lam, min_sum_hessian=min_sum_hessian,
                        min_samples_leaf=min_samples_leaf)
    node = presort(cols, np.arange(len(x)))
    expected = reference_best_split(cols, node, g, h, config)
    ranks = []  # of the gains each admissibility check is given: 0 for a cut, more for a mask
    real = tree_module._inadmissible
    monkeypatch.setattr(tree_module, "_inadmissible",
                        lambda gain, *rest: ranks.append(np.ndim(gain)) or real(gain, *rest))
    for _ in each_kernel(monkeypatch):
        ranks.clear()
        cand = best_split(cols, node, g, h, config)
        assert bitwise(cand) == bitwise(expected)
        assert any(rank > 0 for rank in ranks) == masked
        assert cand is not None and cand.gain < 100  # no near-zero denominator chosen
        assert min(cand.n_left, cand.n_right) >= min_samples_leaf
        assert min(cand.h_left, cand.h_right) >= min_sum_hessian


def reference_partition(order, keep, n_kept):
    """Reference for ``tree.partition_sorted``, by boolean indexing."""
    by_feature = order.T
    kept = keep[by_feature]
    n_features, n = by_feature.shape
    return (by_feature[kept].reshape(n_features, n_kept).T,
            by_feature[~kept].reshape(n_features, n - n_kept).T)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(0, 12), m=st.integers(0, 3),
       kind=st.sampled_from(["some", "all", "none"]))
def test_partition_sorted_matches_boolean_indexing(data, n, m, kind):
    cols = np.array(data.draw(st.lists(st.lists(st.sampled_from([0.0, 1.0, 2.0, np.nan]),
                                                min_size=n, max_size=n),
                                       min_size=m, max_size=m)), dtype=float).reshape(m, n)
    rows = np.array(sorted(data.draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=n))),
                    dtype=np.int64)
    order = presort(cols, rows)
    keep = np.zeros(n, dtype=bool)
    if kind == "some":
        keep[:] = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    keep[rows] |= kind == "all"
    n_kept = int(keep[rows].sum())
    for part, expected in zip(partition_sorted(order, keep, n_kept),
                              reference_partition(order, keep, n_kept)):
        assert part.shape == expected.shape and part.dtype == expected.dtype
        npt.assert_array_equal(part, expected)


class TestDecomposedGain:
    def test_theta_one_restores_plain_gain(self):
        s = GainScenario(G=2.0, H=4.0, mu=0.3, theta=1.0, tau=0.6, lam=0.0)
        plain = 2.0**2 * (0.3**2 / (0.6 * 4) + 0.7**2 / (0.4 * 4) - 1 / 4)
        npt.assert_allclose(decomposed_gain(s), plain, rtol=1e-12)

    def test_frozen_example(self):
        s = GainScenario(G=2.0, H=4.0, mu=0.5, theta=0.5, tau=0.25, lam=0.0)
        npt.assert_allclose(decomposed_gain(s), 4.0 * (0.25 / 0.5 + 0.25 / 1.5 - 0.5),
                            rtol=1e-12)

    def test_degenerate(self):
        for H, tau in (
            (0.0, 0.5),  # a true division by zero
            (1e-13, 0.5),  # every denominator within DENOM_EPS of zero, none zero
            # the left and right denominators are 3e-12 and -2e-12; only the
            # parent's, theta*H + lam, is degenerate: DENOM_EPS exactly
            (DENOM_EPS, 3.0),
        ):
            with pytest.raises(ZeroDivisionError):
                decomposed_gain(GainScenario(G=1.0, H=H, mu=0.5,
                                             theta=1.0, tau=tau, lam=0.0))

    @given(G=st.floats(-10, 10), H=st.floats(0.1, 10),
           mu=st.floats(0.01, 0.99), theta=st.floats(0.01, 0.99))
    @settings(max_examples=500, deadline=None)
    def test_zero_when_tau_equals_mu(self, G, H, mu, theta):
        s = GainScenario(G=G, H=H, mu=mu, theta=theta, tau=mu, lam=0.0)
        assert abs(decomposed_gain(s)) < 1e-12 * max(1.0, G * G / (theta * H))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(1, 40), m=st.integers(0, 3),
       min_samples_leaf=st.integers(1, 4), lam=st.sampled_from([0.0, 1.0]),
       max_leaves=st.integers(1, 12), h_scale=st.sampled_from([1.0, -0.5, 1e-6]),
       subsampled=st.booleans())
def test_grown_outputs_are_the_trees_predictions(data, n, m, min_samples_leaf, lam, max_leaves,
                                                 h_scale, subsampled):
    # NaN cells, tied values and zero features; h_scale 1e-6 puts the root's
    # Hessian sum below min_sum_hessian, and -0.5 negates part of it
    cells = data.draw(st.lists(st.sampled_from(SPLIT_VALUES), min_size=n * m, max_size=n * m))
    cols = columns_from(np.reshape(cells, (n, m)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    g = rng.normal(size=n)
    h = rng.uniform(0.1, 1.0, size=n) * np.where(rng.random(n) < 0.3, h_scale, abs(h_scale))
    rows = np.arange(n)
    if subsampled:
        rows = np.array(sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1))))
    config = TreeConfig(lam=lam, min_samples_leaf=min_samples_leaf, max_leaves=max_leaves)
    tree = grow(cols, rows, g, h, config)  # checks the outputs it writes
    if h[rows].sum() < config.min_sum_hessian:
        assert tree.feature == [-1]


ROUTE_VALUES = (np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, -1.5, 1e300, 5e-324)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), default_left=st.booleans(),
       vals=st.lists(st.one_of(st.sampled_from(ROUTE_VALUES), st.floats()), max_size=20))
def test_route_left_is_one_comparison(data, default_left, vals):
    # thresholds are finite; the cases that matter are a threshold equal to a
    # value, NaN, the infinities and both zeros
    vals = np.array(vals, dtype=float)
    finite = [float(v) for v in vals if np.isfinite(v)] + [0.0, -0.0, 1e300]
    threshold = data.draw(st.one_of(st.sampled_from(finite),
                                    st.floats(allow_nan=False, allow_infinity=False)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning from comparing NaN
        go_left = route_left(vals, default_left, threshold)
    assert go_left.dtype == bool
    npt.assert_array_equal(go_left, np.where(np.isnan(vals), default_left, vals <= threshold))


@pytest.mark.parametrize("missing_left", [False, True])
@settings(max_examples=40, deadline=None)
@given(data=st.data(), n_missing=st.integers(1, 10), max_leaves=st.integers(2, 6),
       present=st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=30, unique=True))
def test_grown_outputs_follow_the_learned_missing_direction(missing_left, data, n_missing,
                                                            max_leaves, present):
    # the lower half of the present rows pulls one way and the upper half the
    # other; the missing rows pull with the lower half when missing_left. With
    # lam = 0 only that split leaves both children pure, so the root takes it
    # and sends the missing rows that way
    cut = sorted(present)[len(present) // 2 - 1]
    x = np.array(present + [np.nan] * n_missing)
    g = np.where(x <= cut, -1.0, 1.0)
    g[np.isnan(x)] = -1.0 if missing_left else 1.0
    order = np.array(data.draw(st.permutations(range(x.size))))
    cols, g = columns_from(x[order, None]), g[order]
    tree = grow(cols, np.arange(x.size), g, np.ones(x.size),  # checks out == predict
                TreeConfig(lam=0.0, max_leaves=max_leaves))
    assert tree.feature[0] == 0 and tree.default_left[0] is missing_left
    npt.assert_array_equal(np.sign(tree.predict(cols)), -g)
