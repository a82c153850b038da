import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustboost.metrics import MetricError, accuracy, aucpr, rank_methods


def brute_force_aucpr(scores, labels):
    """Threshold-sweep oracle: precision at each distinct score cutoff,
    weighted by the recall gained there."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    ap = 0.0
    prev_recall = 0.0
    for t in sorted(set(scores.tolist()), reverse=True):
        kept = scores >= t
        tp = int(((labels == 1) & kept).sum())
        recall = tp / n_pos
        if recall > prev_recall:
            ap += (tp / int(kept.sum())) * (recall - prev_recall)
            prev_recall = recall
    return ap


def running_sum_aucpr(scores, labels):
    """Tie groups in descending-score order, each adding its precision times
    its recall increment to a running sum."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    order = np.argsort(-scores, kind="stable")
    s, y = scores[order], labels[order]
    tp = fp = i = 0
    ap = 0.0
    while i < s.size:
        j = i
        while j < s.size and s[j] == s[i]:
            j += 1
        dtp = int((y[i:j] == 1).sum())
        tp += dtp
        fp += (j - i) - dtp
        if dtp:
            ap += (tp / (tp + fp)) * (dtp / n_pos)
        i = j
    return min(ap, 1.0)


def brute_force_ranks(row):
    """Average-tie ranks by enumeration: sort best first, then give every
    score the mean of the 1-based positions its tie group occupies."""
    positions = {}
    for pos, value in enumerate(sorted(row, reverse=True), start=1):
        positions.setdefault(value, []).append(pos)
    return [sum(positions[v]) / len(positions[v]) for v in row]


class TestAucpr:
    def test_worked_example(self):
        val = aucpr([0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0])
        assert abs(val - (1.0 + 2.0 / 3.0) / 2.0) < 1e-6
        assert abs(val - 0.8333333) < 1e-6

    def test_perfect_ranking(self):
        assert aucpr([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0]) == 1.0

    def test_all_tied_equals_prevalence(self):
        assert abs(aucpr([0.5] * 10, [1, 1, 0, 0, 0, 0, 0, 0, 0, 0]) - 0.2) < 1e-12

    def test_single_class_raises(self):
        with pytest.raises(MetricError):
            aucpr([0.1, 0.2], [1, 1])
        with pytest.raises(MetricError):
            aucpr([0.1, 0.2], [0, 0])

    @pytest.mark.parametrize("labels,named", [([1, 0, 2, 0], "2"), ([1, 0, -1, 0], "-1"),
                                              ([1.0, 0.0, 0.5, 0.0], "0.5")])
    def test_label_outside_0_1_raises(self, labels, named):
        # a 2 is neither a positive nor a negative: counting it as a negative gave 1.0
        with pytest.raises(MetricError, match=f"0 or 1, found {named}$"):
            aucpr([0.9, 0.1, 0.5, 0.7], labels)

    @pytest.mark.parametrize("n_scores", [2, 4])
    def test_length_mismatch_raises(self, n_scores):
        # two scores for three labels read as 1.0, four raised an IndexError
        with pytest.raises(MetricError, match=f"\\({n_scores},\\) scores for \\(3,\\) labels"):
            aucpr([0.9, 0.1, 0.5, 0.7][:n_scores], [1, 0, 0])

    def test_nan_score_raises(self):
        with pytest.raises(MetricError, match="NaN"):
            aucpr([0.1, np.nan, 0.3], [0, 1, 1])

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 300), levels=st.integers(1, 40))
    @settings(max_examples=200, deadline=None)
    def test_bitwise_equal_to_running_sum(self, seed, n, levels):
        rng = np.random.default_rng(seed)
        scores = rng.integers(0, levels, size=n) / levels
        labels = (rng.random(n) < rng.random()).astype(int)
        labels[:2] = [0, 1]
        value = aucpr(scores, labels)
        assert type(value) is float and value == running_sum_aucpr(scores, labels)

    def test_matches_brute_force_fuzzed(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            n = int(rng.integers(2, 21))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            # coarse scores force plenty of ties
            scores = rng.integers(0, 5, size=n) / 4.0
            assert aucpr(scores, labels) == pytest.approx(
                brute_force_aucpr(scores, labels), abs=1e-12)

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 1)),
                    min_size=2, max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_bounds_property(self, pairs):
        scores = [p[0] / 3.0 for p in pairs]
        labels = [p[1] for p in pairs]
        if len(set(labels)) < 2:
            labels[0] = 1 - labels[0]
        val = aucpr(scores, labels)
        assert 0.0 < val <= 1.0


class TestAccuracy:
    def test_basic(self):
        assert accuracy([1, 0, 1], [1, 1, 1]) == pytest.approx(2 / 3)

    def test_shape_mismatch(self):
        with pytest.raises(MetricError):
            accuracy([1, 0], [1, 0, 1])

    def test_empty(self):
        with pytest.raises(MetricError, match="at least one sample"):
            accuracy([], [])


class TestRankMethods:
    def test_simple_ranking(self):
        S = [[0.9, 0.8, 0.7],
             [0.5, 0.9, 0.7]]
        table = rank_methods(S, ["a", "b", "c"])
        npt.assert_array_equal(table.ranks, [[1, 2, 3], [3, 1, 2]])
        npt.assert_allclose(table.average_rank, [2.0, 1.5, 2.5])

    def test_ties_get_average_rank(self):
        table = rank_methods([[0.5, 0.5, 0.1]], ["a", "b", "c"])
        npt.assert_allclose(table.ranks[0], [1.5, 1.5, 3.0])

    @given(st.integers(1, 6).flatmap(lambda m: st.lists(
        st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.9, 1.0]), min_size=m, max_size=m),
        min_size=1, max_size=6)))
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force_ranks(self, S):
        # five distinct values over up to six methods: most rows hold ties
        m = len(S[0])
        table = rank_methods(S, [f"m{j}" for j in range(m)])
        expected = np.array([brute_force_ranks(row) for row in S])
        assert table.ranks.tobytes() == expected.tobytes()
        assert table.average_rank.tobytes() == expected.mean(axis=0).tobytes()
        npt.assert_array_equal(table.top_n_counts,
                               [[sum(r[j] <= n for r in expected) for n in range(1, m + 1)]
                                for j in range(m)])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_rejected(self, bad):
        with pytest.raises(MetricError, match=f"non-finite score {bad} for method 'b' in row 1"):
            rank_methods([[0.5, 0.4], [0.3, bad]], ["a", "b"])

    def test_top_n_counts(self):
        S = [[0.9, 0.8], [0.9, 0.8], [0.1, 0.8]]
        table = rank_methods(S, ["a", "b"])
        # a is best twice, b once; everyone is within top-2 everywhere
        npt.assert_array_equal(table.top_n_counts, [[2, 3], [1, 3]])

    def test_shape_validation(self):
        with pytest.raises(MetricError):
            rank_methods([[0.1, 0.2]], ["a", "b", "c"])
