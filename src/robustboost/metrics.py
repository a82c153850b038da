"""Evaluation metrics and rank-aggregation statistics.

AUCPR is computed as average precision over the descending-score sweep, with
tied score groups processed atomically. Rank tables use average-tie ranking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class MetricError(ValueError):
    pass


def aucpr(scores, labels) -> float:
    """Average precision of a binary ranking; every label is 0 or 1.

    Precision is evaluated at the end of each tied-score group and weighted
    by that group's recall increment.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    if scores.shape != labels.shape:
        raise MetricError(f"aucpr has {scores.shape} scores for {labels.shape} labels")
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos + n_neg != labels.size:
        other = labels[(labels != 0) & (labels != 1)]
        raise MetricError(f"aucpr labels must be 0 or 1, found {other.tolist()[0]!r}")
    if n_pos == 0 or n_neg == 0:
        raise MetricError("aucpr needs both classes present")
    if np.isnan(scores).any():
        raise MetricError("aucpr scores contain NaN")

    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    ends = np.append(np.nonzero(s[1:] != s[:-1])[0], s.size - 1)  # last row of each tie group
    tp = np.cumsum(labels[order] == 1)[ends]
    dtp = np.diff(tp, prepend=0)
    # add the groups' terms one after another, in score order, as a running sum would
    ap = np.add.accumulate(tp / (ends + 1) * (dtp / n_pos))[-1]
    return min(float(ap), 1.0)


def accuracy(predicted, true) -> float:
    predicted = np.asarray(predicted)
    true = np.asarray(true)
    if predicted.shape != true.shape:
        raise MetricError("prediction/label length mismatch")
    if true.size == 0:
        raise MetricError("accuracy needs at least one sample")
    return float((predicted == true).mean())


@dataclass
class RankTable:
    methods: list
    ranks: np.ndarray  # (n_datasets, n_methods), average-tie ranks
    average_rank: np.ndarray  # per method
    top_n_counts: np.ndarray  # (n_methods, n_methods): [m, n-1] = #datasets with rank <= n


def rank_methods(per_dataset_scores, methods) -> RankTable:
    """Rank methods on each dataset (1 = best, higher scores better) and
    aggregate. A tie shares the average of its ranks:
    1 + #better + (#equal - 1) / 2, exact in float64."""
    S = np.asarray(per_dataset_scores, dtype=float)
    if S.ndim != 2 or S.shape[1] != len(methods):
        raise MetricError("score matrix must be (n_datasets, n_methods)")
    if not np.isfinite(S).all():
        i, j = np.argwhere(~np.isfinite(S))[0]
        raise MetricError(f"non-finite score {float(S[i, j])} for method {methods[j]!r} in row {i}")
    # [d, j, k]: how method k's score compares with method j's on dataset d
    better = (S[:, None, :] > S[:, :, None]).sum(axis=2)
    equal = (S[:, None, :] == S[:, :, None]).sum(axis=2)
    ranks = 1 + better + (equal - 1) / 2
    m = len(methods)
    top_n = np.empty((m, m), dtype=int)
    for n in range(1, m + 1):
        top_n[:, n - 1] = (ranks <= n).sum(axis=0)
    return RankTable(
        methods=list(methods),
        ranks=ranks,
        average_rank=ranks.mean(axis=0),
        top_n_counts=top_n,
    )
