"""Regression tree grown from per-sample gradients and Hessians.

Exact greedy split search over midpoint thresholds, Newton leaf weights
-G/(H+lambda), gain-based split acceptance, and learned default directions
for missing values. Growth is best-first up to a leaf cap with a depth
backstop.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

DENOM_EPS = 1e-12


class DegenerateDenominatorError(ZeroDivisionError):
    """|sum_h + lambda| too close to zero for a Newton step."""


class ModelFormatError(ValueError):
    """A model document, or a tree record in it, that cannot be read."""


def require_fields(record, fields, what):
    """Raise ModelFormatError naming each of ``fields`` that ``record`` lacks."""
    if not isinstance(record, dict):
        raise ModelFormatError(f"{what} is not a JSON object")
    absent = [name for name in fields if name not in record]
    if absent:
        raise ModelFormatError(f"{what} lacks {', '.join(map(repr, absent))}")


@dataclass(frozen=True)
class TreeConfig:
    lam: float = 1.0
    min_samples_leaf: int = 1
    min_sum_hessian: float = 1e-3
    min_gain: float = 0.0
    max_depth: int = 6
    max_leaves: int = 31

    def __post_init__(self):
        if self.lam < 0 or self.min_sum_hessian < 0 or self.min_gain < 0:
            raise ValueError("lam, min_sum_hessian and min_gain must be >= 0")
        if self.min_samples_leaf < 1 or self.max_depth < 1 or self.max_leaves < 1:
            raise ValueError("min_samples_leaf, max_depth, max_leaves must be >= 1")


@dataclass
class SplitCandidate:
    feature: int
    threshold: float
    gain: float
    default_left: bool
    g_left: float
    h_left: float
    g_right: float
    h_right: float
    n_left: int
    n_right: int


TREE_FIELDS = ("feature", "threshold", "default_left", "left", "right", "value")


@dataclass
class Tree:
    """Parallel node lists, root first. ``feature[i] == -1`` marks a leaf
    whose output is ``value[i]``; a split node sends a row to ``left[i]``
    when its ``feature[i]`` is missing (NaN) and ``default_left[i]``, or
    present and ``<= threshold[i]``, else to ``right[i]``.
    """

    feature: list = field(default_factory=list)
    threshold: list = field(default_factory=list)
    default_left: list = field(default_factory=list)
    left: list = field(default_factory=list)
    right: list = field(default_factory=list)
    value: list = field(default_factory=list)

    @property
    def n_leaves(self) -> int:
        return self.feature.count(-1)

    def add_leaf(self, value: float) -> int:
        for column, v in zip(TREE_FIELDS, (-1, 0.0, False, -1, -1, value)):
            getattr(self, column).append(v)
        return len(self.value) - 1

    def predict(self, columns):
        """Evaluate the tree on an (n_features, n) matrix, NaN for missing."""
        n = columns.shape[1]
        out = np.empty(n)
        stack = [(0, np.arange(n))]
        while stack:
            node, rows = stack.pop()
            f = self.feature[node]
            if f == -1:
                out[rows] = self.value[node]
                continue
            vals = columns[f][rows]
            go_left = np.where(np.isnan(vals), self.default_left[node],
                               vals <= self.threshold[node])
            stack.append((self.left[node], rows[go_left]))
            stack.append((self.right[node], rows[~go_left]))
        return out

    def to_dict(self):
        return {column: list(getattr(self, column)) for column in TREE_FIELDS}

    @classmethod
    def from_dict(cls, d):
        require_fields(d, TREE_FIELDS, "a tree record")
        return cls(**{column: list(d[column]) for column in TREE_FIELDS})

    def check(self, n_features: int):
        """Raise ModelFormatError unless every descent from the root reads a
        feature in [0, n_features) and ends at a leaf."""
        n = len(self.value)
        if n == 0 or any(len(getattr(self, column)) != n for column in TREE_FIELDS):
            raise ModelFormatError("a tree's node lists are empty or differ in length")
        for i, (f, left, right) in enumerate(zip(self.feature, self.left, self.right)):
            if f != -1 and (type(f) is not int or not 0 <= f < n_features):
                raise ModelFormatError(
                    f"tree node {i} splits on feature {f!r}; the model has {n_features}")
            if f != -1 and not all(type(c) is int and i < c < n for c in (left, right)):
                raise ModelFormatError(
                    f"tree node {i} has children {left!r}, {right!r}; each must lie in ({i}, {n})")


def leaf_weight(sum_g: float, sum_h: float, lam: float) -> float:
    """Newton-optimal leaf output -sum_g / (sum_h + lam)."""
    denom = sum_h + lam
    if abs(denom) < DENOM_EPS:
        raise DegenerateDenominatorError(f"sum_h + lam = {denom}")
    return -sum_g / denom


def leaf_objective(sum_g: float, sum_h: float, lam: float) -> float:
    """Optimal quadratic objective -0.5 * sum_g**2 / (sum_h + lam)."""
    denom = sum_h + lam
    if abs(denom) < DENOM_EPS:
        raise DegenerateDenominatorError(f"sum_h + lam = {denom}")
    return -0.5 * sum_g * sum_g / denom


def _scan_feature(vals, g, h, config: TreeConfig):
    """Best split of one node on one feature; arrays are node-local, NaN missing.

    Returns (gain, threshold, default_left, aggregates...) or None.
    """
    miss = np.isnan(vals)
    n_miss = int(miss.sum()) if miss.any() else 0
    if n_miss:
        present = ~miss
        pv = vals[present]
        pg = g[present]
        ph = h[present]
        g_miss = float(g[miss].sum())
        h_miss = float(h[miss].sum())
    else:
        pv, pg, ph = vals, g, h
        g_miss = h_miss = 0.0
    if pv.size < 2:
        return None
    order = pv.argsort(kind="stable")
    pv = pv[order]
    # boundaries between consecutive distinct present values
    cut = np.nonzero(pv[:-1] < pv[1:])[0]
    if cut.size == 0:
        return None

    cg = pg[order].cumsum()
    ch = ph[order].cumsum()
    G, H = cg[-1], ch[-1]
    G_tot, H_tot = G + g_miss, H + h_miss
    n_tot = vals.size

    denom_p = H_tot + config.lam
    if abs(denom_p) < DENOM_EPS:
        return None
    parent_term = G_tot * G_tot / denom_p

    gl = cg[cut]
    hl = ch[cut]
    nl = cut + 1

    best = None
    for miss_left in (False, True) if n_miss else (False,):
        GL = gl + g_miss if miss_left else gl
        HL = hl + h_miss if miss_left else hl
        NL = nl + n_miss if miss_left else nl
        GR, HR, NR = G_tot - GL, H_tot - HL, n_tot - NL
        dl, dr = HL + config.lam, HR + config.lam
        # near-zero denominators are masked below; best_split silences their warnings
        gain = 0.5 * (GL * GL / dl + GR * GR / dr - parent_term)
        bad = (
            (NL < config.min_samples_leaf)
            | (NR < config.min_samples_leaf)
            | (HL < config.min_sum_hessian)
            | (HR < config.min_sum_hessian)
            | (np.abs(dl) <= DENOM_EPS)
            | (np.abs(dr) <= DENOM_EPS)
            | ~np.isfinite(gain)
        )
        gain[bad] = -np.inf
        k = int(gain.argmax())  # first max -> lowest threshold among ties
        if gain[k] < config.min_gain or not np.isfinite(gain[k]):
            continue
        lo, hi = float(pv[cut[k]]), float(pv[cut[k] + 1])
        mid = 0.5 * lo + 0.5 * hi  # cannot overflow; lo where it rounds up to hi
        cand = (float(gain[k]), mid if mid < hi else lo, miss_left,
                float(GL[k]), float(HL[k]), float(GR[k]), float(HR[k]),
                int(NL[k]), int(NR[k]))
        # prefer higher gain; on exact tie keep missing-right (first iteration)
        if best is None or cand[0] > best[0]:
            best = cand
    return best


def best_split(columns, rows, g, h, config: TreeConfig) -> Optional[SplitCandidate]:
    """Exact greedy search over all features for the node given by ``rows``.

    Ties in gain resolve to the lowest feature index, then lowest threshold.
    """
    g_node = g[rows]
    h_node = h[rows]
    best = None
    with np.errstate(divide="ignore", invalid="ignore"):
        for f in range(len(columns)):
            res = _scan_feature(columns[f][rows], g_node, h_node, config)
            if res is not None and (best is None or res[0] > best[1][0]):
                best = (f, res)
    if best is None:
        return None
    f, (gain, thr, dl, GL, HL, GR, HR, NL, NR) = best
    return SplitCandidate(
        feature=f, threshold=thr, gain=gain, default_left=dl,
        g_left=GL, h_left=HL, g_right=GR, h_right=HR, n_left=NL, n_right=NR,
    )


def _safe_weight(sum_g, sum_h, lam):
    try:
        return leaf_weight(sum_g, sum_h, lam)
    except DegenerateDenominatorError:
        return 0.0


def grow_tree(columns, rows, g, h, config: TreeConfig) -> Tree:
    """Best-first growth: repeatedly expand the frontier leaf with the
    highest split gain until no leaf admits a split or the leaf cap binds.
    """
    rows = np.asarray(rows)
    tree = Tree()
    sum_g = float(g[rows].sum())
    sum_h = float(h[rows].sum())
    tree.add_leaf(_safe_weight(sum_g, sum_h, config.lam))
    if rows.size == 0 or sum_h < config.min_sum_hessian:
        return tree

    counter = itertools.count()  # heap tiebreak: earlier-pushed candidate wins
    heap = []
    n_leaves = 1

    def push(node, node_rows, depth):
        # a node can be expanded only while the leaf cap leaves room
        if (n_leaves >= config.max_leaves or depth >= config.max_depth
                or node_rows.size < 2 * config.min_samples_leaf):
            return
        # rows by keyword: a tracer wrapping best_split reads it by name
        cand = best_split(columns, rows=node_rows, g=g, h=h, config=config)
        if cand is not None:
            heapq.heappush(heap, (-cand.gain, next(counter), node, node_rows, depth, cand))

    push(0, rows, 0)
    while heap and n_leaves < config.max_leaves:
        _, _, node, node_rows, depth, cand = heapq.heappop(heap)
        vals = columns[cand.feature][node_rows]
        go_left = np.where(np.isnan(vals), cand.default_left, vals <= cand.threshold)

        tree.feature[node] = cand.feature
        tree.threshold[node] = cand.threshold
        tree.default_left[node] = cand.default_left
        tree.left[node] = tree.add_leaf(_safe_weight(cand.g_left, cand.h_left, config.lam))
        tree.right[node] = tree.add_leaf(_safe_weight(cand.g_right, cand.h_right, config.lam))
        n_leaves += 1

        push(tree.left[node], node_rows[go_left], depth + 1)
        push(tree.right[node], node_rows[~go_left], depth + 1)
    return tree


@dataclass(frozen=True)
class GainScenario:
    """Parameterized gain after part of a node's Hessian mass is negated:
    G_L = mu*G, H_L = nu*H, perturbed sum Hhat = theta*H, Hhat_L = tau*Hhat.
    """

    G: float
    H: float
    mu: float
    nu: float
    theta: float
    tau: float
    lam: float = 0.0


def decomposed_gain(s: GainScenario) -> float:
    """G^2 (mu^2/(tau*theta*H+lam) + (1-mu)^2/((1-tau)*theta*H+lam) - 1/(theta*H+lam))."""
    d1 = s.tau * s.theta * s.H + s.lam
    d2 = (1.0 - s.tau) * s.theta * s.H + s.lam
    d3 = s.theta * s.H + s.lam
    for d in (d1, d2, d3):
        if abs(d) < DENOM_EPS:
            raise DegenerateDenominatorError(f"denominator {d}")
    return s.G**2 * (s.mu**2 / d1 + (1.0 - s.mu) ** 2 / d2 - 1.0 / d3)
