"""Regression tree grown from per-sample gradients and Hessians.

Exact greedy split search over midpoint thresholds, Newton leaf weights
-G/(H+lambda), gain-based split acceptance, and learned default directions
for missing values. Growth is best-first up to a leaf cap with a depth
backstop. A Newton denominator H + lambda is degenerate when |H + lambda| <=
DENOM_EPS, as a nonconvex loss's Hessian sum can make it: no node with one is
split, no split leaves a child with one, and a leaf with one (a root) gets 0.

Split search sorts once per fit (``presort`` of every row). A tree's root
filters that sort to the tree's rows, a subset in a subsampled round, and
each split filters its node's sort into the two children; filtered in order,
every feature's row list stays sorted. A scan scores every threshold with
the NaN suffix sent right in one pass and, only if the node has missing rows,
with it sent left in a second; the second wins only with a strictly higher
gain. Gain ties go to the lowest feature, then missing right, then the lowest
threshold.

A pass takes the first argmax of its unmasked gains: the first NaN if there
is one, else the first of the tied maxima. If that cut is admissible (a
finite gain, both Hessian sums at least ``min_sum_hessian``, neither Newton
denominator degenerate), it is also the first max after the inadmissible
cuts are masked to -inf, because masking lowers no gain and leaves this one
as it is. Only otherwise does the pass build the mask and take the argmax
again.

Two kernels compute the same splits, bit for bit; ``best_split`` picks one
by node size. ``_scan_feature`` scans one feature at a time on present-only
views. ``_scan_node`` scans every feature of a node in one pass over (F, m)
blocks: row-wise cumsums, which are sequential and so each feature's prefix
sums; each feature's 1-D sum of its NaN suffix; the gains of both directions
in one (F, 2, m - 1) buffer; and one argmax, whose flat order (feature,
direction, threshold) is the tie order above. Its number of numpy calls does
not grow with F, which pays on small nodes, where per-call overhead costs
more than the arithmetic. Trees that split off small minority regions make
many: in a perfbench ``noise_sweep`` round 73% of the searches were on nodes
of at most 4 096 rows x features, the median node 28 rows x 4. There a
search took 29 us against 54 us. On large nodes the (F, m) temporaries leave
L2 (about 1 MB each at 8 x 16 000), and ``_scan_feature`` is up to 3.4x faster.
Timed on every node of single-core runs, the crossover lay between 4 096
and 8 192 cells: ``NODE_CELLS``.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

DENOM_EPS = 1e-12
# best_split scans a node of at most this many rows x features in one
# _scan_node pass, a larger one feature by feature (see the module docstring)
NODE_CELLS = 4096
NUMBER = (int, float)  # the JSON types of a number


class ModelFormatError(ValueError):
    """A model document, or a tree record in it, that cannot be read."""


def require_fields(record, kinds, what):
    """Raise ModelFormatError unless ``record`` is a JSON object with exactly
    the fields of ``kinds``, each of a type in ``kinds[field]`` (any, if that
    is empty); name the missing fields, else the first unknown or mistyped one."""
    if not isinstance(record, dict):
        raise ModelFormatError(f"{what} is not a JSON object")
    absent = [name for name in kinds if name not in record]
    if absent:
        raise ModelFormatError(f"{what} lacks {', '.join(map(repr, absent))}")
    for name, value in record.items():
        if name not in kinds:
            raise ModelFormatError(f"{what} has an unknown field {name!r}")
        if kinds[name] and type(value) not in kinds[name]:
            raise ModelFormatError(f"{what} has {name} {value!r}")


@dataclass(frozen=True)
class TreeConfig:
    lam: float = 1.0
    min_samples_leaf: int = 1
    min_sum_hessian: float = 1e-3
    min_gain: float = 0.0
    max_depth: int = 6
    max_leaves: int = 31

    def __post_init__(self):
        if not all(0.0 <= v < np.inf for v in (self.lam, self.min_sum_hessian, self.min_gain)):
            raise ValueError("lam, min_sum_hessian and min_gain must be finite and >= 0")
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
            go_left = route_left(columns[f].take(rows), self.default_left[node],
                                 self.threshold[node])
            stack.append((self.left[node], rows.compress(go_left)))
            stack.append((self.right[node], rows.compress(~go_left)))
        return out

    def to_dict(self):
        return {column: list(getattr(self, column)) for column in TREE_FIELDS}

    @classmethod
    def from_dict(cls, d):
        require_fields(d, dict.fromkeys(TREE_FIELDS, (list,)), "a tree record")
        return cls(**{column: list(d[column]) for column in TREE_FIELDS})

    def check(self, n_features: int):
        """Raise ModelFormatError unless every threshold and value is a finite
        number, every default_left a bool, and every descent from the root
        reads a feature in [0, n_features) and ends at a leaf."""
        n = len(self.value)
        if n == 0 or any(len(getattr(self, column)) != n for column in TREE_FIELDS):
            raise ModelFormatError("a tree's node lists are empty or differ in length")
        for column, kinds in (("threshold", NUMBER), ("value", NUMBER), ("default_left", (bool,))):
            for i, v in enumerate(getattr(self, column)):
                if type(v) not in kinds or not -np.inf < v < np.inf:
                    raise ModelFormatError(f"tree node {i} has {column} {v!r}")
        for i, (f, left, right) in enumerate(zip(self.feature, self.left, self.right)):
            if f != -1 and (type(f) is not int or not 0 <= f < n_features):
                raise ModelFormatError(
                    f"tree node {i} splits on feature {f!r}; the model has {n_features}")
            if f != -1 and not all(type(c) is int and i < c < n for c in (left, right)):
                raise ModelFormatError(
                    f"tree node {i} has children {left!r}, {right!r}; each must lie in ({i}, {n})")


def leaf_weight(sum_g: float, sum_h: float, lam: float) -> float:
    """Newton-optimal leaf output -sum_g / (sum_h + lam), or 0.0 when that
    denominator is degenerate (the scan rejects a child's on the same sum)."""
    denom = sum_h + lam
    return 0.0 if abs(denom) <= DENOM_EPS else -sum_g / denom


def route_left(vals, default_left, threshold):
    """Which of ``vals`` a split sends left: missing (NaN) ones when
    ``default_left``, present ones when ``<= threshold``. A comparison with
    NaN is False, so one comparison routes both."""
    return ~(vals > threshold) if default_left else vals <= threshold


def presort(columns, rows):
    """The (len(rows), n_features) row-id matrix whose column f lists ``rows``
    in ascending order of feature f, NaN last, ties in ``rows`` order."""
    return rows[columns.take(rows, axis=1).argsort(axis=1, kind="stable")].T


def partition_sorted(order, keep, n_kept):
    """Split the presort matrix ``order`` into the ``n_kept`` rows for which
    ``keep`` (indexed by row id) holds and the rest, each a presort matrix:
    every feature's list, filtered in order, stays sorted."""
    n, n_features = order.shape
    flat = order.T.ravel()  # feature by feature; a view of a presort matrix
    kept = keep.take(flat)
    # explicit row counts: with no features, -1 cannot be resolved
    return (flat.compress(kept).reshape(n_features, n_kept).T,
            flat.compress(~kept).reshape(n_features, n - n_kept).T)


def _inadmissible(gain, HL, HR, dl, dr, min_sum_hessian):
    """Which cuts no split may take: a gain that is not finite, a Hessian sum
    below ``min_sum_hessian`` or a degenerate Newton denominator. Takes
    arrays or numpy scalars; plain operators keep a scalar cheap."""
    return (~np.isfinite(gain) | (HL < min_sum_hessian) | (HR < min_sum_hessian)
            | (abs(dl) <= DENOM_EPS) | (abs(dr) <= DENOM_EPS))


def _scan_feature(f, vals, g, h, config: TreeConfig) -> Optional[SplitCandidate]:
    """Best split of one node on feature ``f``, whose values ``vals`` ascend
    with NaN (missing) last; ``g`` and ``h`` follow their order."""
    n = vals.size
    n_present = int(vals.searchsorted(np.nan))  # the first NaN
    pv = vals[:n_present]
    # boundaries between consecutive distinct present values; None when every
    # gap is one, so that cut i is at position i and prefixes are views
    rises = pv[:-1] < pv[1:]
    n_cuts = int(np.count_nonzero(rises))
    if n_cuts == 0:
        return None
    cut = None if n_cuts == rises.size else rises.nonzero()[0]

    cg, ch = g[:n_present].cumsum(), h[:n_present].cumsum()
    n_miss = n - n_present
    g_miss = h_miss = 0.0  # what the sums of no rows give, signs of zeros included
    if n_miss:
        g_miss, h_miss = float(g[n_present:].sum()), float(h[n_present:].sum())
    G_tot, H_tot = cg[-1] + g_miss, ch[-1] + h_miss

    denom_p = H_tot + config.lam
    if abs(denom_p) <= DENOM_EPS:
        return None
    parent_term = G_tot * G_tot / denom_p

    GL_cut, HL_cut = (cg[:-1], ch[:-1]) if cut is None else (cg[cut], ch[cut])
    msl = config.min_samples_leaf
    best = (-np.inf,)  # gain first
    # missing rows right, then left (only if any), each cut in ascending order:
    # a later candidate wins only with a strictly higher gain
    for shift in (0, n_miss) if n_miss else (0,):
        # min_samples_leaf holds for the cuts at positions in [low, high), and
        # positions ascend; the searches are skipped where the bounds cannot bind
        low, high = msl - 1 - shift, n - msl - shift
        start, stop = max(low, 0), min(high, n_cuts)
        if cut is not None and (low > 0 or high < n_present - 1):
            start, stop = cut.searchsorted((low, high))
        if start >= stop:
            continue
        GL, HL = GL_cut[start:stop], HL_cut[start:stop]
        if shift:
            GL, HL = GL + g_miss, HL + h_miss
        GR, HR = G_tot - GL, H_tot - HL
        dl, dr = HL + config.lam, HR + config.lam
        # near-zero denominators (a division by zero, an overflow) are masked below;
        # best_split silences their warnings
        gain = 0.5 * (GL * GL / dl + GR * GR / dr - parent_term)
        # the first max, or the first NaN; if admissible, it is also the first
        # max after masking (see the module docstring)
        k = int(gain.argmax())
        msh = config.min_sum_hessian
        if _inadmissible(gain[k], HL[k], HR[k], dl[k], dr[k], msh):
            gain[_inadmissible(gain, HL, HR, dl, dr, msh)] = -np.inf
            k = int(gain.argmax())  # the first admissible max: the lowest threshold
        if gain[k] > best[0]:
            best = (gain[k], start + k, shift, GL[k], HL[k], GR[k], HR[k])
    if best[0] < config.min_gain or not np.isfinite(best[0]):
        return None
    gain, i, shift, gl, hl, gr, hr = best
    c = i if cut is None else int(cut[i])
    lo, hi = float(pv[c]), float(pv[c + 1])
    mid = 0.5 * lo + 0.5 * hi  # cannot overflow; lo where it rounds up to hi
    n_left = c + 1 + shift
    return SplitCandidate(f, mid if mid < hi else lo, float(gain), shift > 0,
                          float(gl), float(hl), float(gr), float(hr), n_left, n - n_left)


def _scan_node(columns, rows, g, h, config: TreeConfig) -> Optional[SplitCandidate]:
    """``best_split`` of the node whose ``presort`` matrix is ``rows``, all
    features in one pass: the cuts, sums and gains of ``_scan_feature``, bit
    for bit, in (feature, missing direction, position) blocks."""
    n, n_features = rows.shape
    if n < 2 or n_features == 0:
        return None
    ids = rows.T  # (F, n): row f lists the node's rows by ascending feature f
    vals = columns[np.arange(n_features)[:, None], ids]
    gv, hv = g.take(ids), h.take(ids)
    cg, ch = np.add.accumulate(gv, axis=1), np.add.accumulate(hv, axis=1)  # sequential
    # position i is a cut between rows i and i + 1 unless the values tie or
    # either is NaN; min_samples_leaf bounds the rows left of a cut
    msl = config.min_samples_leaf
    no_cut = ~(vals[:, :-1] < vals[:, 1:])
    missing = np.isnan(vals[:, -1])  # NaN sorts last
    if missing.any():
        # direction 1 sends the missing rows left: its bounds shift by their
        # count, and a feature with none has no such cut
        n_present = n - np.count_nonzero(np.isnan(vals), axis=1)
        g_miss, h_miss = np.zeros(n_features), np.zeros(n_features)
        no_cut = np.stack((no_cut, no_cut | ~missing[:, None]), axis=1)
        for f in missing.nonzero()[0]:
            p = int(n_present[f])  # the 1-D sums of _scan_feature, bit for bit
            g_miss[f], h_miss[f] = gv[f, p:].sum(), hv[f, p:].sum()
            no_cut[f, 1, :max(msl - 1 - (n - p), 0)] = no_cut[f, 1, max(p - msl, 0):] = True
        last = np.arange(n_features), n_present - 1
        GL, HL = np.empty(no_cut.shape), np.empty(no_cut.shape)
        GL[:, 0], HL[:, 0] = cg[:, :-1], ch[:, :-1]
        np.add(cg[:, :-1], g_miss[:, None], out=GL[:, 1])
        np.add(ch[:, :-1], h_miss[:, None], out=HL[:, 1])
    else:
        g_miss = h_miss = 0.0
        last = np.s_[:, -1]
        no_cut, GL, HL = no_cut[:, None], cg[:, None, :-1], ch[:, None, :-1]
    no_cut[:, 0, :msl - 1] = no_cut[:, 0, max(n - msl, 0):] = True
    G_tot, H_tot = cg[last] + g_miss, ch[last] + h_miss

    denom_p = H_tot + config.lam
    live = abs(denom_p) > DENOM_EPS
    if not live.any():
        return None
    no_cut |= ~live[:, None, None]
    parent_term = (G_tot * G_tot / denom_p)[:, None, None]
    GR, HR = G_tot[:, None, None] - GL, H_tot[:, None, None] - HL
    dl, dr = HL + config.lam, HR + config.lam
    gain = 0.5 * (GL * GL / dl + GR * GR / dr - parent_term)
    np.copyto(gain, -np.inf, where=no_cut)
    # the first max, or the first NaN, in (feature, direction, position) order,
    # the ties' order; if admissible, it is also the first max after masking
    msh = config.min_sum_hessian
    at = np.unravel_index(int(gain.argmax()), gain.shape)
    if _inadmissible(gain[at], HL[at], HR[at], dl[at], dr[at], msh):
        np.copyto(gain, -np.inf, where=_inadmissible(gain, HL, HR, dl, dr, msh))
        at = np.unravel_index(int(gain.argmax()), gain.shape)
    if gain[at] < config.min_gain or not np.isfinite(gain[at]):
        return None
    f, d, c = (int(i) for i in at)
    lo, hi = float(vals[f, c]), float(vals[f, c + 1])
    mid = 0.5 * lo + 0.5 * hi  # as in _scan_feature
    n_left = c + 1 + (int(np.isnan(vals[f]).sum()) if d else 0)
    return SplitCandidate(f, mid if mid < hi else lo, float(gain[at]), d == 1,
                          float(GL[at]), float(HL[at]), float(GR[at]), float(HR[at]),
                          n_left, n - n_left)


def best_split(columns, rows, g, h, config: TreeConfig) -> Optional[SplitCandidate]:
    """Exact greedy search over all features for the node whose ``presort``
    matrix is ``rows``: in one ``_scan_node`` pass if it has at most
    ``NODE_CELLS`` rows x features, else feature by feature. Gain ties go to
    the lowest feature index, then missing rows right, then the lowest
    threshold."""
    best = None
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if rows.size <= NODE_CELLS:
            return _scan_node(columns, rows, g, h, config)
        for f in range(len(columns)):
            ids = rows[:, f]
            cand = _scan_feature(f, columns[f].take(ids), g.take(ids), h.take(ids), config)
            if cand is not None and (best is None or cand.gain > best.gain):
                best = cand
    return best


def grow_tree(columns, order, rows, g, h, config: TreeConfig, out) -> Tree:
    """Best-first growth on the distinct, ascending row ids ``rows``:
    repeatedly expand the frontier leaf with the highest split gain until no
    leaf admits a split or the leaf cap binds. ``order`` is the fit's
    ``presort(columns, np.arange(n))``, filtered here to ``rows``.

    ``out``, indexed by row id, receives the tree's output on ``rows``, the
    same as ``predict`` gives: a split routes its node's rows as ``predict``
    does and writes its children's values over the node's. Other rows of
    ``out`` are left as they are.
    """
    rows = np.asarray(rows)
    tree = Tree()
    sum_g, sum_h = float(g[rows].sum()), float(h[rows].sum())
    root = leaf_weight(sum_g, sum_h, config.lam)
    tree.add_leaf(root)
    out[rows] = root
    # min_sum_hessian would reject every cut: skip the scan (every round for mae)
    if rows.size == 0 or sum_h < config.min_sum_hessian:
        return tree

    counter = itertools.count()  # heap tiebreak: earlier-pushed candidate wins
    heap = []
    n_leaves = 1
    side = np.zeros(columns.shape[1], dtype=bool)  # indexed by row id: the rows a filter keeps

    def push(node, node_rows, depth):
        # a node can be expanded only while the leaf cap leaves room
        if (n_leaves >= config.max_leaves or depth >= config.max_depth
                or len(node_rows) < 2 * config.min_samples_leaf):
            return
        # rows by keyword: a tracer wrapping best_split reads it by name
        cand = best_split(columns, rows=node_rows, g=g, h=h, config=config)
        if cand is not None:
            heapq.heappush(heap, (-cand.gain, next(counter), node, node_rows, depth, cand))

    if rows.size == order.shape[0]:  # every row: the presort is the root's own
        push(0, order, 0)
    else:
        side[rows] = True
        push(0, partition_sorted(order, side, rows.size)[0], 0)
    while heap and n_leaves < config.max_leaves:
        _, _, node, node_rows, depth, cand = heapq.heappop(heap)
        ids = node_rows[:, cand.feature]
        go_left = route_left(columns[cand.feature].take(ids), cand.default_left, cand.threshold)
        side[ids] = go_left

        tree.feature[node] = cand.feature
        tree.threshold[node] = cand.threshold
        tree.default_left[node] = cand.default_left
        left_value = leaf_weight(cand.g_left, cand.h_left, config.lam)
        right_value = leaf_weight(cand.g_right, cand.h_right, config.lam)
        tree.left[node] = tree.add_leaf(left_value)
        tree.right[node] = tree.add_leaf(right_value)
        out[ids] = np.where(go_left, left_value, right_value)
        n_leaves += 1

        left, right = partition_sorted(node_rows, side, cand.n_left)
        push(tree.left[node], left, depth + 1)
        push(tree.right[node], right, depth + 1)
    return tree


@dataclass(frozen=True)
class GainScenario:
    """Parameterized gain after part of a node's Hessian mass is negated:
    G_L = mu*G, perturbed sum Hhat = theta*H, Hhat_L = tau*Hhat.
    """

    G: float
    H: float
    mu: float
    theta: float
    tau: float
    lam: float = 0.0


def decomposed_gain(s: GainScenario) -> float:
    """G^2 (mu^2/(tau*theta*H+lam) + (1-mu)^2/((1-tau)*theta*H+lam) - 1/(theta*H+lam))."""
    d1 = s.tau * s.theta * s.H + s.lam
    d2 = (1.0 - s.tau) * s.theta * s.H + s.lam
    d3 = s.theta * s.H + s.lam
    if min(abs(d1), abs(d2), abs(d3)) <= DENOM_EPS:
        raise ZeroDivisionError(f"a degenerate denominator among {d1}, {d2}, {d3}")
    return s.G**2 * (s.mu**2 / d1 + (1.0 - s.mu) ** 2 / d2 - 1.0 / d3)
