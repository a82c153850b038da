"""Tabular data as one (n_features, n) feature matrix with NaN for missing
cells, CSV loading, and deterministic train/test splitting.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

DEFAULT_MISSING_TOKENS = ("", "NA", "NaN", "?")


class CsvParseError(ValueError):
    pass


class SplitError(ValueError):
    pass


@dataclass
class TabularDataset:
    columns: np.ndarray  # C-contiguous (n_features, n) float64; NaN marks a missing cell
    labels: np.ndarray  # int class ids in [0, n_classes)
    feature_names: list
    class_names: list  # original label tokens, first-appearance order

    @property
    def n_samples(self) -> int:
        return len(self.labels)

    @property
    def n_features(self) -> int:
        return self.columns.shape[0]

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    def subset(self, rows) -> "TabularDataset":
        rows = np.asarray(rows)
        return TabularDataset(
            columns=self.columns.take(rows, axis=1),
            labels=self.labels[rows],
            feature_names=list(self.feature_names),
            class_names=list(self.class_names),
        )

    def with_labels(self, labels) -> "TabularDataset":
        labels = np.asarray(labels)
        if labels.shape != self.labels.shape:
            raise ValueError("label array shape mismatch")
        return TabularDataset(
            columns=self.columns,
            labels=labels,
            feature_names=list(self.feature_names),
            class_names=list(self.class_names),
        )


def from_arrays(X, y, feature_names=None, class_names=None) -> TabularDataset:
    """Build a dataset from a dense (n, m) feature matrix, NaN marking a
    missing cell, and labels."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    if np.isinf(X).any():
        raise ValueError("feature cells must be finite or NaN (missing), found inf")
    if class_names is None:
        class_names = [str(c) for c in sorted(set(y.tolist()))]
        mapping = {c: i for i, c in enumerate(sorted(set(y.tolist())))}
        labels = np.array([mapping[v] for v in y.tolist()], dtype=np.int64)
    else:
        labels = y.astype(np.int64)
    if feature_names is None:
        feature_names = [f"f{j}" for j in range(X.shape[1])]
    return TabularDataset(np.ascontiguousarray(X.T), labels, list(feature_names),
                          list(class_names))


def load_csv(path, label_column, missing_tokens=DEFAULT_MISSING_TOKENS,
             delimiter=",") -> TabularDataset:
    """Load a headered CSV. Feature cells must be finite numbers or a missing
    token, which becomes NaN; labels are encoded by first appearance. No
    imputation is performed.
    """
    missing_tokens = set(missing_tokens)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvParseError(f"{path}: empty file")
        if label_column not in header:
            raise CsvParseError(f"{path}: label column {label_column!r} not in header")
        label_idx = header.index(label_column)
        feature_names = [h for i, h in enumerate(header) if i != label_idx]

        values, raw_labels = [], []
        for row_no, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise CsvParseError(f"{path}: row {row_no} has {len(row)} cells, expected {len(header)}")
            raw_labels.append(row[label_idx])
            vrow = []
            for i, cell in enumerate(row):
                if i == label_idx:
                    continue
                if cell in missing_tokens:
                    vrow.append(math.nan)
                    continue
                try:
                    v = float(cell)
                except ValueError:
                    v = math.nan  # reported below, with the non-finite numbers
                if not math.isfinite(v):
                    raise CsvParseError(
                        f"{path}: row {row_no}, column {header[i]!r}: "
                        f"{cell!r} is not a finite number or a missing token"
                    )
                vrow.append(v)
            values.append(vrow)

    class_names = []
    seen = {}
    labels = np.empty(len(raw_labels), dtype=np.int64)
    for i, tok in enumerate(raw_labels):
        if tok not in seen:
            seen[tok] = len(class_names)
            class_names.append(tok)
        labels[i] = seen[tok]

    V = np.array(values, dtype=float).reshape(len(values), len(feature_names))
    return TabularDataset(
        columns=np.ascontiguousarray(V.T),
        labels=labels,
        feature_names=feature_names,
        class_names=class_names,
    )


def dump_csv(dataset: TabularDataset, path, label_column="label",
             missing_token="NA", delimiter=","):
    """Write back to CSV; missing cells become the canonical missing token.

    Present values use repr-shortest float formatting, so load -> dump ->
    load round-trips bit-exactly.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, delimiter=delimiter)
        writer.writerow(list(dataset.feature_names) + [label_column])
        for values, label in zip(dataset.columns.T.tolist(), dataset.labels):
            row = [missing_token if v != v else repr(v) for v in values]
            row.append(dataset.class_names[label])
            writer.writerow(row)


@dataclass
class SplitPlan:
    train_indices: np.ndarray
    test_indices: np.ndarray
    fraction: float
    seed: int
    stratified: bool


def train_test_split(dataset: TabularDataset, fraction: float, seed: int,
                     stratified: bool = True) -> SplitPlan:
    """Deterministic holdout split; stratified mode keeps class proportions
    within one sample per class.
    """
    if not 0.0 < fraction < 1.0:
        raise SplitError(f"fraction must be in (0, 1), got {fraction}")
    rng = np.random.default_rng(seed)
    n = dataset.n_samples
    if stratified:
        train_parts, test_parts = [], []
        for k in range(dataset.n_classes):
            idx = np.nonzero(dataset.labels == k)[0]
            if idx.size < 2:
                raise SplitError(f"class {dataset.class_names[k]!r} has fewer than 2 samples")
            perm = rng.permutation(idx)
            n_train = int(round(fraction * idx.size))
            n_train = min(max(n_train, 1), idx.size - 1)
            train_parts.append(perm[:n_train])
            test_parts.append(perm[n_train:])
        train = np.sort(np.concatenate(train_parts))
        test = np.sort(np.concatenate(test_parts))
    else:
        perm = rng.permutation(n)
        n_train = int(round(fraction * n))
        train = np.sort(perm[:n_train])
        test = np.sort(perm[n_train:])
    return SplitPlan(train, test, fraction, seed, stratified)


def imbalance_ratio(dataset: TabularDataset) -> float:
    """Majority-class count divided by minority-class count."""
    counts = np.bincount(dataset.labels, minlength=dataset.n_classes)
    counts = counts[counts > 0]
    if counts.size < 2:
        raise ValueError("imbalance ratio needs at least 2 classes present")
    return float(counts.max()) / float(counts.min())
