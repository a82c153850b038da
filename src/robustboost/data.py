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


def check_unique(names, error, what):
    """Raise ``error`` naming the first of ``names`` that equals an earlier one."""
    seen = set()
    for name in names:
        if name in seen:
            raise error(f"{what} {name!r}")
        seen.add(name)


def from_arrays(X, y, feature_names=None, class_names=None) -> TabularDataset:
    """Build a dataset from a dense (n, m) feature matrix, NaN marking a
    missing cell, and labels."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    if X.ndim != 2 or y.ndim != 1:
        raise ValueError(f"X must be an (n, m) matrix and y a vector of n labels, "
                         f"got shapes {X.shape} and {y.shape}")
    if X.shape[0] != y.size:
        raise ValueError(f"X has {X.shape[0]} rows but y has {y.size} labels")
    if np.isinf(X).any():
        raise ValueError("feature cells must be finite or NaN (missing), found inf")
    if class_names is None:
        class_names = [str(c) for c in sorted(set(y.tolist()))]
        mapping = {c: i for i, c in enumerate(sorted(set(y.tolist())))}
        labels = np.array([mapping[v] for v in y.tolist()], dtype=np.int64)
    else:
        check_unique(class_names, ValueError, "repeated class name")
        valid = np.isin(y, np.arange(len(class_names)))
        if not valid.all():
            raise ValueError(f"label {y[~valid].tolist()[0]!r} is not a class id "
                             f"in [0, {len(class_names)})")
        labels = y.astype(np.int64)
    if feature_names is None:
        feature_names = [f"f{j}" for j in range(X.shape[1])]
    feature_names = list(feature_names)
    if len(feature_names) != X.shape[1]:
        raise ValueError(f"X has {X.shape[1]} columns but {len(feature_names)} feature names")
    check_unique(feature_names, ValueError, "repeated feature name")
    return TabularDataset(np.ascontiguousarray(X.T), labels, feature_names, list(class_names))


def load_csv(path, label_column) -> TabularDataset:
    """Load a headered CSV. Feature cells must be finite numbers or a missing
    token, which becomes NaN; labels must be present and are encoded by first
    appearance. No imputation is performed. A UTF-8 byte-order mark is skipped."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvParseError(f"{path}: empty file")
        check_unique(header, CsvParseError, f"{path}: repeated header")
        if label_column not in header:
            raise CsvParseError(f"{path}: label column {label_column!r} not in header")
        label_idx = header.index(label_column)
        feature_names = [h for i, h in enumerate(header) if i != label_idx]

        values, raw_labels = [], []
        for row_no, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise CsvParseError(f"{path}: row {row_no} has {len(row)} cells, expected {len(header)}")
            if row[label_idx] in DEFAULT_MISSING_TOKENS:
                raise CsvParseError(f"{path}: row {row_no}, column {label_column!r}: "
                                    f"missing label {row[label_idx]!r}")
            raw_labels.append(row[label_idx])
            vrow = []
            for i, cell in enumerate(row):
                if i == label_idx:
                    continue
                if cell in DEFAULT_MISSING_TOKENS:
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


def write_csv(path, header, rows):
    """Write ``header``, then ``rows``, to ``path`` as UTF-8 CSV in the default
    dialect: every table the program writes. A cell is written with ``str``, which
    for a Python float is its repr, so pass Python floats (``float(x)``,
    ``.tolist()``), never numpy scalars."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def dump_csv(dataset: TabularDataset, path):
    """Write back to CSV, the labels last as ``label``, missing cells as ``NA``,
    so load -> dump -> load round-trips bit-exactly. A name that would not
    read back, or a class that no row carries, raises ValueError before
    anything is written.
    """
    header = list(dataset.feature_names) + ["label"]
    check_unique(header, ValueError, "repeated header")
    carried = np.bincount(dataset.labels, minlength=dataset.n_classes)
    for name, rows in zip(dataset.class_names, carried):
        if name in DEFAULT_MISSING_TOKENS:
            raise ValueError(f"class name {name!r} would read back as a missing label")
        if not rows:
            raise ValueError(f"class {name!r} has no row, so it would not read back")
    write_csv(path, header, ([*("NA" if v != v else v for v in values), dataset.class_names[k]]
                             for values, k in zip(dataset.columns.T.tolist(), dataset.labels)))


@dataclass
class SplitPlan:
    train_indices: np.ndarray
    test_indices: np.ndarray


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
    return SplitPlan(train, test)
