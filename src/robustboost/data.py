"""Tabular data as one (n_features, n) feature matrix with NaN for missing
cells, CSV loading, and deterministic train/test splitting.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass

import numpy as np

DEFAULT_MISSING_TOKENS = ("", "NA", "NaN", "?")
# each missing token mapped to the text that float() reads as NaN
MISSING = dict.fromkeys(DEFAULT_MISSING_TOKENS, "nan")
BLOCK_ROWS = 1024  # rows load_csv and write_csv handle at a time
QUOTED = ',"\r\n'  # what a CSV cell holds that makes it quoted


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
    appearance. No imputation is performed. A UTF-8 byte-order mark is skipped.

    Rows are read in blocks of ``BLOCK_ROWS``, and each block is parsed a
    column at a time. A block is checked whole before the next is read; one
    that holds an error is read again row by row to name the first one, as a
    row-by-row reader would: at a row, a wrong cell count, then a missing
    label, then the cells left to right."""
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
        features = [i for i in range(len(header)) if i != label_idx]

        blocks, label_blocks, codes = [np.empty((len(features), 0))], [np.empty(0, np.int64)], {}
        row_no = 2  # the file's first data row
        while True:
            rows = []
            try:
                rows.extend(itertools.islice(reader, BLOCK_ROWS))
            except (csv.Error, UnicodeDecodeError):  # an earlier row's error comes first
                _raise_first_error(path, header, label_idx, rows, row_no)
                raise
            if not rows:
                break
            block = _parse_block(rows, len(header), label_idx, features)
            if block is None:
                _raise_first_error(path, header, label_idx, rows, row_no)
            values, labels = block
            for tok in dict.fromkeys(labels):  # first-appearance order
                codes.setdefault(tok, len(codes))
            blocks.append(values)
            label_blocks.append(np.fromiter(map(codes.__getitem__, labels), np.int64, len(labels)))
            row_no += len(rows)

    return TabularDataset(
        columns=np.concatenate(blocks, axis=1),
        labels=np.concatenate(label_blocks),
        feature_names=[header[i] for i in features],
        class_names=list(codes),
    )


def _parse_block(rows, width, label_idx, features):
    """The (len(features), len(rows)) values and the label tokens of ``rows``,
    or None if any row holds an error."""
    if {*map(len, rows)} != {width}:
        return None
    cells = list(itertools.chain.from_iterable(rows))
    labels = cells[label_idx::width]
    if not MISSING.keys().isdisjoint(labels):
        return None
    values = np.empty((len(features), len(rows)))
    for j, i in enumerate(features):
        column = cells[i::width]
        try:
            values[j] = np.fromiter(map(float, map(MISSING.get, column, column)), float,
                                    len(rows))
        except ValueError:  # a cell that is not a number
            return None
        bad = ~np.isfinite(values[j])
        # NaN from a missing token is allowed; a NaN or inf from a number is not
        if bad.any() and not MISSING.keys() >= {column[k] for k in bad.nonzero()[0]}:
            return None
    return values, labels


def _raise_first_error(path, header, label_idx, rows, row_no):
    """Raise CsvParseError for the first error in ``rows``, the first of which
    is the file's row ``row_no``; return if they hold none."""
    for row_no, row in enumerate(rows, start=row_no):
        if len(row) != len(header):
            raise CsvParseError(f"{path}: row {row_no} has {len(row)} cells, "
                                f"expected {len(header)}")
        if row[label_idx] in MISSING:
            raise CsvParseError(f"{path}: row {row_no}, column {header[label_idx]!r}: "
                                f"missing label {row[label_idx]!r}")
        for i, cell in enumerate(row):
            if i == label_idx or cell in MISSING:
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


def write_csv(path, header, columns):
    """Write ``header``, then the rows of ``columns``, one sequence of cells per
    header name, to ``path`` as UTF-8 CSV in the default dialect: every table
    the program writes. The bytes are those of ``csv.writer``: a cell is
    written with ``str``, which for a Python float is its repr, so pass Python
    floats (``float(x)``, ``.tolist()``), never numpy scalars; None is written
    empty; a cell is quoted only when it holds a comma, a quote or a line break.
    The rows are formatted in blocks of ``BLOCK_ROWS``, a column at a time."""
    lengths = {*map(len, columns)}
    if len(header) != len(columns) or len(lengths) > 1:
        raise ValueError(f"{len(header)} header names for columns of lengths "
                         f"{[len(column) for column in columns]}")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(_csv_rows([[name] for name in header]))
        for start in range(0, max(lengths, default=0), BLOCK_ROWS):
            fh.write(_csv_rows([column[start:start + BLOCK_ROWS] for column in columns]))


def _csv_rows(columns):
    """The CSV text, line ends included, of the rows of ``columns``: each
    column is quoted cell by cell only if its joined text needs quoting."""
    texts = []
    for column in columns:
        text = list(map(str, column))
        if "None" in text:  # the text of None, or of the string "None"
            text = ["" if v is None else str(v) for v in column]
        if _quoted("".join(text)):
            text = ['"' + t.replace('"', '""') + '"' if _quoted(t) else t for t in text]
        texts.append(text)
    if len(texts) == 1:  # a row of one empty cell is written "", not as a blank line
        texts[0] = [t or '""' for t in texts[0]]
    return "\r\n".join(map(",".join, zip(*texts))) + "\r\n"


def _quoted(text):
    """Whether ``text`` holds a character that makes a CSV cell quoted."""
    return any(c in text for c in QUOTED)


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
    write_csv(path, header, [*(["NA" if v != v else v for v in column]
                               for column in dataset.columns.tolist()),
                             [dataset.class_names[k] for k in dataset.labels.tolist()]])


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
