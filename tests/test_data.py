import csv
import io
import math
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustboost import data as data_module
from robustboost.booster import BoosterConfig, BoosterModel, align
from robustboost.data import (BLOCK_ROWS, DEFAULT_MISSING_TOKENS, CsvParseError, SplitError,
                              TabularDataset, dump_csv, from_arrays, load_csv,
                              train_test_split, write_csv)


def load_csv_row_by_row(path, label_column) -> TabularDataset:
    """The reference loader: one row, then one cell, at a time."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvParseError(f"{path}: empty file")
        data_module.check_unique(header, CsvParseError, f"{path}: repeated header")
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


def load_outcome(load, path):
    """What ``load`` makes of ``path``: its error message, or the dataset's
    bytes, shapes, dtypes and names."""
    try:
        ds = load(path, "label")
    except CsvParseError as exc:
        return str(exc)
    return (ds.columns.tobytes(), ds.columns.shape, ds.columns.dtype,
            ds.columns.flags["C_CONTIGUOUS"], ds.labels.tobytes(), ds.labels.dtype,
            ds.feature_names, ds.class_names)


NUMBER_CELLS = st.one_of(st.sampled_from(["1", "-2.5", "1e3", "-0.0", " 7 ", "1_0"]),
                         st.floats(allow_nan=False, allow_infinity=False).map(repr))
BAD_CELLS = ["oops", "nan", "inf", "-Infinity", "1e400", "0x1"]
LABEL_TOKENS = ["a", "b", "c,d", 'say "hi"', "\u00e9"]


@st.composite
def csv_files(draw):
    """A CSV's header and rows: numbers, missing tokens and labels, each row
    possibly cut short, lengthened, or given a missing label or a bad cell;
    optionally after a clean block's worth of rows."""
    width = draw(st.integers(1, 4))
    label_at = draw(st.integers(0, width - 1))
    header = [f"c{j}" for j in range(width)]
    header[label_at] = "label"
    cells = st.one_of(NUMBER_CELLS, st.sampled_from(DEFAULT_MISSING_TOKENS))
    row = st.tuples(st.lists(cells, min_size=width - 1, max_size=width - 1),
                    st.sampled_from(LABEL_TOKENS)).map(
        lambda t: [*t[0][:label_at], t[1], *t[0][label_at:]])
    rows = draw(st.lists(row, max_size=12))
    faults = st.tuples(st.integers(0, len(rows) - 1),
                       st.sampled_from(["short", "long", "label", "cell", "cell"]),
                       st.integers(0, width - 1))
    for at, kind, j in draw(st.lists(faults, max_size=2)) if rows else ():
        cells = rows[at]
        if kind == "short" and cells:
            cells.pop()
        elif kind == "long":
            cells.append("1")
        elif kind == "label" and label_at < len(cells):
            cells[label_at] = draw(st.sampled_from(DEFAULT_MISSING_TOKENS))
        elif kind == "cell" and width > 1 and j < len(cells):
            cells[j if j != label_at else j - 1] = draw(st.sampled_from(BAD_CELLS))
    # a first error, if any, in a later block than the first
    rows = [draw(row)] * draw(st.sampled_from([0, 0, BLOCK_ROWS + 5])) + rows
    return header, rows


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestLoadCsv:
    def test_basic_load_with_missing(self, tmp_path):
        path = write(tmp_path, "a,b,label\n1.5,2.0,x\n3.0,?,y\n4.0,5.0,x\n")
        ds = load_csv(path, label_column="label")
        assert ds.n_samples == 3 and ds.n_features == 2
        assert int(np.isnan(ds.columns).sum()) == 1
        assert bool(np.isnan(ds.columns[1, 1]))
        npt.assert_array_equal(ds.columns[0], [1.5, 3.0, 4.0])

    def test_label_first_appearance_order(self, tmp_path):
        path = write(tmp_path, "a,label\n1,b\n2,a\n3,b\n")
        ds = load_csv(path, label_column="label")
        npt.assert_array_equal(ds.labels, [0, 1, 0])
        assert ds.class_names == ["b", "a"]

    def test_unknown_label_column(self, tmp_path):
        path = write(tmp_path, "a,label\n1,b\n")
        with pytest.raises(CsvParseError, match="target"):
            load_csv(path, label_column="target")

    @pytest.mark.parametrize("header,named", [("x,x,label", "'x'"), ("label,a,label", "'label'")])
    def test_repeated_header_rejected(self, tmp_path, header, named):
        # a repeated name would make align match both model columns to the first one
        path = write(tmp_path, f"{header}\n1,2,3\n4,5,6\n")
        with pytest.raises(CsvParseError, match=f"repeated header {named}"):
            load_csv(path, label_column="label")

    def test_bad_cell_names_location(self, tmp_path):
        # NaN marks a missing cell, so a present cell must be a finite number
        for cell in ("oops", "nan", "inf", "-Infinity"):
            path = write(tmp_path, f"a,b,label\n1,2,x\n1,{cell},y\n")
            with pytest.raises(CsvParseError, match="row 3.*'b'"):
                load_csv(path, label_column="label")

    @pytest.mark.parametrize("cell", ["", "NA", "NaN", "?"])
    def test_missing_label_names_location(self, tmp_path, cell):
        # a missing label is not a class: it used to load as class name ''
        path = write(tmp_path, f"a,b,label\n1,2,pos\n3,4,neg\n5,6,{cell}\n7,8,pos\n")
        with pytest.raises(CsvParseError, match=f"row 4, column 'label': missing label '{cell}'"):
            load_csv(path, label_column="label")

    @pytest.mark.parametrize("header", ["label,a,b", "a,b,label"])
    def test_byte_order_mark_is_skipped(self, tmp_path, header):
        # it was read into the first header name: 'label' went unfound, 'a' became '\ufeffa'
        cells = [{"label": "x", "a": "1", "b": "2"}, {"label": "y", "a": "3", "b": "?"}]
        names = header.split(",")
        path = tmp_path / "bom.csv"
        path.write_text("\n".join([header] + [",".join(c[k] for k in names) for c in cells]),
                        encoding="utf-8-sig")
        ds = load_csv(str(path), label_column="label")
        assert ds.feature_names == ["a", "b"] and ds.class_names == ["x", "y"]
        npt.assert_array_equal(ds.columns, [[1.0, 3.0], [2.0, np.nan]])

    @pytest.mark.parametrize("names,message", [
        *[(dict(class_names=["pos", token]), f"class name '{token}'")
          for token in DEFAULT_MISSING_TOKENS],
        (dict(feature_names=["a", "label"]), "repeated header 'label'"),
        # load_csv would drop a class with no row and move the ids after it
        (dict(class_names=["pos", "neg", "unseen"]), "class 'unseen' has no row"),
    ])
    def test_dump_rejects_names_that_do_not_read_back(self, tmp_path, names, message):
        ds = from_arrays(np.zeros((2, 2)), np.array([0, 1]), **names)
        out = tmp_path / "dump.csv"
        with pytest.raises(ValueError, match=re.escape(message)):
            dump_csv(ds, out)
        assert not out.exists()

    def test_write_csv_bytes(self, tmp_path):
        # every table relies on these: CRLF line ends, minimal quoting, UTF-8,
        # and a Python float written as its repr
        out = tmp_path / "t.csv"
        write_csv(out, ["x", "y", "z", "u", "v"], [[0.1 + 0.2], [-0.0], [7], ['a,"b"'], ["é"]])
        assert out.read_bytes() == ('x,y,z,u,v\r\n0.30000000000000004,-0.0,7,"a,""b""",'
                                    '\u00e9\r\n').encode("utf-8")

    @given(table=csv_files(), bom=st.booleans(), block_rows=st.sampled_from([1, 2, 5, BLOCK_ROWS]))
    @settings(max_examples=150, deadline=None)
    def test_load_csv_matches_the_row_by_row_reference(self, table, bom, block_rows):
        # the same dataset bit for bit, or the same first error, whatever the block size
        header, rows = table
        text = io.StringIO(newline="")
        csv.writer(text).writerows([header, *rows])
        with tempfile.TemporaryDirectory() as tmp:
            path = str(Path(tmp) / "data.csv")
            Path(path).write_bytes(text.getvalue().encode("utf-8-sig" if bom else "utf-8"))
            expected = load_outcome(load_csv_row_by_row, path)
            with mock.patch.object(data_module, "BLOCK_ROWS", block_rows):
                assert load_outcome(load_csv, path) == expected

    @given(data=st.data(), width=st.integers(1, 4), n=st.integers(0, 12),
           block_rows=st.sampled_from([1, 2, 5, BLOCK_ROWS]))
    @settings(max_examples=200, deadline=None)
    def test_write_csv_matches_csv_writer(self, data, width, n, block_rows):
        text = st.text(st.sampled_from(list('ab ,"\r\n\u00e9None')), max_size=6)
        cell = st.one_of(st.floats(), st.sampled_from([-0.0, 1e300, 0.1 + 0.2, "None", ""]),
                         st.integers(-10**20, 10**20), st.none(), text)
        header = data.draw(st.lists(text, min_size=width, max_size=width))
        columns = [data.draw(st.lists(cell, min_size=n, max_size=n)) for _ in range(width)]
        expected = io.StringIO(newline="")
        csv.writer(expected).writerows([header, *zip(*columns)])
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "t.csv"
            with mock.patch.object(data_module, "BLOCK_ROWS", block_rows):
                write_csv(out, header, columns)
            assert out.read_bytes() == expected.getvalue().encode("utf-8")

    @given(n=st.integers(1, 40), m=st.integers(1, 5), seed=st.integers(0, 2**16),
           nan_rate=st.sampled_from([0.0, 0.2, 0.7, 1.0]))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_bit_exact(self, n, m, seed, nan_rate):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, m)) * 10.0 ** rng.integers(-300, 300, size=(n, m))
        X[rng.random(X.shape) < nan_rate] = np.nan
        y = rng.integers(0, 2, size=n)
        ds = from_arrays(X, y)
        assert ds.columns.flags["C_CONTIGUOUS"] and ds.columns.tobytes() == X.T.tobytes()
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "dump.csv"
            dump_csv(ds, out)
            ds2 = load_csv(str(out), label_column="label")
        assert ds2.columns.tobytes() == ds.columns.tobytes()
        # integer codes follow first-appearance order, so compare decoded names
        names1 = [ds.class_names[k] for k in ds.labels]
        names2 = [ds2.class_names[k] for k in ds2.labels]
        assert names1 == names2

        rows = rng.permutation(n)[: int(rng.integers(0, n + 1))]
        part = ds.subset(rows)
        assert part.columns.flags["C_CONTIGUOUS"] and part.columns.tobytes() == X[rows].T.tobytes()
        perm = rng.permutation(m)
        shuffled = from_arrays(X[:, perm], y, feature_names=[ds.feature_names[j] for j in perm])
        model = BoosterModel(trees=[[]], config=BoosterConfig(),
                             feature_names=ds.feature_names, class_names=ds.class_names)
        aligned = align(model, shuffled)
        assert aligned.columns.flags["C_CONTIGUOUS"]
        assert aligned.columns.tobytes() == ds.columns.tobytes()

    def test_from_arrays_rejects_repeated_feature_names(self):
        with pytest.raises(ValueError, match="repeated feature name 'a'"):
            from_arrays(np.zeros((2, 3)), np.array([0, 1]), feature_names=["a", "b", "a"])

    @pytest.mark.parametrize("names,message", [
        # one name for two columns used to fit, then fail to load the saved model
        (["a"], "X has 2 columns but 1 feature names"),
        (["a", "b", "c"], "X has 2 columns but 3 feature names"),
    ])
    def test_from_arrays_rejects_a_feature_name_count_unlike_x(self, names, message):
        y = np.arange(40) % 2
        with pytest.raises(ValueError, match=message):
            from_arrays(np.random.default_rng(0).normal(size=(40, 2)), y, feature_names=names)

    def test_from_arrays_rejects_repeated_class_names(self):
        # align would encode every label through the first "pos"
        with pytest.raises(ValueError, match="repeated class name 'pos'"):
            from_arrays(np.zeros((3, 1)), np.array([0, 1, 2]), class_names=["pos", "neg", "pos"])

    @pytest.mark.parametrize("y", [[-1, 0, 1], [0, 0.7, 1], [0, 1, 2], [0, np.nan, 1]])
    def test_from_arrays_rejects_labels_outside_the_class_ids(self, y):
        # -1 would index the last class name and 0.7 would truncate to class 0
        with pytest.raises(ValueError, match=r"is not a class id in \[0, 2\)"):
            from_arrays(np.zeros((3, 1)), np.array(y), class_names=["a", "b"])
        assert from_arrays(np.zeros((3, 1)), np.array([1.0, 0.0, 1.0]),
                           class_names=["a", "b"]).labels.tolist() == [1, 0, 1]

    @pytest.mark.parametrize("X,y,message", [
        # a (3, 2) matrix over 2 labels used to build 2 samples of 3 features
        (np.zeros((3, 2)), [0, 1], "X has 3 rows but y has 2 labels"),
        (np.zeros((2, 3)), [0, 1, 0], "X has 2 rows but y has 3 labels"),
        (np.zeros(3), [0, 1, 0], r"got shapes \(3,\) and \(3,\)"),
        (np.zeros((3, 1)), [[0], [1], [0]], r"got shapes \(3, 1\) and \(3, 1\)"),
    ])
    def test_from_arrays_rejects_x_and_y_of_different_lengths(self, X, y, message):
        with pytest.raises(ValueError, match=message):
            from_arrays(X, np.array(y))

    @pytest.mark.parametrize("cell", [np.inf, -np.inf])
    def test_from_arrays_rejects_infinite_cells(self, cell):
        with pytest.raises(ValueError, match="inf"):
            from_arrays(np.array([[1.0, np.nan], [cell, 2.0]]), np.array([0, 1]))


class TestSplit:
    def dataset(self, n=100, seed=0, minority=0.1):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, 2))
        y = (rng.random(n) < minority).astype(int)
        y[:2] = [0, 1]  # both classes always present
        return from_arrays(X, y)

    def test_partition_and_fraction(self):
        ds = self.dataset()
        plan = train_test_split(ds, 0.8, seed=1)
        assert len(plan.train_indices) + len(plan.test_indices) == 100
        assert set(plan.train_indices) & set(plan.test_indices) == set()
        assert abs(len(plan.train_indices) - 80) <= ds.n_classes

    def test_reproducible(self):
        ds = self.dataset()
        p1 = train_test_split(ds, 0.8, seed=5)
        p2 = train_test_split(ds, 0.8, seed=5)
        npt.assert_array_equal(p1.train_indices, p2.train_indices)

    def test_seeds_differ(self):
        ds = self.dataset()
        p1 = train_test_split(ds, 0.8, seed=1)
        p2 = train_test_split(ds, 0.8, seed=2)
        assert not np.array_equal(p1.train_indices, p2.train_indices)

    def test_stratified_proportions(self):
        X = np.zeros((100, 1))
        y = np.array([0] * 90 + [1] * 10)
        ds = from_arrays(X, y)
        plan = train_test_split(ds, 0.8, seed=3, stratified=True)
        train_y = ds.labels[plan.train_indices]
        assert abs(int((train_y == 0).sum()) - 72) <= 1
        assert abs(int((train_y == 1).sum()) - 8) <= 1

    def test_tiny_class_errors_under_stratification(self):
        X = np.zeros((5, 1))
        y = np.array([0, 0, 0, 0, 1])
        with pytest.raises(SplitError):
            train_test_split(from_arrays(X, y), 0.8, seed=0, stratified=True)

    def test_bad_fraction(self):
        with pytest.raises(SplitError):
            train_test_split(self.dataset(), 1.2, seed=0)

    @given(n=st.integers(10, 200), fraction=st.floats(0.1, 0.9),
           seed=st.integers(0, 1000))
    @settings(max_examples=100, deadline=None)
    def test_partition_property_fuzzed(self, n, fraction, seed):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(n, 1))
        y = np.array([0, 0, 1, 1] + [0] * (n - 4))
        plan = train_test_split(from_arrays(X, y), fraction, seed=seed)
        both = np.concatenate([plan.train_indices, plan.test_indices])
        npt.assert_array_equal(np.sort(both), np.arange(n))
