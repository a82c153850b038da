import tempfile
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustboost.booster import BoosterConfig, BoosterModel, align
from robustboost.data import (CsvParseError, SplitError, dump_csv,
                              from_arrays, imbalance_ratio, load_csv,
                              train_test_split)


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

    def test_bad_cell_names_location(self, tmp_path):
        # NaN marks a missing cell, so a present cell must be a finite number
        for cell in ("oops", "nan", "inf", "-Infinity"):
            path = write(tmp_path, f"a,b,label\n1,2,x\n1,{cell},y\n")
            with pytest.raises(CsvParseError, match="row 3.*'b'"):
                load_csv(path, label_column="label")

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


class TestImbalanceRatio:
    def ratio_of(self, counts):
        y = np.concatenate([np.full(c, k) for k, c in enumerate(counts)])
        return imbalance_ratio(from_arrays(np.zeros((len(y), 1)), y))

    def test_examples(self):
        assert self.ratio_of([50, 50]) == 1.0
        assert self.ratio_of([96, 4]) == 24.0
        assert self.ratio_of([10, 20, 30]) == 3.0

    def test_single_class_errors(self):
        with pytest.raises(ValueError):
            self.ratio_of([10])
