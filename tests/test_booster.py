import json
import multiprocessing
import re
import time
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustboost import booster as booster_module
from robustboost import synthetic
from robustboost import tree as tree_module
from robustboost.booster import (MODEL_FORMAT_VERSION, BoosterConfig, BoosterConfigError,
                                 DataError, ModelFormatError, SchemaMismatchError,
                                 align, column_targets, deserialize, fit, loss_history,
                                 predict_proba, predict_raw, serialize)
from robustboost.data import TabularDataset, from_arrays
from robustboost.losses import FAMILIES, LossSpec, loss_value, make_phat, sigmoid
from robustboost.metrics import accuracy, aucpr
from robustboost.tree import TREE_FIELDS, TreeConfig, grow_tree, presort

from pools import record_pools

CCE = LossSpec("cce")


def tiny_tree(**kw):
    base = dict(lam=0.0, max_depth=3, max_leaves=8)
    base.update(kw)
    return TreeConfig(**base)


class TestConfig:
    def test_bad_learning_rate(self):
        with pytest.raises(BoosterConfigError, match="learning_rate"):
            BoosterConfig(learning_rate=0.0)
        with pytest.raises(BoosterConfigError, match="learning_rate"):
            BoosterConfig(learning_rate=1.5)

    def test_bad_rounds_and_classes(self):
        with pytest.raises(BoosterConfigError):
            BoosterConfig(n_rounds=0)
        with pytest.raises(BoosterConfigError):
            BoosterConfig(n_classes=1)

    def test_bad_subsample(self):
        with pytest.raises(BoosterConfigError, match="subsample"):
            BoosterConfig(subsample=0.0)


class TestFitBasics:
    def test_single_sample_newton_step(self):
        # g=-0.5, h=0.25 at z=0 for cce => leaf weight 0.5/0.25 = 2.0
        data = from_arrays(np.array([[1.0]]), np.array([1]), class_names=["0", "1"])
        cfg = BoosterConfig(loss=CCE, tree=TreeConfig(lam=0.0), learning_rate=1.0,
                            n_rounds=1)
        model = fit(data, cfg)
        assert predict_raw(model, data)[0] == 2.0

    def test_empty_dataset_raises(self):
        data = from_arrays(np.empty((0, 1)), np.empty(0, dtype=int))
        with pytest.raises(DataError):
            fit(data, BoosterConfig())

    def test_one_class_raises(self):
        data = from_arrays(np.zeros((5, 1)), np.zeros(5, dtype=int))
        with pytest.raises(DataError):
            fit(data, BoosterConfig())

    def test_label_out_of_range(self):
        data = from_arrays(np.zeros((4, 1)), np.array([0, 1, 2, 0]))
        with pytest.raises(DataError):
            fit(data, BoosterConfig(n_classes=2))

    def test_train_loss_monotone_on_separable(self):
        data = synthetic.make("separable", seed=0)
        cfg = BoosterConfig(loss=CCE, tree=tiny_tree(), learning_rate=0.3,
                            n_rounds=40)
        hist = np.array(loss_history(fit(data, cfg), data))
        assert hist.size == 40
        assert np.all(np.diff(hist) <= 1e-12)

    def test_separable_reaches_high_aucpr(self):
        data = synthetic.make("separable", seed=1)
        model = fit(data, BoosterConfig(loss=CCE, tree=tiny_tree(),
                                        learning_rate=0.3, n_rounds=60))
        scores = predict_proba(model, data)[:, 1]
        assert aucpr(scores, data.labels) >= 0.999

    def test_robust_loss_trains(self):
        data = synthetic.make("separable", seed=2)
        spec = LossSpec("rfl", r=1.0, q=0.5)
        model = fit(data, BoosterConfig(loss=spec, tree=tiny_tree(lam=1.0),
                                        learning_rate=0.3, n_rounds=50))
        assert accuracy(np.argmax(predict_proba(model, data), axis=1), data.labels) >= 0.99

    def test_deterministic_given_seed(self):
        data = synthetic.make("separable", seed=3)
        cfg = BoosterConfig(loss=CCE, tree=tiny_tree(), n_rounds=20,
                            subsample=0.7, seed=11)
        z1 = predict_raw(fit(data, cfg), data)
        z2 = predict_raw(fit(data, cfg), data)
        npt.assert_array_equal(z1, z2)


class TestMulticlass:
    def test_blobs3_accuracy(self):
        data = synthetic.make("blobs3", seed=4)
        cfg = BoosterConfig(loss=CCE, tree=tiny_tree(), learning_rate=0.3,
                            n_rounds=30, n_classes=3)
        model = fit(data, cfg)
        assert accuracy(np.argmax(predict_proba(model, data), axis=1), data.labels) >= 0.95

    def test_raw_shape_and_proba_normalization(self):
        data = synthetic.make("blobs3", seed=5)
        cfg = BoosterConfig(loss=CCE, tree=tiny_tree(), n_rounds=5, n_classes=3)
        model = fit(data, cfg)
        z = predict_raw(model, data)
        assert z.shape == (data.n_samples, 3)
        p = predict_proba(model, data)
        npt.assert_allclose(p.sum(axis=1), 1.0, rtol=1e-12)
        npt.assert_array_equal(np.argmax(z, axis=1), np.argmax(p, axis=1))


class TestValidationAndEarlyStopping:
    def split(self):
        data = synthetic.make("imbalanced", seed=6)
        idx = np.arange(data.n_samples)
        return data.subset(idx[:1500]), data.subset(idx[1500:])

    @pytest.mark.parametrize("n_rounds", [None, 1])
    def test_an_empty_validation_set_raises(self, n_rounds):
        # refused before any round is scored, not averaged into NaN with a RuntimeWarning
        train, valid = self.split()
        rounds = {} if n_rounds is None else {"n_rounds": n_rounds}
        model = fit(train, BoosterConfig(loss=CCE, tree=tiny_tree(), **rounds))
        with pytest.raises(DataError, match="empty dataset"):
            loss_history(model, valid.subset(np.arange(0)))

    def test_a_validation_set_is_scored_only_once_aligned(self):
        # the same rows with the class names in the other order: the codes mean other classes
        train, valid = self.split()
        model = fit(train, BoosterConfig(loss=CCE, tree=tiny_tree(), n_rounds=4))
        swapped = TabularDataset(valid.columns, 1 - valid.labels, valid.feature_names,
                                 valid.class_names[::-1])
        with pytest.raises(SchemaMismatchError, match="align the data first"):
            loss_history(model, swapped)
        assert loss_history(model, align(model, swapped)) == loss_history(model, valid)

    def test_a_dataset_is_scored_only_once_aligned(self):
        # a model fitted on a, b scoring b, a read each feature as the other
        rng = np.random.default_rng(8)
        X = rng.normal(size=(100, 2))
        data = from_arrays(X, (X[:, 0] > 0).astype(int), feature_names=["a", "b"])
        model = fit(data, BoosterConfig(loss=CCE, tree=tiny_tree(), n_rounds=4))
        swapped = from_arrays(X[:, ::-1], data.labels, feature_names=["b", "a"],
                              class_names=data.class_names)
        for score in (predict_raw, predict_proba, loss_history):
            with pytest.raises(SchemaMismatchError, match="align the data first"):
                score(model, swapped)
        npt.assert_array_equal(predict_raw(model, align(model, swapped)), predict_raw(model, data))


class TestSerialization:
    def model_and_data(self, n_classes=2):
        name = "separable" if n_classes == 2 else "blobs3"
        data = synthetic.make(name, seed=7)
        cfg = BoosterConfig(loss=LossSpec("rfl", r=2.0, q=0.7), tree=tiny_tree(lam=1.0),
                            n_rounds=8, n_classes=n_classes)
        return fit(data, cfg), data

    @pytest.mark.parametrize("n_classes", [2, 3])
    def test_roundtrip_bitwise(self, n_classes):
        model, data = self.model_and_data(n_classes)
        restored = deserialize(serialize(model))
        npt.assert_array_equal(predict_raw(model, data), predict_raw(restored, data))

    def test_version_mismatch(self):
        model, _ = self.model_and_data()
        text = serialize(model).replace(f'"version": {MODEL_FORMAT_VERSION}', '"version": 99')
        with pytest.raises(ModelFormatError, match="version"):
            deserialize(text)

    def test_malformed_json(self):
        with pytest.raises(ModelFormatError):
            deserialize("{not json")

    def test_wrong_format_tag(self):
        with pytest.raises(ModelFormatError):
            deserialize('{"format": "something-else", "version": 1}')

    def test_v1_document_rejected(self):
        model, _ = self.model_and_data()
        doc = json.loads(serialize(model))
        v1 = {key: doc[key] for key in ("format", "n_classes", "learning_rate", "loss",
                                         "tree_config", "booster")}
        v1.update(version=1, n_features=2, init_score=0.0,
                  trees=[[{"nodes": [{"feature": 0, "threshold": 0.5, "default_left": False,
                                      "left": 1, "right": 2}, {"leaf": -1.0}, {"leaf": 1.0}]}]])
        with pytest.raises(ModelFormatError, match="version 1, expected 3"):
            deserialize(json.dumps(v1))

    def test_document_has_one_tree_record_shape(self):
        model, _ = self.model_and_data(3)
        doc = json.loads(serialize(model))
        assert doc["version"] == MODEL_FORMAT_VERSION == 3
        assert not {"init_score", "n_features"} & set(doc)
        assert doc["feature_names"] == ["f0", "f1"] and doc["class_names"] == ["0", "1", "2"]
        records = [record for column in doc["trees"] for record in column]
        assert len(records) == 3 * 8
        assert all(list(record) == list(TREE_FIELDS) for record in records)

    @pytest.mark.parametrize("mutate,named", [
        (lambda t: t["value"].pop(), "differ in length"),
        (lambda t: [t[c].clear() for c in TREE_FIELDS], "empty"),
        (lambda t: t.update(left=[0] + t["left"][1:], right=[0] + t["right"][1:]),
         "children 0, 0"),  # the root lists itself: predict would never return
        (lambda t: t["right"].__setitem__(0, len(t["value"])), "children"),
        (lambda t: t["left"].__setitem__(2, 1), "node 2 has children 1,"),
        (lambda t: t["left"].__setitem__(0, 1.0), "children"),
        (lambda t: t["feature"].__setitem__(0, 2), "feature 2; the model has 2"),
        (lambda t: t["feature"].__setitem__(0, -2), "feature -2"),
        (lambda t: t["feature"].__setitem__(0, "f0"), "feature 'f0'"),
        (lambda t: t.pop("value"), "a tree record lacks 'value'"),
        (lambda t: t.update(value=3), "a tree record has value 3"),
        (lambda t: t["threshold"].__setitem__(0, "x"), "tree node 0 has threshold 'x'"),
        (lambda t: t["value"].__setitem__(1, None), "tree node 1 has value None"),
        (lambda t: t["default_left"].__setitem__(0, 1), "tree node 0 has default_left 1"),
    ])
    def test_invalid_tree_rejected(self, mutate, named):
        model, _ = self.model_and_data(3)
        doc = json.loads(serialize(model))
        tree = doc["trees"][0][0]
        assert tree["feature"][0] != -1 and tree["feature"][2] != -1  # both are splits
        mutate(tree)
        with pytest.raises(ModelFormatError, match=re.escape(named)):
            deserialize(json.dumps(doc))

    @pytest.mark.parametrize("n_classes,mutate,named", [
        (3, lambda d: d.pop("class_names"), "the model document lacks 'class_names'"),
        (2, lambda d: [d.pop(key) for key in ("trees", "loss")], "lacks 'loss', 'trees'"),
        (2, lambda d: d["booster"].pop("seed"), "booster record lacks 'seed'"),
        (2, lambda d: d.update(booster=[]), "booster record is not a JSON object"),
        # cut to one tree list, a 3-class model would predict 2 columns
        (3, lambda d: d.update(trees=d["trees"][:1]), "needs 3 tree list(s)"),
        (2, lambda d: d["trees"].append(d["trees"][0]), "needs 1 tree list(s)"),
        (3, lambda d: d["class_names"].pop(), "the document has 3 and 2"),
        (2, lambda d: d["class_names"].append("extra"), "the document has 1 and 3"),
        (2, lambda d: d["loss"].update(bogus=1), "loss record has an unknown field 'bogus'"),
        (2, lambda d: d["tree_config"].update(lam="1"), "tree_config record has lam '1'"),
        (2, lambda d: d.update(n_classes="2"), "the model document has n_classes '2'"),
        (2, lambda d: d.update(feature_names=5), "the model document has feature_names 5"),
        (3, lambda d: d["trees"].__setitem__(1, {}), "trees are not lists of tree records"),
        # a fit writes one tree per class per round, n_rounds rounds
        (3, lambda d: d["trees"][1].__delitem__(slice(1, None)), "hold [8, 1, 8] trees"),
        (3, lambda d: [lst.clear() for lst in d["trees"]], "hold [0, 0, 0] trees"),
        (2, lambda d: d["trees"][0].clear(), "hold [0] trees"),
        (2, lambda d: d["trees"][0].append(d["trees"][0][0]), "hold [9] trees"),
        (3, lambda d: d["booster"].update(n_rounds=7), "hold [8, 8, 8] trees, not n_rounds 7"),
        # equal lists shorter than n_rounds: no fit saves fewer rounds than it was set to grow
        (3, lambda d: [lst.pop() for lst in d["trees"]], "hold [7, 7, 7] trees"),
        # align would read one data column for both of the model's features
        (2, lambda d: d.update(feature_names=["f0", "f0"]), "repeats feature name 'f0'"),
        # align would encode both labels through the first "0"
        (2, lambda d: d.update(class_names=["0", "0"]), "repeats class name '0'"),
    ])
    def test_invalid_document_rejected(self, n_classes, mutate, named):
        model, _ = self.model_and_data(n_classes)
        doc = json.loads(serialize(model))
        mutate(doc)
        with pytest.raises(ModelFormatError, match=re.escape(named)):
            deserialize(json.dumps(doc))

    @pytest.mark.parametrize("mutate,literal", [
        (lambda d: d["trees"][0][0]["threshold"].__setitem__(0, float("nan")), "NaN"),
        (lambda d: d["trees"][0][0]["value"].__setitem__(1, float("inf")), "Infinity"),
        (lambda d: d["tree_config"].update(lam=float("-inf")), "-Infinity"),
        (lambda d: d["tree_config"].update(lam=float("nan")), "NaN"),
    ])
    def test_non_finite_literal_rejected(self, mutate, literal):
        # a NaN threshold would send every present row right
        model, _ = self.model_and_data()
        doc = json.loads(serialize(model))
        mutate(doc)
        with pytest.raises(ModelFormatError, match=f"non-finite number {re.escape(literal)}$"):
            deserialize(json.dumps(doc))

    def test_overflowing_number_rejected(self):
        # 1e400 is valid JSON and parses to inf
        model, _ = self.model_and_data()
        doc = json.loads(serialize(model))
        doc["trees"][0][0]["threshold"][0] = float("inf")
        with pytest.raises(ModelFormatError, match="tree node 0 has threshold inf"):
            deserialize(json.dumps(doc).replace("Infinity", "1e400"))

    def test_serialize_refuses_non_finite_numbers(self):
        model, _ = self.model_and_data()
        model.trees[0][0].value[1] = float("nan")
        with pytest.raises(ValueError):
            serialize(model)

    def test_model_records_the_data_schema(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(40, 2))
        y = (X[:, 0] > 0).astype(int)
        data = from_arrays(X, y, feature_names=["b", "a"], class_names=["neg", "pos"])
        model = fit(data, BoosterConfig(loss=CCE, tree=tiny_tree(), n_rounds=3))
        restored = deserialize(serialize(model))
        assert restored.feature_names == ["b", "a"] and restored.class_names == ["neg", "pos"]

    def test_align_matches_columns_and_classes_by_name(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(60, 3))
        X[rng.random(X.shape) < 0.2] = np.nan
        y = (np.nan_to_num(X[:, 0]) > 0).astype(int)
        data = from_arrays(X, y, feature_names=["a", "b", "c"], class_names=["neg", "pos"])
        model = fit(data, BoosterConfig(loss=CCE, tree=tiny_tree(), n_rounds=5))
        shuffled = from_arrays(X[:, [2, 0, 1]], 1 - y, feature_names=["c", "a", "b"],
                               class_names=["pos", "neg"])
        aligned = align(model, shuffled)
        assert aligned.feature_names == ["a", "b", "c"]
        npt.assert_array_equal(aligned.labels, data.labels)
        assert predict_raw(model, aligned).tobytes() == predict_raw(model, data).tobytes()
        renamed = from_arrays(X, y, feature_names=["a", "b", "d"], class_names=["neg", "pos"])
        with pytest.raises(SchemaMismatchError, match=r"missing \['c'\], extra \['d'\]"):
            align(model, renamed)
        unseen = from_arrays(X, y, feature_names=["a", "b", "c"], class_names=["neg", "maybe"])
        with pytest.raises(SchemaMismatchError, match="maybe"):
            align(model, unseen)

    def test_fit_rejects_class_count_mismatch(self):
        data = from_arrays(np.zeros((4, 1)), np.array([0, 1, 0, 1]),
                           class_names=["a", "b", "c"])
        with pytest.raises(DataError, match="3 classes"):
            fit(data, BoosterConfig(n_classes=2))

    def test_schema_mismatch_on_predict(self):
        model, _ = self.model_and_data()
        other = from_arrays(np.zeros((3, 5)), np.array([0, 1, 0]))
        with pytest.raises(SchemaMismatchError):
            predict_raw(model, other)


@settings(max_examples=30, deadline=None)
@given(n_classes=st.sampled_from([2, 3]), seed=st.integers(0, 2**16),
       family=st.sampled_from(FAMILIES), missing_rate=st.floats(0.0, 0.4),
       subsample=st.sampled_from([0.5, 0.8, 1.0]))
def test_serialize_roundtrip_predict_raw_bitwise(n_classes, seed, family, missing_rate,
                                                 subsample):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(90, 3))
    X[rng.random(X.shape) < missing_rate] = np.nan
    y = rng.integers(0, n_classes, size=90)
    y[:n_classes] = np.arange(n_classes)  # every class in the training rows
    names = [str(k) for k in range(n_classes)]
    train = from_arrays(X[:60], y[:60], class_names=names)
    valid = from_arrays(X[60:], y[60:], class_names=names)
    cfg = BoosterConfig(loss=LossSpec(family), tree=tiny_tree(lam=1.0), learning_rate=0.5,
                        n_rounds=8, n_classes=n_classes, seed=seed, subsample=subsample)
    model = fit(train, cfg)
    restored = deserialize(serialize(model))
    assert restored == model
    for data in (train, valid):
        assert loss_history(restored, data) == loss_history(model, data)
        raw = predict_raw(model, data)
        assert raw.shape == ((data.n_samples,) if n_classes == 2 else (data.n_samples, 3))
        back = predict_raw(restored, data)
        assert back.shape == raw.shape and back.tobytes() == raw.tobytes()


@settings(max_examples=25, deadline=None)
@given(n_classes=st.sampled_from([2, 3]), seed=st.integers(0, 2**16),
       rounds=st.integers(1, 7).flatmap(lambda k: st.tuples(st.just(k), st.integers(k + 1, 9))),
       subsample=st.sampled_from([1.0, 0.7]), missing_rate=st.floats(0.0, 0.3))
def test_shorter_fit_is_a_prefix_of_a_longer_one(n_classes, seed, rounds, subsample,
                                                 missing_rate):
    # staged tuning in experiment.fit_tuned scores a k-round fit as the first k trees
    # of a longer fit with the same seed
    k, n = rounds
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(70, 3))
    X[rng.random(X.shape) < missing_rate] = np.nan
    y = rng.integers(0, n_classes, size=70)
    y[:n_classes] = np.arange(n_classes)
    data = from_arrays(X, y, class_names=[str(c) for c in range(n_classes)])
    cfg = BoosterConfig(loss=LossSpec("rfl", r=1.0), tree=tiny_tree(lam=1.0),
                        learning_rate=0.5, n_rounds=n, n_classes=n_classes, seed=seed,
                        subsample=subsample)
    long, short = fit(data, cfg), fit(data, replace(cfg, n_rounds=k))
    assert [[t.to_dict() for t in lst] for lst in short.trees] == \
        [[t.to_dict() for t in lst[:k]] for lst in long.trees]
    cut = replace(long, trees=[lst[:k] for lst in long.trees])
    assert predict_raw(short, data).tobytes() == predict_raw(cut, data).tobytes()


def grow_on_its_own_sort(columns, order, rows, g, h, config, out):
    """grow_tree on the tree's rows alone, sorted for this tree: the per-tree
    sort that fit's one sort replaces, as the reference it must match. The
    subset's outputs go back to ``out`` at the rows' ids."""
    sub = columns.take(rows, axis=1)
    ids = np.arange(len(rows))
    sub_out = np.empty(len(rows))
    tree = grow_tree(sub, presort(sub, ids), ids, g[rows], h[rows], config, sub_out)
    out[rows] = sub_out
    return tree


@settings(max_examples=30, deadline=None)
@given(n_classes=st.sampled_from([2, 3]), seed=st.integers(0, 2**16),
       missing_rate=st.floats(0.0, 0.4), subsample=st.sampled_from([1.0, 0.7]))
def test_one_sort_per_fit_matches_a_sort_per_tree(n_classes, seed, missing_rate, subsample):
    rng = np.random.default_rng(seed)
    X = np.round(rng.normal(size=(90, 3)), 1)  # repeated values: ties follow row ids
    X[rng.random(X.shape) < missing_rate] = np.nan
    y = rng.integers(0, n_classes, size=90)
    y[:n_classes] = np.arange(n_classes)
    names = [str(k) for k in range(n_classes)]
    train = from_arrays(X[:60], y[:60], class_names=names)
    valid = from_arrays(X[60:], y[60:], class_names=names)
    cfg = BoosterConfig(loss=LossSpec("rfl", r=1.0), tree=tiny_tree(lam=1.0), learning_rate=0.5,
                        n_rounds=8, n_classes=n_classes, seed=seed, subsample=subsample)
    model = fit(train, cfg)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(booster_module, "grow_tree", grow_on_its_own_sort)
        reference = fit(train, cfg)
    assert serialize(model) == serialize(reference)
    for data in (train, valid):
        assert predict_raw(model, data).tobytes() == predict_raw(reference, data).tobytes()


@pytest.mark.parametrize("n_rounds,n_classes,subsample", [(1, 2, 1.0), (5, 2, 0.7), (4, 3, 1.0)])
def test_fit_sorts_once(monkeypatch, n_rounds, n_classes, subsample):
    calls = []
    sort = tree_module.presort

    def counted(*args, **kwargs):
        calls.append(args)
        return sort(*args, **kwargs)

    monkeypatch.setattr(tree_module, "presort", counted)
    monkeypatch.setattr(booster_module, "presort", counted)
    rng = np.random.default_rng(4)
    data = from_arrays(rng.normal(size=(50, 2)), np.arange(50) % n_classes,
                       class_names=[str(k) for k in range(n_classes)])
    fit(data, BoosterConfig(loss=CCE, tree=tiny_tree(lam=1.0), n_rounds=n_rounds,
                            n_classes=n_classes, subsample=subsample))
    assert len(calls) == 1


@pytest.mark.parametrize("n_classes", [2, 3])
@pytest.mark.parametrize("subsample", [1.0, 0.6])
def test_zero_feature_fit_grows_root_leaves(n_classes, subsample):
    y = np.arange(12) % n_classes
    data = from_arrays(np.empty((12, 0)), y, class_names=[str(k) for k in range(n_classes)])
    model = fit(data, BoosterConfig(loss=CCE, tree=tiny_tree(lam=1.0), n_rounds=3,
                                    n_classes=n_classes, subsample=subsample))
    assert all(tree.feature == [-1] for lst in model.trees for tree in lst)
    raw = predict_raw(model, data)
    assert np.all(raw == raw[:1])


def multiclass_split(seed, n_classes, missing_rate=0.1, n=120, n_features=3):
    rng = np.random.default_rng(seed)
    X = np.round(rng.normal(size=(n, n_features)), 1)
    X[rng.random(X.shape) < missing_rate] = np.nan
    y = rng.integers(0, n_classes, size=n)
    y[:n_classes] = np.arange(n_classes)  # every class in the training rows
    names = [str(k) for k in range(n_classes)]
    cut = 2 * n // 3
    return (from_arrays(X[:cut], y[:cut], class_names=names),
            from_arrays(X[cut:], y[cut:], class_names=names))


@settings(max_examples=10, deadline=None)
@given(n_classes=st.integers(3, 5), seed=st.integers(0, 2**16),
       family=st.sampled_from(FAMILIES), missing_rate=st.floats(0.0, 0.3),
       subsample=st.sampled_from([0.6, 1.0]))
def test_pooled_fit_equals_the_in_process_fit(n_classes, seed, family, missing_rate, subsample):
    train, _ = multiclass_split(seed, n_classes, missing_rate)
    cfg = BoosterConfig(loss=LossSpec(family), tree=tiny_tree(lam=1.0), learning_rate=0.5,
                        n_rounds=8, n_classes=n_classes, seed=seed, subsample=subsample)

    def fit_on(cores):
        with pytest.MonkeyPatch.context() as patch:
            pools = record_pools(patch, cores)
            model = fit(train, cfg)
        assert pools == ([] if cores == 1 else [min(cores, n_classes)])
        return serialize(model)

    reference = fit_on(1)
    assert fit_on(2) == reference
    assert fit_on(n_classes + 2) == reference




@pytest.mark.parametrize("n_classes,cores", [(2, 4), (3, 1)])
def test_a_binary_or_one_core_fit_starts_no_pool(monkeypatch, n_classes, cores):
    pools = record_pools(monkeypatch, cores)
    train, _ = multiclass_split(0, n_classes)
    fit(train, BoosterConfig(loss=CCE, tree=tiny_tree(), n_rounds=2, n_classes=n_classes))
    assert pools == []


def test_a_non_finite_column_raises_in_the_caller_and_leaves_no_worker(monkeypatch, tmp_path):
    pools = record_pools(monkeypatch, cores=2)
    train, _ = multiclass_split(1, 3)
    real, late = booster_module.grad_hess, tmp_path / "column_2_failed"

    def grad_hess(spec, yk, zk):
        g, h = real(spec, yk, zk)
        k = int(train.labels[np.argmax(yk)])  # the class whose rows are 1 in yk
        if k == 1:  # fail only after column 2 has failed
            deadline = time.monotonic() + 60
            while not late.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            return np.full_like(g, np.nan), h
        if k == 2:
            late.touch()
            return g, np.full_like(h, np.inf)
        return g, h

    monkeypatch.setattr(booster_module, "grad_hess", grad_hess)
    with pytest.raises(AssertionError, match="from the loss layer in score column 1$"):
        fit(train, BoosterConfig(loss=CCE, tree=tiny_tree(), n_rounds=3, n_classes=3))
    assert late.exists()
    assert pools == [2]
    assert multiprocessing.active_children() == []


def test_fit_workers_take_the_data_they_inherit(monkeypatch):
    pools = record_pools(monkeypatch, cores=2)
    train, _ = multiclass_split(2, 3, n=300, n_features=4)
    # what this process pickles for its workers; results are pickled in the workers
    payloads, dumps = [], multiprocessing.reduction.ForkingPickler.dumps

    def recording_dumps(cls, obj, protocol=None):
        payload = dumps(obj, protocol)
        payloads.append(bytes(payload))
        return payload

    def no_pickle(self):
        raise AssertionError("the dataset was pickled")

    monkeypatch.setattr(multiprocessing.reduction.ForkingPickler, "dumps",
                        classmethod(recording_dumps))
    monkeypatch.setattr(TabularDataset, "__reduce__", no_pickle, raising=False)
    order = presort(train.columns, np.arange(train.n_samples))
    targets = [(train.labels == k).astype(np.int64) for k in range(3)]
    inherited = [*train.columns, *order.T, *targets]  # each feature's values and sort
    for n_rounds in (1, 3):
        payloads.clear()
        model = fit(train, BoosterConfig(loss=CCE, tree=tiny_tree(), n_rounds=n_rounds,
                                         n_classes=3))
        # one task per score column, whatever the round count
        assert sum(b"_grow_column" in payload for payload in payloads) == 3
        sent = b"".join(payloads)
        assert not [block for block in inherited if block.tobytes() in sent]
        # nor does a task carry a column's scores or a round's row ids to its worker
        stages = booster_module.staged_raw(model, train, range(1, n_rounds + 1))
        scores = [z[:, k].tobytes() for z in stages for k in range(3)]
        assert not [block for block in scores if block in sent]
        assert np.arange(train.n_samples).tobytes() not in sent
    assert pools == [2, 2]


@pytest.mark.parametrize("n_classes", [2, 3])
@pytest.mark.parametrize("cores", [1, 2])
def test_loss_history_is_the_loss_of_each_cut_model(monkeypatch, n_classes, cores):
    pools = record_pools(monkeypatch, cores)
    train, _ = multiclass_split(3, n_classes)
    cfg = BoosterConfig(loss=LossSpec("rfl", r=1.0), tree=tiny_tree(lam=1.0), learning_rate=0.5,
                        n_rounds=6, n_classes=n_classes, seed=5, subsample=0.7)
    model = fit(train, cfg)
    assert pools == ([2] if cores == 2 and n_classes > 2 else [])
    history = loss_history(model, train)
    assert len(history) == cfg.n_rounds
    for t, loss in enumerate(history):
        cut = replace(model, trees=[lst[: t + 1] for lst in model.trees])
        raw = predict_raw(cut, train)
        z = raw[None] if n_classes == 2 else raw.T
        targets = column_targets(train.labels, n_classes)
        assert loss == float(np.mean([np.mean(loss_value(cfg.loss, make_phat(yk, sigmoid(z[k]))))
                                      for k, yk in enumerate(targets)]))


@pytest.mark.parametrize("cores", [1, 2])
def test_a_non_finite_gradient_names_the_first_failing_column(monkeypatch, cores):
    pools = record_pools(monkeypatch, cores)
    train, _ = multiclass_split(1, 4)
    real = booster_module.grad_hess

    def grad_hess(spec, yk, zk):
        g, h = real(spec, yk, zk)
        k = int(train.labels[np.argmax(yk)])  # the class whose rows are 1 in yk
        return (np.full_like(g, np.nan), h) if k in (1, 3) else (g, h)

    monkeypatch.setattr(booster_module, "grad_hess", grad_hess)
    with pytest.raises(AssertionError, match="from the loss layer in score column 1$"):
        fit(train, BoosterConfig(loss=CCE, tree=tiny_tree(), n_rounds=2, n_classes=4))
    assert pools == ([2] if cores == 2 else [])


@pytest.mark.parametrize("n_classes", [2, 3])
@pytest.mark.parametrize("subsample", [1.0, 0.7])
def test_fit_predicts_only_the_rows_outside_a_round_sample(monkeypatch, n_classes, subsample):
    record_pools(monkeypatch, 1)  # every tree grows in this process, where the count is seen
    calls, real = [], tree_module.Tree.predict

    def counted(self, columns):
        calls.append(columns.shape[1])
        return real(self, columns)

    monkeypatch.setattr(tree_module.Tree, "predict", counted)
    train, _ = multiclass_split(4, n_classes)
    cfg = BoosterConfig(loss=CCE, tree=tiny_tree(lam=1.0), n_rounds=4, n_classes=n_classes,
                        subsample=subsample)
    model = fit(train, cfg)
    n_trees = sum(map(len, model.trees))
    if subsample == 1.0:
        assert calls == []
    else:
        outside = train.n_samples - int(round(subsample * train.n_samples))
        assert calls == [outside] * n_trees
