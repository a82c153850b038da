import json
import re

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustboost import synthetic
from robustboost.booster import (MODEL_FORMAT_VERSION, BoosterConfig, BoosterConfigError,
                                 DataError, ModelFormatError, SchemaMismatchError,
                                 align, deserialize, fit, predict_label,
                                 predict_proba, predict_raw, serialize)
from robustboost.data import from_arrays
from robustboost.losses import FAMILIES, LossSpec
from robustboost.metrics import accuracy, aucpr
from robustboost.tree import TREE_FIELDS, TreeConfig

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
        model = fit(data, cfg)
        hist = np.array(model.train_loss_history)
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
        assert accuracy(predict_label(model, data), data.labels) >= 0.99

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
        assert accuracy(predict_label(model, data), data.labels) >= 0.95

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

    def test_valid_history_recorded(self):
        train, valid = self.split()
        cfg = BoosterConfig(loss=CCE, tree=tiny_tree(), n_rounds=10)
        model = fit(train, cfg, valid=valid)
        assert len(model.valid_loss_history) == 10

    def test_early_stop_truncates_to_best(self):
        train, valid = self.split()
        cfg = BoosterConfig(loss=CCE, tree=tiny_tree(), learning_rate=1.0,
                            n_rounds=200, early_stopping_rounds=5)
        model = fit(train, cfg, valid=valid)
        assert model.best_round is not None
        assert len(model.trees[0]) == model.best_round + 1
        assert len(model.trees[0]) < 200
        best = min(model.valid_loss_history)
        assert model.valid_loss_history[model.best_round] == best


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
        with pytest.raises(ModelFormatError, match="version 1, expected 2"):
            deserialize(json.dumps(v1))

    def test_document_has_one_tree_record_shape(self):
        model, _ = self.model_and_data(3)
        doc = json.loads(serialize(model))
        assert doc["version"] == MODEL_FORMAT_VERSION == 2
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
    ])
    def test_invalid_document_rejected(self, n_classes, mutate, named):
        model, _ = self.model_and_data(n_classes)
        doc = json.loads(serialize(model))
        mutate(doc)
        with pytest.raises(ModelFormatError, match=re.escape(named)):
            deserialize(json.dumps(doc))

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
       subsample=st.sampled_from([0.5, 0.8, 1.0]),
       early_stopping_rounds=st.sampled_from([None, 1, 3]))
def test_serialize_roundtrip_predict_raw_bitwise(n_classes, seed, family, missing_rate,
                                                 subsample, early_stopping_rounds):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(90, 3))
    X[rng.random(X.shape) < missing_rate] = np.nan
    y = rng.integers(0, n_classes, size=90)
    y[:n_classes] = np.arange(n_classes)  # every class in the training rows
    names = [str(k) for k in range(n_classes)]
    train = from_arrays(X[:60], y[:60], class_names=names)
    valid = from_arrays(X[60:], y[60:], class_names=names)
    cfg = BoosterConfig(loss=LossSpec(family), tree=tiny_tree(lam=1.0), learning_rate=0.5,
                        n_rounds=8, n_classes=n_classes, seed=seed, subsample=subsample,
                        early_stopping_rounds=early_stopping_rounds)
    model = fit(train, cfg, valid=valid)
    restored = deserialize(serialize(model))
    for data in (train, valid):
        raw = predict_raw(model, data)
        assert raw.shape == ((data.n_samples,) if n_classes == 2 else (data.n_samples, 3))
        back = predict_raw(restored, data)
        assert back.shape == raw.shape and back.tobytes() == raw.tobytes()
