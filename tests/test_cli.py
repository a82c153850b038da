import inspect
import json
import os
import pathlib
import re
import subprocess
import sys
import tempfile
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import robustboost
from robustboost.cli import (CONFIG_KEYS, EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, ConfigError,
                             build_config, main, parse_config_file)
from robustboost.experiment import load_experiment_dataset, read_results


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


TRAIN_CFG = """
# small separable run
dataset = synthetic:separable
family = rfl
r = 1.0
q = 0.5
learning_rate = 0.3
n_rounds = 15
lam = 1.0
max_depth = 3
max_leaves = 8
"""

SWEEP_CFG = """
dataset = synthetic:separable
methods = rfl,cce
noise_levels = 0.0,0.2
repeats = 2
grid_r = 1.0
grid_q = 0.5
grid_lr = 0.3
grid_rounds = 10
max_depth = 3
max_leaves = 8
"""


class TestConfigParsing:
    def test_key_value_and_comments(self, tmp_path):
        path = write_config(tmp_path, "a = 1 # trailing\n\n# full line\nb=two\n")
        assert parse_config_file(path) == {"a": "1", "b": "two"}

    def test_later_key_wins(self, tmp_path):
        path = write_config(tmp_path, "a=1\na=2\n")
        assert parse_config_file(path)["a"] == "2"

    def test_malformed_line(self, tmp_path):
        path = write_config(tmp_path, "just words\n")
        with pytest.raises(ConfigError, match="key=value"):
            parse_config_file(path)

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            parse_config_file("/nonexistent/run.cfg")

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # it was read into the first key: train exited 2 on "unknown config key '\ufeffdataset'"
        path = tmp_path / "bom.cfg"
        path.write_text("dataset = synthetic:separable\nn_rounds = 3\n", encoding="utf-8-sig")
        assert parse_config_file(str(path))["dataset"] == "synthetic:separable"
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_OK


class TestTrainPredict:
    def test_train_then_predict(self, tmp_path):
        cfg = write_config(tmp_path, TRAIN_CFG)
        out = str(tmp_path / "run")
        assert main(["train", "--config", cfg, "--out", out, "--seed", "1"]) == EXIT_OK
        assert os.path.exists(os.path.join(out, "model.json"))
        assert os.path.exists(os.path.join(out, "train_log.csv"))
        report = json.load(open(os.path.join(out, "train_report.json")))
        assert report["metric"] == "aucpr" and report["train_value"] > 0.99

        pred_out = str(tmp_path / "pred")
        code = main(["predict", "--model", os.path.join(out, "model.json"),
                     "--data", "synthetic:separable", "--out", pred_out])
        assert code == EXIT_OK
        lines = open(os.path.join(pred_out, "predictions.csv")).read().splitlines()
        assert lines[0] == "index,proba_0,proba_1,label"
        assert len(lines) == 201

    def test_bad_loss_family_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, "dataset = synthetic:separable\nfamily = huber\n")
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_bad_value_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, "dataset = synthetic:separable\nn_rounds = soon\n")
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_missing_config_exits_2(self, tmp_path):
        code = main(["train", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG


class TestSweepReport:
    def test_sweep_outputs_and_report(self, tmp_path):
        cfg = write_config(tmp_path, SWEEP_CFG)
        out = str(tmp_path / "sweep")
        assert main(["sweep", "--config", cfg, "--out", out, "--seed", "7"]) == EXIT_OK
        rows = read_results(os.path.join(out, "results.csv"))
        assert len(rows) == 2 * 2 * 2  # gammas x repeats x methods
        assert os.path.exists(os.path.join(out, "summary.csv"))
        assert os.path.exists(os.path.join(out, "fliplog_g1_r0.csv"))

        rep_out = str(tmp_path / "rep")
        code = main(["report", "--results", os.path.join(out, "results.csv"),
                     "--out", rep_out])
        assert code == EXIT_OK
        lines = open(os.path.join(rep_out, "ranks.csv")).read().splitlines()
        assert lines[0] == "method,average_rank,top_1,top_2"
        assert len(lines) == 3

    def test_sweep_deterministic(self, tmp_path):
        cfg = write_config(tmp_path, SWEEP_CFG)
        out1, out2 = str(tmp_path / "s1"), str(tmp_path / "s2")
        assert main(["sweep", "--config", cfg, "--out", out1, "--seed", "3"]) == EXIT_OK
        assert main(["sweep", "--config", cfg, "--out", out2, "--seed", "3"]) == EXIT_OK
        r1 = open(os.path.join(out1, "results.csv"), "rb").read()
        r2 = open(os.path.join(out2, "results.csv"), "rb").read()
        assert r1 == r2

    def test_ablate_runs(self, tmp_path):
        cfg = write_config(tmp_path, SWEEP_CFG)
        out = str(tmp_path / "abl")
        assert main(["ablate", "--config", cfg, "--out", out, "--seed", "5"]) == EXIT_OK
        rows = read_results(os.path.join(out, "results.csv"))
        assert {r.method for r in rows} == {"rfl_full", "rfl_r0", "rfl_q0"}

    def test_sweep_reads_the_data_keys(self, tmp_path):
        # the label column sits between the features, under a name the default does not read
        rng = np.random.default_rng(0)
        X = rng.normal(size=(60, 2))
        tokens = np.where(X[:, 0] + rng.normal(scale=0.5, size=60) > 0, "pos", "neg")
        path = tmp_path / "data.csv"
        path.write_text("a,y,b\n" + "".join(f"{a!r},{t},{b!r}\n"
                                            for (a, b), t in zip(X.tolist(), tokens)))
        cfg = write_config(tmp_path, SWEEP_CFG + f"dataset = {path}\nlabel_column = y\n")
        out = str(tmp_path / "csv")
        assert main(["sweep", "--config", cfg, "--out", out]) == EXIT_OK
        assert {r.dataset for r in read_results(os.path.join(out, "results.csv"))} == {str(path)}

        flip_logs = []
        for name, extra in (("default", ""), ("seed3", "synthetic_seed = 3\n")):
            cfg = write_config(tmp_path, SWEEP_CFG + extra, name=f"{name}.cfg")
            out = str(tmp_path / name)
            assert main(["sweep", "--config", cfg, "--out", out]) == EXIT_OK
            flip_logs.append(open(os.path.join(out, "fliplog_g1_r0.csv"), "rb").read())
        assert flip_logs[0] != flip_logs[1]


# one valid value per config key, each different from the key's default
SAMPLE_VALUES = {
    "dataset": "synthetic:blobs3", "label_column": "y", "synthetic_seed": "3",
    "family": "gce", "r": "2.0", "q": "0.7", "eta": "0.05",
    "sce_alpha": "5.0", "sce_beta": "0.1", "learning_rate": "0.3", "n_rounds": "7",
    "subsample": "0.5", "lam": "2.0", "min_samples_leaf": "3", "min_sum_hessian": "0.1",
    "min_gain": "0.5", "max_depth": "2", "max_leaves": "4", "methods": "rfl,gce",
    "noise_levels": "0.0,0.3", "repeats": "2", "fraction": "0.7", "stratified": "no",
    "tune_fraction": "0.6", "grid_r": "1.5", "grid_q": "0.9", "grid_lr": "0.2",
    "grid_rounds": "5,9",
}
READERS = {
    "predict": {"dataset", "label_column", "synthetic_seed"},
    "train": {"dataset", "label_column", "synthetic_seed", "family", "r", "q", "eta",
              "sce_alpha", "sce_beta", "lam", "min_samples_leaf",
              "min_sum_hessian", "min_gain", "max_depth", "max_leaves", "learning_rate",
              "n_rounds", "subsample"},
    "sweep": {"dataset", "label_column", "synthetic_seed", "lam", "min_samples_leaf",
              "min_sum_hessian", "min_gain", "max_depth", "max_leaves", "methods",
              "noise_levels", "repeats", "fraction", "stratified", "tune_fraction",
              "grid_r", "grid_q", "grid_lr", "grid_rounds", "eta", "sce_alpha", "sce_beta"},
}
READERS["ablate"] = READERS["sweep"]
JUNK_VALUES = ["", "nan", "inf", "-1", "0", "2", "1.5", "0.49", "1e309", "9" * 40, "abc",
               ",", "1,,2", "0.5,x", "true", "synthetic:nope", "synthetic:", "huber",
               "rfl,mae,sce,nce,fl,cce,gce"]


def code_defaults():
    """Each config key's defaults: what an empty config leaves in the objects
    that the subcommands reading the key hand it to, one value if they agree."""
    params = inspect.signature(load_experiment_dataset).parameters
    loader = SimpleNamespace(**{name: p.default for name, p in params.items()})
    booster = build_config("train", {})["booster"]
    holders = {"predict": {"data": loader},
               "train": {"data": loader, "loss": booster.loss, "booster": booster,
                         "tree": booster.tree}}
    for command in ("sweep", "ablate"):
        exp = build_config(command, {})["experiment"]
        holders[command] = {"data": loader, "experiment": exp, "tree": exp.tree,
                            "method": exp.resolve_method("rfl")}
    return {key: {getattr(holders[command][group], key) for command, group in readers.items()}
            for key, (_, readers) in CONFIG_KEYS.items()}


def effective(built):
    """What a built configuration makes the subcommand do."""
    exp = built.get("experiment")
    if exp is None:
        return built
    return (built["data"], replace(exp, method_specs={}),
            [exp.resolve_method(m) for m in exp.methods + ("rfl",)])


class TestConfigTable:
    def test_key_sets_per_subcommand(self):
        for command, keys in READERS.items():
            assert {k for k, (_, readers) in CONFIG_KEYS.items() if command in readers} == keys
        assert set(SAMPLE_VALUES) == set(CONFIG_KEYS)

    @pytest.mark.parametrize("command", sorted(READERS))
    def test_every_listed_key_is_honoured(self, command):
        baseline = effective(build_config(command, {}))
        for key in READERS[command]:
            built = build_config(command, {key: SAMPLE_VALUES[key]})
            assert effective(built) != baseline, key

    @pytest.mark.parametrize("command", sorted(READERS))
    def test_unread_keys_rejected_with_their_readers(self, command):
        for key in set(CONFIG_KEYS) - READERS[command]:
            with pytest.raises(ConfigError, match=f"'{key}' is not read by {command}"):
                build_config(command, {key: SAMPLE_VALUES[key]})
        with pytest.raises(ConfigError, match="unknown config key 'learning_rte'"):
            build_config(command, {"learning_rte": "0.9"})

    def test_readme_table_matches(self):
        readme = open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md"),
                      encoding="utf-8").read()
        table = readme[readme.index("| key | subcommands |"):]
        table = table[:table.index("\n\n")].splitlines()[2:]
        documented, default_text = {}, {}
        for row in table:
            cells = [c.strip() for c in row.strip("|").split("|")]
            keys, values = (re.findall(r"`([^`]+)`", cells[i]) for i in (0, 2))
            for key, text in zip(keys, values, strict=True):
                documented[key] = {c.strip() for c in cells[1].split(",")}
                default_text[key] = text
        assert documented == {k: set(readers) for k, (_, readers) in CONFIG_KEYS.items()}
        assert ({key: {CONFIG_KEYS[key][0](text)} for key, text in default_text.items()}
                == code_defaults())

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_random_configs_build_or_raise_config_error(self, data):
        command = data.draw(st.sampled_from(sorted(READERS)))
        keys = data.draw(st.lists(st.sampled_from(sorted(READERS[command])),
                                  max_size=6, unique=True))
        cfg = {key: data.draw(st.sampled_from([SAMPLE_VALUES[key]] * 4 + JUNK_VALUES)
                              | st.text(max_size=12)) for key in keys}
        cfg.update(data.draw(st.dictionaries(st.sampled_from(sorted(CONFIG_KEYS))
                                             | st.text(max_size=8),
                                             st.text(max_size=6), max_size=1)))
        try:
            build_config(command, cfg)
        except ConfigError:
            pass


class TestExitCodes:
    @pytest.mark.parametrize("command,line,named", [
        ("train", "learning_rte = 0.9", "'learning_rte'"),
        ("sweep", "n_rounds = 3", "'n_rounds'"),
        ("train", "dataset = synthetic:nope", "'nope'"),
        ("sweep", "methods = huber", "'huber'"),
        ("sweep", "repeats = 0", "repeats"),
        ("train", "max_depth = 0", "max_depth"),
        ("sweep", "noise_levels = 0.7", "noise level 0.7"),
        ("ablate", "fraction = 1.5", "fraction"),
        ("sweep", "methods = rfl,cce,rfl", "methods repeats 'rfl'"),
        ("ablate", "noise_levels = 0.2,0.0,0.2", "noise_levels repeats 0.2"),
        ("sweep", "grid_r = 1,2,1", "grid_r repeats 1.0"),
        ("ablate", "grid_lr = 0.1,0.1", "grid_lr repeats 0.1"),
    ])
    def test_configuration_errors_exit_2(self, tmp_path, capsys, command, line, named):
        text = TRAIN_CFG if command == "train" else SWEEP_CFG
        cfg = write_config(tmp_path, text + line + "\n")
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert named in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "o")

    def test_bad_csv_cell_exits_1(self, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        data.write_text("a,b,label\n1,2,x\nfoo,3,y\n4,5,x\n")
        cfg = write_config(tmp_path, f"dataset = {data}\n")
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_RUNTIME
        assert "'foo'" in capsys.readouterr().err

    def test_missing_label_exits_1(self, tmp_path, capsys):
        data = tmp_path / "unlabelled.csv"
        data.write_text("a,b,label\n1,2,pos\n3,4,neg\n5,6,\n7,8,NA\n")
        cfg = write_config(tmp_path, f"dataset = {data}\n")
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_RUNTIME
        assert "row 4, column 'label': missing label ''" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["sweep", "ablate"])
    @pytest.mark.parametrize("csv_text,named", [
        ("a,b,label\n1,2,x\nfoo,3,y\n4,5,x\n", "'foo'"),
        (None, "No such file"),
    ], ids=["bad_cell", "no_file"])
    def test_unreadable_sweep_dataset_exits_1_without_output(self, tmp_path, capsys,
                                                              command, csv_text, named):
        data = tmp_path / "data.csv"
        if csv_text is not None:
            data.write_text(csv_text)
        cfg = write_config(tmp_path, SWEEP_CFG + f"dataset = {data}\n")
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_RUNTIME
        assert named in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "o")

    @pytest.mark.parametrize("command", ["sweep", "ablate"])
    def test_unsplittable_sweep_dataset_exits_1_without_output(self, tmp_path, capsys, command):
        data = tmp_path / "data.csv"
        data.write_text("a,b,label\n1,2,x\n")  # loads, but one row cannot be split
        cfg = write_config(tmp_path, SWEEP_CFG + f"dataset = {data}\n")
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_RUNTIME
        assert "fewer than 2 samples" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "o")

    def test_predict_feature_count_mismatch_exits_1(self, tmp_path):
        out = str(tmp_path / "run")
        assert main(["train", "--config", write_config(tmp_path, TRAIN_CFG),
                     "--out", out]) == EXIT_OK
        code = main(["predict", "--model", os.path.join(out, "model.json"),
                     "--data", "synthetic:imbalanced", "--out", str(tmp_path / "p")])
        assert code == EXIT_RUNTIME

    @pytest.mark.parametrize("argv", [
        ["predict", "--model", "m.json", "--out", "o", "--seed", "1"],
        ["predict", "--model", "m.json", "--out", "o", "--threads", "2"],
        ["report", "--results", "r.csv", "--out", "o", "--threads", "2"],
        ["report", "--results", "r.csv", "--out", "o", "--seed", "1"],
        ["train", "--config", "c.cfg", "--out", "o", "--threads", "2"],
    ])
    def test_removed_flags_are_argparse_errors(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_negative_synthetic_seed_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TRAIN_CFG + "synthetic_seed = -1\n")
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "'synthetic_seed'" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "o")
        assert build_config("predict", {"synthetic_seed": "0"})["data"]["synthetic_seed"] == 0

    @pytest.mark.parametrize("command", ["sweep", "ablate"])
    @pytest.mark.parametrize("threads", ["0", "-1", "1", "2"])
    def test_non_positive_threads_flag_exits_2(self, tmp_path, capsys, command, threads):
        # the sweep sizes its own worker pool and takes no --threads flag, whatever its value
        cfg = write_config(tmp_path, SWEEP_CFG)
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", cfg, "--out", str(tmp_path / "o"), "--threads", threads])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "o")

    @pytest.mark.parametrize("command", ["train", "sweep", "ablate"])
    def test_negative_seed_flag_exits_2(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, TRAIN_CFG if command == "train" else SWEEP_CFG)
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", cfg, "--out", str(tmp_path / "o"), "--seed", "-1"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "o")

    def test_sweep_honours_sce_alpha(self, tmp_path):
        base = ("dataset = synthetic:blobs3\nmethods = sce\nnoise_levels = 0.2\nrepeats = 1\n"
                "grid_lr = 0.3\ngrid_rounds = 8\nmax_depth = 3\nmax_leaves = 8\n")
        results = []
        for name, extra in (("plain", ""), ("alpha", "sce_alpha = 5.0\n")):
            out = str(tmp_path / name)
            cfg = write_config(tmp_path, base + extra, name=f"{name}.cfg")
            assert main(["sweep", "--config", cfg, "--out", out, "--seed", "1"]) == EXIT_OK
            results.append(open(os.path.join(out, "results.csv"), "rb").read())
        assert results[0] != results[1]

    def test_ablate_uses_grid_keys_without_rfl_in_methods(self, tmp_path):
        cfg = write_config(tmp_path, SWEEP_CFG + "methods = cce\n")
        exp = build_config("ablate", parse_config_file(cfg))["experiment"]
        rfl = exp.resolve_method("rfl")
        assert (rfl.grid_r, rfl.grid_q, rfl.grid_lr, rfl.grid_rounds) == (
            (1.0,), (0.5,), (0.3,), (10,))


def write_token_csv(path, X, tokens, header, names="abc"):
    """A CSV whose columns follow ``header``: the columns of ``X``, named by
    ``names``, and the label tokens; missing cells are written as NA."""
    cells = {name: ["NA" if np.isnan(v) else repr(float(v)) for v in X[:, j]]
             for j, name in enumerate(names)}
    cells["label"] = list(tokens)
    lines = [",".join(header)] + [",".join(cells[name][i] for name in header)
                                  for i in range(len(tokens))]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def read_predictions(out):
    with open(os.path.join(out, "predictions.csv")) as fh:
        rows = [line.split(",") for line in fh.read().splitlines()[1:]]
    with open(os.path.join(out, "predict_report.json")) as fh:
        return rows, json.load(fh)


@pytest.fixture(scope="module")
def token_model(tmp_path_factory):
    """A CLI-trained model on a CSV whose labels are the tokens neg/pos
    (first row neg), and its predictions on that CSV."""
    tmp = tmp_path_factory.mktemp("tokens")
    rng = np.random.default_rng(0)
    X = rng.normal(size=(150, 3))
    y = rng.random(150) < 0.3
    X[y, 0] += 1.0
    X[rng.random(X.shape) < 0.1] = np.nan
    y[0] = False
    tokens = np.where(y, "pos", "neg")
    train = write_token_csv(tmp / "train.csv", X, tokens, ["a", "b", "c", "label"])
    cfg = write_config(tmp, f"dataset = {train}\nn_rounds = 10\nmax_leaves = 6\n")
    assert main(["train", "--config", cfg, "--out", str(tmp / "run")]) == EXIT_OK
    model = str(tmp / "run" / "model.json")
    assert main(["predict", "--model", model, "--data", train,
                 "--out", str(tmp / "pred")]) == EXIT_OK
    return model, X, tokens, read_predictions(str(tmp / "pred"))


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_predict_invariant_to_row_and_column_order(token_model, seed):
    model, X, tokens, (canonical, report) = token_model
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(tokens))
    header = [str(c) for c in rng.permutation(["a", "b", "c", "label"])]
    with tempfile.TemporaryDirectory() as tmp:
        path = write_token_csv(pathlib.Path(tmp) / "perm.csv", X[perm], tokens[perm], header)
        out = os.path.join(tmp, "pred")
        assert main(["predict", "--model", model, "--data", path, "--out", out]) == EXIT_OK
        rows, perm_report = read_predictions(out)
    assert perm_report == report  # the same aucpr, bit for bit
    assert [row[1:] for row in rows] == [canonical[j][1:] for j in perm.tolist()]
    assert {row[-1] for row in rows} <= {"neg", "pos"}


def test_predict_writes_label_tokens(token_model):
    _, _, tokens, (canonical, report) = token_model
    assert report["metric"] == "aucpr" and report["value"] > 0.5
    predicted = [row[-1] for row in canonical]
    assert set(predicted) == {"neg", "pos"}
    assert np.mean(np.array(predicted) == tokens) > 0.7


@pytest.mark.parametrize("n_rows", [5, 0])
def test_predict_on_an_unscorable_batch_reports_no_value(token_model, tmp_path, capsys, n_rows):
    # five rows of one class, or a header and no rows: predictions, but no aucpr
    model, X, _, _ = token_model
    path = write_token_csv(tmp_path / "batch.csv", X[:n_rows], ["neg"] * n_rows,
                           ["a", "b", "c", "label"])
    out = str(tmp_path / "p")
    assert main(["predict", "--model", model, "--data", path, "--out", out]) == EXIT_OK
    rows, report = read_predictions(out)
    assert len(rows) == n_rows
    assert report == {"metric": "aucpr", "value": None,
                      "reason": "aucpr needs both classes present"}
    assert "no aucpr: aucpr needs both classes present" in capsys.readouterr().err


def test_predict_on_a_header_only_batch_names_accuracy_for_three_classes(tmp_path, capsys):
    # the unscorable path names the metric by the rule task_metric uses
    cfg = write_config(tmp_path, TRAIN_CFG.replace("synthetic:separable", "synthetic:blobs3"))
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == EXIT_OK
    path = tmp_path / "empty.csv"
    path.write_text("f0,f1,label\n")
    out = str(tmp_path / "p")
    assert main(["predict", "--model", str(tmp_path / "run" / "model.json"),
                 "--data", str(path), "--out", out]) == EXIT_OK
    rows, report = read_predictions(out)
    assert rows == []
    assert report == {"metric": "accuracy", "value": None,
                      "reason": "accuracy needs at least one sample"}
    assert "no accuracy: accuracy needs at least one sample" in capsys.readouterr().err


@pytest.mark.parametrize("names,header,token,named", [
    ("abd", ["a", "b", "d", "label"], "neg", "missing ['c'], extra ['d']"),
    ("abc", ["a", "b", "label"], "neg", "missing ['c'], extra []"),
    ("abc", ["a", "b", "c", "label"], "maybe", "labels ['maybe']"),
])
def test_predict_schema_mismatch_exits_1(token_model, tmp_path, capsys, names, header,
                                         token, named):
    model, X, tokens, _ = token_model
    labels = [token] + list(tokens[1:])
    path = write_token_csv(tmp_path / "other.csv", X, labels, header, names)
    code = main(["predict", "--model", model, "--data", path, "--out", str(tmp_path / "p")])
    assert code == EXIT_RUNTIME
    assert named in capsys.readouterr().err


def v2_document(doc):
    # version 2 also stored the early-stopping patience and the focal_wrap switch
    doc["booster"]["early_stopping_rounds"] = None
    doc["loss"]["focal_wrap"] = False


@pytest.mark.parametrize("version,mutate", [(1, lambda doc: None), (2, v2_document)],
                         ids=["v1", "v2"])
def test_predict_v1_model_exits_1(token_model, tmp_path, capsys, version, mutate):
    model, _, _, _ = token_model
    with open(model) as fh:
        doc = json.load(fh)
    doc["version"] = version
    mutate(doc)
    path = tmp_path / f"v{version}.json"
    path.write_text(json.dumps(doc))
    code = main(["predict", "--model", str(path), "--data", "synthetic:separable",
                 "--out", str(tmp_path / "p")])
    assert code == EXIT_RUNTIME
    assert f"unsupported model version {version}, expected 3" in capsys.readouterr().err


def test_import_does_not_load_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(robustboost.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, robustboost.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_import_does_not_load_the_process_pool():
    src = os.path.dirname(os.path.dirname(os.path.abspath(robustboost.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, robustboost.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'multiprocessing' or m.startswith('concurrent.futures')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def write_results(tmp_path, values):
    """A results.csv with one repeat per (gamma, method) cell of dataset d."""
    lines = ["dataset,method,gamma,repeat,metric,value,params"]
    lines += [f"d,{method},{gamma},0,aucpr,{value},{{}}"
              for (gamma, method), value in values.items()]
    path = tmp_path / "results.csv"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


# a and b tie at gamma 0.0, b and c at gamma 0.3
TIED_RESULTS = {(0.0, "a"): 0.8, (0.0, "b"): 0.8, (0.0, "c"): 0.5,
                (0.3, "a"): 0.4, (0.3, "b"): 0.6, (0.3, "c"): 0.6}


def test_report_runs_with_scipy_blocked(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(robustboost.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys; sys.modules['scipy'] = None; "
            "from robustboost.cli import main; sys.exit(main(sys.argv[1:]))")
    out = tmp_path / "rep"
    run = subprocess.run([sys.executable, "-c", code, "report", "--results",
                          write_results(tmp_path, TIED_RESULTS), "--out", str(out)],
                         env=env, capture_output=True, text=True)
    assert run.returncode == EXIT_OK, run.stderr
    assert (out / "ranks.csv").read_text().splitlines() == [
        "method,average_rank,top_1,top_2,top_3",
        "a,2.25,0,1,2",
        "b,1.5,0,2,2",
        "c,2.25,0,1,2",
    ]


def test_report_rejects_non_finite_value(tmp_path, capsys):
    results = write_results(tmp_path, {**TIED_RESULTS, (0.3, "b"): "nan"})
    code = main(["report", "--results", results, "--out", str(tmp_path / "rep")])
    assert code == EXIT_RUNTIME
    assert "non-finite score nan for method 'b'" in capsys.readouterr().err
    assert not (tmp_path / "rep" / "ranks.csv").exists()


def test_report_on_a_header_only_results_file_exits_1(tmp_path, capsys):
    results = write_results(tmp_path, {})
    code = main(["report", "--results", results, "--out", str(tmp_path / "rep")])
    assert code == EXIT_RUNTIME
    assert f"{results} holds no result rows" in capsys.readouterr().err
    assert not (tmp_path / "rep").exists()


def test_report_on_a_results_file_that_lacks_columns_exits_1(tmp_path, capsys):
    results = tmp_path / "results.csv"
    results.write_text("dataset,method,gamma\nd,a,0.0\n")
    code = main(["report", "--results", str(results), "--out", str(tmp_path / "rep")])
    assert code == EXIT_RUNTIME
    assert (f"{results} lacks the column(s) 'repeat', 'metric', 'value', 'params'"
            in capsys.readouterr().err)
    assert not (tmp_path / "rep").exists()


@pytest.mark.parametrize("column,cell,named", [
    ("repeat", "x", "column 'repeat': cannot read 'x' as int"),
    ("gamma", "", "column 'gamma': cannot read '' as float"),
    ("value", "0.8.1", "column 'value': cannot read '0.8.1' as float"),
])
def test_report_names_the_file_line_and_column_of_a_bad_cell(tmp_path, capsys, column, cell,
                                                             named):
    results = write_results(tmp_path, TIED_RESULTS)
    lines = open(results).read().splitlines()
    header, row = lines[0].split(","), lines[3].split(",")
    row[header.index(column)] = cell
    lines[3] = ",".join(row)
    with open(results, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    code = main(["report", "--results", results, "--out", str(tmp_path / "rep")])
    assert code == EXIT_RUNTIME
    assert f"error: {results}: line 4, {named}\n" == capsys.readouterr().err
    assert not (tmp_path / "rep").exists()


@pytest.mark.parametrize("name,command", [("benchmark.cfg", "sweep"), ("ablation.cfg", "ablate")])
def test_committed_configs_build(name, command):
    path = os.path.join(os.path.dirname(__file__), os.pardir, "configs", name)
    built = build_config(command, parse_config_file(path))
    exp = built["experiment"]
    assert built["data"]["dataset"] == "synthetic:imbalanced" and exp.repeats == 5
    assert (exp.tree.lam, exp.tree.max_leaves, exp.tree.max_depth) == (1.0, 64, 12)
