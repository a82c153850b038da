#!/usr/bin/env python3
"""Print one ``name sha256`` line per output that a change may claim to keep
bitwise unchanged, so two commits can be compared with ``diff``:

- the files of ``robustboost train`` and ``predict`` on the CLI tests' train
  config, on its synthetic data and on a CSV with missing cells;
- every file of the acceptance gate's criterion-12 sweep at ``--seed 9``,
  of two sweeps whose grids hold several ``grid_rounds`` values (the staged
  tuning path of ``experiment.fit_tuned``), of a sweep whose two-valued
  ``grid_r`` and ``grid_q`` reach families that read neither, one or both
  (``MethodSpec.candidates``), and of a small ``robustboost ablate``;
- the ``ranks.csv`` of ``robustboost report`` on the criterion-12 sweep's
  and on the ablation's ``results.csv``;
- ``predict_raw`` and ``loss_history`` on the training and the held-out
  validation rows, and ``serialize()``, of a fixed set of fits with missing
  cells and row subsampling,
  and with ``min_samples_leaf > 1`` and ``min_gain > 0``, with ``lam = 0``,
  and on unrounded features (all values distinct), with and without
  missing cells;
- the files of ``robustboost train`` and ``predict`` on a CSV that starts
  with a UTF-8 byte-order mark and whose class tokens need quoting.

Usage, from the repository root:

    PYTHONPATH=src python scripts/output_digests.py > digests.txt

It writes only to a temporary directory and runs in well under a minute.
Comparing the listing of a run on one core (``taskset -c 0``), where every
sweep cell and every multi-class fit runs in-process, with that of a run on
several cores checks the worker pools. ``tests/test_output_digests.py`` does
both through ``listing()`` and compares them with the committed listing
``tests/output_digests.txt``; a change meant to move outputs regenerates that
file and names the lines that moved.
"""

import codecs
import contextlib
import hashlib
import io
import os
import tempfile
from dataclasses import replace

import numpy as np

from robustboost.booster import BoosterConfig, fit, loss_history, predict_raw, serialize
from robustboost.cli import main as cli_main
from robustboost.data import dump_csv, from_arrays
from robustboost.losses import LossSpec
from robustboost.tree import TreeConfig

# TRAIN_CFG of tests/test_cli.py
TRAIN_CFG = """
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

# the sweep of tests/test_acceptance.py criterion 12
SWEEP_CFG = """
dataset = synthetic:imbalanced
methods = rfl,cce
noise_levels = 0.0,0.3
repeats = 2
grid_r = 1.0
grid_q = 0.5
grid_lr = 0.3
grid_rounds = 30
max_depth = 6
max_leaves = 16
"""

# the shape of perfbench's noise_sweep workload: two lr-sharing rfl losses and cce
NOISE_SWEEP_CFG = """
dataset = synthetic:imbalanced
methods = rfl,cce
noise_levels = 0.0,0.2,0.4
repeats = 2
grid_r = 0.5,2.0
grid_q = 0.5
grid_lr = 0.1
grid_rounds = 6,8
max_leaves = 8
"""

# a 3-class sweep with its rounds out of order; its winners use all three values
BLOBS3_CFG = """
dataset = synthetic:blobs3
methods = cce,gce,mae
noise_levels = 0.2,0.4
repeats = 2
grid_q = 0.5,0.7
grid_lr = 0.1,0.3
grid_rounds = 9,3,5
max_depth = 6
max_leaves = 16
"""

# fl reads r, rfl r and q, sce and nce neither
FOCAL_SWEEP_CFG = """
dataset = synthetic:imbalanced
methods = fl,rfl,sce,nce
noise_levels = 0.0,0.3
repeats = 1
grid_r = 0.5,2.0
grid_q = 0.3,0.7
grid_lr = 0.3
grid_rounds = 6
max_leaves = 8
"""

# an ablation of rfl (full, r = 0, q -> 0) with two r values and two rounds values
ABLATE_CFG = """
dataset = synthetic:imbalanced
noise_levels = 0.0,0.3
repeats = 2
grid_r = 0.5,2.0
grid_q = 0.5
grid_lr = 0.3
grid_rounds = 4,8
max_leaves = 8
"""

# (loss family, n_classes, subsample, changes to TREE, changes to noisy_dataset's arguments)
TREE = dict(lam=0.5, max_depth=5, max_leaves=12)
FITS = (
    ("cce", 2, 0.8, {}, {}),
    ("rfl", 2, 0.7, {}, {}),
    ("gce", 3, 0.8, {}, {}),
    ("fl", 3, 1.0, {}, {}),
    ("mae", 2, 0.8, {}, {}),
    ("nce", 4, 0.7, {}, {}),
    ("sce", 2, 0.7, {}, {}),
    ("rfl", 4, 0.8, {}, {}),
    ("rfl", 2, 0.8, {"min_samples_leaf": 5, "min_gain": 0.05}, {}),
    ("cce", 3, 0.8, {"lam": 0.0}, {}),
    ("rfl", 2, 0.8, {}, {"decimals": None}),
    ("gce", 3, 1.0, {"min_samples_leaf": 3}, {"decimals": None, "missing_rate": 0.0}),
)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_line(name, data: bytes):
    return f"{name} {sha256(data)}"


def dir_lines(prefix, path):
    for root, _, files in sorted(os.walk(path)):
        for name in sorted(files):
            full = os.path.join(root, name)
            with open(full, "rb") as fh:
                yield digest_line(f"{prefix}/{os.path.relpath(full, path)}", fh.read())


def run_cli(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    if code != 0:
        raise SystemExit(f"robustboost {' '.join(argv)} exited {code}: {err.getvalue()}")


def noisy_dataset(rng, n, n_classes, missing_rate=0.05, m=4, decimals=2):
    """Features rounded to ``decimals`` (ties), or not rounded if None."""
    X = rng.normal(size=(n, m))
    score = X @ rng.normal(size=m) + 0.2 * rng.normal(size=n)
    y = np.digitize(score, np.quantile(score, np.linspace(0, 1, n_classes + 1)[1:-1]))
    X[rng.random(X.shape) < missing_rate] = np.nan
    if decimals is not None:
        X = np.round(X, decimals)
    return from_arrays(X, y, class_names=[f"c{k}" for k in range(n_classes)])


def cli_digests(tmp):
    cfg = os.path.join(tmp, "train.cfg")
    with open(cfg, "w") as fh:
        fh.write(TRAIN_CFG)
    run_cli(["train", "--config", cfg, "--out", os.path.join(tmp, "train"), "--seed", "1"])
    run_cli(["predict", "--model", os.path.join(tmp, "train", "model.json"),
             "--data", "synthetic:separable", "--out", os.path.join(tmp, "predict")])
    yield from dir_lines("train", os.path.join(tmp, "train"))
    yield from dir_lines("predict", os.path.join(tmp, "predict"))

    csv_path = os.path.join(tmp, "na.csv")
    dump_csv(noisy_dataset(np.random.default_rng(500), 500, 2, missing_rate=0.1), csv_path)
    cfg = os.path.join(tmp, "train_na.cfg")
    with open(cfg, "w") as fh:
        fh.write(TRAIN_CFG.replace("synthetic:separable", csv_path))
    run_cli(["train", "--config", cfg, "--out", os.path.join(tmp, "train_na"), "--seed", "1"])
    run_cli(["predict", "--model", os.path.join(tmp, "train_na", "model.json"),
             "--data", csv_path, "--out", os.path.join(tmp, "predict_na")])
    yield from dir_lines("train_na", os.path.join(tmp, "train_na"))
    yield from dir_lines("predict_na", os.path.join(tmp, "predict_na"))


def sweep_digests(tmp):
    for command, name, text, seed in (
            ("sweep", "sweep", SWEEP_CFG, "9"), ("sweep", "noise_sweep", NOISE_SWEEP_CFG, "41"),
            ("sweep", "blobs3_sweep", BLOBS3_CFG, "3"),
            ("sweep", "focal_sweep", FOCAL_SWEEP_CFG, "13"), ("ablate", "ablate", ABLATE_CFG, "5")):
        cfg = os.path.join(tmp, f"{name}.cfg")
        with open(cfg, "w") as fh:
            fh.write(text)
        run_cli([command, "--config", cfg, "--out", os.path.join(tmp, name), "--seed", seed])
        yield from dir_lines(name, os.path.join(tmp, name))
    for name in ("sweep", "ablate"):
        out = os.path.join(tmp, f"{name}_report")
        run_cli(["report", "--results", os.path.join(tmp, name, "results.csv"), "--out", out])
        yield from dir_lines(f"{name}_report", out)


def fit_digests():
    for i, (family, n_classes, subsample, tree, shape) in enumerate(FITS):
        rng = np.random.default_rng(100 + i)
        data = noisy_dataset(rng, 550, n_classes, **shape)
        train, valid = data.subset(np.arange(400)), data.subset(np.arange(400, 550))
        config = BoosterConfig(
            loss=LossSpec(family), tree=TreeConfig(**{**TREE, **tree}),
            learning_rate=0.3, n_rounds=40, n_classes=n_classes, seed=i, subsample=subsample)
        model = fit(train, config)
        name = f"fit{i}_{family}_{n_classes}class"
        for part, data in (
                ("predict_raw_train", predict_raw(model, train).tobytes()),
                ("predict_raw_valid", predict_raw(model, valid).tobytes()),
                ("serialize", serialize(model).encode()),
                ("train_loss_history", np.array(loss_history(model, train)).tobytes()),
                ("valid_loss_history", np.array(loss_history(model, valid)).tobytes())):
            yield digest_line(f"{name}/{part}", data)


def quoted_class_digests(tmp):
    csv_path = os.path.join(tmp, "quoted.csv")
    data = noisy_dataset(np.random.default_rng(600), 300, 2)
    dump_csv(replace(data, class_names=["a,b", 'say "hi"']), csv_path)
    with open(csv_path, "rb") as fh:
        text = fh.read()
    with open(csv_path, "wb") as fh:
        fh.write(codecs.BOM_UTF8 + text)
    cfg = os.path.join(tmp, "train_quoted.cfg")
    with open(cfg, "w") as fh:
        fh.write(TRAIN_CFG.replace("synthetic:separable", csv_path))
    run_cli(["train", "--config", cfg, "--out", os.path.join(tmp, "train_quoted"), "--seed", "1"])
    run_cli(["predict", "--model", os.path.join(tmp, "train_quoted", "model.json"),
             "--data", csv_path, "--out", os.path.join(tmp, "predict_quoted")])
    yield from dir_lines("train_quoted", os.path.join(tmp, "train_quoted"))
    yield from dir_lines("predict_quoted", os.path.join(tmp, "predict_quoted"))


def listing():
    """The listing's ``name sha256`` lines, in order."""
    with tempfile.TemporaryDirectory() as tmp:
        lines = [*cli_digests(tmp), *sweep_digests(tmp), *fit_digests()]
        return lines + list(quoted_class_digests(tmp))


def main():
    print("\n".join(listing()))


if __name__ == "__main__":
    main()
