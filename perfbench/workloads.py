"""The benchmark's three workloads.

Each workload builds its inputs from the seed in ``prepare`` (which also makes
the program calls a user would make before the timed part, such as training
the model that ``cli_score`` scores), warms up in ``warm``, and runs one round
of timed operations in ``run_round``, timing each through a
``calibrate.Clock``. ``check`` verifies a round's outputs
against independent computations or properties of the method and returns the
number of failed operations; it raises ``CheckError`` on any other defect.
"""

from __future__ import annotations

import csv
import json
import math
import os
import resource
import subprocess
import sys

import numpy as np

# The program's functions are called through their modules, so that the
# tracer's wrappers on those module attributes see the calls.
from robustboost import booster, data, experiment, noise, synthetic
from robustboost.booster import BoosterConfig
from robustboost.experiment import TAG_SPLIT, ExperimentConfig, MethodSpec, derive_seed
from robustboost.losses import LossSpec
from robustboost.noise import NoiseSpec
from robustboost.tree import TreeConfig

HERE = os.path.dirname(os.path.abspath(__file__))


class CheckError(AssertionError):
    """An output that is wrong in a way the benchmark does not expect."""


def _require(cond, message):
    if not cond:
        raise CheckError(message)


def average_precision(scores, positive):
    """Tie-grouped average precision: precision at the end of each group of
    equal scores, weighted by the group's share of the positives."""
    scores = np.asarray(scores, dtype=float)
    positive = np.asarray(positive, dtype=bool)
    order = np.argsort(-scores, kind="stable")
    s, p = scores[order], positive[order]
    group_end = np.append(np.nonzero(s[1:] != s[:-1])[0], s.size - 1)
    tp = np.cumsum(p)[group_end]
    seen = group_end + 1
    dtp = np.diff(np.concatenate([[0], tp]))
    return float(np.sum(tp / seen * dtp) / p.sum())


def _files(directory, names):
    out = {}
    for name in names:
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


def self_peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class NoiseSweep:
    """``experiment.run_sweep`` in-process on the bundled imbalanced
    generator: many small fits plus the tuning grid's redundant ones.

    Three repeats rather than one: test AUCPR over one split of 19 test
    positives spreads by ~15% from seed to seed, over three by ~8-11%.
    Trees are capped at 8 leaves, which every tree reaches, so the split
    searches per round vary by ~2% between seeds rather than ~8% at 31.
    """

    name = "noise_sweep"
    ops_per_round = 1
    LEVELS = (0.0, 0.2, 0.4)
    REPEATS = 3
    GRID_ROUNDS = (6, 8)

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    def _config(self, levels, repeats, methods, grid_rounds):
        specs = {
            "rfl": MethodSpec(name="rfl", family="rfl", grid_r=(0.5, 2.0), grid_q=(0.5,),
                              grid_lr=(0.1,), grid_rounds=grid_rounds),
            "cce": MethodSpec(name="cce", family="cce", grid_lr=(0.1,), grid_rounds=grid_rounds),
        }
        return ExperimentConfig(noise_levels=levels, repeats=repeats, methods=methods,
                                method_specs={m: specs[m] for m in methods},
                                tree=TreeConfig(max_leaves=8), master_seed=self.seed,
                                threads=1)

    def prepare(self):
        self.data = synthetic.imbalanced(n=2000, ratio=20.0,
                                         seed=derive_seed(self.seed, 1000))
        self.cfg = self._config(self.LEVELS, self.REPEATS, ("rfl", "cce"), self.GRID_ROUNDS)

    def warm(self):
        experiment.run_sweep(self._config((0.1,), 1, ("cce",), (2, 4)),
                             os.path.join(self.workdir, "warm"),
                             dataset=self.data, dataset_name="synthetic:imbalanced")

    def run_round(self, out_dir, clock, trace_dir=None):
        clock.time(experiment.run_sweep, self.cfg, out_dir, dataset=self.data,
                   dataset_name="synthetic:imbalanced")
        names = ["results.csv"] + [f"fliplog_g{gi}_r{rep}.csv"
                                   for gi in range(len(self.LEVELS))
                                   for rep in range(self.REPEATS)]
        return _files(out_dir, names)

    def same(self, a, b):
        return a == b

    def check(self, out):
        labels = self.data.labels
        minority = int(np.argmin(np.bincount(labels)))
        rows = list(csv.DictReader(out["results.csv"].decode().splitlines()))
        keys = sorted((r["method"], float(r["gamma"]), int(r["repeat"])) for r in rows)
        expected = sorted((m, g, rep) for m in ("rfl", "cce") for g in self.LEVELS
                          for rep in range(self.REPEATS))
        _require(keys == expected, f"results.csv rows {keys} != {expected}")

        for rep in range(self.REPEATS):
            plan = data.train_test_split(self.data, self.cfg.fraction, stratified=True,
                                         seed=derive_seed(self.seed, TAG_SPLIT, rep))
            test = set(plan.test_indices.tolist())
            n_min_train = int(np.sum(labels[plan.train_indices] == minority))
            prevalence = float(np.mean(labels[plan.test_indices] == 1))
            values = [float(r["value"]) for r in rows if int(r["repeat"]) == rep]
            _require(all(v > prevalence for v in values),
                     f"repeat {rep}: an AUCPR in {values} is not above the prevalence {prevalence}")
            for gi, gamma in enumerate(self.LEVELS):
                where = f"gamma={gamma}, repeat {rep}"
                flips = list(csv.DictReader(
                    out[f"fliplog_g{gi}_r{rep}.csv"].decode().splitlines()))
                n_each = math.floor(gamma * n_min_train)
                _require(len(flips) == 2 * n_each,
                         f"{where}: {len(flips)} flips, expected 2*{n_each}")
                idx = [int(f["sample_index"]) for f in flips]
                _require(not test.intersection(idx), f"{where}: a flip lies in the test split")
                _require(len(set(idx)) == len(idx), f"{where}: a sample flipped twice")
                old = [int(f["old_label"]) for f in flips]
                _require(old == [int(labels[i]) for i in idx],
                         f"{where}: a flip's old label is not the clean label")
                _require(sum(1 for o in old if o == minority) == n_each,
                         f"{where}: minority and majority flips do not balance")
        self.test_score = float(np.mean([float(r["value"]) for r in rows]))
        return 0

    def peak_rss_mb(self):
        return self_peak_rss_mb()


class FitMulticlass:
    """One large one-vs-all ``booster.fit`` on a 4-class set with missing
    cells and pair-flipped training labels, then held-out prediction."""

    name = "fit_multiclass"
    ops_per_round = 2  # the fit and the held-out prediction
    N, D, K = 24000, 8, 4
    ROUNDS = 6
    ACCURACY_FLOOR = 0.55

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    def prepare(self):
        rng = np.random.default_rng([self.seed, 2])
        centers = np.zeros((self.K, self.D))
        for k in range(self.K):
            centers[k, k] = 1.5
            centers[k, (k + 1) % self.K + 4] = -1.0
        y = rng.integers(0, self.K, self.N)
        X = centers[y] + rng.normal(size=(self.N, self.D))
        X[rng.random((self.N, self.D)) < 0.10] = np.nan
        full = data.from_arrays(X, y, class_names=[str(k) for k in range(self.K)])
        plan = data.train_test_split(full, 2.0 / 3.0, seed=derive_seed(self.seed, 2001))
        train = full.subset(plan.train_indices)
        noisy, _ = noise.inject_multiclass(train.labels, self.K, NoiseSpec(
            rate=0.2, protocol="multiclass_pairflip", seed=derive_seed(self.seed, 2002)))
        self.train = train.with_labels(noisy)
        self.test = full.subset(plan.test_indices)
        self.cfg = BoosterConfig(loss=LossSpec(family="rfl", r=1.0, q=0.5), learning_rate=0.3,
                                 n_rounds=self.ROUNDS, n_classes=self.K,
                                 seed=derive_seed(self.seed, 2003))

    def warm(self):
        booster.fit(self.train.subset(np.arange(2000)),
                    BoosterConfig(n_rounds=1, n_classes=self.K))

    def run_round(self, out_dir, clock, trace_dir=None):
        def fit_predict():
            model = booster.fit(self.train, self.cfg)
            return model, booster.predict_proba(model, self.test)
        return clock.time(fit_predict)

    def same(self, a, b):
        return np.array_equal(a[1], b[1])

    def check(self, out):
        model, proba = out
        _require(proba.shape == (self.test.n_samples, self.K), f"proba shape {proba.shape}")
        _require(bool(np.all(np.isfinite(proba))), "non-finite probability")
        _require(bool(np.all((proba >= 0.0) & (proba <= 1.0))), "probability outside [0, 1]")
        _require(bool(np.all(np.abs(proba.sum(axis=1) - 1.0) < 1e-9)),
                 "probabilities do not sum to 1")
        acc = float(np.mean(np.argmax(proba, axis=1) == self.test.labels))
        _require(acc > self.ACCURACY_FLOOR, f"accuracy {acc} under {self.ACCURACY_FLOOR}")
        raw = booster.predict_raw(model, self.test)
        restored = booster.deserialize(booster.serialize(model))
        _require(np.array_equal(booster.predict_raw(restored, self.test), raw),
                 "serialize -> deserialize changed the raw predictions")
        self.test_score = acc
        return 0

    def peak_rss_mb(self):
        return self_peak_rss_mb()


class CliScore:
    """``robustboost predict`` as a subprocess on a large CSV and on a
    row-permuted copy whose first row is a positive."""

    name = "cli_score"
    ops_per_round = 2  # canonical and permuted predict
    N_TRAIN, N_SCORE, D = 3000, 30000, 6

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.child_rss = []

    def _generate(self, rng, n):
        y = rng.random(n) < 0.2
        X = rng.normal(size=(n, self.D))
        X[y, :3] += 1.2
        X[rng.random((n, self.D)) < 0.05] = np.nan
        return X, y

    @staticmethod
    def _write_csv(path, X, y):
        lines = [",".join([f"f{j}" for j in range(X.shape[1])] + ["label"])]
        for row, pos in zip(X.tolist(), y.tolist()):
            cells = ["NA" if v != v else f"{v:.6f}" for v in row]
            cells.append("pos" if pos else "neg")
            lines.append(",".join(cells))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")

    def prepare(self):
        rng = np.random.default_rng([self.seed, 3])
        X, y = self._generate(rng, self.N_TRAIN)
        train = data.from_arrays(X, y.astype(np.int64), class_names=["neg", "pos"])
        noisy, _ = noise.inject_binary(
            train.labels, NoiseSpec(rate=0.2, seed=derive_seed(self.seed, 3001)))
        model = booster.fit(train.with_labels(noisy), BoosterConfig(
            loss=LossSpec(family="rfl", r=1.0, q=0.5), n_rounds=30,
            seed=derive_seed(self.seed, 3002)))
        self.model_path = os.path.join(self.workdir, "model.json")
        with open(self.model_path, "w", encoding="utf-8") as fh:
            fh.write(booster.serialize(model))

        X, y = self._generate(rng, self.N_SCORE)
        first_neg = int(np.argmin(y))  # the canonical file starts with a "neg" row
        order = np.arange(self.N_SCORE)
        order[[0, first_neg]] = order[[first_neg, 0]]
        X, y = X[order], y[order]
        perm = rng.permutation(self.N_SCORE)
        first_pos = int(np.argmax(y[perm]))  # the permuted copy starts with a "pos" row
        perm[[0, first_pos]] = perm[[first_pos, 0]]
        self.y, self.perm = y, perm
        self.canonical = os.path.join(self.workdir, "canonical.csv")
        self.permuted = os.path.join(self.workdir, "permuted.csv")
        self.small = os.path.join(self.workdir, "small.csv")
        self._write_csv(self.canonical, X, y)
        self._write_csv(self.permuted, X[perm], y[perm])
        self._write_csv(self.small, X[:2000], y[:2000])

    def _predict(self, csv_path, out_dir, trace_file=None):
        """One CLI predict; returns the child's peak RSS in MB."""
        cmd = [sys.executable, os.path.join(HERE, "launch.py")]
        if trace_file:
            cmd += ["--trace", trace_file]
        cmd += ["predict", "--model", self.model_path, "--data", csv_path, "--out", out_dir]
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "stderr.txt"), "wb") as err:
            proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err)
            # wait4 rather than proc.wait(): it also returns this child's rusage
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            with open(os.path.join(out_dir, "stderr.txt"), encoding="utf-8") as fh:
                raise CheckError(f"predict exited {proc.returncode}: {fh.read()[-2000:]}")
        return usage.ru_maxrss / 1024.0

    def warm(self):
        self._predict(self.small, os.path.join(self.workdir, "warm"))

    def run_round(self, out_dir, clock, trace_dir=None):
        for name, path in (("canonical", self.canonical), ("permuted", self.permuted)):
            trace_file = os.path.join(trace_dir, f"{name}.json") if trace_dir else None
            self.child_rss.append(clock.time(self._predict, path, os.path.join(out_dir, name),
                                             trace_file))
        return {name: _files(os.path.join(out_dir, name),
                             ["predictions.csv", "predict_report.json"])
                for name in ("canonical", "permuted")}

    def same(self, a, b):
        return a == b

    def _read(self, files):
        rows = list(csv.reader(files["predictions.csv"].decode().splitlines()))
        _require(rows[0][:3] == ["index", "proba_0", "proba_1"], f"header {rows[0]}")
        _require(len(rows) == self.N_SCORE + 1, f"{len(rows) - 1} predictions")
        report = json.loads(files["predict_report.json"])
        _require(report["metric"] == "aucpr", f"metric {report['metric']}")
        return [r[1:3] for r in rows[1:]], report["value"]

    def check(self, out):
        canon, canon_reported = self._read(out["canonical"])
        perm, perm_reported = self._read(out["permuted"])
        _require(all(perm[i] == canon[j] for i, j in enumerate(self.perm.tolist())),
                 "permuted file's probabilities differ from the canonical file's")
        proba_1 = np.array([float(r[1]) for r in canon])
        ap = average_precision(proba_1, self.y)
        _require(abs(ap - canon_reported) <= 1e-9,
                 f"canonical aucpr {canon_reported} != average precision {ap}")
        self.test_score = ap
        # The permuted copy holds the same rows and probabilities, so its true
        # average precision is ``ap``. Known fault: load_csv encodes labels by
        # first appearance and the first row here is "pos", so the reported
        # aucpr is computed against swapped classes and this operation fails.
        return int(abs(ap - perm_reported) > 1e-9)

    def peak_rss_mb(self):
        return max(self.child_rss)


WORKLOADS = {w.name: w for w in (NoiseSweep, FitMulticlass, CliScore)}
