"""Acceptance gate: twelve checks, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines. Each
check enforces its stated tolerance and runtime budget.
"""

import os
import time

import numpy as np
import numpy.testing as npt
import pytest

from robustboost import synthetic
from robustboost.booster import BoosterConfig, fit, predict_proba, predict_raw
from robustboost.cli import main as cli_main
from robustboost.data import from_arrays
from robustboost.experiment import (ExperimentConfig, MethodSpec, Q_ZERO,
                                    run_ablation, run_sweep)
from robustboost.losses import (LossSpec, check_necessary_condition, grad_hess,
                                loss_d1_d2, loss_value, make_phat, sigmoid)
from robustboost.metrics import aucpr
from robustboost.noise import NoiseSpec, inject_binary, inject_multiclass
from robustboost.tree import GainScenario, TreeConfig, decomposed_gain, grow_tree

from test_metrics import brute_force_aucpr
from test_tree import brute_force_best


def report(num, name, ok, detail=""):
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}  {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def budget(num, name, t0, limit):
    dt = time.time() - t0
    assert dt < limit, f"criterion {num} ({name}) took {dt:.1f}s, budget {limit}s"
    return dt


def random_spec(rng):
    family = rng.choice(["cce", "mae", "fl", "gce", "sce", "nce", "rfl"])
    return LossSpec(family=str(family),
                    r=float(rng.uniform(0.0, 3.0)),
                    q=float(rng.uniform(0.05, 0.95)),
                    eta=float(rng.uniform(0.005, 0.05)),
                    sce_alpha=float(rng.uniform(0.1, 2.0)),
                    sce_beta=float(rng.uniform(0.1, 2.0)))


RTOL, ATOL = 1e-5, 1e-8

# benchmark configuration shared by criteria 9 and 10; grids reduced from the
# CLI defaults to fit the runtime budgets on one core
BENCH_TREE = TreeConfig(lam=1.0, max_leaves=64, max_depth=12)
BENCH_RFL = MethodSpec(name="rfl", family="rfl", grid_r=(1.0, 2.0), grid_q=(0.7,),
                       grid_lr=(0.3,), grid_rounds=(100,))
BENCH_CCE = MethodSpec(name="cce", family="cce", grid_lr=(0.3,), grid_rounds=(100,))
# the ablation holds the loss hyperparameters fixed across variants (only the
# ablated term changes), using the configuration the tuned sweep selects most
ABLATION_RFL = MethodSpec(name="rfl", family="rfl", grid_r=(2.0,), grid_q=(0.7,),
                          grid_lr=(0.3,), grid_rounds=(100,))
BENCH_SEED = 42


def bench_config(noise_levels, methods=("rfl", "cce")):
    return ExperimentConfig(
        dataset="synthetic:imbalanced",
        noise_levels=noise_levels,
        repeats=10,
        methods=methods,
        method_specs={"rfl": BENCH_RFL, "cce": BENCH_CCE},
        tree=BENCH_TREE,
        master_seed=BENCH_SEED,
    )


def medians(rows):
    cells = {}
    for r in rows:
        cells.setdefault((r.method, r.gamma), []).append(r.value)
    return {k: float(np.median(v)) for k, v in cells.items()}


def test_criterion_01_derivative_correctness():
    t0 = time.time()
    rng = np.random.default_rng(101)
    eps = 1e-6
    worst = 0.0
    for _ in range(200):
        spec = random_spec(rng)
        u = float(rng.uniform(0.02, 0.98))
        if abs(u - 0.5) < 2 * eps:  # safeguard kink for mae/nce
            u += 0.01
        d1, d2 = loss_d1_d2(spec, u)
        fd1 = (loss_value(spec, u + eps) - loss_value(spec, u - eps)) / (2 * eps)
        fd2 = (loss_d1_d2(spec, u + eps)[0] - loss_d1_d2(spec, u - eps)[0]) / (2 * eps)
        for a, b in ((d1, fd1), (d2, fd2)):
            err = abs(a - b) / max(abs(b), ATOL / RTOL)
            worst = max(worst, err)
    for _ in range(200):
        spec = random_spec(rng)
        y = int(rng.integers(0, 2))
        z = float(rng.uniform(-5.0, 5.0))
        g, h = grad_hess(spec, y, z)
        lv = lambda zz: float(loss_value(spec, make_phat(y, sigmoid(zz))))
        gg = lambda zz: float(grad_hess(spec, y, zz)[0])
        fg = (lv(z + eps) - lv(z - eps)) / (2 * eps)
        fh = (gg(z + eps) - gg(z - eps)) / (2 * eps)
        for a, b in ((float(g), fg), (float(h), fh)):
            err = abs(a - b) / max(abs(b), ATOL / RTOL)
            worst = max(worst, err)
    dt = budget(1, "derivatives", t0, 5.0)
    report(1, "analytic d1/d2 and (g,h) match finite differences",
           worst < RTOL, f"worst rel err {worst:.2e}, {dt:.1f}s")


def test_criterion_02_hessian_grid_check():
    t0 = time.time()
    hold = [LossSpec("cce")]
    hold += [LossSpec("fl", r=r) for r in (0.5, 1.0, 2.0)]
    hold += [LossSpec("gce", q=q) for q in np.arange(0.1, 0.95, 0.1)]
    hold += [LossSpec("sce", eta=0.01)]
    hold += [LossSpec("rfl", r=r, q=q) for r in (0.5, 1.0, 2.0)
             for q in (0.3, 0.5, 0.7)]
    ok = all(check_necessary_condition(s, 10_000).holds for s in hold)
    raw_fail = True
    for fam in ("mae", "nce"):
        rep = check_necessary_condition(LossSpec(fam, eta=0.0), 10_001)
        raw_fail &= (not rep.holds) and any(p == 0.5 for p, _ in rep.violations)
    dt = budget(2, "hessian grid", t0, 5.0)
    report(2, "Hessian positivity holds for robust catalog, raw mae/nce fail at 0.5",
           ok and raw_fail, f"{dt:.1f}s")


def test_criterion_03_degeneration_identities():
    t0 = time.time()
    u = np.linspace(0.01, 0.99, 981)
    exact = True
    for q in (0.3, 0.5, 0.7):
        a = loss_value(LossSpec("rfl", r=0.0, q=q), u)
        b = loss_value(LossSpec("gce", q=q), u)
        exact &= bool(np.array_equal(a, b))
    fl_err = max(
        float(np.max(np.abs(loss_value(LossSpec("rfl", r=r, q=1e-6), u)
                            - loss_value(LossSpec("fl", r=r), u))))
        for r in (0.5, 1.0, 2.0))
    cce_err = float(np.max(np.abs(loss_value(LossSpec("rfl", r=0.0, q=1e-6), u)
                                  + np.log(u))))
    dt = budget(3, "degenerations", t0, 1.0)
    report(3, "rfl degenerates to gce exactly, to fl/cce within 1e-4",
           exact and fl_err < 1e-4 and cce_err < 1e-4,
           f"fl err {fl_err:.1e}, cce err {cce_err:.1e}, {dt:.2f}s")


def test_criterion_04_split_oracle():
    t0 = time.time()
    rng = np.random.default_rng(404)
    cfg = TreeConfig(lam=1.0, min_samples_leaf=1, min_sum_hessian=0.0,
                     min_gain=0.0, max_leaves=2)
    mismatches = 0
    for _ in range(200):
        n = int(rng.integers(2, 31))
        m = int(rng.integers(1, 4))
        cols = [np.round(rng.normal(size=n), 1) for _ in range(m)]
        miss = [rng.random(n) < 0.15 for _ in range(m)]
        g = rng.normal(size=n)
        h = rng.uniform(0.1, 2.0, size=n)
        tree = grow_tree(np.where(miss, np.nan, cols), np.arange(n), g, h, cfg)
        expected = brute_force_best(cols, miss, g, h, cfg)
        feature, threshold, default_left = tree.feature[0], tree.threshold[0], tree.default_left[0]
        if expected is None:
            mismatches += 0 if feature == -1 else 1
        elif feature == -1:
            mismatches += 1
        elif (feature, threshold) != expected[1:]:
            # distinct features can induce the identical partition (a true
            # gain tie); accept iff the found split attains the oracle max
            vals, msk = cols[feature], miss[feature]
            left = np.where(msk, default_left, vals <= threshold)
            GL, HL = g[left].sum(), h[left].sum()
            GR, HR = g[~left].sum(), h[~left].sum()
            gain = 0.5 * (GL**2 / (HL + cfg.lam) + GR**2 / (HR + cfg.lam)
                          - (GL + GR)**2 / (HL + HR + cfg.lam))
            if abs(gain - expected[0]) > 1e-12 * max(1.0, abs(expected[0])):
                mismatches += 1
    dt = budget(4, "split oracle", t0, 10.0)
    report(4, "first split equals brute-force gain enumeration on 200 fuzzed sets",
           mismatches == 0, f"{mismatches} mismatches, {dt:.1f}s")


def test_criterion_05_decomposed_gain_identity():
    t0 = time.time()
    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(10_000):
        mu = float(rng.uniform(0.05, 0.95))
        sc = GainScenario(G=float(rng.uniform(-5, 5)),
                          H=float(rng.uniform(0.1, 5)),
                          mu=mu, nu=float(rng.uniform(0.05, 0.95)),
                          theta=float(rng.uniform(0.1, 1.0)),
                          tau=mu, lam=0.0)
        worst = max(worst, abs(decomposed_gain(sc)))
    dt = budget(5, "gain identity", t0, 1.0)
    report(5, "decomposed split gain vanishes when tau = mu at lam = 0",
           worst < 1e-12, f"worst |gain| {worst:.1e}, {dt:.2f}s")


def test_criterion_06_newton_sanity():
    t0 = time.time()
    data = from_arrays(np.array([[0.0]]), np.array([1]), class_names=["0", "1"])
    cfg = BoosterConfig(loss=LossSpec("cce"), tree=TreeConfig(lam=0.0),
                        learning_rate=1.0, n_rounds=1)
    z = predict_raw(fit(data, cfg), data)[0]
    dt = budget(6, "newton step", t0, 1.0)
    report(6, "single-sample log-loss Newton step is exactly z: 0 -> 2.0",
           z == 2.0, f"z = {z}, {dt:.2f}s")


def test_criterion_07_convex_monotonicity():
    t0 = time.time()
    data = synthetic.make("separable", seed=7)
    cfg = BoosterConfig(loss=LossSpec("cce"), tree=TreeConfig(lam=0.0, max_depth=4),
                        learning_rate=0.3, n_rounds=100)
    model = fit(data, cfg)
    hist = np.array(model.train_loss_history)
    mono = bool(np.all(np.diff(hist) <= 1e-12))
    final = aucpr(predict_proba(model, data)[:, 1], data.labels)
    dt = budget(7, "convex monotonicity", t0, 10.0)
    report(7, "log-loss training loss non-increasing, final train AUCPR >= 0.999",
           mono and final >= 0.999, f"final {final:.4f}, {dt:.1f}s")


def test_criterion_08_noise_counts():
    t0 = time.time()
    labels = np.array([1] * 10 + [0] * 90)
    new, log = inject_binary(labels, NoiseSpec(rate=0.3, seed=8))
    each_way = (sum(1 for f in log if f.old_label == 1),
                sum(1 for f in log if f.old_label == 0))
    sizes_ok = int((new == 1).sum()) == 10 and int((new == 0).sum()) == 90
    n = 100_000
    multi, _ = inject_multiclass(np.zeros(n, dtype=int), 3,
                                 NoiseSpec(rate=0.2, protocol="multiclass_pairflip", seed=8))
    frac = float((multi == 1).mean())
    band = 4 * np.sqrt(0.2 * 0.8 / n)
    dt = budget(8, "noise counts", t0, 2.0)
    report(8, "binary flips exactly 3 each way; multi-class fraction in 4-sigma band",
           each_way == (3, 3) and sizes_ok and abs(frac - 0.2) < band,
           f"frac {frac:.4f} vs 0.2 +/- {band:.4f}, {dt:.1f}s")


@pytest.fixture(scope="module")
def robustness_rows(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("bench"))
    cfg = bench_config((0.0, 0.3))
    t0 = time.time()
    rows = run_sweep(cfg, out)
    return rows, time.time() - t0


def test_criterion_09_desk_scale_robustness(robustness_rows):
    rows, dt = robustness_rows
    med = medians(rows)
    rfl0, rfl3 = med[("rfl", 0.0)], med[("rfl", 0.3)]
    cce0, cce3 = med[("cce", 0.0)], med[("cce", 0.3)]
    level_ok = rfl3 >= cce3
    drop_ok = (rfl0 - rfl3) <= (cce0 - cce3)
    assert dt < 180.0, f"criterion 9 sweep took {dt:.0f}s, budget 180s"
    report(9, "tuned robust focal loss beats tuned log loss under 30% noise",
           level_ok and drop_ok,
           f"rfl {rfl3:.4f} vs cce {cce3:.4f}; drops {rfl0 - rfl3:.4f} vs "
           f"{cce0 - cce3:.4f}; {dt:.0f}s")


def test_criterion_10_ablation_shape(tmp_path):
    t0 = time.time()
    # same protocol (noise levels, repeats, seeds) as the criterion-9 sweep,
    # so the ablation sees the identical noise realizations
    cfg = bench_config((0.0, 0.3), methods=("rfl",))
    cfg.method_specs = {"rfl": ABLATION_RFL}
    rows = run_ablation(cfg, str(tmp_path))
    med = medians(rows)
    full, r0 = med[("rfl_full", 0.3)], med[("rfl_r0", 0.3)]
    dt = budget(10, "ablation", t0, 180.0)
    report(10, "focusing factor helps at 20:1 imbalance (full >= r=0 ablation)",
           full >= r0, f"full {full:.4f} vs r0 {r0:.4f}, {dt:.0f}s")


def test_criterion_11_metric_oracle():
    t0 = time.time()
    rng = np.random.default_rng(1111)
    mismatches = 0
    for _ in range(500):
        n = int(rng.integers(2, 21))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = rng.integers(0, 6, size=n) / 5.0
        if aucpr(scores, labels) != pytest.approx(brute_force_aucpr(scores, labels),
                                                  abs=1e-12):
            mismatches += 1
    worked = aucpr([0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0])
    dt = budget(11, "metric oracle", t0, 5.0)
    report(11, "AUCPR matches threshold-sweep oracle; worked example 0.8333",
           mismatches == 0 and abs(worked - 0.8333333333) < 1e-6,
           f"worked {worked:.7f}, {dt:.1f}s")


def test_criterion_12_determinism_and_purity(tmp_path):
    t0 = time.time()
    cfg_text = (
        "dataset = synthetic:imbalanced\n"
        "methods = rfl,cce\n"
        "noise_levels = 0.0,0.3\n"
        "repeats = 2\n"
        "grid_r = 1.0\ngrid_q = 0.5\ngrid_lr = 0.3\ngrid_rounds = 30\n"
        "max_depth = 6\nmax_leaves = 16\n"
    )
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text(cfg_text)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert cli_main(["sweep", "--config", str(cfg_path), "--out", out1, "--seed", "9"]) == 0
    assert cli_main(["sweep", "--config", str(cfg_path), "--out", out2, "--seed", "9"]) == 0
    identical = True
    for name in sorted(os.listdir(out1)):
        b1 = open(os.path.join(out1, name), "rb").read()
        b2 = open(os.path.join(out2, name), "rb").read()
        identical &= b1 == b2
    # purity (flip logs disjoint from test indices) is asserted inside
    # run_sweep itself; reaching this point means it held for both runs
    dt = budget(12, "determinism", t0, 60.0)
    report(12, "sweep reruns bitwise-identically; noise never touches test rows",
           identical, f"{dt:.0f}s")
