"""Command-line entry point.

Subcommands: train, predict, sweep, ablate, report. Configuration is a
plain-text key=value file whose keys are those of CONFIG_KEYS (README
lists them). Exit codes: 0 success, 1 data or runtime failure, 2
configuration error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections import defaultdict
from dataclasses import replace

import numpy as np

from .booster import BoosterConfig, align, deserialize, fit, loss_history, predict_proba, serialize
from .data import write_csv
from .experiment import (DEFAULT_DATASET, ExperimentConfig, MethodSpec, load_experiment_dataset,
                         metric_name, read_results, run_ablation, run_sweep, task_metric)
from .losses import LossSpec
from .metrics import MetricError, rank_methods
from .synthetic import GENERATORS
from .tree import TreeConfig

EXIT_OK, EXIT_RUNTIME, EXIT_CONFIG = 0, 1, 2


class ConfigError(ValueError):
    pass


def parse_config_file(path) -> dict:
    """key = value lines; '#' starts a comment; later keys override earlier."""
    out = {}
    try:
        with open(path, encoding="utf-8-sig") as fh:
            for line_no, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{line_no}: expected key=value, got {line!r}")
                key, value = line.split("=", 1)
                out[key.strip()] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return out


def _float(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def non_negative_int(text):
    value = int(text)
    if value < 0:
        raise ValueError(f"must be >= 0, got {value}")
    return value


def _list(conv):
    return lambda text: tuple(conv(t.strip()) for t in text.split(",") if t.strip())


def _bool(text):
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _dataset(text):
    kind, _, name = text.partition(":")
    if kind == "synthetic" and name not in GENERATORS:
        raise ValueError(f"unknown synthetic dataset {name!r}; choose from {sorted(GENERATORS)}")
    return text


# Each row: config keys, their parser, and the subcommands that read them,
# each mapped to the group whose constructor receives a key under its own
# name. A key left out of the file keeps the default of that constructor:
# load_experiment_dataset's for the data keys, else the owning dataclass's.
_DATA = dict.fromkeys(("predict", "train", "sweep", "ablate"), "data")
_TREE = dict.fromkeys(("train", "sweep", "ablate"), "tree")
_METHOD = dict.fromkeys(("sweep", "ablate"), "method")
_EXPERIMENT = dict.fromkeys(("sweep", "ablate"), "experiment")
_TABLE = (
    ("dataset", _dataset, _DATA),
    ("label_column", str, _DATA),
    ("synthetic_seed", non_negative_int, _DATA),
    ("family", str, {"train": "loss"}),
    ("r q", _float, {"train": "loss"}),
    ("eta sce_alpha sce_beta", _float, dict(_METHOD, train="loss")),
    ("learning_rate subsample", _float, {"train": "booster"}),
    ("n_rounds", int, {"train": "booster"}),
    ("lam min_sum_hessian min_gain", _float, _TREE),
    ("min_samples_leaf max_depth max_leaves", int, _TREE),
    ("methods", _list(str), _EXPERIMENT),
    ("noise_levels", _list(_float), _EXPERIMENT),
    ("repeats", int, _EXPERIMENT),
    ("fraction tune_fraction", _float, _EXPERIMENT),
    ("stratified", _bool, _EXPERIMENT),
    ("grid_r grid_q grid_lr", _list(_float), _METHOD),
    ("grid_rounds", _list(int), _METHOD),
)
CONFIG_KEYS = {key: (parse, readers) for keys, parse, readers in _TABLE
               for key in keys.split()}


def build_config(command, cfg, seed=0) -> dict:
    """Check and parse ``cfg`` (key -> text) for ``command`` and construct
    its configuration: ``data`` (loader keywords) for every subcommand, plus
    ``booster`` for train and ``experiment`` for sweep and ablate. Every
    invalid configuration leaves here as a ConfigError.
    """
    groups = defaultdict(dict)
    for key, text in cfg.items():
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        parse, readers = CONFIG_KEYS[key]
        if command not in readers:
            raise ConfigError(f"config key {key!r} is not read by {command}, "
                              f"only by {', '.join(readers)}")
        try:
            groups[readers[command]][key] = parse(text)
        except ValueError as exc:
            raise ConfigError(f"config key {key!r} = {text!r}: {exc}") from exc
    out = {"data": groups["data"]}
    try:
        if command == "train":
            out["booster"] = BoosterConfig(
                loss=LossSpec(**groups["loss"]), tree=TreeConfig(**groups["tree"]),
                seed=seed, **groups["booster"])
        elif command in ("sweep", "ablate"):
            # ablate varies rfl whatever the methods are, so rfl always gets the grids
            names = groups["experiment"].get("methods", ExperimentConfig.methods)
            specs = {name: MethodSpec(name=name, family=name, **groups["method"])
                     for name in (*names, "rfl")}
            out["experiment"] = ExperimentConfig(
                **groups["experiment"], tree=TreeConfig(**groups["tree"]),
                method_specs=specs, master_seed=seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return out


def cmd_train(args) -> int:
    config = build_config("train", parse_config_file(args.config), seed=args.seed)
    data = load_experiment_dataset(**config["data"])
    booster_cfg = replace(config["booster"], n_classes=data.n_classes)
    model = fit(data, booster_cfg)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "model.json"), "w", encoding="utf-8") as fh:
        fh.write(serialize(model))
    history = loss_history(model, data)
    write_csv(os.path.join(args.out, "train_log.csv"), ["round", "train_loss"],
              [range(len(history)), history])
    metric, value = task_metric(predict_proba(model, data), data)
    with open(os.path.join(args.out, "train_report.json"), "w", encoding="utf-8") as fh:
        json.dump({"metric": metric, "train_value": value,
                   "n_rounds": len(model.trees[0])}, fh, indent=1)
    print(f"trained {booster_cfg.loss.family} model: train {metric}={value:.6f}")
    return EXIT_OK


def cmd_predict(args) -> int:
    with open(args.model, encoding="utf-8") as fh:
        model = deserialize(fh.read())
    cfg = parse_config_file(args.config) if args.config else {}
    if args.data:
        cfg = dict(cfg, dataset=args.data)
    data = align(model, load_experiment_dataset(**build_config("predict", cfg)["data"]))
    proba = predict_proba(model, data)
    tokens = [model.class_names[k] for k in np.argmax(proba, axis=1)]
    os.makedirs(args.out, exist_ok=True)
    write_csv(os.path.join(args.out, "predictions.csv"),
              ["index"] + [f"proba_{k}" for k in range(proba.shape[1])] + ["label"],
              [range(proba.shape[0]), *proba.T.tolist(), tokens])
    metric = metric_name(data.n_classes)
    try:
        report = {"metric": metric, "value": task_metric(proba, data)[1]}
    except MetricError as exc:  # a batch of one class, or of no rows, has no score
        report = {"metric": metric, "value": None, "reason": str(exc)}
    with open(os.path.join(args.out, "predict_report.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    if report["value"] is None:
        print(f"predicted {proba.shape[0]} samples; no {metric}: {report['reason']}",
              file=sys.stderr)
    else:
        print(f"predicted {proba.shape[0]} samples: {metric}={report['value']:.6f}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    """``sweep`` and ``ablate``: one key set, two experiment drivers."""
    config = build_config(args.command, parse_config_file(args.config), args.seed)
    data = load_experiment_dataset(**config["data"])
    run = run_ablation if args.command == "ablate" else run_sweep
    rows = run(config["experiment"], args.out, data,
               config["data"].get("dataset", DEFAULT_DATASET))
    print(f"{args.command} done: {len(rows)} result rows in {args.out}/results.csv")
    return EXIT_OK


def cmd_report(args) -> int:
    rows = read_results(args.results)
    if not rows:
        raise ValueError(f"{args.results} holds no result rows")
    methods = sorted({r.method for r in rows})
    cells = {}
    for r in rows:
        cells.setdefault((r.dataset, r.gamma), {}).setdefault(r.method, []).append(r.value)
    keys = sorted(cells)
    matrix = []
    for key in keys:
        per_method = cells[key]
        if set(per_method) != set(methods):
            raise ValueError(f"incomplete result cell {key}: {sorted(per_method)}")
        matrix.append([float(np.mean(per_method[m])) for m in methods])
    table = rank_methods(np.array(matrix), methods)
    os.makedirs(args.out, exist_ok=True)
    write_csv(os.path.join(args.out, "ranks.csv"),
              ["method", "average_rank"] + [f"top_{n}" for n in range(1, len(methods) + 1)],
              [methods, table.average_rank.tolist(), *table.top_n_counts.T.tolist()])
    print(f"rank table over {len(keys)} dataset/noise cells written to {args.out}/ranks.csv")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="robustboost",
        description="Noise-robust Newton-boosted trees: training, noise sweeps, rank reports.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train one model from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=non_negative_int, default=0, help="model seed")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="score a dataset with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--data", default=None, help="dataset path or synthetic:<name>")
    p.set_defaults(func=cmd_predict)

    for name, text in (("sweep", "noise-level sweep with tuned methods"),
                       ("ablate", "focal/robust-term ablation sweep")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=non_negative_int, default=0, help="master seed")
        p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("report", help="rank tables from a sweep results.csv")
    p.add_argument("--results", required=True)
    p.set_defaults(func=cmd_report)

    for p in sub.choices.values():
        p.add_argument("--out", required=True, help="output directory")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
