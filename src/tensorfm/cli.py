"""Command-line entry point.

One executable with sub-commands covering the full workflow: data
preparation (``prep``, ``synth``), training (``train``, ``grid``),
evaluation (``eval``), inference-cost benchmarks (``bench-flops``,
``bench-latency``), and interpretability export (``interpret``).

Every option can also come from a ``key=value`` config file passed with
``--config``; explicit command-line flags win. Exit codes: 0 success,
2 usage error, 3 data error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import analysis, data, metrics, params, scoring, training
from .errors import (
    ConfigError,
    DataError,
    MetricError,
    ModelIOError,
    NumericError,
    SchemaError,
)

_USAGE_ERRORS = (ConfigError,)
_DATA_ERRORS = (DataError, SchemaError, ModelIOError, MetricError, FileNotFoundError)

MODEL_FLAG_TO_KIND = {
    "lr": "lr",
    "fm": "fm",
    "fwfm": "fwfm",
    "fwfm-lr": "fwfm-lowrank",
    "hofm": "hofm",
    "tensorfm": "tensorfm",
    "tensorfm-tucker": "tensorfm-tucker",
}


@dataclass
class RunConfig:
    """A sub-command name plus its fully merged option values."""

    command: str
    options: dict


# ---------------------------------------------------------------------------
# option plumbing: argparse catches unknown flags; defaults are merged as
# command line > config file > built-in default.
# ---------------------------------------------------------------------------


def _read_config_file(path: str) -> dict:
    cfg = {}
    p = Path(path)
    if not p.exists():
        raise DataError(f"config file not found: {path}")
    for lineno, line in enumerate(p.read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value")
        key, _, value = line.partition("=")
        cfg[key.strip().replace("-", "_")] = value.strip()
    return cfg


def _merge(args: argparse.Namespace, defaults: dict) -> RunConfig:
    file_cfg = _read_config_file(args.config) if getattr(args, "config", None) else {}
    unknown = set(file_cfg) - set(defaults)
    if unknown:
        raise ConfigError(f"config file sets unknown options: {sorted(unknown)}")
    options = {}
    for key, (default, parse) in defaults.items():
        cli_value = getattr(args, key, None)
        if cli_value is not None:
            options[key] = parse(cli_value)
        elif key in file_cfg:
            options[key] = parse(file_cfg[key])
        else:
            options[key] = default
    return RunConfig(command=args.command, options=options)


def _fractions(text: str) -> tuple[float, float, float]:
    parts = [float(t) for t in text.split(",")]
    if len(parts) != 3:
        raise ConfigError(f"expected three comma-separated fractions, got {text!r}")
    return tuple(parts)  # type: ignore[return-value]


def _float_list(text: str) -> list[float]:
    return [float(t) for t in text.split(",")]


def _int_list(text: str) -> list[int]:
    return [int(t) for t in text.split(",")]


def _str_list(text: str) -> list[str]:
    return [t.strip() for t in text.split(",") if t.strip()]


def _sweep(text: str) -> list[int]:
    try:
        lo, hi, step = (int(t) for t in text.split(":"))
    except ValueError as exc:
        raise ConfigError(f"expected a lo:hi:step sweep, got {text!r}") from exc
    if step < 1 or hi < lo:
        raise ConfigError(f"bad sweep {text!r}")
    return list(range(lo, hi + 1, step))


def _require(options: dict, *keys: str) -> None:
    missing = [k for k in keys if options[k] is None]
    if missing:
        raise ConfigError(f"missing required option(s): {', '.join('--' + k.replace('_', '-') for k in missing)}")


def _write_csv(path: str, header: list[str], rows: list[list], nondet_note: str | None = None) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if nondet_note:
            fh.write(f"# nondeterministic columns: {nondet_note}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# sub-commands
# ---------------------------------------------------------------------------


def cmd_synth(cfg: RunConfig) -> int:
    o = cfg.options
    _require(o, "out_prefix")
    spec = data.SyntheticSpec(
        n_signal=o["fields"],
        cardinality=o["card"],
        order=o["order"],
        n_noise=o["noise"],
        n_samples=o["samples"],
        seed=o["seed"],
    )
    dataset = data.generate_synthetic(spec)
    if len(dataset) >= 3:
        parts = data.split(dataset, o["fractions"], seed=o["seed"])
    else:
        # too small to partition: everything goes to train
        empty = dataset.subset(np.zeros(0, dtype=np.int64))
        parts = (dataset, empty, empty)
    for part, tag in zip(parts, ("train", "valid", "test")):
        data.write_dataset(part, f"{o['out_prefix']}.{tag}.txt")
    schema = dataset.schema
    print(f"schema: {schema.n} fields, {schema.m} features")
    print(f"sizes: train={len(parts[0])} valid={len(parts[1])} test={len(parts[2])}")
    return 0


def cmd_prep(cfg: RunConfig) -> int:
    o = cfg.options
    _require(o, "csv", "fields", "label", "out_prefix")
    dataset = data.load_tabular(
        o["csv"],
        field_columns=o["fields"],
        label_column=o["label"],
        numeric_bins=o["bins"],
        delimiter=o["delimiter"],
        min_count=o["min_count"],
    )
    parts = data.split(dataset, o["fractions"], seed=o["seed"])
    for part, tag in zip(parts, ("train", "valid", "test")):
        data.write_dataset(part, f"{o['out_prefix']}.{tag}.txt")
    schema = dataset.schema
    print(f"schema: {schema.n} fields, {schema.m} features, skipped {dataset.skipped_rows} rows")
    print(f"sizes: train={len(parts[0])} valid={len(parts[1])} test={len(parts[2])}")
    return 0


def _kind(flag: str) -> str:
    """The model kind a ``--model`` or ``--kinds`` name stands for; ``fwfm-lr``
    stands for the ``fwfm-lowrank`` alias, which :func:`params.init` and
    :func:`analysis.flops_estimate` resolve to ``tensorfm`` with d=2."""
    if flag not in MODEL_FLAG_TO_KIND:
        raise ConfigError(f"unknown model kind {flag!r}; choose from {sorted(MODEL_FLAG_TO_KIND)}")
    return MODEL_FLAG_TO_KIND[flag]


def _build_bundle(o: dict, schema: data.FieldSchema) -> params.ModelBundle:
    return params.init(
        _kind(o["model"]), schema, k=o["k"], d=o["d"], r_vec=o["rank"], init_scale=o["init_scale"], seed=o["seed"]
    )


def _train_config(o: dict) -> training.TrainConfig:
    return training.TrainConfig(
        learning_rate=o["lr"],
        l2_linear=o["l2"],
        l2_embedding=o["l2"],
        l2_factors=o["l2"],
        epochs=o["epochs"],
        batch_size=o["batch_size"],
        seed=o["seed"],
    )


def _write_epoch_log(path: str, log: list[training.EpochLog]) -> None:
    _write_csv(
        path,
        ["epoch", "train_loss", "valid_logloss", "valid_auc", "wall_seconds"],
        [[e.epoch, repr(e.train_loss), repr(e.valid_logloss), repr(e.valid_auc), f"{e.wall_seconds:.3f}"] for e in log],
        nondet_note="wall_seconds",
    )


def cmd_train(cfg: RunConfig) -> int:
    o = cfg.options
    _require(o, "train", "model", "out")
    train_set = data.read_dataset(o["train"])
    valid_set = data.read_dataset(o["valid"]) if o["valid"] else None
    bundle = _build_bundle(o, train_set.schema)
    bundle, log = training.train(bundle, train_set, valid_set, _train_config(o))
    params.save_bundle(bundle, o["out"])
    if o["log"]:
        _write_epoch_log(o["log"], log)
    last = log[-1]
    print(f"epoch {last.epoch}: train_loss={last.train_loss:.6f} valid_auc={last.valid_auc:.6f}")
    return 0


def cmd_eval(cfg: RunConfig) -> int:
    o = cfg.options
    _require(o, "model", "data")
    bundle = params.load_bundle(o["model"])
    dataset = data.read_dataset(o["data"])
    scores = scoring.score_dataset(bundle, dataset)
    report = metrics.evaluate(scores, dataset.labels)
    print("test_logloss,test_auc")
    print(f"{report.logloss:.6f},{report.auc * 100.0:.4f}")
    return 0


def cmd_grid(cfg: RunConfig) -> int:
    o = cfg.options
    _require(o, "train", "valid", "model", "out")
    train_set = data.read_dataset(o["train"])
    valid_set = data.read_dataset(o["valid"])
    grid = [(lr, l2) for lr in o["grid_lr"] for l2 in o["grid_l2"]]
    best, results = training.grid_search(
        _kind(o["model"]),
        grid,
        train_set,
        valid_set,
        _train_config(o),
        k=o["k"],
        d=o["d"],
        r_vec=o["rank"],
        init_scale=o["init_scale"],
    )
    params.save_bundle(best, o["out"])
    if o["report"]:
        _write_csv(
            o["report"],
            ["learning_rate", "l2", "valid_auc", "valid_logloss", "status"],
            [[repr(r.learning_rate), repr(r.l2), repr(r.valid_auc), repr(r.valid_logloss), r.status] for r in results],
        )
    top = results[0]
    print(f"best: lr={top.learning_rate} l2={top.l2} valid_auc={top.valid_auc:.6f}")
    return 0


def cmd_bench_flops(cfg: RunConfig) -> int:
    o = cfg.options
    _require(o, "out")
    rows = []
    for kind_flag in o["kinds"]:
        kind = _kind(kind_flag)
        for n in o["sweep_n"]:
            d = min(o["d"], n) if kind in params.HIGHER_ORDER_KINDS else o["d"]
            fm = analysis.flops_estimate(kind, n, k=o["k"], d=d, r_vec=o["rank"])
            rows.append([kind_flag, n, o["k"], fm.d, o["rank"], fm.flops])
    _write_csv(o["out"], ["kind", "n", "k", "d", "r", "flops"], rows)
    print(f"wrote {len(rows)} rows to {o['out']}")
    return 0


# The ``:``-separated parameters a bench-latency token takes after its kind.
_BENCH_TOKEN_PARAMS = {
    "tensorfm": ("rank", "order"),
    "tensorfm-tucker": ("rank", "order"),
    "fwfm-lowrank": ("rank",),
    "hofm": ("order",),
}


def _parse_bench_kind(token: str, schema: data.FieldSchema, k: int, seed: int) -> tuple[str, params.ModelBundle]:
    """Build a randomly initialized bundle from a token like ``tensorfm:4:3``
    (rank 4, order 3), ``fwfm-lr:2``, ``hofm:3``, or a bare kind name."""
    flag, *values = token.split(":")
    kind = _kind(flag)
    names = _BENCH_TOKEN_PARAMS.get(kind, ())
    if len(values) != len(names) or not all(v.isdigit() for v in values):
        raise ConfigError(f"{token!r}: expected {':'.join([flag, *(f'<{name}>' for name in names)])}")
    got = dict(zip(names, map(int, values)))
    bundle = params.init(kind, schema, k=k, d=got.get("order", 2), r_vec=got.get("rank"), init_scale=0.01, seed=seed)
    return token, bundle


def cmd_bench_latency(cfg: RunConfig) -> int:
    o = cfg.options
    _require(o, "data", "out")
    dataset = data.read_dataset(o["data"])
    rows = []
    for token in o["kinds"]:
        name, bundle = _parse_bench_kind(token, dataset.schema, o["k"], o["seed"])
        rep = analysis.time_inference(bundle, dataset, repeats=o["repeats"], batch_size=o["batch_size"])
        rows.append([name, repr(rep.seconds_per_instance * 1e3), repr(rep.std_seconds * 1e3), rep.repeats])
    _write_csv(o["out"], ["kind", "ms_per_instance", "std_ms", "repeats"], rows, nondet_note="ms_per_instance,std_ms")
    for row in rows:
        print(f"{row[0]}: {float(row[1]):.6f} ms/instance")
    return 0


def cmd_interpret(cfg: RunConfig) -> int:
    o = cfg.options
    _require(o, "model", "data", "out_prefix")
    bundle = params.load_bundle(o["model"])
    train_set = data.read_dataset(o["data"])
    report = analysis.interaction_report(bundle, train_set, o["order"], o["topk"])

    ranked = sorted(zip(report.tuples, report.learned, report.mutual_info), key=lambda t: -t[1])
    rows = [["+".join(str(f) for f in tup), repr(s), repr(mi)] for tup, s, mi in ranked]
    _write_csv(f"{o['out_prefix']}.interactions.csv", ["tuple", "learned_strength", "mutual_info"], rows)
    top_n = max(o["topk"])
    _write_csv(f"{o['out_prefix']}.top{top_n}.csv", ["tuple", "learned_strength", "mutual_info"], rows[:top_n])
    summary = {
        "order": o["order"],
        "n_tuples": len(report.tuples),
        "pearson": report.pearson,
        "overlap": [
            {
                "k": p.k,
                "overlap": p.overlap,
                "baseline_squared": p.baseline_squared,
                "baseline_uniform": p.baseline_uniform,
            }
            for p in report.topk_overlap
        ],
    }
    with open(f"{o['out_prefix']}.summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"pearson={report.pearson:.4f} over {len(report.tuples)} field tuples")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

_COMMON = {
    "config": (None, str),
    "seed": (0, int),
}

_DEFAULTS: dict[str, dict] = {
    "synth": {
        **_COMMON,
        "fields": (3, int),
        "card": (20, int),
        "order": (3, int),
        "noise": (0, int),
        "samples": (100_000, int),
        "fractions": ((0.70, 0.15, 0.15), _fractions),
        "out_prefix": (None, str),
    },
    "prep": {
        **_COMMON,
        "csv": (None, str),
        "fields": (None, _str_list),
        "label": (None, str),
        "bins": (5, int),
        "delimiter": (",", str),
        "min_count": (0, int),
        "fractions": ((0.70, 0.15, 0.15), _fractions),
        "out_prefix": (None, str),
    },
    "train": {
        **_COMMON,
        "train": (None, str),
        "valid": (None, str),
        "model": (None, str),
        "k": (8, int),
        "d": (2, int),
        "rank": (1, int),
        "lr": (0.05, float),
        "l2": (0.0, float),
        "epochs": (5, int),
        "batch_size": (1024, int),
        "init_scale": (0.01, float),
        "out": (None, str),
        "log": (None, str),
    },
    "eval": {
        **_COMMON,
        "model": (None, str),
        "data": (None, str),
    },
    "grid": {
        **_COMMON,
        "train": (None, str),
        "valid": (None, str),
        "model": (None, str),
        "k": (8, int),
        "d": (2, int),
        "rank": (1, int),
        "grid_lr": ([0.01, 0.05, 0.1], _float_list),
        "grid_l2": ([0.0, 1e-6, 1e-5, 1e-4], _float_list),
        "epochs": (5, int),
        "batch_size": (1024, int),
        "init_scale": (0.01, float),
        "lr": (0.05, float),
        "l2": (0.0, float),
        "out": (None, str),
        "report": (None, str),
    },
    "bench-flops": {
        **_COMMON,
        "kinds": (["lr", "fm", "fwfm", "hofm", "tensorfm"], _str_list),
        "sweep_n": ([10, 20, 40, 80, 160], _sweep),
        "k": (8, int),
        "d": (3, int),
        "rank": (3, int),
        "out": (None, str),
    },
    "bench-latency": {
        **_COMMON,
        "data": (None, str),
        "kinds": (["tensorfm:1:2", "tensorfm:4:3", "fwfm"], _str_list),
        "k": (8, int),
        "repeats": (5, int),
        "batch_size": (4096, int),
        "out": (None, str),
    },
    "interpret": {
        **_COMMON,
        "model": (None, str),
        "data": (None, str),
        "order": (3, int),
        "topk": ([3, 10, 36], _int_list),
        "out_prefix": (None, str),
    },
}

_HELP = {
    "config": "key=value file supplying defaults for any flag",
    "seed": "seed for every random choice the command makes",
    "fields": "synth: number of signal fields / prep: comma-separated field column names",
    "card": "values per synthetic field",
    "order": "interaction order (synth ground truth, interpret report)",
    "noise": "number of label-independent noise fields to append",
    "samples": "number of synthetic instances",
    "fractions": "train,valid,test fractions (must sum to 1)",
    "out_prefix": "path prefix for the emitted files",
    "csv": "input delimited file with a header row",
    "label": "label column name",
    "bins": "equal-width bins for numeric columns",
    "delimiter": "field delimiter of the input file",
    "min_count": "fold categorical values rarer than this into the unknown slot",
    "train": "training dataset file",
    "valid": "validation dataset file",
    "model": "model kind: " + "|".join(sorted(MODEL_FLAG_TO_KIND)),
    "k": "embedding size",
    "d": "highest interaction order",
    "rank": "interaction rank (replicated across orders 2..d)",
    "lr": "AdaGrad learning rate",
    "l2": "L2 coefficient applied to every regularized block",
    "epochs": "training epochs",
    "batch_size": "mini-batch size",
    "init_scale": "stddev of the parameter initialization",
    "out": "output file (model or CSV, per command)",
    "log": "per-epoch CSV log path",
    "grid_lr": "comma-separated learning rates to try",
    "grid_l2": "comma-separated L2 coefficients to try",
    "report": "grid report CSV path",
    "kinds": "comma-separated kinds; bench-latency takes kind[:rank[:order]] tokens",
    "sweep_n": "field-count sweep as lo:hi:step",
    "repeats": "timing repeats (median reported)",
    "data": "dataset file to score",
    "topk": "comma-separated k values for the ranking-overlap curve",
}

_HANDLERS = {
    "synth": cmd_synth,
    "prep": cmd_prep,
    "train": cmd_train,
    "eval": cmd_eval,
    "grid": cmd_grid,
    "bench-flops": cmd_bench_flops,
    "bench-latency": cmd_bench_latency,
    "interpret": cmd_interpret,
}

_COMMAND_HELP = {
    "synth": "generate and split a synthetic pure-interaction dataset",
    "prep": "ingest a headered CSV into train/valid/test dataset files",
    "train": "train one model and write the model file plus an epoch log",
    "eval": "score a dataset with a saved model; prints test_logloss,test_auc",
    "grid": "train over a (learning rate, l2) grid, keep the best by validation AUC",
    "bench-flops": "exact forward-pass operation counts over a field-count sweep",
    "bench-latency": "measured per-instance scoring latency for chosen model kinds",
    "interpret": "learned interaction strengths vs. mutual information reports",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tensorfm",
        description="Train, evaluate, and analyze low-rank field-interaction models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, defaults in _DEFAULTS.items():
        p = sub.add_parser(command, help=_COMMAND_HELP[command], description=_COMMAND_HELP[command])
        for key, (default, _) in defaults.items():
            flag = "--" + key.replace("_", "-")
            default_text = "" if default is None else f" (default: {default})"
            p.add_argument(flag, default=None, help=_HELP.get(key, "") + default_text)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _merge(args, _DEFAULTS[args.command])
        return _HANDLERS[args.command](cfg)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
