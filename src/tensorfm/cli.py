"""Command-line entry point.

One executable with sub-commands covering the full workflow: data
preparation (``prep``, ``synth``), training (``train``, ``grid``),
evaluation (``eval``), inference-cost benchmarks (``bench-flops``,
``bench-latency``), and interpretability export (``interpret``).

Every option can also come from a ``key=value`` config file passed with
``--config``; the file's values become the sub-command's defaults, so
explicit command-line flags win. Exit codes: 0 success, 2 usage error
(including a malformed flag or config value), 3 data error, 4 numeric
failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
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


# ---------------------------------------------------------------------------
# option plumbing: argparse parses every value, from the command line or,
# as a sub-command default, from the config file.
# ---------------------------------------------------------------------------


def _read_config_file(path: str, parser: argparse.ArgumentParser) -> dict[str, object]:
    """The options a ``key=value`` file sets, each value parsed by the type
    function of its flag on ``parser``; an unknown key or a malformed value
    is a :class:`ConfigError` naming the file, the line and the key."""
    types = {action.dest: action.type for action in parser._actions if action.type is not None}
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
        key, value = key.strip().replace("-", "_"), value.strip()
        if key not in types:
            raise ConfigError(f"{path}:{lineno}: unknown option {key!r}")
        parse = types[key]
        try:
            cfg[key] = parse(value)
        except (argparse.ArgumentTypeError, TypeError, ValueError) as exc:
            # argparse's own wording for a value its type function rejects
            reason = f"invalid {parse.__name__} value: {value!r}"
            if isinstance(exc, argparse.ArgumentTypeError):
                reason = str(exc)
            flag = "--" + key.replace("_", "-")
            raise ConfigError(f"{path}:{lineno}: {key}={value}: argument {flag}: {reason}") from exc
    return cfg


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _non_negative_int(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _fractions(text: str) -> tuple[float, float, float]:
    parts = tuple(float(t) for t in text.split(","))
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected three comma-separated fractions, got {text!r}")
    try:
        data.check_fractions(parts)
    except DataError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return parts  # type: ignore[return-value]


def _rate(text: str) -> float:
    """A finite number >= 0: a learning rate, an L2 coefficient or an init scale."""
    value = float(text)
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"expected a finite number >= 0, got {text!r}")
    return value


def _rates(text: str) -> list[float]:
    return [_rate(t) for t in text.split(",")]


def _char(text: str) -> str:
    if len(text) != 1:
        raise argparse.ArgumentTypeError(f"expected one character, got {text!r}")
    return text


def _int_list(text: str) -> list[int]:
    return [int(t) for t in text.split(",")]


def _str_list(text: str) -> list[str]:
    return [t.strip() for t in text.split(",") if t.strip()]


def _sweep(text: str) -> list[int]:
    try:
        lo, hi, step = (int(t) for t in text.split(":"))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected a lo:hi:step sweep, got {text!r}") from exc
    if lo < 1 or step < 1 or hi < lo:
        raise argparse.ArgumentTypeError(f"bad sweep {text!r}")
    return list(range(lo, hi + 1, step))


def _require(args: argparse.Namespace, *keys: str) -> None:
    missing = [k for k in keys if getattr(args, k) is None]
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


def cmd_synth(a: argparse.Namespace) -> int:
    _require(a, "out_prefix")
    if a.order > a.fields:
        raise ConfigError(f"argument --order: interaction order {a.order} exceeds --fields {a.fields}")
    spec = data.SyntheticSpec(
        n_signal=a.fields,
        cardinality=a.card,
        order=a.order,
        n_noise=a.noise,
        n_samples=a.samples,
        seed=a.seed,
    )
    dataset = data.generate_synthetic(spec)
    if len(dataset) >= 3:
        parts = data.split(dataset, a.fractions, seed=a.seed)
    else:
        # too small to partition: everything goes to train
        empty = dataset.subset(np.zeros(0, dtype=np.int64))
        parts = (dataset, empty, empty)
    for part, tag in zip(parts, ("train", "valid", "test")):
        data.write_dataset(part, f"{a.out_prefix}.{tag}.txt")
    schema = dataset.schema
    print(f"schema: {schema.n} fields, {schema.m} features")
    print(f"sizes: train={len(parts[0])} valid={len(parts[1])} test={len(parts[2])}")
    return 0


def cmd_prep(a: argparse.Namespace) -> int:
    _require(a, "csv", "fields", "label", "out_prefix")
    dataset = data.load_tabular(
        a.csv,
        field_columns=a.fields,
        label_column=a.label,
        numeric_bins=a.bins,
        delimiter=a.delimiter,
        min_count=a.min_count,
    )
    parts = data.split(dataset, a.fractions, seed=a.seed)
    for part, tag in zip(parts, ("train", "valid", "test")):
        data.write_dataset(part, f"{a.out_prefix}.{tag}.txt")
    schema = dataset.schema
    print(f"schema: {schema.n} fields, {schema.m} features, skipped {dataset.skipped_rows} rows")
    print(f"sizes: train={len(parts[0])} valid={len(parts[1])} test={len(parts[2])}")
    return 0


def _write_epoch_log(path: str, log: list[training.EpochLog]) -> None:
    _write_csv(
        path,
        ["epoch", "train_loss", "valid_logloss", "valid_auc", "wall_seconds"],
        [[e.epoch, repr(e.train_loss), repr(e.valid_logloss), repr(e.valid_auc), f"{e.wall_seconds:.3f}"] for e in log],
        nondet_note="wall_seconds",
    )


def cmd_train(a: argparse.Namespace) -> int:
    _require(a, "train", "model", "out")
    train_set = data.read_dataset(a.train)
    valid_set = data.read_dataset(a.valid) if a.valid else None
    bundle = params.init(a.model, train_set.schema, k=a.k, d=a.d, r_vec=a.rank, init_scale=a.init_scale, seed=a.seed)
    config = training.TrainConfig(learning_rate=a.lr, l2=a.l2, epochs=a.epochs, batch_size=a.batch_size, seed=a.seed)
    bundle, log = training.train(bundle, train_set, valid_set, config)
    params.save_bundle(bundle, a.out)
    if a.log:
        _write_epoch_log(a.log, log)
    last = log[-1]
    print(f"epoch {last.epoch}: train_loss={last.train_loss:.6f} valid_auc={last.valid_auc:.6f}")
    return 0


def cmd_eval(a: argparse.Namespace) -> int:
    _require(a, "model", "data")
    bundle = params.load_bundle(a.model)
    dataset = data.read_dataset(a.data)
    scores = scoring.score_dataset(bundle, dataset)
    report = metrics.evaluate(scores, dataset.labels)
    print("test_logloss,test_auc")
    print(f"{report.logloss:.6f},{report.auc * 100.0:.4f}")
    return 0


def cmd_grid(a: argparse.Namespace) -> int:
    _require(a, "train", "valid", "model", "out")
    train_set = data.read_dataset(a.train)
    valid_set = data.read_dataset(a.valid)
    grid = [(lr, l2) for lr in a.grid_lr for l2 in a.grid_l2]
    best, results = training.grid_search(
        a.model,
        grid,
        train_set,
        valid_set,
        training.TrainConfig(epochs=a.epochs, batch_size=a.batch_size, seed=a.seed),
        k=a.k,
        d=a.d,
        r_vec=a.rank,
        init_scale=a.init_scale,
    )
    params.save_bundle(best, a.out)
    if a.report:
        _write_csv(
            a.report,
            ["learning_rate", "l2", "valid_auc", "valid_logloss", "status"],
            [[repr(r.learning_rate), repr(r.l2), repr(r.valid_auc), repr(r.valid_logloss), r.status] for r in results],
        )
    top = results[0]
    print(f"best: lr={top.learning_rate} l2={top.l2} valid_auc={top.valid_auc:.6f}")
    return 0


def cmd_bench_flops(a: argparse.Namespace) -> int:
    _require(a, "out")
    rows = []
    for kind in a.kinds:
        for n in a.sweep_n:
            fm = analysis.flops_estimate(kind, n, k=a.k, d=min(a.d, n), r_vec=a.rank)
            rows.append([kind, n, a.k, fm.d, a.rank, fm.flops])
    _write_csv(a.out, ["kind", "n", "k", "d", "r", "flops"], rows)
    print(f"wrote {len(rows)} rows to {a.out}")
    return 0


# The ``:``-separated parameters a bench-latency token takes after its kind.
_BENCH_TOKEN_PARAMS = {
    "tensorfm": ("rank", "order"),
    "tensorfm-tucker": ("rank", "order"),
    **{alias: ("rank",) for alias in params.ALIASES},
    "hofm": ("order",),
}


def _parse_bench_kind(token: str, schema: data.FieldSchema, k: int, seed: int) -> tuple[str, params.ModelBundle]:
    """Build a randomly initialized bundle from a token like ``tensorfm:4:3``
    (rank 4, order 3), ``fwfm-lr:2``, ``hofm:3``, or a bare kind name."""
    kind, *values = token.split(":")
    names = _BENCH_TOKEN_PARAMS.get(kind, ())
    if len(values) != len(names) or not all(v.isdigit() for v in values):
        raise ConfigError(f"{token!r}: expected {':'.join([kind, *(f'<{name}>' for name in names)])}")
    got = dict(zip(names, map(int, values)))
    bundle = params.init(kind, schema, k=k, d=got.get("order", 2), r_vec=got.get("rank"), init_scale=0.01, seed=seed)
    return token, bundle


def cmd_bench_latency(a: argparse.Namespace) -> int:
    _require(a, "data", "out")
    dataset = data.read_dataset(a.data)
    rows = []
    for token in a.kinds:
        name, bundle = _parse_bench_kind(token, dataset.schema, a.k, a.seed)
        rep = analysis.time_inference(bundle, dataset, repeats=a.repeats, batch_size=a.batch_size)
        rows.append([name, repr(rep.seconds_per_instance * 1e3), repr(rep.std_seconds * 1e3), rep.repeats])
    _write_csv(a.out, ["kind", "ms_per_instance", "std_ms", "repeats"], rows, nondet_note="ms_per_instance,std_ms")
    for row in rows:
        print(f"{row[0]}: {float(row[1]):.6f} ms/instance")
    return 0


def cmd_interpret(a: argparse.Namespace) -> int:
    _require(a, "model", "data", "out_prefix")
    bundle = params.load_bundle(a.model)
    train_set = data.read_dataset(a.data)
    report = analysis.interaction_report(bundle, train_set, a.order, a.topk)

    ranked = sorted(zip(report.tuples, report.learned, report.mutual_info), key=lambda t: -t[1])
    rows = [["+".join(str(f) for f in tup), repr(s), repr(mi)] for tup, s, mi in ranked]
    _write_csv(f"{a.out_prefix}.interactions.csv", ["tuple", "learned_strength", "mutual_info"], rows)
    top_n = max(a.topk)
    _write_csv(f"{a.out_prefix}.top{top_n}.csv", ["tuple", "learned_strength", "mutual_info"], rows[:top_n])
    summary = {
        "order": a.order,
        "n_tuples": len(report.tuples),
        "pearson": report.pearson,
        "overlap": [dataclasses.asdict(p) for p in report.topk_overlap],
    }
    with open(f"{a.out_prefix}.summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"pearson={report.pearson:.4f} over {len(report.tuples)} field tuples")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

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
    "model": "model kind: " + "|".join(params.KINDS + params.ALIASES),
    "k": "embedding size",
    "d": "highest interaction order",
    "rank": "interaction rank (replicated across orders 2..d)",
    "lr": "AdaGrad learning rate",
    "l2": "L2 coefficient applied to every block but the bias",
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

# The (name, type, default) of the model and data options train and grid share.
_MODEL_OPTIONS = (
    ("train", str, None),
    ("valid", str, None),
    ("model", str, None),
    ("k", int, 8),
    ("d", int, 2),
    ("rank", int, 1),
    ("epochs", int, 5),
    ("batch_size", _positive_int, 1024),
    ("init_scale", _rate, 0.01),
    ("out", str, None),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tensorfm",
        description="Train, evaluate, and analyze low-rank field-interaction models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help_text, *options):
        """Add sub-command ``name`` with ``--config``, ``--seed`` and
        ``options``, each a (name, type function, built-in default)."""
        p = sub.add_parser(name, help=help_text, description=help_text)
        for key, parse, default in (("config", str, None), ("seed", int, 0), *options):
            default_text = "" if default is None else " (default: %(default)s)"
            p.add_argument("--" + key.replace("_", "-"), type=parse, default=default, help=_HELP[key] + default_text)
        p.set_defaults(handler=handler, parser=p)

    fractions = ("fractions", _fractions, (0.70, 0.15, 0.15))
    command(
        "synth", cmd_synth, "generate and split a synthetic pure-interaction dataset",
        ("fields", _positive_int, 3), ("card", _positive_int, 20), ("order", _positive_int, 3),
        ("noise", _non_negative_int, 0), ("samples", _positive_int, 100_000), fractions, ("out_prefix", str, None),
    )
    command(
        "prep", cmd_prep, "ingest a headered CSV into train/valid/test dataset files",
        ("csv", str, None), ("fields", _str_list, None), ("label", str, None), ("bins", _positive_int, 5),
        ("delimiter", _char, ","), ("min_count", int, 0), fractions, ("out_prefix", str, None),
    )
    command(
        "train", cmd_train, "train one model and write the model file plus an epoch log",
        *_MODEL_OPTIONS, ("lr", _rate, 0.05), ("l2", _rate, 0.0), ("log", str, None),
    )
    command(
        "eval", cmd_eval, "score a dataset with a saved model; prints test_logloss,test_auc",
        ("model", str, None), ("data", str, None),
    )
    command(
        "grid", cmd_grid, "train over a (learning rate, l2) grid, keep the best by validation AUC",
        *_MODEL_OPTIONS, ("grid_lr", _rates, [0.01, 0.05, 0.1]), ("grid_l2", _rates, [0.0, 1e-6, 1e-5, 1e-4]),
        ("report", str, None),
    )
    command(
        "bench-flops", cmd_bench_flops, "exact forward-pass operation counts over a field-count sweep",
        ("kinds", _str_list, ["lr", "fm", "fwfm", "hofm", "tensorfm"]), ("sweep_n", _sweep, [10, 20, 40, 80, 160]),
        ("k", int, 8), ("d", int, 3), ("rank", int, 3), ("out", str, None),
    )
    command(
        "bench-latency", cmd_bench_latency, "measured per-instance scoring latency for chosen model kinds",
        ("data", str, None), ("kinds", _str_list, ["tensorfm:1:2", "tensorfm:4:3", "fwfm"]), ("k", int, 8),
        ("repeats", int, 5), ("batch_size", _positive_int, 4096), ("out", str, None),
    )
    command(
        "interpret", cmd_interpret, "learned interaction strengths vs. mutual information reports",
        ("model", str, None), ("data", str, None), ("order", int, 3), ("topk", _int_list, [3, 10, 36]),
        ("out_prefix", str, None),
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # The file's values become the sub-command's defaults and the
            # arguments are parsed again: a flag on the command line still
            # wins, and each file value goes through its flag's type.
            args.parser.set_defaults(**_read_config_file(args.config, args.parser))
            args = parser.parse_args(argv)
        return args.handler(args)
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
