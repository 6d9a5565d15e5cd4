"""Command-line entry point.

One executable with sub-commands covering the full workflow: data
preparation (``prep``, ``synth``), training (``train``, ``grid``),
evaluation (``eval``), inference-cost benchmarks (``bench-flops``,
``bench-latency``), and interpretability export (``interpret``).

Every option can also come from a ``key=value`` config file passed with
``--config``; the file's values become the sub-command's defaults, so
explicit command-line flags win. Exit codes: 0 success, 2 usage error
(including a malformed flag or config value), 3 data error (including an
unreadable or unwritable path), 4 numeric failure; each error class
states its own code.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from collections.abc import Iterable

import numpy as np

from . import analysis, data, metrics, params, scoring, training
from .errors import ConfigError, DataError, NumericError, TensorFMError

# ---------------------------------------------------------------------------
# option types: argparse parses every value, from the command line or, as a
# sub-command default, from the config file.
# ---------------------------------------------------------------------------


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _read_config_file(path: str, options: tuple) -> dict[str, object]:
    """The options a ``key=value`` file sets, each value parsed by the type
    function of its entry in ``options``; an unknown key or a malformed
    value is a :class:`ConfigError` naming the file, the line and the key."""
    types = {key: parse for key, parse, _, _ in options}
    cfg = {}
    with data.open_text(path, DataError, "config file") as fh:
        lines = fh.read().splitlines()
    for lineno, line in enumerate(lines, 1):
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
            raise ConfigError(f"{path}:{lineno}: {key}={value}: argument {_flag(key)}: {reason}") from exc
    return cfg


def _int_at_least(low: int):
    """Type function of an integer option whose smallest valid value is ``low``."""

    def parse(text: str) -> int:
        if not text.isdecimal() or int(text) < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return int(text)

    return parse


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


def _counts(text: str) -> list[int]:
    """Comma-separated integers >= 1."""
    return [_int_at_least(1)(t.strip()) for t in text.split(",")]


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


def _write_csv(path: str, header: list[str], rows: Iterable[list], nondet_note: str | None = None) -> None:
    with data.atomic_open(path) as fh:
        if nondet_note:
            fh.write(f"# nondeterministic columns: {nondet_note}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# sub-commands
# ---------------------------------------------------------------------------


def _part_paths(a: argparse.Namespace) -> list[str]:
    """The train, valid and test dataset files: ``<out-prefix>.<part>.txt``."""
    return [f"{a.out_prefix}.{tag}.txt" for tag in ("train", "valid", "test")]


def _write_parts(a: argparse.Namespace, dataset: data.Dataset, parts: tuple, note: str = "") -> int:
    """Write the train, valid and test parts of ``dataset`` to
    :func:`_part_paths` and print the schema and the part sizes."""
    for part, path in zip(parts, _part_paths(a)):
        data.write_dataset(part, path)
    print(f"schema: {dataset.schema.n} fields, {dataset.schema.m} features{note}")
    print(f"sizes: train={len(parts[0])} valid={len(parts[1])} test={len(parts[2])}")
    return 0


def cmd_synth(a: argparse.Namespace) -> int:
    data.check_output_dirs(*_part_paths(a))
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
    if len(dataset) < 3:
        # too small to partition: everything goes to train
        empty = dataset.subset(np.zeros(0, dtype=np.int64))
        return _write_parts(a, dataset, (dataset, empty, empty))
    return _write_parts(a, dataset, data.split(dataset, a.fractions, seed=a.seed))


def cmd_prep(a: argparse.Namespace) -> int:
    data.check_output_dirs(*_part_paths(a))
    dataset = data.load_tabular(
        a.csv,
        field_columns=a.fields,
        label_column=a.label,
        numeric_bins=a.bins,
        delimiter=a.delimiter,
        min_count=a.min_count,
    )
    parts = data.split(dataset, a.fractions, seed=a.seed)
    return _write_parts(a, dataset, parts, note=f", skipped {dataset.skipped_rows} rows")


def cmd_train(a: argparse.Namespace) -> int:
    data.check_output_dirs(a.out, a.log)
    train_set = data.read_dataset(a.train)
    valid_set = data.read_dataset(a.valid) if a.valid else None
    bundle = params.init(a.model, train_set.schema, k=a.k, d=a.d, r_vec=a.rank, init_scale=a.init_scale, seed=a.seed)
    config = training.TrainConfig(learning_rate=a.lr, l2=a.l2, epochs=a.epochs, batch_size=a.batch_size, seed=a.seed)
    bundle, log = training.train(bundle, train_set, valid_set, config)
    params.save_bundle(bundle, a.out)
    if a.log:
        _write_csv(
            a.log,
            ["epoch", "train_loss", "valid_logloss", "valid_auc", "wall_seconds"],
            [[e.epoch, repr(e.train_loss), repr(e.valid_logloss), repr(e.valid_auc), f"{e.wall_seconds:.3f}"] for e in log],
            nondet_note="wall_seconds",
        )
    last = log[-1]
    print(f"epoch {last.epoch}: train_loss={last.train_loss:.6f} valid_auc={last.valid_auc:.6f}")
    return 0


def cmd_eval(a: argparse.Namespace) -> int:
    bundle = params.load_bundle(a.model)
    dataset = data.read_dataset(a.data)
    dataset.require_rows()
    with np.errstate(over="ignore", invalid="ignore"):  # a diverged model overflows; the check below reports it
        scores = scoring.score_dataset(bundle, dataset)
    bad = np.flatnonzero(~np.isfinite(scores))
    if bad.size:
        raise NumericError(f"{a.model}: non-finite score for row {bad[0]} of {a.data}; the model is not usable")
    report = metrics.evaluate(scores, dataset.labels)
    print("test_logloss,test_auc")
    print(f"{report.logloss:.6f},{report.auc * 100.0:.4f}")
    return 0


def cmd_grid(a: argparse.Namespace) -> int:
    data.check_output_dirs(a.out, a.report)
    train_set = data.read_dataset(a.train)
    valid_set = data.read_dataset(a.valid)
    grid = [(lr, l2) for lr in a.grid_lr for l2 in a.grid_l2]
    bundle = params.init(a.model, train_set.schema, k=a.k, d=a.d, r_vec=a.rank, init_scale=a.init_scale, seed=a.seed)
    config = training.TrainConfig(epochs=a.epochs, batch_size=a.batch_size, seed=a.seed)
    best, results = training.grid_search(bundle, grid, train_set, valid_set, config)
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
    data.check_output_dirs(a.out)
    rows = []
    for kind in a.kinds:
        for n in a.sweep_n:
            fm = analysis.flops_estimate(kind, n, k=a.k, d=min(a.d, n), r_vec=a.rank)
            rows.append([kind, n, a.k, fm.d, a.rank, fm.flops])
    _write_csv(a.out, ["kind", "n", "k", "d", "r", "flops"], rows)
    print(f"wrote {len(rows)} rows to {a.out}")
    return 0


# The ``:``-separated parameters a bench-latency token takes after its kind:
# a rank for the tensor kinds and the aliases, an order for the higher-order kinds.
_BENCH_TOKEN_PARAMS = {
    kind: ("rank",) * (kind in params.TENSOR_KINDS + params.ALIASES)
    + ("order",) * (kind in params.HIGHER_ORDER_KINDS)
    for kind in params.HIGHER_ORDER_KINDS + params.ALIASES
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
    data.check_output_dirs(a.out)
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
    top_n = max(a.topk)
    outputs = [f"{a.out_prefix}.{suffix}" for suffix in ("interactions.csv", f"top{top_n}.csv", "summary.json")]
    data.check_output_dirs(*outputs)
    table_path, top_path, summary_path = outputs
    bundle = params.load_bundle(a.model)
    train_set = data.read_dataset(a.data)
    report = analysis.interaction_report(bundle, train_set, a.order, a.topk)

    ranked = sorted(zip(report.tuples, report.learned, report.mutual_info), key=lambda t: -t[1])
    rows = [["+".join(str(f) for f in tup), repr(s), repr(mi)] for tup, s, mi in ranked]
    _write_csv(table_path, ["tuple", "learned_strength", "mutual_info"], rows)
    _write_csv(top_path, ["tuple", "learned_strength", "mutual_info"], rows[:top_n])
    summary = {
        "order": a.order,
        "n_tuples": len(report.tuples),
        "pearson": report.pearson,
        "overlap": [dataclasses.asdict(p) for p in report.topk_overlap],
    }
    with data.atomic_open(summary_path) as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"pearson={report.pearson:.4f} over {len(report.tuples)} field tuples")
    return 0


# ---------------------------------------------------------------------------
# options: one (name, type function, default, help) entry per option of each
# sub-command; a REQUIRED default marks an option the command cannot run
# without, which the command line or the config file must supply.
# ---------------------------------------------------------------------------

REQUIRED = object()

_CONFIG = ("config", str, None, "key=value file supplying defaults for any flag")
# Only the commands that draw random numbers take a seed.
_SEED = ("seed", int, 0, "seed for every random choice the command makes")
_FRACTIONS = ("fractions", _fractions, (0.70, 0.15, 0.15), "train,valid,test fractions (must sum to 1)")
_OUT_PREFIX = ("out_prefix", str, REQUIRED, "path prefix for the emitted files")
# The model options train and grid share.
_MODEL = (
    ("model", str, REQUIRED, "model kind: " + "|".join(params.KINDS + params.ALIASES)),
    ("k", int, 8, "embedding size"),
    ("d", int, 2, "highest interaction order"),
    ("rank", int, 1, "interaction rank (replicated across orders 2..d)"),
    ("epochs", int, 5, "training epochs"),
    ("batch_size", _int_at_least(1), 1024, "mini-batch size"),
    ("init_scale", _rate, 0.01, "stddev of the parameter initialization"),
    ("out", str, REQUIRED, "output model file"),
)

COMMANDS = {
    "synth": (cmd_synth, "generate and split a synthetic pure-interaction dataset", (
        _SEED,
        ("fields", _int_at_least(1), 3, "number of signal fields"),
        ("card", _int_at_least(1), 20, "values per synthetic field"),
        ("order", _int_at_least(1), 3, "order of the interaction that sets the label"),
        ("noise", _int_at_least(0), 0, "number of label-independent noise fields to append"),
        ("samples", _int_at_least(1), 100_000, "number of synthetic instances"),
        _FRACTIONS,
        _OUT_PREFIX,
    )),
    "prep": (cmd_prep, "ingest a headered CSV into train/valid/test dataset files", (
        _SEED,
        ("csv", str, REQUIRED, "input delimited file with a header row"),
        ("fields", _str_list, REQUIRED, "comma-separated field column names"),
        ("label", str, REQUIRED, "label column name"),
        ("bins", _int_at_least(1), 5, "equal-width bins for numeric columns"),
        ("delimiter", _char, ",", "field delimiter of the input file"),
        ("min_count", int, 0, "fold categorical values rarer than this into the unknown slot"),
        _FRACTIONS,
        _OUT_PREFIX,
    )),
    "train": (cmd_train, "train one model and write the model file plus an epoch log", (
        _SEED,
        ("train", str, REQUIRED, "training dataset file"),
        ("valid", str, None, "validation dataset file"),
        *_MODEL,
        ("lr", _rate, 0.05, "AdaGrad learning rate"),
        ("l2", _rate, 0.0, "L2 coefficient applied to every block but the bias"),
        ("log", str, None, "per-epoch CSV log path"),
    )),
    "eval": (cmd_eval, "score a dataset with a saved model; prints test_logloss,test_auc", (
        ("model", str, REQUIRED, "model file"),
        ("data", str, REQUIRED, "dataset file to score"),
    )),
    "grid": (cmd_grid, "train over a (learning rate, l2) grid, keep the best by validation AUC", (
        _SEED,
        ("train", str, REQUIRED, "training dataset file"),
        ("valid", str, REQUIRED, "validation dataset file, which ranks the grid"),
        *_MODEL,
        ("grid_lr", _rates, [0.01, 0.05, 0.1], "comma-separated learning rates to try"),
        ("grid_l2", _rates, [0.0, 1e-6, 1e-5, 1e-4], "comma-separated L2 coefficients to try"),
        ("report", str, None, "grid report CSV path"),
    )),
    "bench-flops": (cmd_bench_flops, "exact forward-pass operation counts over a field-count sweep", (
        ("kinds", _str_list, ["lr", "fm", "fwfm", "hofm", "tensorfm"], "comma-separated model kinds"),
        ("sweep_n", _sweep, [10, 20, 40, 80, 160], "field-count sweep as lo:hi:step"),
        ("k", int, 8, "embedding size"),
        ("d", int, 3, "highest interaction order (capped at the field count)"),
        ("rank", int, 3, "interaction rank (replicated across orders 2..d)"),
        ("out", str, REQUIRED, "output CSV file"),
    )),
    "bench-latency": (cmd_bench_latency, "measured per-instance scoring latency for chosen model kinds", (
        _SEED,
        ("data", str, REQUIRED, "dataset file to score"),
        ("kinds", _str_list, ["tensorfm:1:2", "tensorfm:4:3", "fwfm"], "comma-separated kind[:rank[:order]] tokens"),
        ("k", int, 8, "embedding size"),
        ("repeats", _int_at_least(3), 5, "timing repeats, at least 3 (median reported)"),
        ("batch_size", _int_at_least(1), scoring.SCORE_BATCH, "scoring batch size"),
        ("out", str, REQUIRED, "output CSV file"),
    )),
    "interpret": (cmd_interpret, "learned interaction strengths vs. mutual information reports", (
        ("model", str, REQUIRED, "model file"),
        ("data", str, REQUIRED, "dataset file the mutual information is measured on"),
        ("order", int, 3, "interaction order of the field tuples reported"),
        ("topk", _counts, [3, 10, 36], "comma-separated k values for the ranking-overlap curve"),
        _OUT_PREFIX,
    )),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tensorfm",
        description="Train, evaluate, and analyze low-rank field-interaction models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, about, options) in COMMANDS.items():
        p = sub.add_parser(name, help=about, description=about)
        options = (_CONFIG, *options)
        for key, parse, default, text in options:
            if default is REQUIRED:
                default, text = None, text + " (required)"
            elif default is not None:
                text += " (default: %(default)s)"
            p.add_argument(_flag(key), type=parse, default=default, help=text)
        p.set_defaults(handler=handler, parser=p, options=options)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # The file's values become the sub-command's defaults and the
            # arguments are parsed again: a flag on the command line still
            # wins, and each file value goes through its flag's type.
            args.parser.set_defaults(**_read_config_file(args.config, args.options))
            args = parser.parse_args(argv)
        missing = [_flag(key) for key, _, default, _ in args.options if default is REQUIRED and getattr(args, key) is None]
        if missing:
            raise ConfigError(f"missing required option(s): {', '.join(missing)}")
        return args.handler(args)
    except (TensorFMError, OSError) as exc:
        # an unreadable or unwritable path is a data error
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 3)


if __name__ == "__main__":
    sys.exit(main())
