"""Field schemas, datasets, tabular ingestion, and synthetic interaction data.

An instance over ``n`` categorical fields activates exactly one feature per
field. Feature indices are local to their field; the schema maps them into a
global index space of size ``m = sum(cardinalities)``. Numeric columns are
carried as a per-field real multiplier on the active feature.
"""

from __future__ import annotations

import contextlib
import csv
import math
import os
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import IO, Iterator, Sequence

import numpy as np

from .errors import DataError, SchemaError, TensorFMError


@dataclass(frozen=True)
class FieldSchema:
    """Immutable description of the categorical input domain.

    ``cardinalities[j]`` is the number of features of field ``j``;
    ``offsets[j]`` is the global index of that field's first feature.
    """

    cardinalities: tuple[int, ...]

    def __post_init__(self):
        if len(self.cardinalities) == 0:
            raise SchemaError("schema needs at least one field")
        if any(c < 1 for c in self.cardinalities):
            raise SchemaError(f"every field cardinality must be >= 1, got {self.cardinalities}")
        object.__setattr__(self, "cardinalities", tuple(int(c) for c in self.cardinalities))

    @property
    def n(self) -> int:
        return len(self.cardinalities)

    @cached_property
    def offsets(self) -> np.ndarray:
        off = np.zeros(self.n, dtype=np.int64)
        np.cumsum(self.cardinalities[:-1], out=off[1:])
        return off

    @cached_property
    def pair_index(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only ``np.triu_indices(n, 1)``: the field pairs of fwfm's ``pair.upper``."""
        index = np.triu_indices(self.n, 1)
        for arr in index:
            arr.flags.writeable = False
        return index

    @property
    def m(self) -> int:
        return int(sum(self.cardinalities))


def build_schema(cardinalities: Sequence[int]) -> FieldSchema:
    """Build a :class:`FieldSchema` from per-field cardinalities."""
    return FieldSchema(tuple(cardinalities))


@dataclass
class Instance:
    """One data point: per-field active feature, multiplier, and binary label."""

    active: np.ndarray  # (n,) local feature index per field
    values: np.ndarray  # (n,) real multiplier per field, 1.0 for categorical
    label: int


class Dataset:
    """A schema plus a columnar store of instances.

    Instances are held as three aligned arrays: ``active`` (N, n) int32 local
    indices, ``values`` (N, n) float64 multipliers, ``labels`` (N,) int8 in
    {0, 1}. The arrays are frozen after construction; views handed out are
    read-only.
    """

    def __init__(
        self,
        schema: FieldSchema,
        active: np.ndarray,
        values: np.ndarray | None = None,
        labels: np.ndarray | None = None,
        provenance: str = "",
    ):
        active = np.ascontiguousarray(active, dtype=np.int32)
        if active.ndim != 2 or active.shape[1] != schema.n:
            raise SchemaError(f"active index array must be (N, {schema.n}), got {active.shape}")
        n_rows = active.shape[0]
        if values is None:
            values = np.ones((n_rows, schema.n), dtype=np.float64)
        else:
            values = np.ascontiguousarray(values, dtype=np.float64)
            if values.shape != active.shape:
                raise SchemaError("values array must match active array shape")
        if labels is None:
            labels = np.zeros(n_rows, dtype=np.int8)
        else:
            labels = np.ascontiguousarray(labels, dtype=np.int8)
            if labels.shape != (n_rows,):
                raise SchemaError("labels array must be one label per instance")

        cards = np.asarray(schema.cardinalities, dtype=np.int64)
        if n_rows and (active.min() < 0 or (active >= cards[None, :]).any()):
            raise SchemaError("active feature index out of range for its field")
        bad = ~np.isin(labels, (0, 1))
        if bad.any():
            raise DataError(f"labels must be 0 or 1, found {labels[bad][0]}")

        for arr in (active, values, labels):
            arr.setflags(write=False)
        self.schema = schema
        self.active = active
        self.values = values
        self.labels = labels
        self.provenance = provenance

    def __len__(self) -> int:
        return self.active.shape[0]

    @cached_property
    def global_indices(self) -> np.ndarray:
        """(N, n) global feature indices: local index plus field offset."""
        gidx = self.active.astype(np.int64) + self.schema.offsets[None, :]
        gidx.setflags(write=False)
        return gidx

    def instance(self, i: int) -> Instance:
        return Instance(self.active[i], self.values[i], int(self.labels[i]))

    def subset(self, rows: np.ndarray, provenance: str = "") -> "Dataset":
        return Dataset(
            self.schema,
            self.active[rows],
            self.values[rows],
            self.labels[rows],
            provenance or self.provenance,
        )


@contextlib.contextmanager
def open_text(path: str | Path, error: type[TensorFMError], what: str) -> Iterator[IO[str]]:
    """Open ``path`` to read UTF-8 text, line endings left as they are. A
    missing file, or bytes read in the block that are not UTF-8, raise
    ``error`` naming the path."""
    if not Path(path).exists():
        raise error(f"{what} not found: {path}")
    with open(path, encoding="utf-8", newline="") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise error(f"{path}: not UTF-8 text ({exc.reason})") from exc


@contextlib.contextmanager
def atomic_open(path: str | Path) -> Iterator[IO[str]]:
    """Write UTF-8 text, line endings as given, to a temporary file beside
    ``path`` and move it over ``path`` when the block completes. If the
    block raises, the temporary file is removed and whatever was at
    ``path`` stays as it was."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# ---------------------------------------------------------------------------
# canonical text format: `#schema m_0,m_1,...` header, then one instance per
# line as `<label> <field>:<local_index>[:<value>]` with fields in order.
# ---------------------------------------------------------------------------


def write_dataset(dataset: Dataset, path: str | Path) -> None:
    with atomic_open(path) as fh:
        fh.write("#schema " + ",".join(str(c) for c in dataset.schema.cardinalities) + "\n")
        for label, active, values in zip(dataset.labels, dataset.active, dataset.values):
            pairs = enumerate(zip(active.tolist(), values.tolist()))
            fh.write(f"{label} " + " ".join(f"{j}:{a}" if v == 1.0 else f"{j}:{a}:{v!r}" for j, (a, v) in pairs) + "\n")


def read_dataset(path: str | Path) -> Dataset:
    path = Path(path)
    with open_text(path, DataError, "dataset file") as fh:
        header = fh.readline().strip()
        if not header.startswith("#schema "):
            raise DataError(f"{path}: missing '#schema' header line")
        try:
            schema = build_schema([int(c) for c in header[len("#schema ") :].split(",")])
        except (ValueError, SchemaError) as exc:
            raise DataError(f"{path}: bad schema header: {exc}") from exc

        n = schema.n
        active_rows, value_rows, labels, linenos = [], [], [], []
        for lineno, line in enumerate(fh, start=2):
            toks = line.split()
            if not toks:
                continue
            if len(toks) != n + 1:
                raise DataError(f"{path}:{lineno}: expected {n} field tokens")
            act = np.empty(n, dtype=np.int32)
            val = np.ones(n, dtype=np.float64)
            fields = set()
            try:
                label = int(toks[0])
                for tok in toks[1:]:
                    pieces = tok.split(":")
                    if len(pieces) not in (2, 3):
                        raise DataError(f"{path}:{lineno}: malformed token {tok!r}")
                    j = int(pieces[0])
                    if not 0 <= j < n:
                        raise DataError(f"{path}:{lineno}: field index {j} out of range")
                    fields.add(j)
                    act[j] = int(pieces[1])
                    if len(pieces) == 3:
                        value = float(pieces[2])
                        if not math.isfinite(value):
                            raise DataError(f"{path}:{lineno}: non-finite value in {tok!r}")
                        val[j] = value
            except (ValueError, OverflowError) as exc:
                raise DataError(f"{path}:{lineno}: bad token: {exc}") from exc
            if label not in (0, 1):
                raise DataError(f"{path}:{lineno}: label must be 0 or 1, got {label}")
            if len(fields) != n:
                raise DataError(f"{path}:{lineno}: every field must appear exactly once")
            labels.append(label)
            active_rows.append(act)
            value_rows.append(val)
            linenos.append(lineno)

    n_rows = len(active_rows)
    active = np.vstack(active_rows) if n_rows else np.zeros((0, schema.n), dtype=np.int32)
    bad = (active < 0) | (active >= np.asarray(schema.cardinalities))
    if bad.any():
        row, j = np.argwhere(bad)[0]
        raise DataError(f"{path}:{linenos[row]}: feature index {active[row, j]} out of range for field {j}")
    values = np.vstack(value_rows) if n_rows else np.ones((0, schema.n), dtype=np.float64)
    return Dataset(schema, active, values, np.asarray(labels, dtype=np.int8), provenance=str(path))


# ---------------------------------------------------------------------------
# tabular CSV ingestion
# ---------------------------------------------------------------------------


def _is_numeric_column(raw: list[str]) -> bool:
    saw_value = False
    for s in raw:
        if s == "":
            continue
        saw_value = True
        try:
            float(s)
        except ValueError:
            return False
    return saw_value


def _map_labels(raw: list[str]) -> np.ndarray:
    distinct = sorted(set(raw))
    if len(distinct) != 2:
        raise DataError(f"label column must contain exactly two distinct values, got {distinct[:5]}")
    try:
        lo, hi = sorted(distinct, key=float)
    except ValueError:
        lo, hi = distinct  # lexicographic: first value is the negative class
    mapping = {lo: 0, hi: 1}
    return np.asarray([mapping[s] for s in raw], dtype=np.int8)


def load_tabular(
    path: str | Path,
    field_columns: Sequence[str],
    label_column: str,
    numeric_bins: int = 5,
    delimiter: str = ",",
    min_count: int = 0,
) -> Dataset:
    """Load a headered delimited file into a :class:`Dataset`.

    Columns whose every non-empty value parses as a float are treated as
    numeric: min-max normalized to [0, 1] over the loaded rows, then
    equal-width binned into ``numeric_bins`` categories. Other columns are
    categorical with a vocabulary built from the file; values rarer than
    ``min_count`` fold into the per-field unknown slot. Every field reserves
    one trailing unknown slot (local index ``m_j - 1``) so a schema built here
    can encode later files containing unseen categories.

    Rows with an empty value in a numeric field are skipped; the count of
    skipped rows is exposed as ``dataset.skipped_rows``.
    """
    path = Path(path)
    with open_text(path, DataError, "input file") as fh:
        reader = csv.DictReader(fh, delimiter=delimiter)
        if reader.fieldnames is None:
            raise DataError(f"{path}: empty file")
        missing = [c for c in [*field_columns, label_column] if c not in reader.fieldnames]
        if missing:
            raise DataError(f"{path}: missing columns {missing}")
        rows = [row for row in reader]
    if not rows:
        raise DataError(f"{path}: no data rows")

    columns = {c: [("" if row[c] is None else row[c].strip()) for row in rows] for c in field_columns}
    label_raw = [("" if row[label_column] is None else row[label_column].strip()) for row in rows]

    numeric = {c: _is_numeric_column(columns[c]) for c in field_columns}

    # rows unusable for any numeric field are dropped up front
    keep = np.ones(len(rows), dtype=bool)
    for c in field_columns:
        if numeric[c]:
            keep &= np.asarray([s != "" for s in columns[c]])
    skipped = int((~keep).sum())
    if not keep.any():
        raise DataError(f"{path}: every row was unparsable")
    keep_idx = np.flatnonzero(keep)
    labels = _map_labels([label_raw[i] for i in keep_idx])

    cardinalities: list[int] = []
    encoded: list[np.ndarray] = []
    encoders: list[dict] = []
    for c in field_columns:
        col = [columns[c][i] for i in keep_idx]
        if numeric[c]:
            x = np.asarray([float(s) for s in col])
            lo, hi = float(x.min()), float(x.max())
            xn = (x - lo) / (hi - lo) if hi > lo else np.zeros_like(x)
            bins = np.minimum((xn * numeric_bins).astype(np.int64), numeric_bins - 1)
            cardinalities.append(numeric_bins + 1)  # + unknown slot
            encoded.append(bins)
            encoders.append({"column": c, "kind": "numeric", "min": lo, "max": hi, "bins": numeric_bins})
        else:
            vocab = sorted(v for v, cnt in Counter(col).items() if cnt >= min_count)
            index = {v: i for i, v in enumerate(vocab)}
            unk = len(vocab)
            cardinalities.append(len(vocab) + 1)
            encoded.append(np.asarray([index.get(s, unk) for s in col], dtype=np.int64))
            encoders.append({"column": c, "kind": "categorical", "vocab": index})

    schema = build_schema(cardinalities)
    active = np.stack(encoded, axis=1).astype(np.int32)
    ds = Dataset(schema, active, labels=labels, provenance=str(path))
    ds.skipped_rows = skipped
    ds.field_encoders = encoders
    return ds


# ---------------------------------------------------------------------------
# splitting
# ---------------------------------------------------------------------------


def check_fractions(fractions: tuple[float, ...]) -> None:
    """Raise :class:`DataError` unless every fraction is positive and they
    sum to 1 (within 1e-9)."""
    if any(f <= 0 for f in fractions):
        raise DataError(f"fractions must be positive, got {fractions}")
    if not math.isclose(sum(fractions), 1.0, abs_tol=1e-9):
        raise DataError(f"fractions must sum to 1, got {fractions}")


def split(
    dataset: Dataset,
    fractions: tuple[float, float, float] = (0.70, 0.15, 0.15),
    seed: int = 0,
) -> tuple[Dataset, Dataset, Dataset]:
    """Deterministic shuffle-and-partition into train/valid/test.

    Sizes are floor(N * f) for train and valid; the remainder goes to test.
    """
    check_fractions(fractions)
    n = len(dataset)
    if n < 3:
        raise DataError(f"need at least 3 instances to split, got {n}")

    perm = np.random.default_rng(seed).permutation(n)
    # epsilon keeps mathematically integral products from flooring one short
    n_train = int(n * fractions[0] + 1e-9)
    n_valid = int(n * fractions[1] + 1e-9)
    cut1, cut2 = n_train, n_train + n_valid
    return (
        dataset.subset(perm[:cut1], provenance=dataset.provenance + "[train]"),
        dataset.subset(perm[cut1:cut2], provenance=dataset.provenance + "[valid]"),
        dataset.subset(perm[cut2:], provenance=dataset.provenance + "[test]"),
    )


# ---------------------------------------------------------------------------
# synthetic pure-interaction data
# ---------------------------------------------------------------------------


# Most signal tuples generate_synthetic tabulates: 20 MB of int8 labels.
SYNTHETIC_TABLE_LIMIT = 20_000_000


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a dataset whose label is a pure order-`order` interaction.

    The first ``order`` fields form the signal tuple: every combination of
    their values carries a fixed fair-coin label drawn once from the seed.
    Remaining signal fields and all ``n_noise`` noise fields are sampled
    uniformly and independently of the label. All fields share one
    cardinality.
    """

    n_signal: int
    cardinality: int
    order: int
    n_samples: int
    n_noise: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.n_signal < 1 or self.cardinality < 1 or self.order < 1 or self.n_samples < 1:
            raise DataError("all synthetic counts must be positive")
        if self.n_noise < 0:
            raise DataError("noise field count cannot be negative")
        if self.order > self.n_signal:
            raise DataError(f"interaction order {self.order} exceeds signal field count {self.n_signal}")


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    """Sample a dataset according to ``spec``.

    A lookup table over all ``cardinality ** order`` signal tuples is drawn
    first (one Bernoulli(1/2) label per tuple); each instance then samples
    every field uniformly and reads its label off the table.
    """
    n_tuples = spec.cardinality**spec.order
    if n_tuples > SYNTHETIC_TABLE_LIMIT:
        raise DataError(f"signal tuple table would hold {n_tuples} entries, above the limit of {SYNTHETIC_TABLE_LIMIT}")
    rng = np.random.default_rng(spec.seed)
    table = rng.integers(0, 2, size=n_tuples, dtype=np.int8)

    n_fields = spec.n_signal + spec.n_noise
    active = rng.integers(0, spec.cardinality, size=(spec.n_samples, n_fields), dtype=np.int32)

    key = np.zeros(spec.n_samples, dtype=np.int64)
    for j in range(spec.order):
        key = key * spec.cardinality + active[:, j]
    labels = table[key]

    schema = build_schema([spec.cardinality] * n_fields)
    tag = (
        f"synthetic(order={spec.order}, cardinality={spec.cardinality}, "
        f"signal={spec.n_signal}, noise={spec.n_noise}, seed={spec.seed})"
    )
    return Dataset(schema, active, labels=labels, provenance=tag)
