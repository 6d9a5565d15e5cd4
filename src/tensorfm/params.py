"""Learnable parameter blocks, initialization, and model serialization.

A :class:`ModelBundle` holds its parameters as one ordered dict of named
blocks. :func:`block_layout` is the single statement of which blocks a kind
has; every block is float64 and named as in the model file:

====================  =======================================================
kind                  blocks beyond ``linear.b`` (1,) and ``linear.w`` (m,)
====================  =======================================================
``lr``                none
``fm``                ``embeddings`` (m, k)
``fwfm``              ``embeddings`` + ``pair.upper``, the strict upper
                      triangle of a symmetric zero-diagonal field-pair matrix
``hofm``              ``embeddings`` (interactions up to degree ``d``)
``tensorfm``          ``embeddings`` + ``cp.<o>.factor.<b>`` (n, r_o) for
                      every order o in 2..d and mode b in 0..o-1
``tensorfm-tucker``   ``embeddings`` + ``tucker.<o>.core`` (r_o,)*o and
                      ``tucker.<o>.factor.<b>`` (n, r_o) for every order
====================  =======================================================

``fwfm-lowrank`` (or ``fwfm-lr``) is an alias, not a kind: a rank-r
field-pair matrix is ``tensorfm`` with d=2 and ranks (r,). Every caller
resolves and checks a model's kind, k, d and ranks through
:func:`canonical_args` alone.

The factor blocks of a bundle are column views of one contiguous
(n, sum_o o * r_o) array, ``ModelBundle.factor_stack``, in layout order, so
the scorers contract every factor of a batch with one matrix product.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np

from .data import FieldSchema, atomic_open, build_schema
from .errors import ConfigError, ModelIOError, NumericError

KINDS = ("lr", "fm", "fwfm", "hofm", "tensorfm", "tensorfm-tucker")
HIGHER_ORDER_KINDS = ("hofm", "tensorfm", "tensorfm-tucker")
TENSOR_KINDS = ("tensorfm", "tensorfm-tucker")
# Two spellings of one alias: a rank-r field-pair model is tensorfm with d=2.
ALIASES = ("fwfm-lowrank", "fwfm-lr")

FORMAT_VERSION = "v1"

# Most model-file rows parsed at once: bounds the line list the reader holds.
READ_ROWS = 4096

# Largest dense interaction tensor the oracle and interpretability code
# materialize: 80 MB of float64.
MAX_DENSE_ENTRIES = 10_000_000


def canonical_args(
    kind: str, n: int, k: int, d: int, r_vec: tuple[int, ...] | int | None
) -> tuple[str, int, int, tuple[int, ...]]:
    """Resolve and check the arguments of a model over ``n`` fields: an
    alias becomes ``tensorfm`` with d=2 and its first rank, the arguments a
    kind does not use are reset (k for ``lr``, d for the pair kinds, ranks
    for all but the tensor kinds) and a scalar rank is replicated across
    orders 2..d. Raises :class:`ConfigError` for a model that cannot exist."""
    if kind in ALIASES:
        kind, d = "tensorfm", 2
        if r_vec is not None and not isinstance(r_vec, int):
            r_vec = tuple(r_vec)[:1]
    if kind not in KINDS:
        raise ConfigError(f"unknown model kind {kind!r}; choose from {KINDS + ALIASES}")
    k = 0 if kind == "lr" else int(k)
    d = int(d) if kind in HIGHER_ORDER_KINDS else 1
    if kind in HIGHER_ORDER_KINDS and not 2 <= d <= n:
        raise ConfigError(f"interaction order d={d} must lie in [2, n={n}]")
    if kind != "lr" and k < 1:
        raise ConfigError("embedding size k must be >= 1")
    if kind not in TENSOR_KINDS:
        return kind, k, d, ()
    if r_vec is None:
        raise ConfigError(f"kind {kind!r} needs interaction ranks")
    r_vec = (int(r_vec),) * (d - 1) if isinstance(r_vec, int) else tuple(int(r) for r in r_vec)
    if len(r_vec) != d - 1:
        raise ConfigError(f"need one rank per order 2..{d}, got {r_vec}")
    if any(not 1 <= r <= n for r in r_vec):
        raise ConfigError(f"ranks must lie in [1, n={n}], got {r_vec}")
    return kind, k, d, r_vec


class FactorSpan(NamedTuple):
    """One order's factor set: its ``order`` factor blocks (mode 0 first)
    fill ``order * rank`` adjacent columns of ``ModelBundle.factor_stack``
    from ``first`` on; ``core`` names its Tucker core (None for CP)."""

    order: int
    first: int
    rank: int
    core: str | None
    factors: tuple[str, ...]


def _factor_spans(kind: str, d: int, r_vec: tuple[int, ...]) -> tuple[FactorSpan, ...]:
    """The factor sets of resolved arguments (none but a tensor kind's)."""
    prefix = "cp" if kind == "tensorfm" else "tucker"
    spans, first = [], 0
    for order, rank in zip(range(2, d + 1), r_vec):
        core = f"tucker.{order}.core" if kind == "tensorfm-tucker" else None
        spans.append(FactorSpan(order, first, rank, core, tuple(f"{prefix}.{order}.factor.{b}" for b in range(order))))
        first += order * rank
    return tuple(spans)


def block_layout(
    kind: str, schema: FieldSchema, k: int, d: int, r_vec: tuple[int, ...] | int | None
) -> list[tuple[str, tuple[int, ...]]]:
    """The ``(name, shape)`` of every parameter block of a model, in file
    order, which is also the order :func:`init` draws them from the RNG and
    the column order of the factor blocks in ``ModelBundle.factor_stack``.
    The arguments go through :func:`canonical_args` first.
    """
    kind, k, d, r_vec = canonical_args(kind, schema.n, k, d, r_vec)
    layout = [("linear.b", (1,)), ("linear.w", (schema.m,))]
    if kind == "lr":
        return layout
    layout.append(("embeddings", (schema.m, k)))
    if kind == "fwfm":
        layout.append(("pair.upper", (schema.n * (schema.n - 1) // 2,)))
    for span in _factor_spans(kind, d, r_vec):
        if span.core:
            layout.append((span.core, (span.rank,) * span.order))
        layout += [(name, (schema.n, span.rank)) for name in span.factors]
    return layout


@dataclass
class ModelBundle:
    """A model: its layout arguments plus one array per block of
    :func:`block_layout`, keyed by block name in layout order.

    Construction resolves the arguments with :func:`canonical_args` and
    copies every ``*.factor.*`` block into ``factor_stack``, rebinding it to
    a column view of the stack, so an in-place edit of a factor block (an
    optimizer step, a test's perturbation) is an edit of the stack.
    ``factor_columns`` maps each factor block to its columns and
    ``factor_spans`` holds one :class:`FactorSpan` per order. Replacing a
    dict entry instead of editing it in place unties it from the stack.
    """

    kind: str
    schema: FieldSchema
    blocks: dict[str, np.ndarray]
    k: int = 0
    d: int = 1
    r_vec: tuple[int, ...] = ()
    factor_stack: np.ndarray = field(init=False, repr=False, compare=False)
    factor_columns: dict[str, slice] = field(init=False, repr=False, compare=False)
    factor_spans: tuple[FactorSpan, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # Check the blocks against the layout, put them in layout order and
        # pack the factor blocks into the stack.
        self.kind, self.k, self.d, self.r_vec = canonical_args(self.kind, self.schema.n, self.k, self.d, self.r_vec)
        layout = block_layout(self.kind, self.schema, self.k, self.d, self.r_vec)
        expected = dict(layout)
        for name in self.blocks:
            if name not in expected:
                raise ConfigError(f"kind {self.kind!r} has no block {name!r}")
        for name, shape in layout:
            if name not in self.blocks:
                raise ConfigError(f"missing block {name!r}")
            if self.blocks[name].shape != shape:
                raise ConfigError(f"block {name!r} has shape {self.blocks[name].shape}, expected {shape}")
        blocks = {name: self.blocks[name] for name in expected}

        spans = _factor_spans(self.kind, self.d, self.r_vec)
        stack = np.empty((self.schema.n, sum(s.order * s.rank for s in spans)))
        columns = {}
        for s in spans:
            for b, name in enumerate(s.factors):
                columns[name] = cols = slice(s.first + b * s.rank, s.first + (b + 1) * s.rank)
                stack[:, cols] = blocks[name]
                blocks[name] = stack[:, cols]
        self.blocks, self.factor_stack = blocks, stack
        self.factor_columns, self.factor_spans = columns, spans

    def __reduce__(self):
        # Rebuild through the constructor, so a copy or an unpickled bundle
        # has its own stack with its factor blocks viewing it.
        return (ModelBundle, (self.kind, self.schema, self.blocks, self.k, self.d, self.r_vec))

    @property
    def dense_s(self) -> np.ndarray:
        """Full symmetric zero-diagonal field-pair matrix (fwfm only)."""
        s = np.zeros((self.schema.n, self.schema.n))
        s[self.schema.pair_index] = self.blocks["pair.upper"]
        return s + s.T


def init(
    kind: str,
    schema: FieldSchema,
    k: int = 8,
    d: int = 2,
    r_vec: tuple[int, ...] | int | None = None,
    init_scale: float = 0.01,
    seed: int = 0,
) -> ModelBundle:
    """Build a freshly initialized bundle.

    Linear blocks start at zero; every other block is drawn i.i.d.
    Normal(0, ``init_scale``^2) in layout order. A scalar ``r_vec`` is
    replicated across orders 2..d.
    """
    if not 0 <= init_scale < math.inf:
        raise ConfigError(f"init scale must be a finite number >= 0, got {init_scale}")
    rng = np.random.default_rng(seed)
    blocks = {
        name: np.zeros(shape) if name.startswith("linear.") else rng.normal(0.0, init_scale, size=shape)
        for name, shape in block_layout(kind, schema, k, d, r_vec)
    }
    return ModelBundle(kind, schema, blocks, k=k, d=d, r_vec=r_vec)


def param_count(bundle: ModelBundle) -> int:
    """Exact number of learnable scalars in the bundle."""
    return int(sum(arr.size for arr in bundle.blocks.values()))


# ---------------------------------------------------------------------------
# dense materialization (for oracles and interpretability)
# ---------------------------------------------------------------------------


def _check_dense_size(n: int, order: int) -> None:
    if n**order > MAX_DENSE_ENTRIES:
        raise ConfigError(f"dense tensor would hold {n ** order} entries, above {MAX_DENSE_ENTRIES}")


def materialize_tensor(factors: list[np.ndarray]) -> np.ndarray:
    """Expand CP factor matrices (each (n, rank)) into the dense tensor
    they encode: entry (i_1..i_l) = sum_j prod_b factors[b][i_b, j]."""
    order = len(factors)
    _check_dense_size(factors[0].shape[0], order)
    # einsum's sublist form: mode b is axis label b, the summed rank is label order
    operands = itertools.chain(*((f, [b, order]) for b, f in enumerate(factors)))
    return np.einsum(*operands, list(range(order)))


def materialize_tucker(core: np.ndarray, factors: list[np.ndarray]) -> np.ndarray:
    """Expand a Tucker core and its factor matrices (the b-th (n, core.shape[b]))
    into the dense tensor they encode."""
    order = len(factors)
    _check_dense_size(factors[0].shape[0], order)
    # einsum's sublist form: mode b is axis label b, the core's axis b is label order + b
    operands = itertools.chain(*((f, [b, order + b]) for b, f in enumerate(factors)))
    return np.einsum(core, list(range(order, 2 * order)), *operands, list(range(order)))


def materialize_distinct(n: int, order: int) -> np.ndarray:
    """The (n,)*order tensor holding 1/order! on every tuple of distinct
    fields and 0 elsewhere: summed over ordered tuples, it counts each field
    subset of size ``order`` once, as fm and hofm do."""
    _check_dense_size(n, order)
    index = np.indices((n,) * order, sparse=True)
    distinct = np.ones((n,) * order, dtype=bool)
    for a, b in itertools.combinations(range(order), 2):
        distinct &= index[a] != index[b]
    return distinct / math.factorial(order)


def symmetrize(tensor: np.ndarray) -> np.ndarray:
    """Average a tensor over all permutations of its axes."""
    order = tensor.ndim
    acc = np.zeros_like(tensor)
    for perm in itertools.permutations(range(order)):
        acc += np.transpose(tensor, perm)
    return acc / math.factorial(order)


def fwfm_lowrank_from_dense(bundle: ModelBundle, rank: int | None = None) -> ModelBundle:
    """Convert a dense field-pair model into the equivalent ``tensorfm``
    bundle with d=2.

    The pair term of the dense model is half the bilinear form of its matrix
    S, so S/2 is what gets factored; with full rank the two models score
    identically on every instance.
    """
    if bundle.kind != "fwfm":
        raise ConfigError("can only factor a dense field-pair bundle")
    r = bundle.schema.n if rank is None else int(rank)
    uu, sv, vt = np.linalg.svd(bundle.dense_s / 2.0)
    blocks = {name: arr.copy() for name, arr in bundle.blocks.items() if name != "pair.upper"}
    blocks["cp.2.factor.0"] = uu[:, :r] * sv[:r]
    blocks["cp.2.factor.1"] = vt[:r].T
    return ModelBundle("tensorfm", bundle.schema, blocks, k=bundle.k, d=2, r_vec=(r,))


# ---------------------------------------------------------------------------
# model file format: plain text, one header line per scalar key, then shape-
# tagged blocks of row-major floats at full round-trip precision.
# ---------------------------------------------------------------------------


def _write_block(fh, name: str, arr: np.ndarray) -> None:
    fh.write(f"block {name} {'x'.join(str(s) for s in arr.shape)}\n")
    for row in arr.reshape(-1, arr.shape[-1]) if arr.ndim >= 2 else arr.reshape(1, -1):
        fh.write(" ".join(repr(float(v)) for v in row) + "\n")


def save_bundle(bundle: ModelBundle, path: str | Path) -> None:
    """Write the model file; the previous file at ``path`` is replaced only
    once the new one is complete. A non-finite block, which the reader
    would reject, is a :class:`NumericError` and leaves that file as it is."""
    for name, arr in bundle.blocks.items():
        if not np.isfinite(arr).all():
            raise NumericError(f"block {name!r} holds a non-finite value; not writing {path}")
    with atomic_open(path) as fh:
        fh.write(f"tensorfm-model {FORMAT_VERSION}\n")
        fh.write(f"kind {bundle.kind}\n")
        fh.write("cardinalities " + ",".join(str(c) for c in bundle.schema.cardinalities) + "\n")
        fh.write(f"k {bundle.k}\n")
        fh.write(f"d {bundle.d}\n")
        fh.write("r_vec " + (",".join(str(r) for r in bundle.r_vec) or "-") + "\n")
        for name, arr in bundle.blocks.items():
            _write_block(fh, name, arr)
        fh.write("end\n")


def _parse_rows(lines: list[str], width: int) -> np.ndarray:
    """The float rows of ``lines`` as one (rows, width) array. A blank line
    gives no row, so it shows as a row count below ``len(lines)``."""
    if width == 0:  # zero-width rows (fwfm on one field) are blank lines
        return np.empty((sum(not line.strip() for line in lines), 0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # all lines blank: no rows
        return np.loadtxt(lines, dtype=np.float64, comments=None, ndmin=2)


def _read_blocks(lines: Iterator[str]) -> dict[str, np.ndarray]:
    """Parse the blocks that follow the header into each block's array, at
    most :data:`READ_ROWS` rows per parse, so no line list or float list of
    a whole block is held."""
    blocks: dict[str, np.ndarray] = {}
    for line in lines:
        if line == "end":
            return blocks
        if not line.startswith("block "):
            raise ModelIOError(f"expected a block header, got {line!r}")
        try:
            _, name, shape_s = line.split()
            shape = tuple(int(s) for s in shape_s.split("x"))
            arr = np.empty(shape)
        except ValueError as exc:
            raise ModelIOError(f"malformed block header {line!r}") from exc
        rows = arr.reshape(math.prod(shape[:-1]), shape[-1]) if len(shape) >= 2 else arr.reshape(1, -1)
        for lo in range(0, len(rows), READ_ROWS):
            part = rows[lo : lo + READ_ROWS]
            chunk = list(itertools.islice(lines, len(part)))
            if len(chunk) < len(part):
                raise ModelIOError(f"file truncated inside block {name!r}")
            try:
                values = _parse_rows(chunk, part.shape[1])
            except ValueError as exc:
                raise ModelIOError(f"block {name!r} rows {lo}..{lo + len(part) - 1}: not a number: {exc}") from exc
            if values.shape != part.shape:
                raise ModelIOError(f"block {name!r} does not match its declared shape {shape}")
            part[...] = values
        if not np.isfinite(arr).all():
            raise ModelIOError(f"block {name!r} holds a non-finite value")
        blocks[name] = arr
    raise ModelIOError("file truncated: missing 'end' marker")


def load_bundle(path: str | Path) -> ModelBundle:
    """Read a model file; a ``kind fwfm-lowrank`` file loads as ``tensorfm``
    with d=2."""
    path = Path(path)
    if not path.exists():
        raise ModelIOError(f"model file not found: {path}")
    with path.open(encoding="utf-8") as fh:
        lines = (line.rstrip("\n") for line in fh)
        first = next(lines, "")
        if not first.startswith("tensorfm-model "):
            raise ModelIOError(f"{path}: not a model file")
        version = first.split(maxsplit=1)[1]
        if version != FORMAT_VERSION:
            raise ModelIOError(f"{path}: format version {version!r}, this build reads {FORMAT_VERSION!r}")

        header: dict[str, str] = {}
        line = next(lines, None)
        while line is not None and not line.startswith("block "):
            key, _, value = line.partition(" ")
            header[key] = value
            line = next(lines, None)
        try:
            schema = build_schema([int(c) for c in header["cardinalities"].split(",")])
            r_vec = tuple(int(r) for r in header["r_vec"].split(",")) if header["r_vec"] != "-" else ()
            kind, k, d = header["kind"], int(header.get("k", 0)), int(header["d"])
        except (KeyError, ValueError) as exc:
            raise ModelIOError(f"{path}: bad or missing header field: {exc}") from exc

        blocks = _read_blocks(itertools.chain([] if line is None else [line], lines))
    try:
        return ModelBundle(kind, schema, blocks, k=k, d=d, r_vec=r_vec)
    except ConfigError as exc:
        raise ModelIOError(f"{path}: {exc}") from exc
