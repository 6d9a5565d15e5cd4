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
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .data import FieldSchema, atomic_open, build_schema, open_text
from .errors import ConfigError, ModelIOError, NumericError, SchemaError

KINDS = ("lr", "fm", "fwfm", "hofm", "tensorfm", "tensorfm-tucker")
HIGHER_ORDER_KINDS = ("hofm", "tensorfm", "tensorfm-tucker")
TENSOR_KINDS = ("tensorfm", "tensorfm-tucker")
# Two spellings of one alias: a rank-r field-pair model is tensorfm with d=2.
ALIASES = ("fwfm-lowrank", "fwfm-lr")

FORMAT_VERSION = "v1"

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
# model file format: plain text, one header line per scalar key, then every
# block of block_layout in layout order as `block <name> <AxB>` and its rows of
# row-major floats at full round-trip precision, then `end`.
# ---------------------------------------------------------------------------

# What the reader sees for a blank line, which np.loadtxt would skip rather
# than reject, and after the last line of the file.
_BLANK, _EOF = "<blank>", "<end-of-file>"


def _write_block(fh, name: str, arr: np.ndarray) -> None:
    fh.write(f"block {name} {'x'.join(map(str, arr.shape))}\n")
    rows = arr.reshape(math.prod(arr.shape[:-1]), -1)  # a vector is one row
    fh.writelines(" ".join(map(repr, row.tolist())) + "\n" for row in rows)


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


def load_bundle(path: str | Path) -> ModelBundle:
    """Read a model file: its header gives the :func:`block_layout` that the
    blocks must follow; a ``kind fwfm-lowrank`` file loads as ``tensorfm``
    with d=2."""
    with open_text(path, ModelIOError, "model file") as fh:
        lines = itertools.chain((line.strip() or _BLANK for line in fh), [_EOF])
        first = next(lines)
        if not first.startswith("tensorfm-model "):
            raise ModelIOError(f"{path}: not a model file")
        version = first.split(maxsplit=1)[1]
        if version != FORMAT_VERSION:
            raise ModelIOError(f"{path}: format version {version!r}, this build reads {FORMAT_VERSION!r}")

        header = []  # the values of the header lines save_bundle writes, in its order
        for key in ("kind", "cardinalities", "k", "d", "r_vec"):
            line = next(lines)
            if not line.startswith(key + " "):
                raise ModelIOError(f"{path}: expected the header line {key!r}, got {line!r}")
            header.append(line[len(key) + 1 :])
        kind, cardinalities, k, d, ranks = header
        try:
            schema = build_schema([int(c) for c in cardinalities.split(",")])
            r_vec = tuple(int(r) for r in ranks.split(",")) if ranks != "-" else ()
            k, d = int(k), int(d)
            layout = block_layout(kind, schema, k, d, r_vec)
        except (ValueError, SchemaError, ConfigError) as exc:
            raise ModelIOError(f"{path}: bad header field: {exc}") from exc

        line = next(lines)
        blocks: dict[str, np.ndarray] = {}
        for name, shape in layout:
            expected = f"block {name} {'x'.join(map(str, shape))}"
            if line != expected:
                raise ModelIOError(f"{path}: expected {expected!r}, got {line!r}")
            rows, width = math.prod(shape[:-1]), shape[-1]
            try:
                if width:
                    values = np.loadtxt(lines, comments=None, ndmin=2, max_rows=rows)
                else:  # fwfm on one field: its empty pair.upper is one blank line
                    values = np.empty((rows if next(lines) == _BLANK else 0, 0))
            except UnicodeDecodeError:
                raise  # open_text reports it
            except ValueError as exc:
                problem = "the file ends inside it" if next(lines, None) is None else exc
                raise ModelIOError(f"{path}: block {name!r}: {problem}") from exc
            if values.shape != (rows, width):
                raise ModelIOError(f"{path}: block {name!r} does not match its declared shape {shape}")
            if not np.isfinite(values).all():
                raise ModelIOError(f"{path}: block {name!r} holds a non-finite value")
            blocks[name] = values.reshape(shape)
            line = next(lines)
        if line != "end":
            raise ModelIOError(f"{path}: expected 'end' after block {name!r}, got {line!r}")
    return ModelBundle(kind, schema, blocks, k=k, d=d, r_vec=r_vec)
