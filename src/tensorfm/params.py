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
(n, sum_o o * r_o) array, ``ModelBundle.factor_stack``, one span of
o * r_o columns per order in layout order, so the scorers contract every
factor of a batch with one matrix product. A CP order's span is rank-major:
mode b of rank column c is column ``first + c * o + b``, so the modes of one
rank column are adjacent and every CP order's product over modes is one
segmented product. A Tucker order's span is mode-major: its factor blocks
side by side, mode 0 first. Neither layout shows in the model file.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np

from . import floatfmt
from .data import ByteBuffer, FieldSchema, atomic_open, build_schema, open_text
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
    """One order's factor set: its ``order`` factor blocks fill
    ``order * rank`` adjacent columns of ``ModelBundle.factor_stack`` from
    ``first`` on, as :meth:`mode_columns` gives them; ``core`` names its
    Tucker core (None for CP)."""

    order: int
    first: int
    rank: int
    core: str | None
    factors: tuple[str, ...]

    def mode_columns(self, b: int) -> slice:
        """The stack columns of mode b's factor block: every ``order``-th
        column from ``first + b`` for CP (rank-major), the b-th run of
        ``rank`` columns for Tucker (mode-major)."""
        if self.core is None:
            return slice(self.first + b, self.first + self.order * self.rank, self.order)
        return slice(self.first + b * self.rank, self.first + (b + 1) * self.rank)


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
    ``factor_spans`` holds one :class:`FactorSpan` per order. For CP,
    ``cp_segments`` holds the first stack column of each rank column's
    modes and ``cp_firsts`` the first of those rank columns of each order,
    the offsets of the segmented reductions that score every order at once.
    Replacing a dict entry instead of editing it in place unties it from
    the stack.
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
    cp_segments: np.ndarray = field(init=False, repr=False, compare=False)
    cp_firsts: np.ndarray = field(init=False, repr=False, compare=False)

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
                columns[name] = cols = s.mode_columns(b)
                stack[:, cols] = blocks[name]
                blocks[name] = stack[:, cols]
        self.blocks, self.factor_stack = blocks, stack
        self.factor_columns, self.factor_spans = columns, spans
        cp_spans = [s for s in spans if s.core is None]
        ranks = np.array([s.rank for s in cp_spans], dtype=np.intp)
        self.cp_segments = np.array([s.first + c * s.order for s in cp_spans for c in range(s.rank)], dtype=np.intp)
        self.cp_firsts = np.cumsum(ranks) - ranks

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
# row-major floats, each spelled as Python's repr spells it (floatfmt), then
# `end`.
# ---------------------------------------------------------------------------

# What the reader sees for a blank line, which np.loadtxt would skip rather
# than reject, and after the last line of the file.
_BLANK, _EOF = "<blank>", "<end-of-file>"


def _write_block(fh, name: str, arr: np.ndarray) -> None:
    fh.write(f"block {name} {'x'.join(map(str, arr.shape))}\n")
    fh.writelines(floatfmt.format_rows(arr))  # a vector is one row


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
    with d=2. A file in the form :func:`save_bundle` writes is read a chunk
    at a time by :func:`floatfmt.read_floats`; any other file, faults
    included, by the line reader, which raises every :class:`ModelIOError`."""
    model = _read_canonical(path)
    kind, schema, k, d, r_vec, blocks = _read_lines(path) if model is None else model
    return ModelBundle(kind, schema, blocks, k=k, d=d, r_vec=r_vec)


def _read_header(path: str | Path, lines: Iterator[str]) -> tuple:
    """``(kind, schema, k, d, r_vec, layout)`` from the first six of the
    model file's ``lines``, stripped and with a blank line as :data:`_BLANK`."""
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
    return kind, schema, k, d, r_vec, layout


def _read_lines(path: str | Path) -> tuple:
    """The line reader: ``(kind, schema, k, d, r_vec, blocks)`` of any
    model file the format allows, each block parsed by ``np.loadtxt``."""
    with open_text(path, ModelIOError, "model file") as fh:
        lines = itertools.chain((line.strip() or _BLANK for line in fh), [_EOF])
        kind, schema, k, d, r_vec, layout = _read_header(path, lines)
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
    return kind, schema, k, d, r_vec, blocks


# Tokens of a model file each floatfmt.read_floats call reads (all of a
# block's that are left, when fewer). Its scratch is about 41 bytes a
# token, and the buffer holds READ_TOKENS * READ_BYTES bytes: that many of
# the writer's longest tokens with their separators.
READ_TOKENS = 9216
# Separators the reader finds ahead: more than its buffer holds of tokens
# of 20 bytes or more, such as trained weights and embeddings, so their
# bytes are scanned once. A buffer of shorter tokens (an untrained model's
# all-0.0 linear weights) is scanned up to this many at a time.
SEPARATORS_KEPT = READ_TOKENS * 5 // 4


def _read_canonical(path: str | Path) -> tuple | None:
    """``(kind, schema, k, d, r_vec, blocks)`` of a model file in the form
    :func:`save_bundle` writes: ASCII, ``\\n`` line ends, a header that
    fits in the buffer, every block line and ``end`` as written,
    values separated by single spaces and each spelled as ``float()``
    reads it, and nothing after ``end``. None for any other file, faults
    included, which the line reader then reads or reports. The file is
    read a buffer at a time and its values :data:`READ_TOKENS` at a time."""
    try:
        fh = open(path, "rb")
    except OSError:
        return None
    with fh:
        text = _Chunks(fh)
        if not text.fill():
            return None
        # the writer's six header lines hold two separators each
        newlines = [at for at in text.marks[:12].tolist() if text.buf[at] == ord("\n")]
        head = text.buf[text.pos : newlines[-1] + 1].tobytes() if len(newlines) == 6 else b""
        if not head.isascii() or b"\r" in head:  # the line reader would split or decode it otherwise
            return None
        try:
            lines = (line.strip() or _BLANK for line in head.decode().split("\n"))
            kind, schema, k, d, r_vec, layout = _read_header(path, lines)
        except ModelIOError:
            return None
        text.skip(len(head))
        blocks = {}
        for name, shape in layout:
            blocks[name] = values = np.empty(shape)
            if not text.line(f"block {name} {'x'.join(map(str, shape))}\n".encode()):
                return None
            if not (text.values(values.reshape(-1), shape[-1]) if shape[-1] else text.line(b"\n")):
                return None
        if not text.line(b"end\n") or text.pos < text.end or text.fill():
            return None
    return kind, schema, k, d, r_vec, blocks


class _Chunks(ByteBuffer):
    """A model file read through a :class:`ByteBuffer` with room for
    :data:`READ_TOKENS` of the writer's longest tokens, after
    :data:`floatfmt.READ_BYTES` bytes of padding so that every token has a
    full window before it, whose marks are the separators (bytes up to
    ``' '``), at most :data:`SEPARATORS_KEPT` of them."""

    def __init__(self, fh):
        pad = floatfmt.READ_BYTES
        super().__init__(fh, pad * READ_TOKENS, pad, np.less_equal, ord(" "), SEPARATORS_KEPT)

    def line(self, expected: bytes) -> bool:
        """Read ``expected`` if the next bytes are it."""
        if self.end - self.pos < len(expected):
            self.fill()
        if self.buf[self.pos : self.pos + len(expected)].tobytes() != expected:
            return False
        self.skip(len(expected))
        return True

    def values(self, out: np.ndarray, width: int) -> bool:
        """Read the floats of ``out`` if the next bytes are they, in rows of
        ``width``: single spaces between them and a newline after each row.
        They are read :data:`READ_TOKENS` at a time, each straight into its
        slice of ``out``."""
        done = 0
        while done < len(out):
            count = min(READ_TOKENS, len(out) - done)
            if len(self.marks) - self.mark < count:
                self.fill()
            ends = self.marks[self.mark : self.mark + count]
            if not len(ends):
                return False
            starts = np.empty(len(ends), dtype=np.int32)  # positions in the buffer, < 2**31
            starts[0] = self.pos
            starts[1:] = ends[:-1] + 1
            seps = self.buf[ends]
            seps[width - 1 - done % width :: width] ^= ord("\n") ^ ord(" ")  # each row's newline, as a space
            if not (seps == ord(" ")).all():
                return False
            del seps
            if floatfmt.read_floats(self.buf, starts, ends, out[done : done + len(ends)]) is None:
                return False
            done += len(ends)
            self.mark += len(ends)
            self.pos = int(ends[-1]) + 1
            del ends, starts  # before the next fill
        return True
