"""Field schemas, datasets, tabular ingestion, and synthetic interaction data.

An instance over ``n`` categorical fields activates exactly one feature per
field. Feature indices are local to their field; the schema maps them into a
global index space of size ``m = sum(cardinalities)``. Numeric columns are
carried as a per-field real multiplier on the active feature.
"""

from __future__ import annotations

import contextlib
import csv
import errno
import io
import itertools
import math
import os
import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import IO, Iterator, Sequence

import numpy as np

from . import floatfmt
from .errors import ConfigError, DataError, SchemaError, TensorFMError


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
    read-only. Multipliers that are all 1.0 (``unit_values``, the case for
    categorical data) are stored as a read-only zero-stride view of one 1.0,
    which reads as the (N, n) array but holds no bytes; :meth:`subset` and
    :func:`split` keep that view, and :func:`read_dataset` never builds the
    array for a file without ``:value`` tokens.
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
        if values is not None:
            values = np.asarray(values, dtype=np.float64)  # no copy yet: an all-1.0 array is not kept
            if values.shape != active.shape:
                raise SchemaError("values array must match active array shape")
            finite = np.isfinite(values)
            if not finite.all():
                row, field = np.argwhere(~finite)[0]
                raise DataError(f"multipliers must be finite, found {values[row, field]} in row {row}, field {field}")
        if labels is None:
            labels = np.zeros(n_rows, dtype=np.int8)
        else:
            labels = np.ascontiguousarray(labels, dtype=np.int8)
            if labels.shape != (n_rows,):
                raise SchemaError("labels array must be one label per instance")

        cards = np.asarray(schema.cardinalities, dtype=np.int64)
        if n_rows and (active.min() < 0 or (active.max(axis=0) >= cards).any()):
            raise SchemaError("active feature index out of range for its field")
        bad = ~np.isin(labels, (0, 1))
        if bad.any():
            raise DataError(f"labels must be 0 or 1, found {labels[bad][0]}")

        for arr in (active, labels):
            arr.setflags(write=False)
        self.schema = schema
        self.active = active
        self._set_values(values)
        self.labels = labels
        self.provenance = provenance

    def _set_values(self, values: np.ndarray | None) -> None:
        """Store the multipliers of ``self.active``'s rows, None meaning
        every one is 1.0, and set ``unit_values``: True when every
        multiplier is 1.0, so that the batch scorers and training skip the
        multiply by them, which is exact. Unit multipliers are kept as a
        read-only view of one 1.0, any others as a read-only C-ordered
        array."""
        self.unit_values = values is None or bool((values == 1.0).all())
        if self.unit_values:
            self.values = np.broadcast_to(np.float64(1.0), self.active.shape)
        else:
            self.values = np.ascontiguousarray(values)
            self.values.setflags(write=False)

    def __len__(self) -> int:
        return self.active.shape[0]

    @cached_property
    def global_indices(self) -> np.ndarray:
        """(N, n) global feature indices: local index plus field offset."""
        gidx = self.active.astype(np.int64) + self.schema.offsets[None, :]
        gidx.setflags(write=False)
        return gidx

    def require_rows(self) -> None:
        """Raise :class:`DataError` naming the dataset if it has no rows."""
        if len(self) == 0:
            raise DataError(f"{self.provenance or 'dataset'}: no data rows")

    def require_schema(self, schema: FieldSchema) -> None:
        """Raise :class:`ConfigError` naming the dataset if its schema is not ``schema``, a model's."""
        if self.schema.cardinalities != schema.cardinalities:
            name, ours = self.provenance or "dataset", self.schema
            raise ConfigError(f"{name}: schema of {ours.n} fields and {ours.m} features does not match"
                              f" the model schema of {schema.n} fields and {schema.m} features")

    def instance(self, i: int) -> Instance:
        return Instance(self.active[i], self.values[i], int(self.labels[i]))

    def subset(self, rows: np.ndarray, provenance: str = "") -> "Dataset":
        """The instances ``rows`` of this dataset, in that order. They were
        checked when this dataset was built, so they are not checked again."""
        sub = object.__new__(Dataset)
        for name in ("active", "labels"):
            arr = np.ascontiguousarray(getattr(self, name)[rows])
            arr.setflags(write=False)
            setattr(sub, name, arr)
        sub._set_values(None if self.unit_values else self.values[rows])
        sub.schema = self.schema
        sub.provenance = provenance or self.provenance
        return sub


@contextlib.contextmanager
def open_text(path: str | Path, error: type[TensorFMError], what: str, binary: bool = False) -> Iterator[IO]:
    """Open ``path`` to read UTF-8 text, line endings left as they are, or
    its bytes when ``binary`` is set. A missing file, or bytes read in the
    block that are not UTF-8, raise ``error`` naming the path."""
    if not Path(path).exists():
        raise error(f"{what} not found: {path}")
    with open(path, "rb") if binary else open(path, encoding="utf-8", newline="") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise error(f"{path}: not UTF-8 text ({exc.reason})") from exc


class ByteBuffer:
    """A binary file read through one reused uint8 buffer, after ``pad``
    zero bytes that let a reader look that far back from any byte.
    ``buf[pos:end]`` holds the bytes read and not yet taken. ``marks``
    holds, in order from index ``mark``, the positions in
    ``buf[pos:scanned]`` of the bytes that ``compare(byte, value)``
    selects: a :meth:`fill` keeps the marks of the bytes it moves and scans
    only bytes that no scan has reached, up to ``limit`` marks (all if
    None), so each byte of the file goes through the scan at most once."""

    def __init__(self, fh, size: int, pad: int, compare: np.ufunc, value: int, limit: int | None = None):
        self.fh, self.pad, self.compare, self.value, self.limit = fh, pad, compare, value, limit
        self.buf = np.zeros(pad + size, dtype=np.uint8)
        self.pos = self.end = self.scanned = pad
        self.marks, self.mark = np.empty(0, dtype=np.intp), 0

    def fill(self, grow: bool = False) -> bool:
        """Move the untaken bytes and their marks to the front, read more
        after them and scan; with ``grow``, a buffer that they fill is
        doubled first. False if the file has no more."""
        pad, rest, shift, old = self.pad, self.end - self.pos, self.pos - self.pad, self.buf
        if grow and pad + rest == len(old):
            self.buf = np.zeros(2 * len(old) - pad, dtype=np.uint8)
        self.buf[pad : pad + rest] = old[self.pos : self.end]
        self.marks = self.marks[self.mark :] - shift
        self.mark, self.scanned = 0, self.scanned - shift
        got = self.fh.readinto(memoryview(self.buf)[pad + rest :])
        self.pos, self.end = pad, pad + rest + got
        want = None if self.limit is None else self.limit - len(self.marks)
        if self.scanned < self.end and want != 0:
            found = floatfmt.find_bytes(self.compare, self.buf[self.scanned : self.end], self.value, want)
            found += self.scanned
            self.scanned = int(found[-1]) + 1 if want is not None and len(found) == want else self.end
            self.marks = np.concatenate([self.marks, found])
        return got > 0

    def skip(self, count: int) -> None:
        """Take the next ``count`` bytes."""
        self.pos += count
        self.scanned = max(self.scanned, self.pos)
        self.mark = int(np.searchsorted(self.marks, self.pos))


_TEMP_IDS = itertools.count()  # next() on it is atomic, so no two opens share a temporary file


@contextlib.contextmanager
def atomic_open(path: str | Path) -> Iterator[IO[str]]:
    """Write UTF-8 text, line endings as given, to a temporary file beside
    ``path`` and move it over ``path`` when the block completes. If the
    block raises, the temporary file is removed and whatever was at
    ``path`` stays as it was; a failed system call is reported as an
    ``OSError`` naming ``path``, not the temporary file. Each call has a
    temporary file of its own, so writes to one path from several threads
    leave one of them whole."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{next(_TEMP_IDS)}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.errno is not None:
            raise OSError(exc.errno, exc.strerror, str(path)) from exc
        raise


def check_output_dirs(*paths: str | Path | None) -> None:
    """Raise the ``OSError`` that writing a file at each given path would
    raise for want of its directory, so a long job can fail before it
    starts rather than at its end. A ``None`` path is skipped."""
    for path in filter(None, paths):
        folder = Path(path).parent
        if not folder.is_dir():
            code = errno.ENOTDIR if folder.exists() else errno.ENOENT
            raise OSError(code, os.strerror(code), str(path))


# ---------------------------------------------------------------------------
# canonical text format: `#schema m_0,m_1,...` header, then one instance per
# line as `<label> <field>:<local_index>[:<value>]` with fields in order.
# ---------------------------------------------------------------------------


def write_dataset(dataset: Dataset, path: str | Path) -> None:
    """Write the canonical text form: the ``#schema`` line, then per row its
    label and a ``field:index`` token per field, with ``:value`` (the float's
    repr) after it where the multiplier is not 1.0. The rows are written
    :data:`CHUNK_LINES` at a time, each chunk built by :func:`_chunk_text`
    and its labels drawn as it is built."""
    n = dataset.schema.n
    width = 4 * -(-len(f"{n - 1}:") // 4)  # whole words for the longest prefix
    prefixes = np.frombuffer("".join(f"{j}:".rjust(width, "\0") for j in range(n)).encode(), dtype=_WORD).reshape(n, -1)
    ends = np.full(n, _SPACE_END)
    ends[-1] = _NEWLINE_END
    with atomic_open(path) as fh:
        out = fh.buffer
        out.write(("#schema " + ",".join(str(c) for c in dataset.schema.cardinalities) + "\n").encode())
        labels = iter(dataset.labels)
        for lo in range(0, len(dataset.active), CHUNK_LINES):
            active, values = dataset.active[lo : lo + CHUNK_LINES], dataset.values[lo : lo + CHUNK_LINES]
            chunk_labels = np.fromiter(itertools.islice(labels, len(active)), dtype=np.uint32, count=len(active))
            out.write(_chunk_text(prefixes, ends, chunk_labels, active, values))


# Text words hold their first character in their lowest byte. A row is
# laid out in 4-byte words; an index is spelled in 8-byte ones.
_WORD, _WIDE_WORD = np.dtype("<u4"), np.dtype("<u8")
_ZEROS8 = np.uint64(0x3030_3030_3030_3030)  # "00000000"
_UNITS = np.uint64(1 << 56)  # the lowest bit of the last of eight digits
# a token's last character, in the last byte of its index word
_SPACE_END, _NEWLINE_END, _COLON_END = (np.uint64(ord(c) << 56) for c in " \n:")


def _shown(digits: np.ndarray, mark: np.ndarray) -> np.ndarray:
    """The :func:`floatfmt.digits8` bytes ``digits`` as ASCII digits, NUL
    before the first that shows: the first nonzero one, or the one holding
    ``mark``'s lowest set bit if that comes first. ``digits`` is
    overwritten."""
    keep = digits | mark
    keep ^= keep - np.uint64(1)  # the bits up to the lowest set one, all below the '0' bits of its byte
    np.invert(keep, out=keep)
    keep &= _ZEROS8
    digits |= keep
    return digits


def _index_words(active: np.ndarray) -> np.ndarray:
    """The decimal digits of each index of ``active`` (>= 0), without
    leading zeros, right-aligned before a NUL last byte in one text word,
    or in two when some index has eight digits or more: (rows, n, 1 or 2)."""
    if active.max(initial=0) < 10**7:
        words = _shown(floatfmt.digits8(active.astype(np.uint64)), _UNITS)[..., None]
    else:
        low = active.astype(np.uint64)
        high = low // np.uint64(10**7)
        low -= high * np.uint64(10**7)
        mark = np.where(high != 0, np.uint64(1), _UNITS)  # every digit after a shown one shows
        words = np.stack([_shown(floatfmt.digits8(high), np.uint64(0)), _shown(floatfmt.digits8(low), mark)], axis=-1)
    # the last word's number is below 10**7, so its first byte is a zero digit
    words[..., -1] >>= np.uint64(8)
    return words.astype(_WIDE_WORD, copy=False)


def _chunk_text(prefixes: np.ndarray, ends: np.ndarray, labels: np.ndarray, active: np.ndarray,
                values: np.ndarray) -> bytearray:
    """The text of one chunk of rows. Each row is laid out as NUL-padded text
    words: the label and a space, then per field j its ``j:`` prefix words
    and index words (:func:`_index_words`), which end in the field's byte of
    ``ends`` (a space, or a newline after the last field) or, where the
    multiplier is not 1.0, in ``:`` and are followed by the value's
    :func:`floatfmt.spell_rows` row, which ends in that separator. Value
    words are laid out only for the fields that have a value in this chunk."""
    rows, n = active.shape
    valued = values != 1.0
    fields = np.flatnonzero(valued.any(axis=0))
    has = valued[:, fields]
    counts = has.sum(axis=0)
    spelled = floatfmt.spell_rows(values[:, fields].T[has.T], np.repeat(fields == n - 1, counts).astype(np.intp))
    spelled = spelled.view(_WORD)
    index = _index_words(active)
    index[..., -1] |= np.where(valued, _COLON_END, ends)
    index = index.view(_WORD)
    p, token, width = prefixes.shape[1], prefixes.shape[1] + index.shape[2], spelled.shape[1]

    buf = bytearray(_WORD.itemsize * rows * (1 + n * token + len(fields) * width))
    lines = np.frombuffer(buf, dtype=_WORD).reshape(rows, -1)
    lines[:, 0] = labels + np.uint32(ord("0") | ord(" ") << 8)
    # runs of fields whose tokens are adjacent, each but the last ending in a field of `fields`
    at, first, done = 1, 0, 0
    for i, last in enumerate([*fields.tolist(), n - 1]):
        run = lines[:, at : at + (last + 1 - first) * token].reshape(rows, -1, token)
        run[..., :p] = prefixes[first : last + 1]
        run[..., p:] = index[:, first : last + 1]
        at, first = at + run.shape[1] * token, last + 1
        if i < len(fields):
            lines[has[:, i], at : at + width] = spelled[done : done + counts[i]]
            at, done = at + width, done + counts[i]
    del index, lines  # the chunk's scratch, freed before its text is packed
    return buf.translate(None, b"\0")


# Lines of a dataset body parsed or written at once: bounds the scratch arrays and token lists.
CHUNK_LINES = 512

# Class of each byte in canonical text, as a bytes.translate table: 0 not
# allowed, 1 a delimiter (space, ':' or newline), 2 anything else a label,
# index or float repr is made of.
_BYTE_CLASS = bytes(1 if b in b" :\n" else 2 if b in b"0123456789.+-e" else 0 for b in range(256))

# Longest label, field or index piece the array parse reads: 10**9 - 1 fits in int32.
_MAX_DIGITS = 9

# The spellings the reader takes: a label, field or index is ASCII digits
# with an optional sign; a value is a float as repr writes it, with an
# optional leading '+' (inf and nan are then rejected as non-finite).
_INT = re.compile(r"[+-]?[0-9]+")
_FLOAT = re.compile(r"[+-]?(?:[0-9]+(?:\.[0-9]+)?(?:e[+-]?[0-9]+)?|inf|nan)")


def read_dataset(path: str | Path) -> Dataset:
    """Read a dataset file: the body in chunks of :data:`CHUNK_LINES` lines,
    each parsed as arrays when it is in the writer's canonical form and line
    by line otherwise. Every message names the file and line at fault. The
    file is read as bytes through one :class:`ByteBuffer`, which finds the
    newlines that end the chunks; only a chunk that is parsed line by line
    is decoded."""
    path = Path(path)
    with open_text(path, DataError, "dataset file", binary=True) as fh:
        text = ByteBuffer(fh, READ_BUFFER_BYTES, 0, np.equal, ord("\n"))
        head = next(_line_chunks(text, 1), None)
        lines = _text_lines(head.tobytes().decode() if head is not None else "")
        del head  # a view of the buffer, which may grow
        header = lines[0].strip() if lines else ""
        if not header.startswith("#schema "):
            raise DataError(f"{path}: missing '#schema' header line")
        try:
            schema = build_schema([int(c) for c in header[len("#schema ") :].split(",")])
        except (ValueError, SchemaError) as exc:
            raise DataError(f"{path}: bad schema header: {exc}") from exc

        rows = _Rows(path, schema)
        if len(lines) > 1:  # a lone '\r' ended the header
            rows.append(_parse_lines(path, schema.n, lines[1:], 2))
        first = 1 + len(lines)
        for chunk in _line_chunks(text, CHUNK_LINES):
            parsed, count = _parse_chunk(path, schema.n, chunk, first)
            rows.append(parsed)
            first += count
            del chunk, parsed  # not held through the next fill and parse

    if rows.out_of_range:
        raise DataError(rows.out_of_range)
    return Dataset(schema, rows.active, rows.values, rows.labels, provenance=str(path))


# Bytes of the dataset reader's buffer at first; it doubles while a chunk
# of CHUNK_LINES lines does not fit.
READ_BUFFER_BYTES = 1 << 16


def _line_chunks(text: ByteBuffer, lines: int) -> Iterator[np.ndarray]:
    """The rest of the file, ``lines`` newline-ended lines at a time (fewer
    in the last chunk, whose last line may lack its newline), as views of
    ``text.buf``, each valid until the next is drawn."""
    while True:
        while len(text.marks) - text.mark < lines and text.fill(grow=True):
            pass
        ends = text.marks[text.mark : text.mark + lines]
        stop = int(ends[-1]) + 1 if len(ends) == lines else text.end
        if stop == text.pos:
            return
        chunk = text.buf[text.pos : stop]
        text.skip(stop - text.pos)
        yield chunk


def _text_lines(text: str) -> list[str]:
    """The lines of ``text`` as a file opened in text mode with
    ``newline=""`` yields them: split after each ``\n``, ``\r\n`` and
    lone ``\r``, line ends kept."""
    return list(io.StringIO(text, newline=""))


class _Rows:
    """The instances read so far, in one array per :class:`Dataset` column
    (``active``, ``values``, ``labels``), each grown in place
    (``ndarray.resize``, a ``realloc``) as chunks arrive, so the rows are
    never held twice. ``values`` stays None until a
    chunk has a ``:value`` token. ``out_of_range`` is the message of the
    first feature index out of its field's range; the reader raises it once
    every line has parsed, so a malformed line anywhere comes first."""

    def __init__(self, path: Path, schema: FieldSchema):
        self.path, self.cards = path, np.asarray(schema.cardinalities)
        self.active = np.empty((0, schema.n), dtype=np.int32)
        self.labels = np.empty(0, dtype=np.int8)
        self.values: np.ndarray | None = None
        self.out_of_range = ""

    def append(self, chunk: tuple[np.ndarray | None, ...]) -> None:
        active, values, labels, linenos = chunk
        if not self.out_of_range:
            bad = (active < 0) | (active >= self.cards)
            if bad.any():
                row, j = np.argwhere(bad)[0]
                self.out_of_range = f"{self.path}:{linenos[row]}: feature index {active[row, j]} out of range for field {j}"
        if values is not None and self.values is None:
            self.values = np.ones(self.active.shape)
        if self.values is not None:
            _extend(self.values, np.broadcast_to(1.0, active.shape) if values is None else values)
        _extend(self.active, active)
        _extend(self.labels, labels)


def _extend(arr: np.ndarray, rows: np.ndarray) -> None:
    """Append ``rows`` to ``arr`` in place, growing its first axis."""
    n_rows = len(arr)
    arr.resize((n_rows + len(rows), *arr.shape[1:]), refcheck=False)
    arr[n_rows:] = rows


def _parse_chunk(path: Path, n: int, chunk: np.ndarray, first: int) -> tuple[tuple[np.ndarray | None, ...], int]:
    """``(active, values, labels, linenos)`` of the instances in the bytes
    ``chunk``, whose first line is line ``first`` of the file, with
    ``values`` None when no token has a ``:value``, and the number of its
    lines. A chunk that is not canonical is decoded and parsed line by
    line; one that is not UTF-8 raises ``UnicodeDecodeError`` once the
    lines before its first undecodable byte have parsed."""
    parsed = _parse_canonical(chunk, n)
    if parsed is not None:
        return (*parsed, np.arange(first, first + len(parsed[2]))), len(parsed[2])
    raw = chunk.tobytes()
    try:
        lines = _text_lines(raw.decode())
    except UnicodeDecodeError as exc:
        before = raw[: exc.start]
        _parse_lines(path, n, _text_lines(before[: max(before.rfind(b"\n"), before.rfind(b"\r")) + 1].decode()), first)
        raise
    return _parse_lines(path, n, lines, first), len(lines)


def _parse_canonical(buf: np.ndarray, n: int) -> tuple[np.ndarray | None, ...] | None:
    """Parse the uint8 vector ``buf`` as arrays if it is in the form
    :func:`write_dataset` writes: ASCII, one instance per line, fields in
    order 0..n-1, single spaces, label, field and index pieces of at most 9
    digits, labels 0 or 1 and finite values. Return ``(active, values,
    labels)``, equal to what :func:`_parse_lines` returns for the same
    lines (``values`` None when no token has a ``:value``), or ``None`` if
    ``buf`` holds anything else, faults included."""
    if len(buf) >= 2**31 - 1:  # positions are int32
        return None
    if not len(buf) or buf[-1] != ord("\n"):
        buf = np.append(buf, np.uint8(ord("\n")))  # a last line without its newline
    cls = np.frombuffer(buf.tobytes().translate(_BYTE_CLASS), dtype=np.uint8)
    if not cls.all():
        return None
    # Pieces are the runs between delimiters; each ends at its delimiter.
    ends = np.flatnonzero(cls == 1).astype(np.int32)
    del cls
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    lengths = ends - starts
    if not lengths.all():  # blank line, doubled or edge space, '::'
        return None
    delim = buf[ends]
    # A word (label or token) ends at a space or newline: n + 1 to a line.
    last = np.flatnonzero(delim != ord(":"))
    rows, extra = divmod(len(last), n + 1)
    if extra:
        return None
    word_delim = delim[last].reshape(rows, n + 1)
    if not ((word_delim[:, :-1] == ord(" ")).all() and (word_delim[:, -1] == ord("\n")).all()):
        return None
    count = np.diff(last, prepend=-1).reshape(rows, n + 1)  # pieces per word
    if not ((count[:, 0] == 1).all() and ((count[:, 1:] == 2) | (count[:, 1:] == 3)).all()):
        return None
    head = (last - count.ravel() + 1).reshape(rows, n + 1)  # each word's first piece

    # Label, field and index pieces as columns [label | fields | indices],
    # read one digit position at a time from the piece's end.
    at = np.concatenate([head, head[:, 1:] + 1], axis=1)  # the pieces
    digit_lengths = lengths[at]
    if digit_lengths.max() > _MAX_DIGITS:
        return None
    at[:] = ends[at]  # then the byte after each, moved back a byte per place
    number = np.zeros(at.shape, dtype=np.int32)
    digit = np.empty(at.shape, dtype=np.uint8)
    for place in range(int(digit_lengths.max())):
        at -= 1
        buf.take(at, out=digit, mode="clip")
        digit -= ord("0")  # a non-digit wraps above 9
        digit *= digit_lengths > place
        if (digit > 9).any():
            return None
        number += digit * np.int32(10**place)
    del at, digit, digit_lengths
    labels, fields, active = number[:, 0], number[:, 1 : n + 1], number[:, n + 1 :]
    if (labels > 1).any() or (fields != np.arange(n)).any():
        return None

    # Values: the third piece of a token, read as float() reads it line by
    # line. Of the spellings float() reads from these bytes, only those with
    # a point lacking a digit on either side ('.5', '5.') are not _FLOAT's.
    dots = floatfmt.find_bytes(np.equal, buf, ord("."))
    if (buf[np.concatenate([dots - 1, dots + 1])] - ord("0") > 9).any():  # a non-digit wraps above 9
        return None
    has_value = np.flatnonzero(count[:, 1:].ravel() == 3)
    values = None
    if len(has_value):
        value_pieces = head[:, 1:].ravel()[has_value] + 2
        parsed = floatfmt.read_floats(buf, starts[value_pieces], ends[value_pieces], points=dots)
        if parsed is None:  # not a float, or not a finite one
            return None
        values = np.ones(rows * n, dtype=np.float64)
        values[has_value] = parsed
        values = values.reshape(rows, n)
    return np.ascontiguousarray(active), values, labels.astype(np.int8)


def _parse_lines(path: Path, n: int, lines: list[str], first: int) -> tuple[np.ndarray | None, ...]:
    """The line-by-line parser: ``(active, values, labels, linenos)`` of the
    instances in ``lines``, the first of which is line ``first`` of the
    file, with ``values`` None when no token has a ``:value``. It takes
    every form the reader accepts (fields in any order, blank lines, any
    whitespace and line end, the spellings of :data:`_INT` and
    :data:`_FLOAT`) and raises each ``path:line`` message but the range
    check's."""
    active_rows, labels, linenos = [], [], []
    value_at = {}  # (row, field) -> multiplier, for the tokens with a ':value'
    for lineno, line in enumerate(lines, start=first):
        toks = line.split()
        if not toks:
            continue
        if len(toks) != n + 1:
            raise DataError(f"{path}:{lineno}: expected {n} field tokens")
        act = np.empty(n, dtype=np.int32)
        fields = set()
        try:
            label = _int(toks[0])
            for tok in toks[1:]:
                pieces = tok.split(":")
                if len(pieces) not in (2, 3):
                    raise DataError(f"{path}:{lineno}: malformed token {tok!r}")
                j = _int(pieces[0])
                if not 0 <= j < n:
                    raise DataError(f"{path}:{lineno}: field index {j} out of range")
                fields.add(j)
                act[j] = _int(pieces[1])
                if len(pieces) == 3:
                    if not _FLOAT.fullmatch(pieces[2]):
                        raise ValueError(f"invalid value {pieces[2]!r}")
                    value = float(pieces[2])
                    if not math.isfinite(value):
                        raise DataError(f"{path}:{lineno}: non-finite value in {tok!r}")
                    value_at[len(labels), j] = value
        except (ValueError, OverflowError) as exc:
            raise DataError(f"{path}:{lineno}: bad token: {exc}") from exc
        if label not in (0, 1):
            raise DataError(f"{path}:{lineno}: label must be 0 or 1, got {label}")
        if len(fields) != n:
            raise DataError(f"{path}:{lineno}: every field must appear exactly once")
        labels.append(label)
        active_rows.append(act)
        linenos.append(lineno)
    values = None
    if value_at:
        values = np.ones((len(labels), n), dtype=np.float64)
        rows, fields = zip(*value_at)
        values[rows, fields] = list(value_at.values())
    return (
        np.array(active_rows, dtype=np.int32).reshape(-1, n),
        values,
        np.array(labels, dtype=np.int8),
        np.array(linenos, dtype=np.int64),
    )


def _int(piece: str) -> int:
    if not _INT.fullmatch(piece):
        raise ValueError(f"invalid integer {piece!r}")
    return int(piece)


# ---------------------------------------------------------------------------
# tabular CSV ingestion
# ---------------------------------------------------------------------------


def _numeric_column(raw: list[str]) -> np.ndarray | None:
    """The column's values as floats, NaN where empty; None when a non-empty
    value is not a number or every value is empty."""
    try:
        x = np.array([float(s) if s else math.nan for s in raw])
    except ValueError:
        return None
    return x if any(raw) else None


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
    one trailing unknown slot (local index ``m_j - 1``). The encoding is not
    kept, so a second file cannot be encoded to the same schema.

    Rows with an empty value in a numeric field are skipped; the count of
    skipped rows is exposed as ``dataset.skipped_rows``. A numeric value
    that is not finite (``nan``, ``inf``, or one too large for a float)
    raises :class:`DataError` naming its column and line.
    """
    if numeric_bins < 1:
        raise ConfigError(f"numeric_bins must be >= 1, got {numeric_bins}")
    path = Path(path)
    with open_text(path, DataError, "input file") as fh:
        reader = csv.DictReader(fh, delimiter=delimiter)
        if reader.fieldnames is None:
            raise DataError(f"{path}: empty file")
        missing = [c for c in [*field_columns, label_column] if c not in reader.fieldnames]
        if missing:
            raise DataError(f"{path}: missing columns {missing}")
        rows = [(reader.line_num, row) for row in reader]  # with the file line each row ends on
    if not rows:
        raise DataError(f"{path}: no data rows")

    columns = {c: [("" if row[c] is None else row[c].strip()) for _, row in rows] for c in field_columns}
    label_raw = [("" if row[label_column] is None else row[label_column].strip()) for _, row in rows]

    numeric = {c: _numeric_column(columns[c]) for c in field_columns}

    # rows unusable for any numeric field are dropped up front
    keep = np.ones(len(rows), dtype=bool)
    for c in field_columns:
        if numeric[c] is not None:
            keep &= np.asarray([s != "" for s in columns[c]])
    skipped = int((~keep).sum())
    if not keep.any():
        raise DataError(f"{path}: every row was unparsable")
    keep_idx = np.flatnonzero(keep)
    labels = _map_labels([label_raw[i] for i in keep_idx])

    cardinalities: list[int] = []
    encoded: list[np.ndarray] = []
    for c in field_columns:
        col = [columns[c][i] for i in keep_idx]
        if numeric[c] is not None:
            x = numeric[c][keep_idx]
            bad = np.flatnonzero(~np.isfinite(x))
            if len(bad):
                line = rows[keep_idx[bad[0]]][0]
                raise DataError(f"{path}:{line}: numeric column {c!r} holds a non-finite value {col[bad[0]]!r}")
            lo, hi = float(x.min()), float(x.max())
            # halving every value keeps a span wider than the float range finite
            half = 1.0 if math.isfinite(hi - lo) else 0.5
            xn = (x * half - lo * half) / (hi * half - lo * half) if hi > lo else np.zeros_like(x)
            bins = np.minimum((xn * numeric_bins).astype(np.int64), numeric_bins - 1)
            cardinalities.append(numeric_bins + 1)  # + unknown slot
            encoded.append(bins)
        else:
            vocab = sorted(v for v, cnt in Counter(col).items() if cnt >= min_count)
            index = {v: i for i, v in enumerate(vocab)}
            unk = len(vocab)
            cardinalities.append(len(vocab) + 1)
            encoded.append(np.asarray([index.get(s, unk) for s in col], dtype=np.int64))

    schema = build_schema(cardinalities)
    active = np.stack(encoded, axis=1).astype(np.int32)
    ds = Dataset(schema, active, labels=labels, provenance=str(path))
    ds.skipped_rows = skipped
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
