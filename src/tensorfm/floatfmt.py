"""Float64 arrays spelled exactly as Python's ``repr`` spells each float,
computed a whole array at a time.

``repr`` gives the shortest decimal string that reads back as the same
float, and of those the one nearest to it. For a float x = m * 2**e (m the
53-bit integer of its bits) in [2**-36, 2**46) that is not a power of two,
that string is found here with exact uint64 arithmetic:

- For p = 17 significant digits, ``k = 16 - e10`` (e10 the decimal
  exponent) lies in [3, 27], so 5**k fits in 64 bits, and ``F = -(k + e)``
  lies in [1, 61]. Then x * 10**k = m * 5**k / 2**F, whose floor q and
  remainder R come from one 128-bit product in two words.
- A decimal of 17 or fewer digits, v * 10**-k, reads back as x exactly when
  its distance from x * 10**k, in units of 2**-F, is at most (5**k - 1) / 2:
  half the gap 2**e between x and its neighbours, scaled by 10**k * 2**F.
  5**k is odd, so the distance never equals the bound. The 16- and
  15-digit roundings of x are q with its last one or two digits rounded
  off, so q and R decide all three lengths (:func:`_shortest`).
- If any string of 15 or fewer digits reads back, the rounded 15-digit
  string is that string padded with zeros, since the read-back interval is
  narrower than half a unit in the 15th digit. At 16 and 17 digits the
  nearest string reads back whenever any string of its length does, since
  the interval of a float that is not a power of two is symmetric. So the
  first of p = 15, 16 whose r reads back, else p = 17, is ``repr``'s
  string once its trailing zeros are stripped.

Exact zeros are spelled directly. ``repr`` itself spells every other float
(a power of two, a subnormal, one outside that range) and every float for
which some x * 10**k falls exactly halfway between two integers.

The text is built as bytes: each value's spelling and separator fill a
NUL-padded row of three uint64 words (four when a ``repr`` spelling needs
25 bytes), made from its digits and the template of its layout (decimal
exponent, digit count, sign and separator). :func:`spell_rows` returns
these rows, which the dataset writer lays into its lines, and
:func:`format_rows` packs them without their padding.

:func:`read_floats` is the inverse: it reads the tokens of a byte array a
whole array at a time, each to the float that ``float()`` reads from it.
A token ``[-]I.F`` of at most :data:`READ_BYTES` bytes, which covers every
decimal spelling ``repr`` writes, is read from the three text words that
end at its last byte:

- Each point is looked for after the token's first digit, and found by
  one byte compare over all the tokens' bytes unless every token has it
  there. Two table masks, gathered for a third of the tokens at a time
  into one scratch array, clear the bytes before the token and turn its
  digits into their values and its point into ``0``; every byte must be
  0-9. The three words are joined into the number X of their 24 digits,
  which must be below 10**19 to fit 64 bits, by multiply-and-shift lane
  joins (:func:`join8`). With
  k = len(F), X = I * 10**(k+1) + F, so the mantissa D = I * 10**k + F is
  X - 9 * 10**k * (X // 10**(k+1)).
- For D < 2**53 the float D / 10**k is exact (both operands are, and the
  division rounds once: Clinger's fast path). Otherwise the quotient x is
  within about two units in the last place of D * 10**-k, and it is moved
  to the float whose half-unit interval holds D * 10**-k by exact integer
  arithmetic (:func:`_nearest`), the writer's read-back test.
- Every other token (an exponent, a sign '+', a long or unusual spelling,
  or one that the arithmetic leaves undecided) is read by ``float()``, as
  the writer spells such values with ``repr``.
"""

from __future__ import annotations

import functools
import math
import re
from typing import Iterator

import numpy as np

# Values formatted per step; each scratch array of a step is a few hundred
# kB at most.
CHUNK_VALUES = 8192

_U = np.uint64
_ONE, _M32 = _U(1), _U(0xFFFF_FFFF)
_FRAC, _ABS = _U((1 << 52) - 1), _U((1 << 63) - 1)
_POW5 = np.array([5**k for k in range(28)], dtype=np.uint64)
_HALF5 = _POW5 >> _ONE  # (5**k - 1) / 2, the widest distance that still reads back
_E10_MIN, _E10_MAX = -11, 13  # the decimal exponents of [2**-36, 2**46)
_BIASED_MIN, _BIASED_END = 1023 - 36, 1023 + 46  # its biased binary exponents
_ZEROS8 = _U(0x3030_3030_3030_3030)  # "00000000"
# the magnitudes of [2**-36, 2**46) are _FAST_LOW + [0, _FAST_SPAN)
_FAST_LOW, _FAST_SPAN = _U(_BIASED_MIN << 52), _U((_BIASED_END - _BIASED_MIN) << 52)
_ONE_HALF = np.float64(1.5).view(np.uint64)

# Digit j of a value sits at byte 7 + j of its three-word digit row. A
# template puts the digits before the decimal point at byte shift + j
# (mask A) and those after it at byte shift + 1 + j (mask B).
_FIRST_DIGIT = 7
# Text words hold their first character in their lowest byte.
_TEXT_WORD = np.dtype("<u8")


def _spelling(e10: int, nd: int) -> list:
    """``repr``'s layout of the nd significant digits d_0 d_1 ... of a
    float with decimal exponent e10: digit j as the int j, any other
    character as itself."""
    digits = list(range(nd))
    if not -4 <= e10 < 16:
        return digits[:1] + (["."] + digits[1:] if nd > 1 else []) + ["e"] + list(f"{e10:+03d}")
    if e10 < 0:
        return ["0", "."] + ["0"] * (-e10 - 1) + digits
    return digits[: e10 + 1] + ["0"] * (e10 + 1 - nd) + ["."] + (digits[e10 + 1 :] or ["0"])


def _template(row: list) -> tuple[bytes, int]:
    """One layout's table entry: its constant bytes and the byte masks A and
    B of its digits, 24 bytes each, and the bit shift that moves the digit
    row into place."""
    offsets = [col - c for col, c in enumerate(row) if isinstance(c, int)]
    shift = min(offsets, default=0)
    assert set(offsets) <= {shift, shift + 1} and 0 <= shift < _FIRST_DIGIT and len(row) <= 24
    planes = [bytearray(24) for _ in range(3)]
    for col, c in enumerate(row):
        if isinstance(c, int):
            planes[1 + col - c - shift][col] = 0xFF  # A where col == shift + c, else B
        else:
            planes[0][col] = ord(c)
    return b"".join(planes), 8 * (_FIRST_DIGIT - shift)


@functools.cache
def _templates() -> np.ndarray:
    """Every layout's :func:`_template` as one row: nine text words (the
    constant bytes, mask A and mask B of each of the three words), then the
    shift. Row ``4 * s + 2 * negative + row_end`` holds spelling s,
    ``(e10 - _E10_MIN) * 17 + nd - 1`` for nd significant digits, and the
    last spelling (from row :data:`_ZERO`) is zero's. Built on first use
    and read-only."""
    spellings = [_spelling(e10, nd) for e10 in range(_E10_MIN, _E10_MAX + 1) for nd in range(1, 18)]
    spellings.append(["0", ".", "0"])
    signs, seps = ((), ("-",)), (" ", "\n")
    entries = [_template([*sign, *chars, sep]) for chars in spellings for sign in signs for sep in seps]
    words = np.frombuffer(b"".join(planes for planes, _ in entries), dtype=_TEXT_WORD).reshape(len(entries), 9)
    shifts = np.array([[shift] for _, shift in entries], dtype=np.uint64)
    table = np.hstack([words, shifts])
    table.flags.writeable = False
    return table


_ZERO = 4 * 17 * (_E10_MAX - _E10_MIN + 1)


def digits8(v: np.ndarray) -> np.ndarray:
    """The eight decimal digits of each uint64 v < 10**8 as the bytes of one
    uint64, most significant digit in the lowest byte: v is split into
    4-digit, then 2-digit, then 1-digit lanes by exact multiply-and-shift
    division, both lanes of a split at once. ``v`` is overwritten: it
    serves as scratch, with one more array of its size."""
    x = v // _U(10_000)
    v -= x * _U(10_000)
    v <<= _U(32)
    x |= v
    for multiplier, shift, mask, base, lane in _SPLITS:
        np.multiply(x, multiplier, out=v)
        v >>= shift
        v &= mask  # each lane's quotient by base
        x -= v * base
        x <<= lane
        x |= v
    return x


# (multiplier, shift, mask, base, lane bits) of the splits by 100 in each
# 32-bit lane and by 10 in each 16-bit lane
_SPLITS = [(_U(10_486), _U(20), _U(0x0000_007F_0000_007F), _U(100), _U(16)),
           (_U(103), _U(10), _U(0x000F_000F_000F_000F), _U(10), _U(8))]


def _product(m_low, m_high, biased, e10):
    """For 17 significant digits, k = 16 - e10 and F = -(k + e): the floor
    q and remainder R of m * 5**k / 2**F = x * 10**k, F and the read-back
    bound (5**k - 1) / 2. The 128-bit product m * 5**k is formed from
    32-bit limbs; every operand is uint64, so nothing is promoted to
    float."""
    f = _POW5.take(16 - e10)
    shift = (e10 + (1075 - 16)).view(np.uint64)
    shift -= biased
    f_low, f_high = f & _M32, f >> _U(32)
    low = m_low * f_low
    mid = m_low * f_high + m_high * f_low + (low >> _U(32))  # below 2**63 + 2**54
    lo = (mid << _U(32)) | (low & _M32)
    hi = m_high * f_high + (mid >> _U(32))
    q = (hi << (_U(64) - shift)) | (lo >> shift)
    return q, lo & ((_ONE << shift) - _ONE), shift, f >> _ONE


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For the bits of positive floats in [2**-36, 2**46) that are not
    powers of two: the shortest rounding that reads back, as 17 digits r
    with trailing zeros, its decimal exponent e10, and whether any of the
    roundings tried was an exact tie.

    One product gives the 17-digit floor q and remainder R, so x * 10**k
    is q + R / 2**F. Scaled by 10**k * 2**F, a 17-digit integer v below it
    is (q - v) * 2**F + R away and one above it (v - q) * 2**F - R, so v
    reads back exactly when q - ((H - R) >> F) <= v <= q + ((H + R) >> F),
    with H the bound. H and R are below 2**62, so these are exact in
    int64, and a negative H - R makes every v below q fail. The 16- and
    15-digit roundings are the multiples t and t + 10**s of 10**s (s = 1,
    2) around q; the nearer is t + 10**s when q - t + (R > 0) > 10**s / 2,
    and it reads back exactly when either does."""
    m = bits & _FRAC
    m |= _ONE << _U(52)
    m_low, m_high = m & _M32, m >> _U(32)
    biased = bits >> _U(52)
    e10 = np.floor(np.log10(bits.view(np.float64))).astype(np.int64)
    q, rem, shift, bound = _product(m_low, m_high, biased, e10)
    # log10 rounds up to the next integer just below some powers of ten:
    # the 17-digit floor must lie in [1e16, 1e17)
    if ((q - _U(10**16)) >= _U(9 * 10**16)).any():
        e10 += (q >= _U(10**17)).astype(np.int64) - (q < _U(10**16))
        q, rem, shift, bound = _product(m_low, m_high, biased, e10)
    half = _ONE << (shift - _ONE)
    tie = rem == half
    r = q + (rem > half)  # 17 digits, rounded to nearest
    q, rem, shift, bound = q.view(np.int64), rem.view(np.int64), shift.view(np.int64), bound.view(np.int64)
    least = q - ((bound - rem) >> shift)  # the 17-digit integers that read back
    most = q + ((bound + rem) >> shift)
    exact = rem == 0
    ahead = q + ~exact  # q, one more if R > 0
    for size in (10, 100):  # 16 digits, then 15, which wins where both read back
        t = q // size * size
        nearest = t + size * (ahead - t > size // 2)
        ok = t >= least
        ok |= t + size <= most
        r = np.where(ok, nearest.view(np.uint64), r)
    some = np.flatnonzero(exact)  # an exact tie at 16 or 15 digits needs R = 0
    tie[some] |= (q[some] % 10 == 5) | (q[some] % 100 == 50)
    carry = r == _U(10**17)  # rounded up to the next power of ten
    r[carry] = _U(10**16)
    e10 += carry
    return r, e10, tie


def spell_rows(x: np.ndarray, row_end: np.ndarray) -> np.ndarray:
    """The text of the floats ``x``, each followed by a newline where
    ``row_end`` (0 or 1) is set and by a space elsewhere, as one NUL-padded
    row of text words per value: (len(x), 3), or (len(x), 4) when a ``repr``
    spelling needs 25 bytes. The values are spelled :data:`CHUNK_VALUES` at
    a time."""
    starts = range(0, len(x), CHUNK_VALUES)
    pieces = [_spell_piece(x[lo : lo + CHUNK_VALUES], row_end[lo : lo + CHUNK_VALUES]) for lo in starts]
    if len(pieces) == 1:
        return pieces[0]
    text = np.zeros((len(x), max((piece.shape[1] for piece in pieces), default=3)), dtype=_TEXT_WORD)
    for lo, piece in zip(starts, pieces):
        text[lo : lo + len(piece), : piece.shape[1]] = piece
    return text


def _spell_piece(x: np.ndarray, row_end: np.ndarray) -> np.ndarray:
    """:func:`spell_rows` of at most :data:`CHUNK_VALUES` values."""
    bits = x.view(np.uint64)
    magnitude = bits & _ABS
    zero = magnitude == 0
    fast = (magnitude - _FAST_LOW) < _FAST_SPAN  # below the range the difference wraps
    fast &= (bits & _FRAC) != 0
    # every other value goes through the arithmetic as 1.5 and is replaced below
    r, e10, tie = _shortest(np.where(fast, magnitude, _ONE_HALF))

    # the digit row: digit 0 in byte 7 of word 0, digits 1..16 in words 1, 2
    high = r // _U(10**8)
    lead = high // _U(10**8)
    digits = np.empty((3, len(x)), dtype=np.uint64)
    np.subtract(high, lead * _U(10**8), out=digits[1])
    np.subtract(r, high * _U(10**8), out=digits[2])
    digits[1:] = digits8(digits[1:])
    # nd runs to the last nonzero digit, found by the exponent of its word
    # as a float (0 for none: its byte is then -1)
    in_last = digits[2] != 0
    top = np.where(in_last, digits[2], digits[1]).astype(np.float64).view(np.int64) >> 52
    layout = np.maximum(top - 1023, -8) >> 3  # the byte of the top set bit
    layout += np.where(in_last, 10, 2)  # nd
    lead |= _U(0x30)
    np.left_shift(lead, _U(56), out=digits[0])
    digits[1:] |= _ZEROS8

    layout += 17 * e10 - (_E10_MIN * 17 + 1)
    layout[zero] = _ZERO // 4
    layout <<= 2
    layout += (bits >> _U(62)).view(np.int64) & 2  # negative
    layout += row_end
    template = _templates().take(layout, axis=0)
    # each text word: the digit row moved down by `shift` bits under mask
    # A, and that moved up a byte under mask B, built a word at a time
    shift = template[:, 9].copy()
    spill = _U(64) - shift
    slow = np.flatnonzero(~(fast | zero) | tie)
    spelled = [repr(v) + " \n"[end] for v, end in zip(x[slow].tolist(), row_end[slow].tolist())]
    text = np.empty((len(x), 3 if max(map(len, spelled), default=0) <= 24 else 4), dtype=_TEXT_WORD)
    text[:, 3:] = 0
    carry = _U(0)
    for w in range(3):
        a = digits[w] >> shift
        if w < 2:
            a |= digits[w + 1] << spill
        b = a << _U(8)
        b |= carry
        carry = a >> _U(56)
        a &= template[:, 3 + w]
        b &= template[:, 6 + w]
        a |= b
        np.bitwise_or(a, template[:, w], out=text[:, w])
    if spelled:
        padded = "".join(s.ljust(8 * text.shape[1], "\0") for s in spelled).encode()
        text[slow] = np.frombuffer(padded, dtype=_TEXT_WORD).reshape(len(slow), -1)
    return text


def format_rows(arr: np.ndarray) -> Iterator[str]:
    """The text of a float64 array as one line per run along its last axis
    (a vector is one line): values separated by single spaces, every line
    ending in a newline and every float spelled as ``repr`` spells it.
    Yields the text :data:`CHUNK_VALUES` values at a time; a zero-width
    array is one blank line per row."""
    width = arr.shape[-1] if arr.ndim else 1
    if width == 0:
        yield "\n" * math.prod(arr.shape[:-1])
        return
    flat = np.ascontiguousarray(arr, dtype=np.float64).reshape(-1)
    for lo in range(0, flat.size, CHUNK_VALUES):
        chunk = flat[lo : lo + CHUNK_VALUES]
        row_end = np.zeros(len(chunk), dtype=np.intp)
        row_end[width - 1 - lo % width :: width] = 1
        yield _spell_piece(chunk, row_end).tobytes().translate(None, b"\0").decode("ascii")


# ---------------------------------------------------------------------------
# reading
# ---------------------------------------------------------------------------

# The bytes of a token the array reader reads: every decimal spelling repr
# writes (-4 <= e10 < 16) has at most 23, its sign included.
READ_BYTES = 24
_HIGH1 = _U(0x8080_8080_8080_8080)
_ABOVE9 = _U(0x7676_7676_7676_7676)  # added to a byte below 0x80, sets its top bit if it is above 9
# (multiplier, lane bits, mask) of the joins of 1-digit, 2-digit and
# 4-digit lanes: times base * 2**lane + 1, each lane's neighbour above it
# holds the pair's number, which the shift moves into the lane's place
_JOINS = [(_U(10 << 8 | 1), _U(8), _U(0x00FF_00FF_00FF_00FF)),
          (_U(100 << 16 | 1), _U(16), _U(0x0000_FFFF_0000_FFFF)), (_U(10_000 << 32 | 1), _U(32), _M32)]
_P10 = np.array([10**j for j in range(20)], dtype=np.uint64)
_P10_NEXT = _P10[1:]  # 10**(k+1) for k, up to 10**19, by which X // 10**(k+1) is 0
_NINE_P10 = _P10 * _U(9)  # wraps from 9 * 10**19 on, where X // 10**(k+1) is 0
_P10_FLOAT = np.array([float(10**j) for j in range(23)])  # the exact powers of ten
# What float() reads as the loadtxt behind the line-by-line model reader
# does (no '_', no whitespace, no inf or nan), for tokens joined by spaces.
# Each token matches one way only, so a refused one costs no backtracking
# through the tokens before it.
_DECIMAL = rb"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
_DECIMALS = re.compile(rb"(?:%s )*%s" % (_DECIMAL, _DECIMAL))


def join8(d: np.ndarray) -> np.ndarray:
    """The inverse of :func:`digits8`: for each uint64 whose bytes are
    eight digit values (0-9), most significant in the lowest byte, the
    number they spell. Adjacent 1-digit lanes are joined into 2-digit
    lanes, those into 4-digit and those into 8-digit ones, in place, by one
    multiply-and-shift each (Lemire's eight-digit parse)."""
    for multiplier, lane, mask in _JOINS:
        d *= multiplier
        d >>= lane
        d &= mask
    return d


def find_bytes(compare: np.ufunc, text: np.ndarray, byte: int, limit: int | None = None) -> np.ndarray:
    """The first ``limit`` (all if None) of ``np.flatnonzero(compare(text,
    byte))`` for the uint8 vector ``text``, found four bytes at a time when
    no four aligned bytes hold two matches, as in text whose tokens are
    three bytes or more: a fifth faster than a byte at a time. With a
    limit, the text is compared :data:`SCAN_BYTES` bytes per match wanted
    at a time (64 kB at least), stopping at the block that holds the last
    match wanted, and no position is built far past it, so the scratch
    grows with the limit and not with the text."""
    if limit is None:
        return _find_block(compare, text, byte, None)
    step = 4 * -(-max(SCAN_BYTES * limit, 1 << 16) // 4)
    found, total = [np.empty(0, dtype=np.intp)], 0
    for lo in range(0, len(text), step):
        at = _find_block(compare, text[lo : lo + step], byte, limit - total)
        at += lo
        found.append(at)
        total += len(at)
        if total == limit:
            break
    return found[-1] if len(found) == 2 else np.concatenate(found)


# Bytes of text that find_bytes compares at once per match it still wants.
SCAN_BYTES = 32
# Four-byte groups whose matches find_bytes counts at once, when a block
# holds more than it wants: at most 255, so a count fits the uint8 it sums.
_COUNT_GROUPS = 255


def _find_block(compare: np.ufunc, text: np.ndarray, byte: int, limit: int | None) -> np.ndarray:
    """:func:`find_bytes` of one block. When more than ``limit`` of its
    four-byte groups hold a match, positions are built only up to the run
    of :data:`_COUNT_GROUPS` groups that holds the ``limit``-th."""
    groups = -(-len(text) // 4)
    mask = np.empty(4 * groups, dtype=bool)
    mask[len(text) :] = False
    compare(text, byte, out=mask[: len(text)])
    words = mask.view("<u4")
    held = words != 0
    if limit is not None and np.count_nonzero(held) > limit:
        runs = np.add.reduceat(held.view(np.uint8), np.arange(0, groups, _COUNT_GROUPS), dtype=np.uint8)
        held = held[: (int(np.searchsorted(np.cumsum(runs, dtype=np.intp), limit)) + 1) * _COUNT_GROUPS]
    at = np.flatnonzero(held)
    searched = 4 * len(held)
    del held
    found = words[at]
    several = found - np.uint32(1)
    several &= found
    if several.any():  # some group holds two
        return np.flatnonzero(mask[:searched])[:limit]
    del several, words, mask
    at <<= 2
    at += found.astype(np.float32).view(np.int32) >> 26  # 15 + the match's byte in its group
    at -= 15
    return at[:limit]


# Bits of a token's size in its entry of the reader's masks.
_SIZE_BITS = 5
# Parts of the tokens whose masks read_floats gathers at a time.
_MASK_PARTS = 3


@functools.cache
def _masks() -> tuple[np.ndarray, np.ndarray]:
    """The masks of the reader's three-word window as 24-byte items,
    read-only, both indexed by ``k << _SIZE_BITS | n`` for a token of n
    bytes with k bytes after its point: that item of the first keeps the
    last n bytes, and that of the second, subtracted from those, turns each
    digit into its value and the point into 0."""
    keep = np.zeros((READ_BYTES, 1 << _SIZE_BITS, READ_BYTES), dtype=np.uint8)
    zeros = np.zeros_like(keep)
    for n in range(READ_BYTES + 1):
        keep[:, n, READ_BYTES - n :] = 0xFF
        zeros[:, n, READ_BYTES - n :] = ord("0")
        for k in range(n):
            zeros[k, n, READ_BYTES - 1 - k] = ord(".")
    tables = tuple(t.reshape(-1, READ_BYTES).view(f"V{READ_BYTES}")[:, 0] for t in (keep, zeros))
    for table in tables:
        table.flags.writeable = False
    return tables


def _nearest(x: np.ndarray, digits: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For positive normal floats x within about two units in the last
    place of digits * 10**-k (k <= 22), as a quotient of two correctly
    rounded operations is: the float nearest that decimal, and whether it
    was found. With x = m * 2**e and F = -(k + e), scaling by
    10**k * 2**F makes x the integer m * 5**k, the decimal digits * 2**F
    and the gap between floats 5**k; their difference delta is below
    2**53 in magnitude, so wrapping uint64 arithmetic gives it exactly.
    The answer is x moved by s = delta / 5**k rounded, in units in the last
    place. It is kept when the distance left, delta - s * 5**k, is at most
    (5**k - 1) / 2, below half a gap (the float quotient may round a
    distance of almost half a gap the wrong way), and when m - s stays in
    x's binade and is not its power of two, whose gap below is half as
    wide. No decimal lies halfway: that distance, 5**k / 2, is no integer.
    ``x`` and ``digits`` are overwritten: x with the answer."""
    bits = x.view(np.uint64)
    shift = (bits >> _U(52)).view(np.int64)
    shift += k
    np.subtract(1075, shift, out=shift)  # F
    found = shift.view(np.uint64) < _U(64)  # 0 <= F < 64
    digits <<= shift.view(np.uint64)
    del shift
    f = _POW5[k]
    m = bits & _FRAC
    m |= _ONE << _U(52)
    delta = np.subtract(np.multiply(m, f, out=m), digits, out=digits).view(np.int64)
    del m
    steps = delta / f
    np.rint(steps, out=steps)
    steps = steps.astype(np.int64)
    delta -= np.multiply(steps, f.view(np.int64), out=f.view(np.int64))
    del f
    found &= np.abs(delta, out=delta) <= _HALF5[k].view(np.int64)
    moved = np.bitwise_and(bits, _FRAC, out=delta.view(np.uint64)).view(np.int64)
    moved -= steps
    moved -= 1
    found &= moved.view(np.uint64) < _U(2**52 - 1)  # 2**52 < m - s < 2**53
    bits.view(np.int64)[:] -= steps
    return x, found


def read_floats(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray, out: np.ndarray | None = None,
                points: np.ndarray | None = None) -> np.ndarray | None:
    """The floats spelled by the tokens ``buf[starts[i]:ends[i]]`` of the
    uint8 array ``buf``, shorter than 2**31 bytes, in order, each bit for
    bit as ``float()`` reads it, written to the float64 vector ``out`` (a
    new one if None) and returned; None if a token is not the decimal
    spelling of a finite float. A caller
    that has found the positions of the ``'.'`` bytes from the first token
    to the last passes them as ``points``. A token whose last
    :data:`READ_BYTES` bytes would start before ``buf`` is read by
    ``float()``. The scratch is about 41 bytes a token."""
    if len(buf) < READ_BYTES:  # too short for one window: read it padded
        pad = np.zeros(READ_BYTES, dtype=np.uint8)
        points = None if points is None else points + READ_BYTES
        return read_floats(np.concatenate([pad, buf]), starts + READ_BYTES, ends + READ_BYTES, out, points)
    count = len(ends)
    if out is None:
        out = np.empty(count)
    if not count:
        return out
    negative = buf[starts] == ord("-")

    # k, the bytes after the point. Each token's point is first looked for
    # after its first digit, where a value below 10 in magnitude has it;
    # unless every token has it there, one byte compare finds the points,
    # and the i-th is token i's when there are as many as tokens, else each
    # token takes the last before its end. A point outside its token fails
    # the test of k, and a second one in it the digit test.
    first = int(starts[0])
    if points is None:
        points = starts + 1
        points += negative
        if not (buf.take(points, mode="clip") == ord(".")).all():
            points = find_bytes(np.equal, buf[first : ends[-1]], ord("."))
            points += first
    if len(points) != count:
        points = np.concatenate([[first - READ_BYTES], points])  # before every token: k too large
        points = points[np.searchsorted(points, ends) - 1]
    k = np.subtract(ends, points, dtype=np.int32)
    del points
    k -= 1
    size = np.subtract(ends, starts, dtype=np.int32)
    size -= negative  # the token's bytes after its sign
    fast = size <= READ_BYTES
    fast &= ends >= READ_BYTES
    fast &= k >= 1
    fast &= k <= size - 2  # a digit on either side of the point
    entry = np.left_shift(k, _SIZE_BITS, out=k)  # each token's mask entry, in k's place
    entry |= size
    del k, size

    # the window of each token's last READ_BYTES bytes as three text words;
    # the masks make it the token's digit values, with the bytes before
    # the token and the point 0
    at = np.subtract(ends, READ_BYTES, dtype=np.intp)
    np.maximum(at, 0, out=at)
    windows = np.ndarray((len(buf) - READ_BYTES + 1,), f"V{READ_BYTES}", buffer=buf, strides=(1,))
    words = windows[at].view(_TEXT_WORD).reshape(-1, 3)
    del at
    keep, zeros = _masks()
    work = np.empty((-(-count // _MASK_PARTS), 3), dtype=np.uint64)  # the masks, then scratch, of a part
    for lo in range(0, count, len(work)):
        part, row = words[lo : lo + len(work)], entry[lo : lo + len(work)]
        scratch = work[: len(part)]
        masks = scratch.view(f"V{READ_BYTES}").reshape(-1)
        part &= keep.take(row, mode="clip", out=masks).view(_TEXT_WORD).reshape(-1, 3)
        part -= zeros.take(row, mode="clip", out=masks).view(_TEXT_WORD).reshape(-1, 3)
        np.add(part, _ABOVE9, out=scratch)  # the lowest byte that is not a digit keeps its top bit here
        scratch |= part
        scratch &= _HIGH1
        scratch[:, 0] |= scratch[:, 1]
        scratch[:, 0] |= scratch[:, 2]
        fast[lo : lo + len(part)] &= scratch[:, 0] == 0
    del work, part, row, scratch, masks
    k = np.right_shift(entry, _SIZE_BITS, out=entry)
    del entry

    # X, the number of the 24 digits: X = I * 10**(k+1) + F for the digits
    # I before the point and F after it, so D = I * 10**k + F is
    # X - 9 * 10**k * (X // 10**(k+1))
    join8(words)
    fast &= words[:, 0] < _U(1000)  # X < 10**19 < 2**64
    digits = words[:, 0] * _U(10**16)
    words[:, 1] *= _U(10**8)
    digits += words[:, 1]
    digits += words[:, 2]
    del words
    scale, nines = np.empty((2, count), dtype=np.uint64)
    np.floor_divide(digits, _P10_NEXT.take(k, mode="clip", out=scale), out=scale)
    scale *= _NINE_P10.take(k, mode="clip", out=nines)
    digits -= scale

    np.divide(digits, _P10_FLOAT.take(k, mode="clip", out=scale.view(np.float64)), out=out)
    del scale, nines
    check = np.flatnonzero(fast & (digits >= _U(2**53)))
    near = out[check], digits[check], k[check]
    del digits, k  # before _nearest's scratch
    out[check], fast[check] = _nearest(*near)
    del near
    sign = out.view(np.uint64)
    sign |= np.left_shift(negative, _U(63), dtype=np.uint64)
    slow = np.flatnonzero(~fast)
    if len(slow):
        tokens = [buf[lo:hi].tobytes() for lo, hi in zip(starts[slow].tolist(), ends[slow].tolist())]
        if not _DECIMALS.fullmatch(b" ".join(tokens)):
            return None
        out[slow] = list(map(float, tokens))
        if not np.isfinite(out[slow]).all():
            return None
    return out
