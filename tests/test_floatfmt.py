"""The model-file float writer: every block it writes equals the block
written a row at a time with ``repr``, byte for byte. Covered: random
arrays of every block shape (vectors, matrices, zero-width rows and Tucker
cores) with rows split across chunks; a million random bit patterns; the
neighbours of the array path's domain boundaries, of every power of ten
from 1e-12 to 1e15, of 1e-4 and of 1e16; the powers of two from 2**-40 to
2**50; exact decimals halfway between two strings of 15, 16 or 17 digits;
signed zeros, subnormals and the largest float. Its one-product rounding
gives the digits, exponents and tie flags of one product per length
(``tests/oracles.py``) on random bit patterns and on decimals of 14 to 16
significant digits, which reach the ties and near-ties of 15 and 16.

The reader, ``read_floats``: every token is read with the bits ``float()``
reads from it. Covered: the ``repr`` spellings of the writer's cases above;
random decimals of up to 40 digits; decimals exactly halfway between two
floats, which round to even; the spellings a model file may hold beside
``repr``'s; and tokens that are not finite floats, which it refuses."""

import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tensorfm import floatfmt
from tensorfm.params import _write_block

from oracles import model_block_text_oracle, shortest_three_products_oracle

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def assert_written_as_repr(arr):
    fh = io.StringIO()
    _write_block(fh, "b", arr)
    want = model_block_text_oracle("b", arr)
    if fh.getvalue() != want:
        got_tokens, want_tokens = fh.getvalue().split(), want.split()
        wrong = [(g, w) for g, w in zip(got_tokens, want_tokens) if g != w][:5]
        pytest.fail(f"written text differs from repr: {wrong or 'in the separators'}")


def neighbours(values, count=3):
    """Each value and its ``count`` nearest floats on either side, both signs."""
    out = np.asarray(values, dtype=np.float64)
    below = above = out
    with np.errstate(over="ignore"):  # past the largest float is inf, dropped below
        for _ in range(count):
            below, above = np.nextafter(below, -np.inf), np.nextafter(above, np.inf)
            out = np.concatenate([out, below, above])
    out = out[np.isfinite(out)]
    return np.concatenate([out, -out])


def exact_ties(rng, digits, per_split=40):
    """Doubles whose exact decimal expansion has ``digits`` significant
    digits and ends in 5: halfway between two strings of ``digits - 1``
    digits. Each is an integer part plus an odd multiple of 2**-j, whose j
    decimal places end in 5."""
    out = []
    for j in range(1, digits):
        lo, hi = 10 ** (digits - j - 1), min(10 ** (digits - j), 2 ** (53 - j))
        if lo >= hi:
            continue
        for _ in range(per_split):
            whole, odd = int(rng.integers(lo, hi)), 2 * int(rng.integers(0, 2 ** (j - 1))) + 1
            out.append((whole * 2**j + odd) / 2**j)
    return np.array(out)


SHAPES = st.one_of(
    hnp.array_shapes(min_dims=1, max_dims=2, min_side=1, max_side=40),
    st.tuples(st.integers(1, 4), st.just(0)),  # zero-width rows
    st.integers(1, 4).flatmap(lambda r: st.sampled_from([(r,) * 2, (r,) * 3, (r,) * 4])),  # Tucker cores
)
FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-1.0, 1.0, allow_nan=False),
    st.sampled_from([0.0, -0.0, 5e-324, 1e-4, 1e16, 2.0**-36, 2.0**46, 0.5, 1.7976931348623157e308]),
)


@PROPERTY
@given(hnp.arrays(np.float64, SHAPES, elements=FLOATS), st.sampled_from([1, 7, floatfmt.CHUNK_VALUES]))
def test_random_arrays_are_written_as_repr(arr, chunk):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(floatfmt, "CHUNK_VALUES", chunk)  # rows that straddle chunks
        assert_written_as_repr(arr)


def test_random_bit_patterns_are_written_as_repr():
    rng = np.random.default_rng(20)
    anywhere = rng.integers(0, 2**64 - 1, 250_000, dtype=np.uint64, endpoint=True)
    # the rest with a binary exponent in or next to the array path's range
    n = 750_000
    biased = rng.integers(1023 - 40, 1023 + 50, n).astype(np.uint64)
    near = (rng.integers(0, 2**53, n, dtype=np.uint64) & np.uint64(2**52 - 1)) | (biased << np.uint64(52))
    near |= rng.integers(0, 2, n).astype(np.uint64) << np.uint64(63)
    assert_written_as_repr(np.concatenate([anywhere, near]).view(np.float64).reshape(-1, 8))


def test_boundaries_and_powers_of_ten_are_written_as_repr():
    edges = [2.0**-36, 2.0**46, 1e-4, 1e16] + [float(f"1e{j}") for j in range(-12, 16)]
    assert_written_as_repr(neighbours(edges))


def test_powers_of_two_are_written_as_repr():
    assert_written_as_repr(neighbours([2.0**j for j in range(-40, 51)], count=1))


@pytest.mark.parametrize("digits", [16, 17, 18])
def test_exact_ties_are_written_as_repr(digits):
    ties = exact_ties(np.random.default_rng(digits), digits)
    assert len(ties) > 400
    assert_written_as_repr(np.concatenate([ties, -ties]))


def test_zeros_subnormals_and_extremes_are_written_as_repr():
    special = [0.0, -0.0, 5e-324, 1e-320, 2.2250738585072014e-308, 2.225073858507201e-308,
               1.7976931348623157e308, 1e300, 1e100, 1e-100, 123456789012345680.0]  # fmt: skip
    assert_written_as_repr(neighbours(special, count=1))


@pytest.mark.parametrize("shape", [(0,), (3, 0), (2, 2, 0), ()])
def test_empty_rows_and_scalars(shape):
    arr = np.full(shape, 0.25)
    assert_written_as_repr(arr)


# The bits of [2**-36, 2**46), where _shortest does the arithmetic; it
# takes no power of two.
LOW_BITS, HIGH_BITS = int(np.float64(2.0**-36).view(np.uint64)), int(np.float64(2.0**46).view(np.uint64))


def assert_shortest_as_oracle(values):
    bits = np.abs(np.asarray(values, dtype=np.float64)).view(np.uint64)
    bits = bits[(bits >= LOW_BITS) & (bits < HIGH_BITS) & ((bits & np.uint64(2**52 - 1)) != 0)]
    got, want = floatfmt._shortest(bits), shortest_three_products_oracle(bits)
    for name, g, w in zip(("digits", "e10", "tie"), got, want):
        wrong = np.flatnonzero(g != w)
        assert not len(wrong), f"{name} differs for {bits[wrong[:5]].view(np.float64).tolist()}"


def rounded_decimals(rng, count):
    """Normal values spelled with 14, 15 or 16 significant digits and read
    back: floats at or near the ties of 15 and 16 digits."""
    values = rng.normal(size=count) * 10.0 ** rng.integers(-11, 14, count)
    return np.array([float(f"{v:.{p}e}") for v, p in zip(values.tolist(), rng.integers(13, 16, count).tolist())])


@PROPERTY
@given(st.lists(st.integers(LOW_BITS, HIGH_BITS - 1), min_size=1, max_size=200),
       st.lists(st.tuples(st.integers(10**13, 10**16 - 1), st.integers(-26, 0)), min_size=1, max_size=200))
def test_one_product_rounds_as_three(patterns, decimals):
    # decimals of 14 to 16 significant digits, each read as a float
    decimal_values = [float(f"{digits}e{exp}") for digits, exp in decimals]
    assert_shortest_as_oracle(np.concatenate([np.array(patterns, dtype=np.uint64).view(np.float64), decimal_values]))


def test_one_product_rounds_as_three_on_many_values():
    rng = np.random.default_rng(25)
    patterns = rng.integers(LOW_BITS, HIGH_BITS, 200_000, dtype=np.uint64).view(np.float64)
    scaled = np.concatenate([rng.normal(size=50_000) * scale for scale in (1e-5, 0.01, 1.0)])
    places = np.concatenate([rng.normal(size=50_000).round(3), rng.normal(size=50_000).round(7)])
    ties = np.concatenate([exact_ties(rng, digits) for digits in (16, 17, 18)])
    assert_shortest_as_oracle(np.concatenate([patterns, scaled, places, ties, rounded_decimals(rng, 60_000)]))


def read_tokens(tokens):
    """``read_floats`` of the tokens, joined by single spaces."""
    buf = np.frombuffer(" ".join(tokens).encode() + b"\n", dtype=np.uint8)
    ends = np.flatnonzero(buf <= ord(" "))
    return floatfmt.read_floats(buf, np.concatenate([[0], ends[:-1] + 1]), ends)


def assert_read_as_float(tokens):
    got = read_tokens(tokens)
    assert got is not None, "a token was refused"
    want = np.array([float(t) for t in tokens])
    wrong = np.flatnonzero(got.view(np.uint64) != want.view(np.uint64))
    assert not len(wrong), f"read differently from float(): {[(tokens[i], got[i]) for i in wrong[:5]]}"


def test_repr_spellings_are_read_as_float():
    rng = np.random.default_rng(21)
    bits = rng.integers(0, 2**64 - 1, 100_000, dtype=np.uint64, endpoint=True)
    biased = rng.integers(1023 - 40, 1023 + 60, 100_000).astype(np.uint64)
    near = (rng.integers(0, 2**52, 100_000, dtype=np.uint64)) | (biased << np.uint64(52))
    edges = [2.0**-36, 2.0**46, 1e-4, 1e16, 2.0**53] + [float(f"1e{j}") for j in range(-12, 23)]
    special = [0.0, 5e-324, 1e-320, 2.2250738585072014e-308, 1.7976931348623157e308, 1e-05, 1e16]
    values = np.concatenate([bits.view(np.float64), near.view(np.float64), neighbours(edges),
                             neighbours([2.0**j for j in range(-40, 60)], count=1), neighbours(special, count=1),
                             np.random.default_rng(22).normal(0.0, 0.1, 50_000)])
    assert_read_as_float([repr(v) for v in values[np.isfinite(values)].tolist()])


@PROPERTY
@given(st.lists(st.from_regex(r"-?[0-9]{1,20}\.[0-9]{1,22}", fullmatch=True), min_size=1, max_size=200))
def test_random_decimals_are_read_as_float(tokens):
    assert_read_as_float(tokens)


def test_decimals_halfway_between_floats_round_to_even():
    rng = np.random.default_rng(23)
    whole = rng.integers(2**52, 2**53, 2_000, dtype=np.int64).tolist()
    # halfway between floats one apart, and between floats two apart
    tokens = [f"{m}.5" for m in whole] + [f"{2 * m + 1}.0" for m in whole]
    eighths = [(2 * m + 1) * 125 for m in whole]  # halfway between floats 2**-2 apart, in three decimal places
    tokens += [f"{q // 1000}.{q % 1000:03d}" for q in eighths]
    assert_read_as_float(tokens + ["-" + t for t in tokens])


def test_other_spellings_are_read_as_float():
    assert_read_as_float(["1e-3", "+1.5", "1.", ".5", "1E5", "0.10", "-0.0", "00.5", "7", "-12", "1.5e+300",
                          "123456789012345678901234567890.5", "0." + "0" * 30 + "1", "9007199254740993.0"])


@pytest.mark.parametrize("token", ["abc", "1_0.5", "nan", "inf", "-inf", "1e999", "", "-", "1.2.3", "0x1p3",
                                   "1e", "++1", "0.5\x00", "\u00bd"])
def test_tokens_that_are_not_finite_floats_are_refused(token):
    assert read_tokens(["0.25", token, "0.5"]) is None


TOKEN_TEXT = st.lists(st.sampled_from(["0.5", "-12.25", "3.0", "1e-05", "7", ".5", ""]), max_size=80).map(
    lambda tokens: " ".join(tokens).replace("  ", "\n").encode())


@PROPERTY
@given(st.one_of(st.binary(max_size=300), TOKEN_TEXT), st.integers(0, 7), st.sampled_from([None, 1, 3, 40]))
def test_find_bytes_finds_what_flatnonzero_finds(raw, offset, limit):
    text = np.frombuffer(raw, dtype=np.uint8)[offset:]
    for compare, byte in ((np.less_equal, ord(" ")), (np.equal, ord("."))):
        want = np.flatnonzero(compare(text, byte))[:limit]
        assert np.array_equal(floatfmt.find_bytes(compare, text, byte, limit), want)


def test_find_bytes_scratch_grows_with_its_limit_not_with_the_text():
    text = np.frombuffer(b"0.0 " * 1_000_000, dtype=np.uint8)  # 4 MB, a match every four bytes
    for limit in (16, 4096, 20_000):
        tracemalloc.start()
        try:
            found = floatfmt.find_bytes(np.less_equal, text, ord(" "), limit)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(found, np.arange(3, 4 * limit, 4))
        # building every position first held 8 MB here, and a compare of the whole text 4 MB
        assert peak <= 0.15e6 + 64 * limit, f"limit {limit}: peak {peak / 1e6:.2f} MB"


def test_a_refused_token_after_many_read_by_float_is_refused_at_once():
    # tokens that float() reads, each of which a looser pattern could split
    # several ways, before one it refuses
    assert read_tokens(["12345"] * 60 + ["1e-3"] * 60 + ["nan"]) is None


def test_tokens_near_the_start_of_the_buffer():
    assert_read_as_float(["0.5"])  # a buffer shorter than a window
    assert_read_as_float(["12345.678", "0.25", "3.0"])  # windows that would start before the buffer
