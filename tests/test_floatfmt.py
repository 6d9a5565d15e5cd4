"""The model-file float writer: every block it writes equals the block
written a row at a time with ``repr``, byte for byte. Covered: random
arrays of every block shape (vectors, matrices, zero-width rows and Tucker
cores) with rows split across chunks; a million random bit patterns; the
neighbours of the array path's domain boundaries, of every power of ten
from 1e-12 to 1e15, of 1e-4 and of 1e16; the powers of two from 2**-40 to
2**50; exact decimals halfway between two strings of 15, 16 or 17 digits;
signed zeros, subnormals and the largest float."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tensorfm import floatfmt
from tensorfm.params import _write_block

from oracles import model_block_text_oracle

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
