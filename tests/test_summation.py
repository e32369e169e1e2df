import math
import struct
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trigconv import summation
from trigconv.summation import exact_sum, suffix_sums

from _oracles import exact_complex_sum


def test_exact_sum_matches_fsum():
    rng = np.random.default_rng(0)
    vals = rng.standard_normal(10_000) * 10.0 ** rng.integers(-8, 8, 10_000)
    assert exact_sum(vals) == math.fsum(vals)


def test_exact_complex_sum_componentwise():
    rng = np.random.default_rng(1)
    vals = rng.standard_normal(500) + 1j * rng.standard_normal(500)
    s = exact_complex_sum(vals)
    assert s.real == math.fsum(vals.real)
    assert s.imag == math.fsum(vals.imag)


def test_suffix_sums_against_fsum_oracle():
    rng = np.random.default_rng(2)
    vals = rng.standard_normal(9_999) * np.logspace(-6, 6, 9_999)
    suf = suffix_sums(vals)
    # spot-check positions against independent fsum of the tail
    for i in (0, 1, 4095, 4096, 4097, 8191, 9_998):
        oracle = math.fsum(vals[i:])
        assert abs(suf[i] - oracle) <= 1e-12 * max(1.0, abs(oracle))


def test_suffix_sums_zero_tail_is_exact():
    # positions past the last nonzero must come out exactly 0, and the
    # cross-chunk offsets must not smear anything into them
    vals = np.zeros(10_000)
    vals[:3_000] = np.random.default_rng(3).standard_normal(3_000)
    suf = suffix_sums(vals)
    assert np.all(suf[3_000:] == 0.0)


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=300))
def test_suffix_sums_first_is_total(xs):
    vals = np.asarray(xs)
    assert abs(suffix_sums(vals)[0] - math.fsum(xs)) <= \
        1e-9 * max(1.0, abs(math.fsum(xs)))


def test_empty_inputs():
    assert exact_sum(np.array([])) == 0.0
    assert suffix_sums(np.array([])).shape == (0,)
    assert suffix_sums(np.array([2.5]))[0] == 2.5


# --- the buffer path equals fsum over a Python list, bit for bit ------------

def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


_TERMS = st.lists(
    st.one_of(st.floats(-1e300, 1e300),
              st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e300,
                               -1e300, 1.0, -1.0])),
    max_size=200)
_STRIDE = st.integers(1, 4)


@given(_TERMS, _STRIDE, st.integers(0, 3))
def test_exact_sum_is_fsum_of_the_list(xs, step, start):
    arr = np.asarray(xs, dtype=float)[start::step]
    assert _bits(exact_sum(arr)) == _bits(math.fsum(arr.tolist()))


@given(_TERMS, _TERMS, _STRIDE)
def test_exact_complex_sum_is_fsum_of_each_part(re, im, step):
    n = min(len(re), len(im))
    z = (np.asarray(re[:n], dtype=float)
         + 1j * np.asarray(im[:n], dtype=float))[::step]
    s = exact_complex_sum(z)
    assert _bits(s.real) == _bits(math.fsum(z.real.tolist()))
    assert _bits(s.imag) == _bits(math.fsum(z.imag.tolist()))


@pytest.mark.parametrize("zeros", [np.zeros(7), -np.zeros(7),
                                   np.array([0.0, -0.0, 0.0])])
def test_exact_sum_of_zeros(zeros):
    assert _bits(exact_sum(zeros)) == _bits(math.fsum(zeros.tolist()))
    assert _bits(exact_sum(zeros[::2])) == _bits(math.fsum(zeros[::2].tolist()))


# --- the error bound stated in suffix_sums' docstring -----------------------

_U = Fraction(1, 1 << 53)


def _check_suffix_bound(vals: np.ndarray, chunk: int) -> None:
    """|s[i] - S_i| <= gamma_chunk * A_i in exact rational arithmetic, with
    S_i and A_i the exact sums of values[i:] and of their magnitudes."""
    with mock.patch.object(summation, "_CHUNK", chunk):
        got = suffix_sums(vals)
    gamma = chunk * _U / (1 - chunk * _U)
    S = A = Fraction(0)
    for i in range(vals.shape[0] - 1, -1, -1):
        x = Fraction(float(vals[i]))
        S, A = S + x, A + abs(x)
        assert abs(Fraction(float(got[i])) - S) <= gamma * A, i


_MAGNITUDES = st.sampled_from([0.0, 5e-324, 2.5e-320, 1e-300, 1e-8, 1.0,
                               1.0 / 3.0, 1e8, 1e300])


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(_MAGNITUDES, st.floats(0.5, 2.0), st.booleans()),
                min_size=1, max_size=120),
       st.sampled_from([3, 4, 7, 64, 4096]), st.booleans())
def test_suffix_sums_meets_its_error_bound(terms, chunk, signed):
    vals = np.array([m * f * (-1.0 if signed and neg else 1.0)
                     for m, f, neg in terms])
    _check_suffix_bound(vals, chunk)


@pytest.mark.parametrize("chunk", [3, 64, 4096])
def test_suffix_sums_bound_for_a_huge_head_and_tiny_tail(chunk):
    # every tiny term is lost next to 1e300 in the recursive sums; the
    # suffixes that start past the head must still be resolved
    vals = np.concatenate([[1e300], np.full(5000, 1e-300),
                           np.full(3000, 5e-324)])
    _check_suffix_bound(vals, chunk)
    got = suffix_sums(vals)
    assert got[1] == pytest.approx(math.fsum(vals[1:]), rel=5e-13)
    assert got[0] == 1e300


# --- the extraction kernel equals math.fsum, bit for bit ---------------------
#
# _T, _ROW, _BLOCK and _CHUNK are patched down so that a few dozen values
# make several rows, several blocks, a ragged last row and several levels
# of extraction.

def _outcome(fn, *args):
    """The bytes of fn's float or array result, or the type it raised."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            got = fn(*args)
    except (OverflowError, ValueError) as exc:
        return type(exc)
    return np.asarray(got, dtype=float).tobytes()


def _fsum_of_list(arr: np.ndarray) -> float:
    return math.fsum(arr.tolist())


_EDGE = 2.0 ** 900
_KERNEL_TERMS = st.lists(st.one_of(
    # full 53-bit mantissas over a range of scales: several levels per row
    st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-80, 80)),
    # below 2^-900: the remainder that joins the parts
    st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-1074, -901)),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0 ** -900, 1.0, -1.0,
                     _EDGE, -_EDGE, math.nextafter(_EDGE, 0.0),
                     math.nextafter(_EDGE, math.inf), 1.7e308, -1.7e308]),
), max_size=60)
_SPECIAL = st.lists(st.sampled_from([math.nan, math.inf, -math.inf]),
                    max_size=2)
_SIZES = st.fixed_dictionaries({
    "_T": st.integers(1, 8), "_ROW": st.integers(1, 9),
    "_CHUNK": st.integers(1, 9), "_BLOCK": st.integers(1, 30)})


@settings(max_examples=150, deadline=None)
@given(_KERNEL_TERMS, _SPECIAL, st.randoms(use_true_random=False), _SIZES)
def test_kernel_is_fsum_bit_for_bit(xs, special, rnd, sizes):
    xs = xs + special
    rnd.shuffle(xs)
    arr = np.asarray(xs, dtype=float)
    with mock.patch.multiple(summation, **sizes):
        got = _outcome(exact_sum, arr)
    assert got == _outcome(_fsum_of_list, arr)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.builds(math.ldexp, st.floats(-1.0, 1.0),
                          st.integers(-80, 80)), max_size=30),
       st.lists(st.builds(math.ldexp, st.floats(-1.0, 1.0),
                          st.integers(-1074, -901)), min_size=1, max_size=4),
       st.randoms(use_true_random=False), _SIZES)
def test_kernel_keeps_the_remainder_that_survives_cancellation(big, tiny, rnd,
                                                               sizes):
    # the order-1 values cancel exactly: the sum is the tiny values' sum,
    # all of it in the remainder below 2^-900
    xs = big + [-x for x in big] + tiny
    rnd.shuffle(xs)
    arr = np.asarray(xs, dtype=float)
    with mock.patch.multiple(summation, **sizes):
        got = exact_sum(arr)
    assert _bits(got) == _bits(math.fsum(xs))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(0.875, 1.0, exclude_max=True), min_size=4,
                max_size=60),
       st.integers(-60, 60), st.booleans(), _SIZES)
def test_kernel_on_a_run_of_values_near_the_row_maximum(fracs, exp, negative,
                                                         sizes):
    # many values of one sign just below 2^e fill the row sum up to sigma,
    # the edge of the lemma's bound
    sign = -1.0 if negative else 1.0
    xs = [sign * math.ldexp(f, exp) for f in fracs]
    arr = np.asarray(xs, dtype=float)
    with mock.patch.multiple(summation, **sizes):
        got = exact_sum(arr)
    assert _bits(got) == _bits(math.fsum(xs))


@pytest.mark.parametrize("xs", [
    [1.7e308, 1.7e308],                    # past the float range
    [1.0] * 5 + [1.7e308, 1.7e308],
    [_EDGE] * 7 + [1.7e308] * 2,
])
def test_kernel_keeps_the_overflow_error(xs):
    with mock.patch.multiple(summation, _T=2, _ROW=3, _BLOCK=6):
        with pytest.raises(OverflowError):
            exact_sum(np.asarray(xs))


def test_kernel_reaches_several_levels_and_the_remainder():
    # 1/k^2 keeps 53 bits in every row; the 2^-950 values stay below the
    # peeling floor and join the parts as the remainder
    k = np.arange(1, 301, dtype=float)
    vals = 1.0 / k ** 2
    vals[::7] = 2.0 ** -950 * k[::7]
    with mock.patch.multiple(summation, _T=4, _ROW=16, _BLOCK=40):
        parts = summation._peel(vals, 16)
        got = exact_sum(vals)
    assert max(len(p) for p in parts) >= 3
    assert any(0.0 < abs(v) < 2.0 ** -900 for p in parts for v in p)
    assert _bits(got) == _bits(math.fsum(vals.tolist()))


@pytest.mark.parametrize("vals", [np.zeros(40), -np.zeros(40),
                                  np.full(40, 2.0 ** -1000)])
def test_kernel_declines_input_without_a_value_in_range(vals):
    assert summation._peel(vals, 4) is None
    with mock.patch.multiple(summation, _T=2, _ROW=4, _BLOCK=8):
        assert _bits(exact_sum(vals)) == _bits(math.fsum(vals.tolist()))


def _suffix_sums_chunk_by_chunk(vals: np.ndarray, chunk: int) -> np.ndarray:
    """suffix_sums as computed before the extraction kernel: math.fsum per
    chunk, math.fsum per suffix of chunk sums, one cumsum per chunk."""
    n = vals.shape[0]
    out = np.empty(n)
    starts = list(range(0, n, chunk))
    sums = [math.fsum(vals[s:s + chunk].tolist()) for s in starts]
    for idx, s in enumerate(starts):
        within = np.cumsum(vals[s:s + chunk][::-1])[::-1]
        out[s:s + chunk] = within + math.fsum(sums[idx + 1:])
    return out


@settings(max_examples=100, deadline=None)
@given(_KERNEL_TERMS, _SPECIAL, st.randoms(use_true_random=False), _SIZES)
def test_suffix_sums_bytes_match_the_chunk_by_chunk_scheme(xs, special, rnd,
                                                           sizes):
    xs = xs + special
    rnd.shuffle(xs)
    arr = np.asarray(xs, dtype=float)
    with mock.patch.multiple(summation, **sizes):
        got = _outcome(suffix_sums, arr)
    assert got == _outcome(_suffix_sums_chunk_by_chunk, arr, sizes["_CHUNK"])


@pytest.mark.parametrize("chunk", [64, 4096])
def test_suffix_sums_full_size_matches_the_chunk_by_chunk_scheme(chunk):
    # real sizes: 2-D cumsum over full chunks, a ragged last chunk, and
    # linear-time offsets over many chunks, subnormals included
    rng = np.random.default_rng(7)
    n = 5 * 4096 + 123
    vals = rng.standard_normal(n) * 2.0 ** rng.integers(-1074, 60, n)
    with mock.patch.object(summation, "_CHUNK", chunk):
        got = suffix_sums(vals)
    assert got.tobytes() == _suffix_sums_chunk_by_chunk(vals, chunk).tobytes()


def test_suffix_offsets_match_fsum_on_subnormal_and_cancelling_sums():
    rng = np.random.default_rng(8)
    for _ in range(300):
        m = int(rng.integers(1, 40))
        sums = (rng.standard_normal(m)
                * 2.0 ** rng.integers(-1074, 1000, m)).tolist()
        if rng.random() < 0.3:
            sums += [-s for s in sums[:m // 2]]
        want = [math.fsum(sums[j + 1:]) for j in range(len(sums))]
        assert [_bits(v) for v in summation._suffix_offsets(sums)] == \
            [_bits(v) for v in want]


# --- the level table's range sums equal math.fsum, bit for bit --------------

_RANGE_VALUES = st.one_of(
    st.just(0.0),
    # full mantissas from the subnormals up: several levels, mixed scales
    st.builds(math.ldexp, st.floats(0.5, 1.0), st.integers(-1074, 80)),
    st.sampled_from([5e-324, 2.0 ** -1022, 2.0 ** -900, 1.0, 1.0 / 3.0,
                     _EDGE]))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 7), st.integers(-3, 1), st.data())
def test_level_table_range_sums_are_fsum_bit_for_bit(k, offset, data):
    # lengths next to 2^k, where 2^M >= n + 2 steps to the next M; the
    # table serves every nonempty set of ranges, zeros and values below
    # 2^-900 included
    n = max(1, 2 ** k + offset)
    arr = np.array(data.draw(st.lists(_RANGE_VALUES, min_size=n,
                                      max_size=n)))
    ends = data.draw(st.lists(st.tuples(st.integers(0, n), st.integers(0, n)),
                              min_size=1, max_size=20))
    starts = np.array([min(a, b) for a, b in ends])
    stops = np.array([max(a, b) for a, b in ends])
    with mock.patch.object(summation, "_TABLE_FROM", 0):
        got = summation._range_sums(arr.copy(), starts, stops)
    assert [_bits(x) for x in got] == \
        [_bits(math.fsum(arr[a:b].tolist())) for a, b in zip(starts, stops)]


@pytest.mark.parametrize("vals", [np.zeros(9), np.full(9, 2.0 ** -1000),
                                  np.array([1.0, math.inf, 2.0]),
                                  np.array([1.0, math.nan, 2.0]),
                                  np.array([1.0, 2.0 ** 901])])
def test_range_sums_are_fsum_where_the_kernel_declines(vals):
    # input _peel declines still gets math.fsum's bits over every range,
    # whichever route the cost rule picks
    assert summation._peel(vals, vals.shape[0]) is None
    n = vals.shape[0]
    starts, stops = np.array([0, 0, 1, n]), np.array([n, 1, n, n])
    want = [_bits(math.fsum(vals[a:b].tolist())) for a, b in zip(starts, stops)]
    for table_from in (0, 1, math.inf):
        with mock.patch.object(summation, "_TABLE_FROM", table_from):
            got = summation._range_sums(vals.copy(), starts, stops)
        assert [_bits(x) for x in got] == want
