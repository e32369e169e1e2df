import math
import struct
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
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
# _T, _BLOCK and _CHUNK are patched down so that a few dozen values make
# several rows, several blocks, a ragged last row and several levels of
# extraction; _BLOCK need not be a multiple of _CHUNK, and each block then
# holds the whole rows that fit.

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
    # below 2^-900, subnormals included
    st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-1074, -901)),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0 ** -900, 1.0, -1.0,
                     _EDGE, -_EDGE, math.nextafter(_EDGE, 0.0),
                     math.nextafter(_EDGE, math.inf), 1.7e308, -1.7e308]),
), max_size=60)
_SPECIAL = st.lists(st.sampled_from([math.nan, math.inf, -math.inf]),
                    max_size=2)
_SIZES = st.fixed_dictionaries({
    "_T": st.integers(1, 8), "_CHUNK": st.integers(1, 9),
    "_BLOCK": st.integers(1, 30)})


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
    # all of it below 2^-900
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
    with mock.patch.multiple(summation, _T=2, _BLOCK=6):
        with pytest.raises(OverflowError):
            exact_sum(np.asarray(xs))


def test_kernel_reaches_several_levels():
    # 1/k^2 keeps 53 bits in every row, and the 2^-950 values go through
    # the levels like the others
    k = np.arange(1, 301, dtype=float)
    vals = 1.0 / k ** 2
    vals[::7] = 2.0 ** -950 * k[::7]
    with mock.patch.multiple(summation, _T=4, _BLOCK=40):
        parts = summation._row_parts(vals, 16)
        got = exact_sum(vals)
    assert max(len(p) for p in parts) >= 3
    assert _bits(got) == _bits(math.fsum(vals.tolist()))


@pytest.mark.parametrize("vals", [np.zeros(40), -np.zeros(40),
                                  np.full(40, 2.0 ** -1000)])
def test_kernel_declines_all_zero_input_and_extracts_tiny_values(vals):
    # no level on all-zero input, so exact_sum keeps math.fsum's signed zero
    assert bool(_extract_total(vals.copy())) == bool(vals.any())
    with mock.patch.multiple(summation, _T=2, _BLOCK=8):
        assert _bits(exact_sum(vals)) == _bits(math.fsum(vals.tolist()))


# --- the one extraction loop against exact rational sums ------------------

_MANTISSA = st.integers(-(1 << 53) + 1, (1 << 53) - 1)
_EXTRACT_VALUES = st.one_of(
    # full mantissas from the subnormals up to 2^80, of either sign
    st.builds(math.ldexp, _MANTISSA, st.integers(-1074 - 53, 80 - 53)),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, _EDGE, -_EDGE,
                     math.nextafter(_EDGE, 0.0), -math.nextafter(_EDGE, 0.0)]))
_DECLINED = st.sampled_from([math.nan, math.inf, -math.inf,
                             math.nextafter(_EDGE, math.inf),
                             -math.nextafter(_EDGE, math.inf)])


def _total(q, lo, level):
    level[0] += q.sum()


def _extract_total(values: np.ndarray):
    """_extract's levels of the whole array's sum."""
    return summation._extract(values, _total, 1)


def _reductions(n: int, width: int, ranges: list[tuple[int, int]]):
    """The three reductions _extract serves, each with the groups of
    positions whose values one of its entries sums: one row, rows of
    ``width``, and ranges.  Each adds a block's share value by value or
    range by range, with no cumsum."""
    def over_rows(q, lo, level):
        for j, x in enumerate(q.tolist()):
            level[(lo + j) // width] += x

    def over_ranges(q, lo, level):
        for i, (a, b) in enumerate(ranges):
            level[i] += q[max(a - lo, 0):max(b - lo, 0)].sum()

    return [(_total, [range(n)]),
            (over_rows, [range(h, min(h + width, n))
                         for h in range(0, n, width)]),
            (over_ranges, [range(a, b) for a, b in ranges])]


@settings(max_examples=150, deadline=None)
@given(st.lists(_EXTRACT_VALUES, max_size=60),
       st.lists(st.integers(7 << 50, (1 << 53) - 1), max_size=60),
       st.integers(-60, 60), st.sampled_from([1, -1]), st.integers(1, 9),
       st.integers(1, 9), st.data())
def test_extract_levels_sum_exactly_to_each_row_and_range(xs, run, exp, sign,
                                                          width, block, data):
    # a run of values of one sign just below 2^e in magnitude fills a
    # level's sums up to sigma, the edge of the lemma's bound; the blocks
    # of _BLOCK values cut rows and ranges anywhere
    xs = xs + [math.ldexp(sign * m, exp - 53) for m in run] or [0.0]
    data.draw(st.randoms(use_true_random=False)).shuffle(xs)
    n = len(xs)
    ends = data.draw(st.lists(st.tuples(st.integers(0, n), st.integers(0, n)),
                              min_size=1, max_size=10))
    ranges = [(min(a, b), max(a, b)) for a, b in ends]
    exact = [Fraction(x) for x in xs]
    for reduce, groups in _reductions(n, width, ranges):
        values = np.array(xs)
        with mock.patch.object(summation, "_BLOCK", block):
            levels = summation._extract(values, reduce, len(groups))
        assert not values.any()
        got = [sum(Fraction(float(lv[i])) for lv in levels)
               for i in range(len(groups))]
        assert got == [sum((exact[j] for j in g), Fraction(0))
                       for g in groups]
        assert bool(levels) == any(xs)      # no level on all-zero input


@settings(max_examples=100, deadline=None)
@given(st.lists(_EXTRACT_VALUES, max_size=30), _DECLINED,
       st.randoms(use_true_random=False))
def test_extract_declines_and_keeps_its_input(xs, bad, rnd):
    xs = xs + [bad]
    rnd.shuffle(xs)
    values = np.array(xs)
    before = values.tobytes()
    for reduce, groups in _reductions(len(xs), 3, [(0, len(xs))]):
        assert summation._extract(values, reduce, len(groups)) is None
        assert values.tobytes() == before


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
    # suffix_sums' offsets are _range_sums over the suffixes [j, K) of its
    # K signed chunk sums.  Draws past 2^900 take one exact_sum per range;
    # the same draws scaled by 2^-100 reach the level table
    rng = np.random.default_rng(8)
    for _ in range(300):
        m = int(rng.integers(1, 40))
        sums = (rng.standard_normal(m)
                * 2.0 ** rng.integers(-1074, 1000, m)).tolist()
        if rng.random() < 0.3:
            sums += [-s for s in sums[:m // 2]]
        K = len(sums)
        starts, stops = np.arange(K + 1), np.full(K + 1, K)
        for vals in (np.array(sums), np.ldexp(sums, -100)):
            want = [_bits(math.fsum(vals[j:].tolist())) for j in starts]
            for table_from in (0, 1, math.inf):
                with mock.patch.object(summation, "_TABLE_FROM", table_from):
                    got = summation._range_sums(vals.copy(), starts, stops)
                assert [_bits(v) for v in got] == want


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
    # 2^-900 included.  Blocks of 1, 3, 4 or 8 values put range ends on
    # either side of a block edge, carry each level's running sum across
    # many blocks, and cut the rows of exact_sum and suffix_sums (chunks of
    # 2 or of 16 values)
    n = max(1, 2 ** k + offset)
    arr = np.array(data.draw(st.lists(_RANGE_VALUES, min_size=n,
                                      max_size=n)))
    # ascending starts and stops with a <= b: the elementwise min and max
    # of two sorted draws
    size = data.draw(st.integers(1, 20))
    ends = st.lists(st.integers(0, n), min_size=size,
                    max_size=size).map(sorted)
    one, two = data.draw(ends), data.draw(ends)
    starts, stops = np.minimum(one, two), np.maximum(one, two)
    block = data.draw(st.sampled_from([summation._BLOCK, 1, 3, 4, 8]))
    chunk = data.draw(st.sampled_from([2, 16]))
    with mock.patch.multiple(summation, _TABLE_FROM=0, _BLOCK=block):
        got = summation._range_sums(arr.copy(), starts, stops)
    assert [_bits(x) for x in got] == \
        [_bits(math.fsum(arr[a:b].tolist())) for a, b in zip(starts, stops)]
    with mock.patch.multiple(summation, _T=1, _BLOCK=block, _CHUNK=chunk):
        total = exact_sum(arr)
        suffixes = suffix_sums(arr)
    assert _bits(total) == _bits(math.fsum(arr.tolist()))
    assert suffixes.tobytes() == \
        _suffix_sums_chunk_by_chunk(arr, chunk).tobytes()


@pytest.mark.parametrize("vals", [np.zeros(9), np.full(9, 2.0 ** -1000),
                                  np.array([1.0, math.inf, 2.0]),
                                  np.array([1.0, math.nan, 2.0]),
                                  np.array([1.0, 2.0 ** 901])])
def test_range_sums_are_fsum_where_the_kernel_declines(vals):
    # input _extract declines (NaN, inf, past 2^900), all zeros and values
    # below 2^-900 get math.fsum's bits over every range, whichever route
    # the cost rule picks
    levels = _extract_total(vals.copy())
    assert (levels is None) == (not np.abs(vals).max() <= _EDGE)
    n = vals.shape[0]
    starts, stops = np.array([0, 0, 1, n]), np.array([1, n, n, n])
    want = [_bits(math.fsum(vals[a:b].tolist())) for a, b in zip(starts, stops)]
    for table_from in (0, 1, math.inf):
        with mock.patch.object(summation, "_TABLE_FROM", table_from):
            got = summation._range_sums(vals.copy(), starts, stops)
        assert [_bits(x) for x in got] == want


_VARIATION_TERMS = st.one_of(
    st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-1074, 80)),
    # differences past 2^900, infinite, or whose sums overflow
    st.sampled_from([0.0, -0.0, 1.0, -1.0, _EDGE, -_EDGE, 1e308, 1.7e308,
                     -1.7e308]))


def _variation_oracle(c: np.ndarray, starts, stops):
    """math.fsum per range over |c_j - c_(j+1)| as numpy forms it over the
    whole array (its complex abs is not Python's abs bit for bit)."""
    with np.errstate(over="ignore"):
        d = np.abs(c[:-1] - c[1:])
    return np.array([math.fsum(d[a:b].tolist())
                     for a, b in zip(starts, stops)])


@settings(max_examples=200, deadline=None)
@given(st.lists(_VARIATION_TERMS, min_size=1, max_size=40),
       st.one_of(st.none(), st.lists(_VARIATION_TERMS, min_size=40,
                                     max_size=40)),
       st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40)),
                max_size=12),
       st.sampled_from([summation._BLOCK, 1, 3, 8]))
@example([1e308, 0.0, 1e308], None, [(0, 1), (0, 2)], 1)    # 1e308 + 1e308
@example([1.7e308, -1.7e308, 1.7e308], None, [(0, 1), (0, 2)], 1)
@example([2.0 ** 901, 0.0, 1.0], [0.0] * 40, [(0, 1), (0, 2)], 1)
def test_variation_sums_are_fsum_of_each_range(real, imag, pairs, block):
    # real and complex c, -0.0 among its values; empty ranges, equal
    # starts, ranges that end at len(c) - 1 and none at all; differences
    # past 2^900 or infinite take one exact_sum per range, with math.fsum's
    # value or OverflowError, whichever route the cost rule picks.  The
    # ends ascend: the elementwise min and max of two sorted draws, cut at
    # len(c) - 1
    n = len(real)
    c = np.array(real)
    if imag is not None:
        c = c + 1j * np.array(imag[:n])
    one, two = (np.minimum(sorted(p[i] for p in pairs), n - 1).astype(int)
                for i in (0, 1))
    starts, stops = np.minimum(one, two), np.maximum(one, two)
    want, before = _outcome(_variation_oracle, c, starts, stops), c.tobytes()
    for table_from in (0, 1, math.inf):
        with mock.patch.multiple(summation, _TABLE_FROM=table_from,
                                 _BLOCK=block):
            got = _outcome(summation.variation_sums, c, starts, stops)
        assert got == want
    assert c.tobytes() == before        # c is only read


# --- a range from the chunk parts that suffix_sums keeps ---------------------

def _coefficients(shape: str, n: int, rng, huge_at: int) -> np.ndarray:
    if shape == "signed":
        return rng.standard_normal(n) * 2.0 ** rng.integers(-60, 60, n)
    if shape == "complex":
        return rng.standard_normal(n) + 1j * rng.standard_normal(n)
    if shape == "zero_runs":      # whole chunks and ranges of zeros
        cuts = np.sort(rng.integers(0, n, 4))
        return np.repeat(rng.random(5), np.diff(cuts, prepend=0, append=n))
    if shape == "subnormal":      # every difference below 2^-1022
        return rng.random(n) * 2.0 ** -1060
    c = rng.random(n)
    if shape == "huge":           # |c_n - c_(n+1)| past 2^900 at two n
        c[huge_at] = 2.0 ** 950
    return c


_CHUNK_ROUTE_SHAPES = ["positive", "signed", "complex", "zero_runs",
                       "subnormal", "huge"]


@settings(max_examples=80, deadline=None)
@given(st.integers(4097, 5 * 4096), st.sampled_from(_CHUNK_ROUTE_SHAPES),
       st.integers(0, 2 ** 32 - 1), st.integers(0, 5 * 4096),
       st.lists(st.tuples(st.integers(0, 5 * 4096), st.integers(0, 3 * 4096)),
                min_size=1, max_size=8))
@example(4096 + 2 * 4096 + 17, "huge", 0, 4095, [(0, 5 * 4096)])
@example(4096 + 2 * 4096 + 17, "huge", 0, 4096, [(0, 5 * 4096)])
def test_chunk_route_is_fsum_of_each_range(n, shape, seed, huge_at, pairs):
    # the parts of each whole chunk 1..K plus the exact parts of two
    # ragged ends sum exactly to the range: math.fsum's bits per range.
    # Ranges start in chunk 0, end in the last partial chunk, lie inside
    # one chunk, or hold only zeros or subnormal differences.  A difference
    # past 2^900 outside chunk 0 leaves no parts, and the level table runs
    huge_at = min(huge_at, n - 2)
    c = _coefficients(shape, n, np.random.default_rng(seed), huge_at)
    d = np.zeros(n)             # as a view's tail forms |c_n - c_(n+1)|
    d[:-1] = np.abs(c[:-1] - c[1:])
    parts = []
    suffix_sums(d, parts)
    kept = n - 4096 >= summation._T and not (shape == "huge"
                                             and huge_at >= 4096)
    assert len(parts) == (-(-(n - 4096) // 4096) if kept else 0)
    # ascending starts, and stops that ascend with them, up to len(c) - 1
    starts = np.minimum(sorted(a for a, _ in pairs), n - 1)
    stops = np.maximum.accumulate(
        np.minimum(starts + [length for _, length in pairs], n - 1))
    ranges = [(starts, stops)] + [
        (np.array([min(a, n - 1)]), np.array([min(b, n - 1)]))
        for a, b in [(0, n - 1), (4097, 4296), (4095, 2 * 4096 + 1),
                     (3 * 4096 - 5, n - 1)]]
    for starts, stops in ranges:
        want = _variation_oracle(c, starts, stops)
        with mock.patch.object(summation, "_SPARSE", 0):
            got = summation.variation_sums(c, starts, stops, parts)
        assert [_bits(x) for x in got] == [_bits(x) for x in want]


# --- suffix_sums sums every chunk but the first -----------------------------

@pytest.mark.parametrize("chunk, n", [
    (64, 1), (64, 64), (64, 5 * 64 + 7), (64, 4096 + 3 * 64),
    (4096, 100), (4096, 4096), (4096, 3 * 4096 + 5)])
def test_suffix_sums_sums_every_chunk_but_the_first(monkeypatch, chunk, n):
    # no offset reads the first chunk's sum, so an input of one chunk runs
    # no _row_parts, no math.fsum and no _range_sums, and K + 1 chunks sum
    # exactly K of them, whose suffixes are one _range_sums call (whose own
    # math.fsum calls are not counted)
    peeled, summed, ranged = [], [], []
    real_row_parts, real_fsum = summation._row_parts, math.fsum
    real_range_sums = summation._range_sums

    def row_parts(values, row):
        peeled.append(values.shape[0])
        return real_row_parts(values, row)

    def fsum(xs):
        summed.append(len(xs) if isinstance(xs, memoryview) else None)
        return real_fsum(xs)

    def range_sums(values, starts, stops):
        ranged.append(values.shape[0])
        monkeypatch.setattr(math, "fsum", real_fsum)
        try:
            return real_range_sums(values, starts, stops)
        finally:
            monkeypatch.setattr(math, "fsum", fsum)

    vals = np.random.default_rng(n).standard_normal(n)
    monkeypatch.setattr(summation, "_CHUNK", chunk)
    monkeypatch.setattr(summation, "_row_parts", row_parts)
    monkeypatch.setattr(summation, "_range_sums", range_sums)
    monkeypatch.setattr(math, "fsum", fsum)
    got = suffix_sums(vals)
    monkeypatch.undo()
    later = n - chunk
    K = max(0, -(-later // chunk))
    assert len(summed) == K
    assert ranged == ([K] if K else [])
    if later >= summation._T:
        assert peeled == [later]
    else:
        assert peeled == [] and sum(summed) == max(0, later)
    assert got.tobytes() == _suffix_sums_chunk_by_chunk(vals, chunk).tobytes()


@pytest.mark.parametrize("n", [1, 2, 1536, 4095, 4096])
def test_suffix_sums_of_at_most_one_chunk_match_the_chunk_by_chunk_scheme(n):
    # at the real _CHUNK: one reversed cumsum plus the offset +0.0, over
    # signed zeros, subnormals and a -0.0 suffix, which reads +0.0
    rng = np.random.default_rng(n)
    vals = rng.standard_normal(n) * 2.0 ** rng.integers(-1074, 60, n)
    zeros = rng.random(n) < 0.2
    vals[zeros] = np.where(rng.random(int(zeros.sum())) < 0.5, 0.0, -0.0)
    vals[n - max(1, n // 8):] = -0.0
    got = suffix_sums(vals)
    assert got.tobytes() == _suffix_sums_chunk_by_chunk(vals, 4096).tobytes()
    assert not np.signbit(got[-1])


@pytest.mark.parametrize("chunk", [64, 4096])
@pytest.mark.parametrize("chunks, extra", [(0, 17), (0, 63), (1, 0), (1, 17),
                                           (3, 17)])
@pytest.mark.parametrize("head", [
    [1.7e308, 1.7e308], [-1.7e308, -1.7e308], [1.7e308, -1.7e308],
    [math.inf], [-math.inf], [math.inf, -math.inf], [math.nan]])
def test_suffix_sums_keeps_the_first_chunks_errors(chunk, chunks, extra,
                                                   head):
    # the first chunk's sum is dropped, but its OverflowError and its
    # ValueError on inf + -inf are kept; values at both ends of the first
    # chunk, which is the whole input when it is shorter than a chunk
    vals = np.random.default_rng(9).standard_normal(chunks * chunk + extra)
    vals[:len(head) - 1] = head[:-1]
    vals[min(chunk, vals.shape[0]) - 1] = head[-1]
    with mock.patch.object(summation, "_CHUNK", chunk):
        got = _outcome(suffix_sums, vals)
    assert got == _outcome(_suffix_sums_chunk_by_chunk, vals, chunk)


# --- the scratch stays per block ---------------------------------------------

@pytest.mark.parametrize("kind", ["decreasing", "normal"])
def test_exact_sums_keep_their_scratch_per_block(kind):
    # exact_sum and suffix_sums hold one block of scratch, not a copy of the
    # input: the peaks stay below 1 MiB and below the 8 MiB output plus 1 MiB
    n = 1 << 20
    if kind == "decreasing":
        vals = np.abs(np.diff(1.0 / np.arange(1, n + 2, dtype=float)))
    else:
        vals = np.random.default_rng(10).standard_normal(n)
    tracemalloc.start()
    try:
        exact_sum(vals)
        sum_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        suffix_sums(vals)
        suffix_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum_peak < 1 << 20
    assert suffix_peak < vals.nbytes + (1 << 20)
