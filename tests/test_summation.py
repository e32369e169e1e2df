import math
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from trigconv.summation import exact_complex_sum, exact_sum, suffix_sums


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
