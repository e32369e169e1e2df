import math

import numpy as np
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
