import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trigconv.conditions import FAILS, HOLDS, check_pair_sector
from trigconv.sequences import (
    CoefficientSequence,
    Sector,
    SequenceError,
    TwoSidedSequence,
    sequence_from_text,
)
from trigconv.series import (
    GridSpec,
    convergence_curve,
    dirichlet_sine,
    truncation_slack,
)
from trigconv.series import (MAX_UNIFORM, _BLOCK_VALUES, _abs_range_sum,
                             _block_length, _cos_sin_rows, _ladder_rows,
                             _terms, _uniform_points, _uniform_rows)
from trigconv.series import testpoint_block_probe as block_probe
from trigconv.summation import exact_sum

from _oracles import (
    abel_tail_bound,
    ladder_rows_per_point,
    partial_sum_sine,
    partial_sum_two_sided,
    split_by_isin,
    uniform_rows_batched,
)


def _direct_dirichlet(n, x):
    return math.fsum(math.sin(k * x) for k in range(1, n + 1))


# --- sine kernel -----------------------------------------------------------

def test_dirichlet_sine_known_value():
    # sin(pi/2) + sin(pi) = 1 at n = 2, x = pi/2
    assert dirichlet_sine(2, math.pi / 2) == pytest.approx(1.0, abs=1e-12)


def test_dirichlet_sine_matches_direct_sum():
    rng = np.random.default_rng(23)
    for _ in range(200):
        n = int(rng.integers(1, 10_000))
        x = float(rng.uniform(1e-4, math.pi - 1e-4))
        assert abs(dirichlet_sine(n, x) - _direct_dirichlet(n, x)) <= 1e-9


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 512), st.floats(1e-6, math.pi - 1e-6))
def test_dirichlet_sine_sup_bound(n, x):
    # |sin(n x/2) sin((n+1) x/2) / sin(x/2)| <= 1/sin(x/2) <= pi/x
    assert abs(dirichlet_sine(n, x)) <= math.pi / x + 1e-9


def test_dirichlet_sine_domain():
    with pytest.raises(SequenceError):
        dirichlet_sine(4, 0.0)
    with pytest.raises(SequenceError):
        dirichlet_sine(4, math.pi + 0.5)


# --- partial sums ----------------------------------------------------------

def test_partial_sum_harmonic_quarter_period():
    # S_4(pi/2) = 1 - 1/3 = 2/3 for b_n = 1/n (sin terms vanish at even n)
    val = partial_sum_sine(sequence_from_text("harmonic(1.0)"), 4, math.pi / 2)
    assert val == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_partial_sum_real_input_returns_float():
    val = partial_sum_sine(sequence_from_text("harmonic(1.0)"), 16, 0.3)
    assert isinstance(val, float)


def test_partial_sum_euler_identity():
    # sum sin(kx)/k converges to (pi - x)/2; at n = 20000 the error is
    # O(1/(n x)) which this tolerance comfortably covers
    x = 1.0
    val = partial_sum_sine(sequence_from_text("harmonic(1.0)"), 20_000, x)
    assert val == pytest.approx((math.pi - x) / 2.0, abs=1e-3)


# --- grids -----------------------------------------------------------------

def test_grid_contains_testpoint_exactly():
    g = GridSpec(n_ref=64)
    assert math.pi / (8 * 64) in g.points().tolist()


def test_grid_points_sorted_in_halfperiod():
    pts = GridSpec(n_ref=256).points()
    assert np.all(np.diff(pts) > 0)
    assert pts[0] > 0 and pts[-1] <= math.pi


def test_grid_uniform_part_is_exactly_pi_j_over_m():
    g = GridSpec(n_ref=100)     # M = 800, not a power of two
    pts = g.points()
    uniform = math.pi * (np.arange(1, 801) / 800)
    assert np.isin(uniform, pts).all() and pts[-1] == math.pi
    # the remaining points are the ladder, with no near-duplicate of a
    # uniform point
    assert np.diff(pts).min() > 1e-9


# --- row engine against the pointwise reference ----------------------------

def _columns(grid):
    """The points of _cos_sin_rows's columns: pi j/M for j = 0..M, then
    the off-grid ladder in ascending order."""
    M, off = grid._layout()
    return np.concatenate([_uniform_points(np.arange(M + 1), M), off])


def _sine_rows(seq, grid, checkpoints):
    """The column points and the rows at them of the sine partial sums S_cp
    of seq, one per strictly increasing checkpoint cp: the rows _tail_rows
    reads from _cos_sin_rows."""
    k, b = _terms(seq, checkpoints[-1])
    _, S = _cos_sin_rows(k, None, b, grid,
                         np.searchsorted(k, checkpoints, side="right"))
    return _columns(grid), S


def _two_sided_rows(ts, grid, checkpoints):
    """The points of [-pi, pi] that testpoint_block_probe reads, and per
    strictly increasing checkpoint cp the rows at them of
    sum_{k<=cp} (c_k e^{ikx} + c_{-k} e^{-ikx}): C(|x|) - S(|x|) at the
    negated column points, C(|x|) + S(|x|) at the column points."""
    a, b = ts.pair_sums(checkpoints[-1]), 1j * ts.pair_diffs(checkpoints[-1])
    nz = np.flatnonzero((a != 0) | (b != 0))
    k = nz + 1
    C, S = _cos_sin_rows(k, a[nz], b[nz], grid,
                         np.searchsorted(k, checkpoints, side="right"))
    xs = _columns(grid)
    return np.concatenate([-xs, xs]), np.concatenate([C - S, C + S], axis=1)


def _coefficients(rng, n, support):
    if support in ("sparse", "wide"):
        vals = np.zeros(n)
        idx = rng.choice(n, size=min(n, 3), replace=False)
        vals[idx] = rng.standard_normal(idx.size) / (idx + 1.0)
        return vals
    vals = rng.standard_normal(n) / np.arange(1, n + 1)
    if support == "gaps":
        # zero below a start k > 1 and at every third k: the nonzero k form
        # no single run, so the ladder gathers its terms from the table
        vals[:rng.integers(1, max(2, n // 2))] = 0.0
        vals[2::3] = 0.0
    if support == "complex":
        vals = vals + 1j * rng.standard_normal(n) / np.arange(1, n + 1)
    return vals


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1),
       st.sampled_from(["real", "complex", "sparse", "wide", "gaps"]),
       st.booleans(),
       st.integers(1, 12),
       st.lists(st.integers(0, 40), min_size=1, max_size=3))
# interior zeros from a start k > 1 (the gather path), complex sine
# coefficients, and a two-sided series through the C +- S assembly
@example(11, "gaps", False, 5, [40, 9])
@example(12, "complex", False, 4, [37, 0, 6])
@example(13, "complex", True, 6, [40, 12])
def test_rows_match_pointwise_partial_sums(seed, support, two_sided, n_ref,
                                           checkpoints):
    rng = np.random.default_rng(seed)
    grid = GridSpec(n_ref=n_ref)
    if support == "wide":
        # a few nonzeros up to k = 2^18, so that the angle-addition blocks
        # reach q in the hundreds.  The oracle sums every k <= cp at each
        # point (about 10 ms a point here, three times that two-sided), so
        # this input gets one checkpoint, the smallest grid and the sine
        # shape: the blocks are the same for both shapes
        checkpoints, grid = [1 << 18], GridSpec(n_ref=1)
        two_sided = False
    # the engine takes strictly increasing checkpoints
    checkpoints = sorted(set(checkpoints))
    N = max(checkpoints)
    # the columns are 0 and the grid points, uniform points first
    M, _ = grid._layout()
    cols = _columns(grid)
    assert np.array_equal(np.sort(cols), np.r_[0.0, grid.points()])
    assert cols[0] == 0.0 and cols[M] == math.pi
    if two_sided:
        obj = TwoSidedSequence(
            CoefficientSequence.explicit(_coefficients(rng, N, support)),
            CoefficientSequence.explicit(_coefficients(rng, N, support)))
        scale = 1.0 + np.abs(obj.pos.prefix(N)).sum() \
            + np.abs(obj.neg.prefix(N)).sum()
        xs, rows = _two_sided_rows(obj, grid, checkpoints)
    else:
        obj = CoefficientSequence.explicit(_coefficients(rng, N, support))
        scale = 1.0 + np.abs(obj.prefix(N)).sum()
        xs, rows = _sine_rows(obj, grid, checkpoints)
    assert rows.shape == (len(checkpoints), xs.size)
    for cp, row in zip(checkpoints, rows):
        for x, got in zip(xs, row):
            if two_sided:
                ref = partial_sum_two_sided(obj, cp, x)
            else:
                ref = partial_sum_sine(obj, cp, x) if cp else 0.0
            assert abs(got - ref) <= 1e-12 * scale


@pytest.mark.parametrize("support",
                         ["real", "complex", "sparse", "wide", "gaps"])
def test_sine_rows_are_zero_at_0_and_pi(support):
    # _tail_rows and the probe take their maxima over every column: S is
    # exactly +-0 at x = 0 and x = pi (columns 0 and M), the imaginary
    # parts of the real FFT's DC and Nyquist bins, so there |S_N - S_n| is
    # 0 and C - S is C + S up to the sign of a zero
    rng = np.random.default_rng(len(support))
    for n_ref in (1, 3, 64, 1000, 1024, 5000):
        grid = GridSpec(n_ref=n_ref)
        M, _ = grid._layout()
        N = 1 << 18 if support == "wide" else 4 * n_ref + 40
        b = _coefficients(rng, N, support)
        k = np.flatnonzero(b) + 1
        ends = np.searchsorted(k, [0, n_ref, 4 * n_ref, N], side="right")
        _, S = _cos_sin_rows(k, None, b[k - 1], grid, ends)
        assert S.dtype == b.dtype and S.shape[1] == _columns(grid).size
        assert not S[:, [0, M]].any(), n_ref


def _ladder_block_points(k):
    """The ladder's points per block: at least 1, and _BLOCK_VALUES over
    the larger of the table size and the number of terms."""
    B = _block_length(int(k[-1]))
    q, r = np.divmod(k, B)
    if k[-1] - k[0] + 1 == k.size:
        size = (int(q[-1] - q[0]) + 1) * B
    else:
        size = np.unique(q).size * np.unique(r).size
    return max(1, _BLOCK_VALUES // max(size, k.size))


def _ladder_terms(rng, kind, halves):
    """(k, a, b) of a ladder input: k one run from k = 7 or scattered, a
    None, real or complex, and b real or complex."""
    if kind == "run":
        k = np.arange(7, 7 + 300, dtype=np.int64)
    elif kind == "scattered":
        k = np.sort(rng.choice(np.arange(1, 5001), 200, replace=False))
    else:   # one point per block: more terms than _BLOCK_VALUES
        k = np.arange(1, (1 << 15) + 2, dtype=np.int64)
    draw = {"real": lambda: rng.standard_normal(k.size),
            "complex": lambda: (rng.standard_normal(k.size)
                                + 1j * rng.standard_normal(k.size))}
    values = [None if h is None else draw[h]() for h in halves]
    for v in values:    # signed zeros and zero terms
        if v is not None:
            v[::11], v[5::13] = 0.0, -0.0
    return k, values[0], values[1]


@pytest.mark.parametrize("kind", ["run", "scattered", "one point"])
@pytest.mark.parametrize("halves", [(None, "real"), (None, "complex"),
                                    ("real", "real"),
                                    ("complex", "complex")])
def test_ladder_rows_equal_the_per_point_loop_bit_for_bit(kind, halves):
    # blocks of P points, cut before and after P and 2P; checkpoint
    # segments that are empty, start at 0 or end at the last term
    rng = np.random.default_rng(len(kind) * 7 + len(str(halves)))
    k, a, b = _ladder_terms(rng, kind, halves)
    P = _ladder_block_points(k)
    ends = np.array([0, 3, 3, k.size // 2, k.size, k.size])
    for count in sorted({max(0, P - 1), P, P + 1, 2 * P + 1}):
        off = np.sort(rng.uniform(1e-4, math.pi, count))
        off[-1:] = math.pi
        got_c, got_s = _ladder_rows(k, a, b, off, ends)
        want_c, want_s = ladder_rows_per_point(k, a, b, off, ends)
        assert got_s.dtype == want_s.dtype
        assert got_s.tobytes() == want_s.tobytes(), (count, P)
        if a is None:
            assert got_c is None and want_c is None
        else:
            assert got_c.dtype == want_c.dtype
            assert got_c.tobytes() == want_c.tobytes(), (count, P)


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.integers(1, 40), st.sampled_from([1024, MAX_UNIFORM])),
       st.lists(st.integers(1, 5000), unique=True, max_size=60),
       st.sampled_from(["real", "complex"]),
       st.lists(st.integers(0, 70), min_size=1, max_size=6),
       st.integers(0, 2 ** 32 - 1))
def test_uniform_rows_equal_the_batched_rows_bit_for_bit(M, ks, kind, cuts,
                                                         seed):
    # one running row of bins and one FFT per checkpoint, against every
    # row held at once: real and complex weights, signed zeros, and empty
    # segments (repeated ends, an end at 0, no terms at all)
    k = np.sort(np.array(ks, dtype=np.int64))
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(k.size)
    if kind == "complex":
        w = w + 1j * rng.standard_normal(k.size)
    w[::7] = -0.0
    ends = np.sort(np.minimum(cuts, k.size))
    idx = k % (2 * M)
    for cosine in (True, False):
        got = _uniform_rows(idx, w, ends, 2 * M, cosine)
        want = uniform_rows_batched(idx, w, ends, 2 * M, cosine)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), cosine


def _ladder_size(grid):
    return sum(1 for j in range(400) if grid.x0 * 2.0 ** (j / 4.0) <= math.pi)


@pytest.mark.parametrize("stride", [1, 2, 3, 8, 16])
def test_grid_split_equals_the_isin_split(stride):
    # n_ref = stride * (1..300), so the strides together reach n_ref 4800
    # (M at its cap from 1024 on, x0 still moving), and 2^0..2^20
    removed = 0
    for n_ref in [stride * i for i in range(1, 301)] + \
            [1 << e for e in range(21)]:
        grid = GridSpec(n_ref=n_ref)
        M, off = grid._layout()
        want_M, want = split_by_isin(grid)
        assert M == want_M and off.tobytes() == want.tobytes(), n_ref
        removed += _ladder_size(grid) - off.size
    assert removed > 0    # some ladder points are uniform points


def test_support_listed_rows_equal_the_explicit_rows_bit_for_bit():
    # lacunary lists its support, so its rows read the powers of two and
    # build no dense prefix; the same values passed as explicit data are
    # read from their nonzero entries and must give the same bits
    seq = sequence_from_text("lacunary(0.5)")
    N = 1 << 18
    dense = CoefficientSequence.explicit(
        seq.values_at(np.arange(1, N + 1, dtype=np.int64)))
    grid, cps = GridSpec(n_ref=64), [1, 64, 1000, N]
    xs, rows = _sine_rows(seq, grid, cps)
    assert "arr" not in seq._cache
    want_xs, want = _sine_rows(dense, grid, cps)
    assert xs.tobytes() == want_xs.tobytes()
    assert rows.dtype == float
    assert rows.tobytes() == want.tobytes()


def test_block_length_is_a_power_of_two_near_the_root():
    for k_max in (1, 2, 40, 1000, 1 << 18, (1 << 18) - 1, 1 << 20):
        B = _block_length(k_max)
        assert B & (B - 1) == 0 and B * B <= 2 * k_max and 2 * B * B > k_max


def test_rows_of_real_sine_series_are_real():
    grid = GridSpec(n_ref=16)
    _, rows = _sine_rows(sequence_from_text("harmonic(1.0)"), grid, [4, 64])
    assert rows.dtype == float


# --- tail norms and curves -------------------------------------------------

def _tail_sup_norm(seq, n, N_ref):
    return convergence_curve(seq, [n], N_ref=N_ref).entries[0].sup_estimate


def test_tail_sup_norm_zero_sequence():
    assert _tail_sup_norm(sequence_from_text("zero"), 8, 256) == 0.0


def test_tail_sup_norm_nonnegative_and_reference_monotone():
    seq = sequence_from_text("harmonic(1.0)")
    v1 = _tail_sup_norm(seq, 64, 1 << 12)
    assert v1 > 0.2     # uniform convergence genuinely fails here


def test_truncation_slack_settled_flag():
    # exact zero tail: nothing beyond the reference, vacuously settled
    vals = np.zeros(4096)
    vals[:100] = 1.0 / np.arange(1, 101)
    slack, settled = truncation_slack(CoefficientSequence.explicit(vals), 256)
    assert slack == 0.0 and settled
    # power decay halves per octave: the last octave keeps contributing
    _, settled = truncation_slack(sequence_from_text("harmonic(2.0)"), 1 << 8)
    assert not settled


# truncation_slack(seq, 2^18) as float.hex, with its settled flag, taken
# from the slack scan over whole 2^20 chunks before the maps ran in pieces
_SLACK_2_18 = {
    "log_damped": ("0x1.9af923e0e92bap-3", False),
    "harmonic(1.0)": ("0x1.62e420efa448fp+1", False),
    "rbv_block(1.0)": ("0x1.ffffc40000000p+1", False),
    "quasimono(0.5,2.0)": ("0x1.8f8743367108cp-8", False),
    "perturbed(1,log_damped,0.05)": ("0x1.9afa551e0d497p-3", False),
    "perturbed(1,harmonic(2.0),0.05)": ("0x1.e002298c125b0p-19", False),
    # complex data that ends inside the last octave, one full 2^20 chunk
    # and 12345 values into it
    "explicit complex": ("0x1.3e91b4b40ae58p+1", False),
}


def _slack_sequence(text):
    if text == "explicit complex":
        k = np.arange(1, (1 << 21) + (1 << 20) + 12346, dtype=float)
        imag = 2.0 / (k * k + 1.0)
        return CoefficientSequence.explicit(1.0 / k + 1j * imag)
    return sequence_from_text(text)


@pytest.mark.parametrize("text", list(_SLACK_2_18))
def test_truncation_slack_frozen_bits(text):
    slack, settled = truncation_slack(_slack_sequence(text), 1 << 18)
    assert (slack.hex(), settled) == _SLACK_2_18[text]


def _dense_slack(seq, N_ref, octaves):
    # every index of every octave, no support: the reference the support
    # scan must match bit for bit
    parts = []
    for j in range(octaves):
        k = np.arange((N_ref << j) + 1, (N_ref << (j + 1)) + 1, dtype=np.int64)
        parts.append(exact_sum(np.abs(seq.values_at(k))))
    total = math.fsum(parts)
    return total, total == 0.0 or parts[-1] <= 1e-3 * total


@pytest.mark.parametrize("alpha", [0.5, 1.0, 3.0])
@pytest.mark.parametrize("N_ref", [1000, 1 << 12, 5000, 65537])
@pytest.mark.parametrize("octaves", [1, 2, 3, 4])
def test_truncation_slack_on_the_support_matches_a_dense_scan(alpha, N_ref,
                                                              octaves):
    # the support scan of the first `octaves` octaves, then (at four) the
    # whole slack, which truncation_slack takes over four octaves
    seq = sequence_from_text(f"lacunary({alpha})")
    assert seq.support is not None
    want = _dense_slack(seq, N_ref, octaves)
    got = math.fsum(_abs_range_sum(seq, N_ref << j, N_ref << (j + 1))
                    for j in range(octaves))
    assert got.hex() == want[0].hex()
    if octaves == 4:
        slack, settled = truncation_slack(seq, N_ref)
        assert slack.hex() == want[0].hex() and settled == want[1]


def test_support_lists_exactly_the_nonzero_indices():
    seq = sequence_from_text("lacunary(0.5)")
    for lo, hi in ((0, 1), (0, 2), (1, 2), (2, 4), (3, 1000), (1024, 4096),
                   (5, 5), (0, 1 << 16)):
        k = np.arange(lo + 1, hi + 1, dtype=np.int64)
        nonzero = k[seq.values_at(k) != 0.0]
        got = seq.support(lo, hi)
        assert got.dtype == np.int64 and np.array_equal(got, nonzero)


def test_wrappers_scan_every_index():
    # a wrapper may be nonzero where its base is zero (inf * 0 is not 0), so
    # it does not inherit the base's support and the scan still meets the
    # non-finite product
    for text in ("orvqm(exp2,lacunary(1.0))",
                 "perturbed(3,lacunary(1.0),0.1)"):
        assert sequence_from_text(text).support is None
    with pytest.raises(SequenceError, match="non-finite"):
        truncation_slack(sequence_from_text("orvqm(exp2,lacunary(1.0))"), 512)


def test_convergence_curve_shape_and_csv():
    curve = convergence_curve(sequence_from_text("harmonic(2.0)"),
                              [8, 16, 32], N_ref=1 << 10)
    assert [e.n for e in curve.entries] == [8, 16, 32]
    csv = curve.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "n,sup_estimate,truncation_slack,max_k_ck"
    assert len(lines) == 4
    # float fields round-trip through repr
    val = float(lines[1].split(",")[1])
    assert val == curve.entries[0].sup_estimate


def test_convergence_curve_validates_n_list():
    seq = sequence_from_text("harmonic(1.0)")
    with pytest.raises(SequenceError):
        convergence_curve(seq, [64, 64], N_ref=1 << 10)
    with pytest.raises(SequenceError):
        convergence_curve(seq, [1024], N_ref=512)


# --- summation-by-parts bounds ---------------------------------------------

def test_abel_tail_bound_matches_direct_formula():
    seq = sequence_from_text("harmonic(1.0)")
    N, x, H = 10, 0.1, 1 << 14
    vals = np.asarray(seq.prefix(H + 1))
    oracle = (math.pi / x) * (np.abs(np.diff(vals[N - 1:])).sum()
                              + abs(vals[N - 1]))
    assert abel_tail_bound(seq, N, x, H) == pytest.approx(oracle, rel=1e-12)


def test_abel_tail_bound_dominates_actual_tail():
    seq = sequence_from_text("harmonic(1.0)")
    H = 1 << 14
    vals = np.asarray(seq.prefix(H))
    for N, x in ((3, 0.05), (17, 1.2), (100, 3.0)):
        bound = abel_tail_bound(seq, N, x, H)
        k = np.arange(N, H + 1, dtype=float)
        actual = abs(exact_sum(vals[N - 1:] * np.sin(k * x)))
        assert actual <= bound


# --- test-point probe ------------------------------------------------------

def test_testpoint_probe_frozen_log_damped():
    # frozen from a direct run of this estimator
    ts = TwoSidedSequence(sequence_from_text("log_damped"),
                          sequence_from_text("zero"), label="logd-onesided")
    assert check_pair_sector(ts, Sector(0.0), 4 * 256).verdict == HOLDS
    pr = block_probe(ts, 256)
    assert pr.sin_floor_ok
    assert pr.lhs == pytest.approx(0.3099495497932236, rel=1e-12)
    assert pr.norm_diff == pytest.approx(0.22270288135143979, rel=1e-12)
    assert pr.pair_abs_sum == pytest.approx(0.2227028813514399, rel=1e-12)


def test_testpoint_probe_premises_flag():
    # a pair outside the sector fails the premise, and the probe still
    # measures every side
    pos = CoefficientSequence.explicit(
        np.concatenate([[1.0 + 0.9j], 1.0 / np.arange(2, 41) ** 2]))
    ts = TwoSidedSequence(pos, sequence_from_text("zero"))
    rep = check_pair_sector(ts, Sector(math.pi / 8), 40)
    assert (rep.verdict, rep.witness) == (FAILS, 1)
    pr = block_probe(ts, 10)
    assert all(map(math.isfinite, (pr.lhs, pr.norm_diff, pr.pair_abs_sum)))


@pytest.mark.parametrize("seed, n", [(1, 1), (2, 5), (3, 16), (4, 37)])
def test_testpoint_probe_norm_diff_is_the_brute_force_maximum(seed, n):
    # complex c_k and c_{-k}, both nonzero: the probe's max over the two
    # halves C + S and C - S equals the max of |S_4n - S_n| over the grid
    # points, their mirror images and 0, each summed term by term
    rng = np.random.default_rng(seed)
    k = np.arange(1, 4 * n + 1)

    def draw():
        return (rng.standard_normal(4 * n)
                + 1j * rng.standard_normal(4 * n)) / k

    ts = TwoSidedSequence(CoefficientSequence.explicit(draw()),
                          CoefficientSequence.explicit(draw()))
    scale = 1.0 + np.abs(ts.pos.prefix(4 * n)).sum() \
        + np.abs(ts.neg.prefix(4 * n)).sum()
    pts = GridSpec(n_ref=n).points()
    xs = np.concatenate([-pts[pts < math.pi], [0.0], pts])
    want = max(abs(partial_sum_two_sided(ts, 4 * n, x)
                   - partial_sum_two_sided(ts, n, x)) for x in xs)
    assert abs(block_probe(ts, n).norm_diff - want) <= 1e-12 * scale


@settings(max_examples=20, deadline=None)
@given(st.integers(4, 200))
def test_sine_floor_on_probe_blocks(n):
    x0 = math.pi / (8 * n)
    k = np.arange(n + 1, 4 * n + 1)
    assert np.sin(k * x0).min() >= math.sin(math.pi / 8) - 1e-12
