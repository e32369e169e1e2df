"""Brute-force oracles for the tests: exactly rounded complex sums, direct
partial sums, the per-point ladder rows, the uniform rows with every row
of bins held at once and the grid split that :mod:`trigconv.series` must
reproduce bit for bit, the summation-by-parts tail bound, and the
full-array condition scans (GROUP_BV's among them, with its right side
formed over the whole scan up front) that the span-by-span scans in
:mod:`trigconv.conditions` must reproduce bit for bit."""

import math
from typing import Optional

import numpy as np

from trigconv.conditions import (FAILS, HOLDS, INCONCLUSIVE,
                                 STABILIZATION_THRESHOLD, ConditionReport,
                                 _BOUND, _first_flagged, _group_bv_scan_end,
                                 _scan_end, _windows)
from trigconv.sequences import (
    ANGLE_TOL,
    REL_TOL,
    CoefficientSequence,
    SequenceError,
    TwoSidedSequence,
)
from trigconv.series import (MAX_UNIFORM, OVERSAMPLE, GridSpec,
                             _block_length, _uniform_points)
from trigconv.summation import exact_sum, variation_sums


# --- partial sums ---------------------------------------------------------

def exact_complex_sum(values) -> complex:
    """Exactly rounded sum of a complex iterable, real and imaginary parts
    summed independently."""
    arr = np.asarray(values, dtype=complex)
    return complex(exact_sum(arr.real), exact_sum(arr.imag))


def partial_sum_sine(b: CoefficientSequence, n: int, x: float):
    """sum_{k=1}^n b_k sin kx, exactly rounded accumulation.

    x is reduced by periodicity and oddness; x = 0 (mod pi after reduction
    to 0) gives exactly 0.  Returns float for real coefficients, complex
    otherwise.
    """
    if n < 1:
        raise SequenceError("partial_sum_sine needs n >= 1")
    r = math.remainder(x, 2.0 * math.pi)
    sign, r = (1.0, r) if r >= 0.0 else (-1.0, -r)
    if r == 0.0:
        return 0.0 if b.is_real else 0j
    vals = b.prefix(n)
    s = np.sin(np.arange(1, n + 1, dtype=float) * r)
    if b.is_real:
        return sign * exact_sum(np.asarray(vals, dtype=float) * s)
    return sign * exact_complex_sum(np.asarray(vals, dtype=complex) * s)


def partial_sum_two_sided(ts: TwoSidedSequence, n: int, x: float) -> complex:
    """sum_{k=1}^n (c_k e^{ikx} + c_{-k} e^{-ikx})."""
    if n < 0:
        raise SequenceError("partial_sum_two_sided needs n >= 0")
    if n == 0:
        return 0j
    pos = np.asarray(ts.pos.prefix(n), dtype=complex)
    neg = np.asarray(ts.neg.prefix(n), dtype=complex)
    e = np.exp(1j * np.arange(1, n + 1, dtype=float) * x)
    return exact_complex_sum(pos * e + neg * np.conj(e))


# --- the uniform rows, all segments at once -------------------------------

def uniform_rows_batched(idx: np.ndarray, w: np.ndarray, ends: np.ndarray,
                         size: int, cosine: bool) -> np.ndarray:
    """series._uniform_rows with every row of bins held at once: each
    segment's bins, one cumulative sum down the rows, and one real FFT of
    the 2-D array of bins."""
    if np.iscomplexobj(w):
        return (uniform_rows_batched(idx, w.real, ends, size, cosine)
                + 1j * uniform_rows_batched(idx, w.imag, ends, size, cosine))
    bins = np.empty((len(ends), size))
    for row, lo, hi in zip(bins, np.r_[0, ends[:-1]], ends):
        row[:] = np.bincount(idx[lo:hi], w[lo:hi], size)
    np.cumsum(bins, axis=0, out=bins)
    spectrum = np.fft.rfft(bins)
    return spectrum.real if cosine else -spectrum.imag


# --- the ladder and the grid split, one point at a time -----------------------

def ladder_rows_per_point(k: np.ndarray, a: Optional[np.ndarray],
                          b: np.ndarray, off: np.ndarray, ends: np.ndarray
                          ) -> tuple[Optional[np.ndarray], np.ndarray]:
    """series._ladder_rows one point at a time: per point x, sin and cos of
    the angles Bq x and r x, the table T[q, r] from two outer products, the
    terms read by a slice (one run of k) or a gather, and each checkpoint
    segment summed by its own 1-D sum into a running total."""
    n = k.size
    cos_rows = None if a is None else np.zeros((len(ends), off.size), a.dtype)
    sin_rows = np.zeros((len(ends), off.size), b.dtype)
    if n == 0:
        return cos_rows, sin_rows
    B = _block_length(int(k[-1]))
    q, r = np.divmod(k, B)
    if k[-1] - k[0] + 1 == n:
        uq, ur = np.arange(q[0], q[-1] + 1), np.arange(B)
        start = int(k[0] - B * q[0])
        flat = None
    else:
        uq, qi = np.unique(q, return_inverse=True)
        ur, ri = np.unique(r, return_inverse=True)
        flat = qi * ur.size + ri
    angles = np.concatenate([B * uq, ur]).astype(float)
    bounds = list(zip(np.r_[0, ends[:-1]].tolist(), ends.tolist()))
    halves = [(b, sin_rows, False)]
    if a is not None:
        halves.append((a, cos_rows, True))
    for i, x in enumerate(off.tolist()):
        ax = angles * x
        sin_, cos_ = np.sin(ax), np.cos(ax)
        sh, sl = sin_[:uq.size], sin_[uq.size:]
        ch, cl = cos_[:uq.size], cos_[uq.size:]
        for w, rows, cosine in halves:
            if cosine:
                table = np.multiply.outer(ch, cl) - np.multiply.outer(sh, sl)
            else:
                table = np.multiply.outer(sh, cl) + np.multiply.outer(ch, sl)
            flat_table = table.ravel()
            trig = (flat_table[start:start + n] if flat is None
                    else flat_table[flat])
            terms = w * trig
            acc = 0.0
            for row, (lo, hi) in enumerate(bounds):
                acc += terms[lo:hi].sum()
                rows[row, i] = acc
    return cos_rows, sin_rows


def split_by_isin(grid: GridSpec) -> tuple[int, np.ndarray]:
    """M and the ladder points that GridSpec._layout keeps off the uniform
    points, by np.isin of every ladder point against every uniform point."""
    count = min(OVERSAMPLE * grid.n_ref, MAX_UNIFORM)
    ladder = []
    j = 0
    while True:
        x = grid.x0 * 2.0 ** (j / 4.0)
        if x > math.pi:
            break
        ladder.append(x)
        j += 1
    off = np.asarray(ladder)
    uniform = _uniform_points(np.arange(1, count + 1), count)
    return count, off[~np.isin(off, uniform)]


# --- summation-by-parts bound ----------------------------------------------

def abel_tail_bound(c: CoefficientSequence, N: int, x: float,
                    horizon: int) -> float:
    """(pi/x) * (sum_{k=N}^{H} |c_k - c_{k+1}| + |c_N|), the
    summation-by-parts tail estimate at truncation horizon H, with the
    variation summed by one exact_sum over its terms."""
    if not (0.0 < x <= math.pi):
        raise SequenceError(f"x = {x} outside (0, pi]")
    if N < 1 or horizon < N:
        raise SequenceError("1 <= N <= horizon required")
    vals = np.asarray(c.prefix(horizon + 1))
    var = exact_sum(np.abs(vals[N - 1:horizon] - vals[N:horizon + 1]))
    return (math.pi / x) * (var + abs(complex(vals[N - 1])))


# --- full-array condition scans --------------------------------------------

def first_increase(x: np.ndarray) -> Optional[int]:
    """1-based index n of the first pair with x[n+1] > x[n] beyond tolerance,
    tested on every pair at once."""
    if x.shape[0] < 2:
        return None
    a, b = x[:-1], x[1:]
    slack = REL_TOL * np.maximum(np.abs(a), np.abs(b))
    with np.errstate(over="ignore"):
        bad = b > a + slack
    if not bad.any():
        return None
    return int(np.argmax(bad)) + 1


def sector_scan(z: np.ndarray, bound: float) -> tuple[Optional[int], float]:
    """(the first 1-based n with |arg z_n| > bound, or None; the largest
    |arg z_n|, 0.0 for empty z), with arctan2 over every nonzero z_n."""
    ang = np.zeros(z.shape[0])
    nonzero = z != 0
    ang[nonzero] = np.abs(np.arctan2(z[nonzero].imag, z[nonzero].real))
    outside = ~(ang <= bound)
    witness = int(np.argmax(outside)) + 1 if outside.any() else None
    return witness, float(ang.max()) if ang.size else 0.0


def quasimonotone_report(vals: np.ndarray, alpha: float) -> ConditionReport:
    """check_quasimonotone's report from one quotient over the whole prefix."""
    N = vals.shape[0]
    cond = "MONOTONE" if alpha == 0 else f"QUASIMONOTONE(alpha={alpha:g})"
    witness = first_increase(vals / np.arange(1, N + 1, dtype=float) ** alpha)
    return ConditionReport(cond, HOLDS if witness is None else FAILS, None,
                           witness, N, N, None)


def orvqm_report(g: np.ndarray, theta0: float) -> ConditionReport:
    """check_orvqm's report of an unweighted view from one snap and one
    sector scan over every difference."""
    N = g.shape[0]
    diffs = g[:-1] - g[1:]
    scale = np.maximum(np.abs(g[:-1]), np.abs(g[1:]))
    snapped = diffs.copy()
    snapped[np.abs(diffs) <= REL_TOL * scale] = 0.0
    witness, widest = sector_scan(snapped, theta0 + ANGLE_TOL)
    cond = f"ORVQM(one,theta0={theta0:.6g})"
    if witness is None:
        return ConditionReport(cond, HOLDS, widest, None, N, N, None)
    return ConditionReport(cond, FAILS, None, witness, N, N, None)


def first_zero_rhs_failure(c: np.ndarray, n0: int,
                           count: int) -> Optional[int]:
    """The smallest m in 1..count (each with 2m < len(c)) where
    R_m = max |c_n| over [m, m + n0 - 1] is 0 and some c_n != c_{n+1} with
    n in [m, 2m], tested at every m at once; None when no m is."""
    R = np.lib.stride_tricks.sliding_window_view(np.abs(c), n0)[:count]
    changes = np.concatenate(([0], np.cumsum(c[:-1] != c[1:])))
    m = np.arange(1, count + 1)
    failing = (R.max(axis=1) == 0.0) & (changes[2 * m] > changes[m - 1])
    return int(m[np.argmax(failing)]) if failing.any() else None


def group_bv_report(c: np.ndarray, n0: int, m_max=None) -> ConditionReport:
    """check_group_bv's report for one window, by brute force over every m
    of the scan m = 1..m_max (default N/4) that keeps [m, 2m + 1] and
    [m, m + n0 - 1] inside c: ``fails`` at the first m with R_m = 0 and a
    nonzero |c_n - c_{n+1}| in its block, else ``holds`` with the maximum
    over every m of math.fsum(block) / R_m (0 where R_m = 0) and the
    smallest m that reaches it."""
    c = np.asarray(c)
    N = c.shape[0]
    last = min((N - 1) // 2, N - n0 + 1)
    scan = range(1, min(max(1, N // 4) if m_max is None else m_max, last) + 1)
    if not scan:
        raise SequenceError("empty scan")
    span = (scan.stop - 1, N)
    cond = f"GROUP_BV(N0={n0})"
    best, best_m = -1.0, None
    for m in scan:
        block = np.abs(c[m - 1:min(2 * m, N - 1)] - c[m:min(2 * m, N - 1) + 1])
        rhs = float(np.abs(c[m - 1:m - 1 + n0]).max())
        if rhs == 0.0:
            if block.any():
                return ConditionReport(cond, FAILS, None, m, *span, None)
            ratio = 0.0
        else:
            ratio = math.fsum(block.tolist()) / rhs
        if ratio > best:
            best, best_m = ratio, m
    return ConditionReport(cond, HOLDS, best, best_m, *span, 0.0)


def group_bv_reports_eager(view, n0_list, m_max=None) -> list:
    """conditions.check_group_bv with R formed over the whole scan before
    the first window's zero-right-side scan, and that scan run on slices
    of R: the same windows, memo and pruning, with R grown in place."""
    windows = _windows(n0_list)
    if not windows:
        return []
    c, N = view.unweighted("GROUP_BV"), view.N
    counts = [_group_bv_scan_end(N, m_max, N0) for N0 in windows]
    if not counts[-1]:
        raise SequenceError(f"horizon {N} too small for the scan starting "
                            "at m = 1")
    R = np.abs(c[:max(n + N0 - 1 for n, N0 in zip(counts, windows))])
    A = work = done = None

    def zero_rhs_failure(Rw):
        def failing(lo, hi):
            part = Rw[lo:hi]
            if part.min() != 0.0:
                return None
            m = np.flatnonzero(part == 0.0) + (lo + 1)
            nonzero = np.flatnonzero(c[m[0]:2 * m[-1] + 1]) + m[0]
            nxt = np.append(nonzero, c.shape[0])[np.searchsorted(nonzero, m)]
            hit = np.flatnonzero(nxt <= 2 * m)
            return int(m[hit[0]]) - lo - 1 if hit.size else None
        return _first_flagged(Rw.shape[0], failing)

    reports, width = {}, 1
    for N0, count in zip(windows, counts):
        while width < N0:
            s = min(width, N0 - width)
            np.maximum(R[:-s], R[s:], out=R[:-s])
            width += s
        Rw = R[:count]
        cond, span = f"GROUP_BV(N0={N0})", (count, N)
        witness = zero_rhs_failure(Rw)
        if witness is not None:
            reports[N0] = ConditionReport(cond, FAILS, None, witness, *span,
                                          None)
            continue
        if A is None:
            tail = view.tail
            ta = tail[:counts[0]]
            A = ta - tail[2:2 * counts[0] + 1:2]
            work = np.multiply(ta, _BOUND)
            with np.errstate(over="ignore"):
                A += work
            done = np.zeros(counts[0], dtype=bool)
        w = work[:count]
        with np.errstate(over="ignore"):
            if Rw.min() > 0.0:
                np.divide(A[:count], Rw, out=w)
            else:
                w.fill(0.0)
                np.divide(A[:count], Rw, out=w, where=Rw != 0.0)
        top, floor = int(np.argmax(w)), 0.0
        if w[top] > 0.0:
            a, b = top, 2 * (top + 1)
            with np.errstate(over="ignore"):
                floor = ((tail[a] - tail[b]) - tail[a] * _BOUND) / Rw[top]
        todo = np.flatnonzero((w >= floor if floor > 0.0 else w > 0.0)
                              & ~done[:count])
        A[todo] = variation_sums(c, todo, 2 * todo + 2)
        done[todo] = True
        w.fill(0.0)
        with np.errstate(over="ignore"):
            np.divide(A[:count], Rw, out=w, where=done[:count])
        best = float(w.max())
        witness = 1 + int(np.argmax(w)) if best > 0.0 else 1
        reports[N0] = ConditionReport(cond, HOLDS, best, witness, *span, 0.0)
    return [reports[int(n0)] for n0 in n0_list]


def tail_variation_report(view, rhs: np.ndarray, m_max: Optional[int],
                          cond: str) -> ConditionReport:
    """The report of the rest-variation scan from the view's tail sums at
    every m: ``fails`` at the first m with rhs = 0 and T_m > 0, else the
    largest T_m / rhs (0 where rhs = 0) with its smallest m."""
    N = view.N
    m_hi = _scan_end(N, m_max, N - 1)
    Tm, Rm = view.tail[:m_hi], rhs[:m_hi]
    failing = (Rm == 0.0) & (Tm > 0.0)
    if failing.any():
        witness = 1 + int(np.argmax(failing))
        return ConditionReport(cond, FAILS, None, witness, m_hi, N, None)
    ratios = np.divide(Tm, Rm, out=np.zeros(Rm.shape), where=Rm != 0.0)
    total, block = float(view.tail[0]), float(view.tail[max(1, N // 2) - 1])
    stab = block / total if total > 0.0 else 0.0
    verdict = HOLDS if stab <= STABILIZATION_THRESHOLD else INCONCLUSIVE
    return ConditionReport(cond, verdict, float(ratios.max()),
                           1 + int(np.argmax(ratios)), m_hi, N, stab)
