"""Brute-force oracles for the tests: exactly rounded complex sums, direct
partial sums, the summation-by-parts tail bound, and the full-array
condition scans that the span-by-span scans in :mod:`trigconv.conditions`
must reproduce bit for bit."""

import math
from typing import Optional

import numpy as np

from trigconv.conditions import FAILS, HOLDS, ConditionReport
from trigconv.sequences import (
    ANGLE_TOL,
    REL_TOL,
    CoefficientSequence,
    SequenceError,
    TwoSidedSequence,
)
from trigconv.summation import exact_sum


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
