"""Deterministic compensated summation helpers.

The long reductions of the condition checkers run through the functions
below so that repeated runs produce bit-identical results: fixed evaluation
order, no threading, and exactly rounded sums where the error matters.

Every exactly rounded sum, ``exact_sum``, the chunk sums of
``suffix_sums`` and the range sums below, has the bits
of ``math.fsum`` over the same floats.  An array of at least _T values
whose largest |x| lies in [2^-900, 2^900] is first split without error
into a few parts per row of values by the vector extraction of Rump,
Ogita and Oishi (*Accurate floating-point summation, part I*, SIAM J.
Sci. Comput. 31(1), 2008, Lemma 3.2, ExtractVector): a few numpy passes
over the array in place of one Python step per value.  ``math.fsum`` then
rounds the exact sum of the parts, which is the exact sum of the values,
so it returns the float it would return for the values themselves.  Any other input (shorter, NaN,
+-inf, a value past 2^900, all zero or all below 2^-900) is ``math.fsum``
reading the float64 buffer through a ``memoryview``, with its value, its
OverflowError and its signed zero.

The range sums (_range_sums) give math.fsum's bits over many ranges of
any one array of n nonnegative values.  Which route serves them is a cost
rule: one exact_sum per range while the ranges hold at most _TABLE_FROM
values per value of the array together, else one level table, unless a
value is NaN, inf or past 2^900.  Zeros and values below 2^-900 need no
route of their own: the argument below covers them.  The level table runs
the extraction of _peel with one sigma per level for the whole array:
with 2^M >= n + 2, the remainder r of the level before (the values
themselves at level 0), max |r| < 2^e and sigma = 2^(e+M), each q = (r +
sigma) - sigma is an exact multiple of 2^(e+M-53) with |q| <= 2^e, and r -
q, the rounding error of r + sigma, is a float, so r = q + (r - q)
exactly.  Levels go on until the remainder is zero; each peels at least
52 - M bits off the largest remainder, and once sigma falls below
2^-1022 the addition is exact and q = r.  So every value is exactly the
sum of its q over the levels.  Within a level, the sum of any subset of
the q is a multiple of 2^(e+M-53) below n 2^e < sigma in magnitude: it
has at most 53 bits and is a float.  Every partial sum of the level's
cumsum is such a subset sum, so the cumsum is exact in whatever order it
adds, and so is the difference of two of its entries, the level's sum
over a range.  A range's exact sum is then the exact sum of its K level
sums, and math.fsum of those K floats rounds it correctly, as math.fsum
of the range's values does: the same float.
"""

from __future__ import annotations

import itertools
import math
from typing import Optional

import numpy as np

# Chunk length for the blocked suffix-sum scheme (see suffix_sums).
_CHUNK = 4096
# The extraction kernel (_peel) takes arrays of at least _T values, in rows
# of _ROW values and blocks of about _BLOCK values (256 KB, which stay in
# cache).  Below about 2500 values its fixed cost of some 25 numpy calls
# loses to math.fsum on positive data; at 4096 it wins on every data shape
# measured (positive, signed, 1/k^2, sin(kx)/k; 2-core Xeon, numpy 2.4).
_T = 4096
_ROW = 4096
_BLOCK = 1 << 15
# The kernel's range: no |x| above _HUGE (sigma and the row sums stay far
# below overflow), and it stops peeling below _TINY.
_TINY = 2.0 ** -900
_HUGE = 2.0 ** 900
# The level table serves the range sums once the ranges hold more than this
# many values per value of the array; below it exact_sum runs per range.
_TABLE_FROM = 1


def _peel(values: np.ndarray, row: int) -> Optional[list[list[float]]]:
    """Per row of ``row`` consecutive values (the last one may be shorter),
    floats whose exact sum is the exact sum of the row.

    Rump, Ogita and Oishi's ExtractVector (Lemma 3.2 of the paper cited in
    the module docstring): for a row p of n values with max |p| < 2^e and
    sigma = 2^(e+M), 2^M >= n + 2, each q = (p + sigma) - sigma is p
    rounded to a multiple of 2^(e+M-53), p - q is exact and at most
    2^(e+M-53) in magnitude, and the sum of the q is below sigma, so it is
    exact in any order.  The row sum of q is one part; p - q is peeled
    again, about 53 - M bits lower, until every value of the block is zero
    or below 2^-900, and what remains of a row joins its parts.

    Returns None when some value is NaN or infinite, when some |x| exceeds
    2^900, or when none reaches 2^-900 (all zeros included); the caller
    then sums with math.fsum alone.  The scratch arrays hold one block.
    """
    n = values.shape[0]
    full = n - n % row
    rows = values[:full].reshape(-1, row)
    step = max(1, _BLOCK // row)
    blocks = [rows[i:i + step] for i in range(0, rows.shape[0], step)]
    if full < n:
        blocks.append(values[full:].reshape(1, -1))
    q_buf = np.empty((min(step, rows.shape[0]), row))
    p_buf = np.empty_like(q_buf)
    out: list[list[float]] = []
    top = 0.0
    for block in blocks:
        r, width = block.shape
        if width == row:
            q, p = q_buf[:r], p_buf[:r]
        else:
            q, p = np.empty((r, width)), np.empty((r, width))
        M = (width + 1).bit_length()      # 2^M >= width + 2
        src, levels = block, []
        while True:
            big = np.abs(src, out=q).max(axis=1)
            peak = float(big.max())
            if not peak <= _HUGE:          # NaN, inf or past the range
                return None
            top = max(top, peak)
            if peak < _TINY:
                break
            _, e = np.frexp(big)            # big < 2^e
            sigma = np.ldexp(1.0, e + M)[:, None]
            np.add(src, sigma, out=q)
            q -= sigma
            levels.append(q.sum(axis=1))
            np.subtract(src, q, out=p)
            src = p
        parts = np.stack(levels, axis=1).tolist() if levels else [[]] * r
        for i in np.flatnonzero(big).tolist():
            rest = src[i]
            parts[i] = parts[i] + rest[rest != 0.0].tolist()
        out.extend(parts)
    return out if top >= _TINY else None


def exact_sum(values) -> float:
    """Exactly rounded sum of a flat real array or iterable: the bits of
    ``math.fsum`` over its values.

    From _T values on, with max |x| in [2^-900, 2^900], _peel (Rump, Ogita
    and Oishi's ExtractVector, Lemma 3.2) splits the array without error
    into a few parts per row.  The parts sum exactly to the same real
    number as the values, and math.fsum rounds that real correctly in
    either case, so both give the same float.  In that range no sum can
    overflow, and a nonzero value rules out an all-zero input.  Every other
    input (short, NaN, +-inf, past 2^900, all zero, all below 2^-900) is
    math.fsum over the buffer, with its value, its OverflowError and its
    signed zero.
    """
    arr = np.ascontiguousarray(values, dtype=float)
    if arr.shape[0] >= _T:
        parts = _peel(arr, _ROW)
        if parts is not None:
            return math.fsum(itertools.chain.from_iterable(parts))
    return math.fsum(memoryview(arr))


def _range_sums(values: np.ndarray, starts: np.ndarray,
                stops: np.ndarray) -> np.ndarray:
    """The bits of ``math.fsum(values[a:b])`` for each a of ``starts`` and
    b of ``stops`` (0 <= a <= b <= n), for any 1-D nonnegative float array
    ``values``; math.fsum's OverflowError past the float range.

    The level table may overwrite ``values`` with its remainders.  See the
    module docstring for the choice of route and why each sum is exact.
    The table's scratch is ``values`` and one array of its length; each
    level keeps only its sums over the ranges.
    """
    n = values.shape[0]
    if (int((stops - starts).sum()) <= _TABLE_FROM * n
            or not (peak := float(values.max())) <= _HUGE):  # NaN as well
        return np.array([exact_sum(values[a:b])
                         for a, b in zip(starts.tolist(), stops.tolist())])
    M = (n + 1).bit_length()            # 2^M >= n + 2
    # prefix sums P(j) = sum(q[:j]) are cumsum[j - 1], and P(0) = 0
    ends, end_in = stops - 1, stops > 0
    begins, begin_in = starts - 1, starts > 0
    q = np.empty_like(values)
    levels = []
    while peak > 0.0:
        sigma = math.ldexp(1.0, math.frexp(peak)[1] + M)
        np.add(values, sigma, out=q)
        q -= sigma
        values -= q
        np.cumsum(q, out=q)
        level = np.where(end_in, q[ends], 0.0)
        level -= np.where(begin_in, q[begins], 0.0)
        levels.append(level)
        peak = max(float(values.max()), -float(values.min()))
    if len(levels) <= 1:        # each exact sum is already one float
        return levels[0] if levels else np.zeros(starts.shape[0])
    return np.array([math.fsum(parts)
                     for parts in zip(*(lv.tolist() for lv in levels))])


def _suffix_offsets(chunk_sums: list[float]) -> list[float]:
    """offset[j] = exactly rounded sum of chunk_sums[j + 1:]: an exact
    running suffix in integer multiples of 2^-1074, each offset one
    correctly rounded int true division.  For sums far from overflow this
    is math.fsum's float in linear time; math.fsum over each suffix would
    be quadratic in the chunk count."""
    scale = 1 << 1074
    offsets, acc = [], 0
    for s in reversed(chunk_sums):
        offsets.append(acc / scale)
        num, den = s.as_integer_ratio()
        acc += num * (scale // den)
    return offsets[::-1]


def suffix_sums(values: np.ndarray) -> np.ndarray:
    """Return ``s`` with ``s[i] == sum(values[i:])`` for a 1-D real array.

    Per chunk of _CHUNK values, ``s[i]`` is the chunk's reversed recursive
    sum from i (Higham's bound gamma_(k-1) for k <= _CHUNK terms, with
    gamma_j = j u / (1 - j u) and u the unit roundoff) plus the exactly
    rounded sum of the later chunks' exactly rounded sums.  With the final
    addition, |s[i] - sum(values[i:])| <= gamma_(_CHUNK) * sum(|values[i:]|):
    below about _CHUNK * u = 4.5e-13 relative for nonnegative input.
    math.fsum raises OverflowError past the float range.

    The chunk sums are math.fsum of each chunk's parts from one _peel call
    over every chunk, or of the chunk itself on input _peel declines (see
    exact_sum); the full chunks' reversed cumulative sums come from one 2-D
    cumsum.  These are the same floats as summing and accumulating chunk
    by chunk, and the offsets need time linear in the chunk count.
    """
    vals = np.ascontiguousarray(values, dtype=float)
    n = vals.shape[0]
    out = np.empty(n, dtype=float)
    if n == 0:
        return out
    parts = _peel(vals, _CHUNK) if n >= _T else None
    if parts is None:
        parts = [memoryview(vals[s:s + _CHUNK]) for s in range(0, n, _CHUNK)]
    chunk_sums = [math.fsum(p) for p in parts]
    # with the sum of |chunk sums| below 2^1021 no suffix and no step of
    # math.fsum can overflow; past it, or on inf and NaN, math.fsum gives
    # the value or the exception
    if np.abs(chunk_sums).max() <= 2.0 ** 1021 / len(chunk_sums):
        offsets = _suffix_offsets(chunk_sums)
    else:
        offsets = [math.fsum(chunk_sums[j + 1:])
                   for j in range(len(chunk_sums))]
    full = n - n % _CHUNK
    within = out[:full].reshape(-1, _CHUNK)
    np.cumsum(vals[:full].reshape(-1, _CHUNK)[:, ::-1], axis=1,
              out=within[:, ::-1])
    within += np.array(offsets[:within.shape[0]])[:, None]
    if full < n:
        out[full:] = np.cumsum(vals[full:][::-1])[::-1] + offsets[-1]
    return out
