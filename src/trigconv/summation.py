"""Deterministic compensated summation helpers.

The long reductions of the condition checkers run through the functions
below so that repeated runs produce bit-identical results: fixed evaluation
order, no threading, and exactly rounded sums where the error matters.

Every exactly rounded sum, ``exact_sum``, the chunk sums of
``suffix_sums``, the range sums of ``_range_sums`` (which serve the
variation sums of ``variation_sums`` and the offsets of ``suffix_sums``)
and the variation sums taken from chunk parts, has the bits of
``math.fsum`` over the same floats.  One loop, _extract,
splits the values without error into a few floats per row or per range:
the vector extraction of Rump, Ogita and Oishi (*Accurate floating-point
summation, part I*, SIAM J. Sci. Comput. 31(1), 2008, Lemma 3.2,
ExtractVector), a few numpy passes over the array in place of one Python
step per value.
``math.fsum`` then rounds the exact sum of those floats, which is the
exact sum of the values, so it returns the float it would return for the
values themselves.

Why the split is exact.  _extract takes an array of n values, a block of
exact_sum or suffix_sums or the whole array of _range_sums, with no NaN,
no inf and no |x| above 2^900.  With 2^M >= n + 2, the remainder r of the
level before (the values themselves at level 0), max |r| < 2^e and sigma
= 2^(e+M), each q = (r + sigma) - sigma is an exact multiple of
2^(e+M-53) with |q| <= 2^e, and r - q, the rounding error of r + sigma,
is a float, so r = q + (r - q) exactly.  Levels go on until the remainder
is zero; each peels at least 52 - M bits off the largest remainder, and
once sigma falls below 2^-1022 the addition is exact and q = r.  So every
value, subnormals included, is exactly the sum of its q over the levels.
Within a level, the sum of any subset of the q is a multiple of
2^(e+M-53) below n 2^e < sigma in magnitude: it has at most 53 bits and
is a float.  A row sum is such a subset sum, and so is every partial sum
of the level's cumsum, so each is exact in whatever order numpy adds, and
so is the difference of two cumsum entries, the level's sum over a range.
The exact sum of a row or a range is then the exact sum of its level
sums, and math.fsum of those floats rounds it correctly, as math.fsum of
its values does: the same float.  No level sum comes near overflow, as
sigma <= 2^(901+M).

The scratch is one block.  _extract runs each level over blocks of _BLOCK
values, with sigma from the largest remainder of the whole array, so each
q is the one a pass over the whole array would give.  A row or a range
that crosses block edges is summed share by share, and every running
total of those shares is again a subset sum, so it is exact.  So is the
level's cumsum carried from block to block: adding P(lo), the sum of the
first lo values, to the block's first value and taking the block's cumsum
gives each P(lo + i + 1) as a partial sum of the level, exactly.

An exact_sum of input _extract declines (NaN, +-inf, some |x| past
2^900), of fewer than _T values or of no nonzero value is ``math.fsum``
reading the float64 buffer through a ``memoryview``, with its value, its
OverflowError and its signed zero.  On input _extract declines,
suffix_sums does the same per chunk and _range_sums takes one exact_sum
per range.

``suffix_sums`` sums exactly only its chunks after the first: the offsets
are sums of later chunks, so none reads the first chunk's sum.  They are
the range sums of the suffixes of those chunk sums, signed as they may
be, from one _range_sums call.  The first chunk's sum is still taken,
and dropped, where math.fsum could raise on it (a non-finite value, or
some |x| above 2^1021/_CHUNK), so that suffix_sums raises what summing
every chunk would raise.

Sums from chunk parts.  The level sums of one chunk that suffix_sums
splits are floats whose exact sum is the chunk's exact sum (the proof
above, a row per chunk), and suffix_sums can hand them on.  A long range
of the same values is then a union of whole chunks and two ragged ends:
math.fsum over the parts of those chunks and the exact parts of each end
(the end's own level sums, or its values) reads floats whose exact sum is
the range's exact sum, and rounds it correctly, as math.fsum over the
range's values does: the same float, at the cost of the two ends and a
few floats per chunk.  The first chunk is never split, so a range that
reaches into it takes that share as an end.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

# Chunk length for the blocked suffix-sum scheme (see suffix_sums).
_CHUNK = 4096
# exact_sum and suffix_sums run _extract on arrays of at least _T values, in
# blocks of about _BLOCK values (256 KB, which stay in cache).  Its fixed
# cost of about 20 numpy calls per block loses to math.fsum below about
# 2000 values and ties near 2048 on positive data; from 2560 values on it
# wins on every data shape measured.  Best of 7 x 50 calls, math.fsum /
# _row_parts in microseconds (2-core Xeon, numpy 2.4):
#
#     values   positive   signed      1/k^2      sin(kx)/k
#     1000     15 / 27    22 / 27     15 / 27    23 / 27
#     2048     32 / 31    61 / 32     34 / 33    54 / 31
#     2560     41 / 33    75 / 34     41 / 33    63 / 33
#     4095     65 / 37    137 / 37    65 / 37    108 / 38
_T = 2560
_BLOCK = 1 << 15
# _extract's range: no |x| above _HUGE, so sigma and every sum of a level
# stay far below overflow.
_HUGE = 2.0 ** 900
# The level table serves the range sums once the ranges hold more than this
# many values per value of the array; below it exact_sum runs per range.
_TABLE_FROM = 1
# variation_sums sums a range from the parts of its whole chunks once the
# ranges average more than this many differences of their hull each.  A
# range costs 60-80 us that way, as much as 6,000-13,000 differences of
# the level table over the hull (perturbed and rbv_block at 2^20).
_SPARSE = 4 * _CHUNK


def _extract(values: np.ndarray, reduce: Callable[..., None],
             size: int) -> Optional[list[np.ndarray]]:
    """The levels of the extraction of a nonempty array ``values`` (see the
    module docstring) until the remainder is zero, each reduced to an array
    of ``size`` sums: ``values`` ends all zero.

    Each level runs over the blocks of _BLOCK values in order, with one
    block of scratch: ``reduce(q, lo, level)`` gets the level's values at
    lo..lo + len(q) - 1 as q, which it may overwrite, and adds their share
    into ``level``, zeros at first.  Sigma comes from the whole array's
    largest remainder.  Returns None, with ``values`` untouched, when some
    value is NaN or infinite or some |x| exceeds 2^900; no level when
    every value is zero.
    """
    peak = max(float(values.max()), -float(values.min()))
    if not peak <= _HUGE:           # NaN as well
        return None
    n = values.shape[0]
    M = (n + 1).bit_length()        # 2^M >= n + 2
    scratch = np.empty(min(n, _BLOCK))
    levels = []
    while peak > 0.0:
        sigma = math.ldexp(1.0, math.frexp(peak)[1] + M)
        level, peak = np.zeros(size), 0.0
        for lo in range(0, n, _BLOCK):
            r = values[lo:lo + _BLOCK]
            q = scratch[:r.shape[0]]
            np.add(r, sigma, out=q)
            q -= sigma
            r -= q
            peak = max(peak, float(r.max()), -float(r.min()))
            reduce(q, lo, level)
        levels.append(level)
    return levels


def _row_parts(values: np.ndarray, row: int) -> Optional[list[list[float]]]:
    """Per row of ``row`` consecutive values (the last one may be shorter),
    its sum at each level of _extract: floats whose exact sum is the exact
    sum of the row.

    _extract runs on a copy of one block at a time, a whole number of rows
    and about _BLOCK values, so the scratch is two blocks.  A row longer
    than _BLOCK is a copy of its own, whose blocks all add into it.
    Returns None when _extract declines some block.
    """
    def over_rows(q: np.ndarray, lo: int, level: np.ndarray) -> None:
        level += np.add.reduceat(q, np.arange(0, q.shape[0], row))

    n = values.shape[0]
    size = max(1, _BLOCK // row) * row
    buf = np.empty(min(size, n))
    out: list[list[float]] = []
    for start in range(0, n, size):
        block = buf[:min(size, n - start)]
        np.copyto(block, values[start:start + size])
        rows = -(-block.shape[0] // row)
        levels = _extract(block, over_rows, rows)
        if levels is None:
            return None
        out.extend(np.stack(levels, axis=1).tolist() if levels
                   else [[]] * rows)
    return out


def exact_sum(values) -> float:
    """Exactly rounded sum of a flat real array or iterable: the bits of
    ``math.fsum`` over its values.

    From _T values on, the parts of _row_parts (one row per block) sum
    exactly to the same real number as the values, and math.fsum rounds
    that real correctly in either case, so both give the same float.
    Input _extract declines (NaN, +-inf, past 2^900), shorter input and
    input with no nonzero value are math.fsum over the buffer, with its
    value, its OverflowError and its signed zero.
    """
    return math.fsum(_exact_parts(np.ascontiguousarray(values, dtype=float)))


def _exact_parts(arr: np.ndarray) -> Iterable[float]:
    """Floats whose exact sum is the exact sum of a flat float array: from
    _T values on, the parts of _row_parts (one row per block); below _T
    values, on input _extract declines and with no nonzero value, the
    values themselves (see exact_sum)."""
    if arr.shape[0] >= _T:
        parts = _row_parts(arr, _BLOCK)
        if parts is not None and any(parts):
            return itertools.chain.from_iterable(parts)
    return memoryview(arr)


def _range_sums(values: np.ndarray, starts: np.ndarray,
                stops: np.ndarray) -> np.ndarray:
    """The bits of ``math.fsum(values[a:b])`` for each a of ``starts`` and
    b of ``stops`` (ascending, 0 <= a <= b <= n), for any 1-D float array
    ``values``, signed or not: the module's proof bounds a subset sum by
    max |r|, whatever the signs; math.fsum's OverflowError past the float
    range.

    Once the ranges hold more than _TABLE_FROM values per value of the
    array, one _extract over the whole array reduces each level to its
    sums over the ranges, P(b) - P(a) with P(j) the sum of the level's
    first j values (see the module docstring); it leaves ``values`` all
    zero.  The level's running sum is carried from block to block, and
    P(j) is read in the block that holds value j - 1; as the ends ascend,
    a block's ends are one slice of each list.  Short ranges, and
    input _extract declines, take one exact_sum per range.  The scratch is
    one block, and each level keeps only its sums over the ranges.
    """
    n = values.shape[0]
    if int((stops - starts).sum()) > _TABLE_FROM * n:
        edges = np.append(np.arange(0, n, _BLOCK), n)
        # per end: sign, ends, bounds (P(0) = 0 is read in no block)
        marks = [(sign, ends, np.searchsorted(ends, edges, side="right"))
                 for sign, ends in ((1.0, stops), (-1.0, starts))]
        carry = 0.0

        def over_ranges(q: np.ndarray, lo: int, level: np.ndarray) -> None:
            nonlocal carry
            if lo:
                q[0] += carry
            np.cumsum(q, out=q)     # q[i] = P(lo + i + 1)
            carry = q[-1]
            k = lo // _BLOCK
            for sign, ends, bounds in marks:
                a, b = bounds[k], bounds[k + 1]
                level[a:b] += sign * q[ends[a:b] - (lo + 1)]

        levels = _extract(values, over_ranges, starts.shape[0])
        if levels is not None:
            if len(levels) <= 1:    # each exact sum is already one float
                return levels[0] if levels else np.zeros(starts.shape[0])
            # no result list grown by realloc: it fragmented the heap, and
            # classify_large's peak RSS read 95 MB, not 80, in most runs
            return np.fromiter(
                map(math.fsum, zip(*(lv.tolist() for lv in levels))),
                float, count=starts.shape[0])
    return np.array([exact_sum(values[a:b])
                     for a, b in zip(starts.tolist(), stops.tolist())])


def _abs_diffs(c: np.ndarray, a: int, b: int) -> np.ndarray:
    """|c_j - c_(j+1)| for j = a..b-1, in one new float array."""
    d = np.subtract(c[a:b], c[a + 1:b + 1])
    return np.abs(d, out=d) if d.dtype == float else np.abs(d)


def variation_sums(c: np.ndarray, starts: np.ndarray, stops: np.ndarray,
                   chunk_parts: Sequence[list[float]] = ()) -> np.ndarray:
    """The bits of math.fsum of |c_j - c_(j+1)| over j = a..b-1 for each a
    of ``starts`` and b of ``stops`` (ascending int arrays, 0 <= a <= b <
    len(c)), for a real or complex float array ``c``; math.fsum's
    OverflowError past the float range.

    ``chunk_parts``, when given, holds for each chunk k = 1..K of _CHUNK
    differences (j in [k _CHUNK, (k+1) _CHUNK)) floats whose exact sum is
    the chunk's, as suffix_sums keeps them.  When the ranges average more
    than _SPARSE differences of their hull each, a range is then math.fsum
    of the parts of every such chunk inside it and the exact parts of its
    two ragged ends, each fewer than _CHUNK differences formed from c
    (_exact_parts); a range that holds no such chunk is the exact_sum of
    its differences.  Otherwise one _range_sums call runs over the
    differences of the hull [starts[0], stops[-1]] (their one copy).
    """
    if not starts.shape[0]:
        return np.zeros(0)
    lo, hi = int(starts[0]), int(stops[-1])
    if chunk_parts and starts.shape[0] * _SPARSE < hi - lo:
        return np.array([_chunked_sum(c, a, b, chunk_parts)
                         for a, b in zip(starts.tolist(), stops.tolist())])
    return _range_sums(_abs_diffs(c, lo, hi), starts - lo, stops - lo)


def _chunked_sum(c: np.ndarray, a: int, b: int,
                 chunk_parts: Sequence[list[float]]) -> float:
    """One range of variation_sums from the parts of its whole chunks."""
    first, stop = max(1, -(-a // _CHUNK)), b // _CHUNK
    if first >= stop:
        return exact_sum(_abs_diffs(c, a, b))
    s, t = first * _CHUNK, stop * _CHUNK
    return math.fsum(itertools.chain(
        _exact_parts(_abs_diffs(c, a, s)), _exact_parts(_abs_diffs(c, t, b)),
        *chunk_parts[first - 1:stop - 1]))


def suffix_sums(values: np.ndarray,
                chunk_parts: Optional[list] = None) -> np.ndarray:
    """Return ``s`` with ``s[i] == sum(values[i:])`` for a 1-D real array.

    Per chunk of _CHUNK values, ``s[i]`` is the chunk's reversed recursive
    sum from i (Higham's bound gamma_(k-1) for k <= _CHUNK terms, with
    gamma_j = j u / (1 - j u) and u the unit roundoff) plus offset[j], the
    exactly rounded sum of the later chunks' exactly rounded sums.  With the
    final addition, |s[i] - sum(values[i:])| <= gamma_(_CHUNK) *
    sum(|values[i:]|): below about _CHUNK * u = 4.5e-13 relative for
    nonnegative input.  math.fsum raises OverflowError past the float range.

    Only the K chunks after the first are summed exactly: no offset reads
    the first chunk's sum.  They are math.fsum of each chunk's parts from
    one _row_parts call over those chunks, a row per chunk, or of the
    chunk itself below _T values and on input _extract declines (see
    exact_sum).  A list ``chunk_parts`` receives those parts, one list of
    floats per chunk after the first, when _row_parts gave them; it stays
    empty otherwise.  The offsets are one _range_sums call over those K sums,
    the ranges [j, K) for j = 0..K.  An input of at most _CHUNK values (K
    = 0) is one reversed cumsum plus the offset 0.0 (which turns -0.0 into
    +0.0), and nothing else.  The first chunk's sum is still taken, and
    dropped, when it could raise: math.fsum's ValueError on inf + -inf or
    OverflowError past the float range, which need a non-finite value or
    some |x| above 2^1021/_CHUNK.  The full chunks' reversed cumulative
    sums come from one 2-D cumsum.  These are the same floats and errors
    as summing and accumulating chunk by chunk.
    """
    vals = np.ascontiguousarray(values, dtype=float)
    n = vals.shape[0]
    if n <= _CHUNK:     # K = 0; _extract's test, with no |values| array
        if n and not max(float(vals.max()),
                         -float(vals.min())) <= 2.0 ** 1021 / _CHUNK:
            math.fsum(memoryview(vals))     # for its error only
        return np.cumsum(vals[::-1])[::-1] + 0.0
    out = np.empty(n, dtype=float)
    head = vals[:_CHUNK]
    if not np.abs(head).max() <= 2.0 ** 1021 / _CHUNK:    # NaN as well
        math.fsum(memoryview(head))         # for its error only
    rest = vals[_CHUNK:]
    parts = _row_parts(rest, _CHUNK) if rest.shape[0] >= _T else None
    if parts is None:
        parts = [memoryview(rest[s:s + _CHUNK])
                 for s in range(0, rest.shape[0], _CHUNK)]
    elif chunk_parts is not None:
        chunk_parts.extend(parts)
    later = [math.fsum(p) for p in parts]
    K = len(later)
    offsets = (_range_sums(np.array(later), np.arange(K + 1),
                           np.full(K + 1, K)) if K else np.zeros(1))
    full = n - n % _CHUNK
    within = out[:full].reshape(-1, _CHUNK)
    np.cumsum(vals[:full].reshape(-1, _CHUNK)[:, ::-1], axis=1,
              out=within[:, ::-1])
    within += offsets[:within.shape[0], None]
    if full < n:
        out[full:] = np.cumsum(vals[full:][::-1])[::-1] + offsets[-1]
    return out
