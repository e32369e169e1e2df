"""Deterministic compensated summation helpers.

The long reductions of the condition checkers run through the functions
below so that repeated runs produce bit-identical results: fixed evaluation
order, no threading, and exactly rounded sums where the error matters.

Every exactly rounded sum is ``math.fsum`` reading the buffer of a
contiguous float64 array through a ``memoryview``: the same floats in the
same order as ``math.fsum(arr.tolist())``, so the same result bit for bit,
without building a Python list first.
"""

from __future__ import annotations

import math

import numpy as np

# Chunk length for the blocked suffix-sum scheme (see suffix_sums).
_CHUNK = 4096


def _fsum(values) -> float:
    """math.fsum over the buffer of ``values`` as a flat float64 array."""
    return math.fsum(memoryview(np.ascontiguousarray(values, dtype=float)))


def exact_sum(values) -> float:
    """Exactly rounded sum of a flat real array or iterable: math.fsum
    reading the float64 buffer, no Python list in between."""
    return _fsum(values)


def exact_complex_sum(values) -> complex:
    """Exactly rounded sum of a complex iterable, real and imaginary parts
    summed independently."""
    arr = np.asarray(values, dtype=complex)
    return complex(_fsum(arr.real), _fsum(arr.imag))


def suffix_sums(values: np.ndarray) -> np.ndarray:
    """Return ``s`` with ``s[i] == sum(values[i:])`` for a 1-D real array.

    Per chunk of _CHUNK values, ``s[i]`` is the chunk's reversed recursive
    sum from i (Higham's bound gamma_(k-1) for k <= _CHUNK terms, with
    gamma_j = j u / (1 - j u) and u the unit roundoff) plus the exactly
    rounded sum of the later chunks' exactly rounded sums.  With the final
    addition, |s[i] - sum(values[i:])| <= gamma_(_CHUNK) * sum(|values[i:]|):
    below about _CHUNK * u = 4.5e-13 relative for nonnegative input.
    math.fsum raises OverflowError past the float range.
    """
    vals = np.ascontiguousarray(values, dtype=float)
    n = vals.shape[0]
    out = np.empty(n, dtype=float)
    if n == 0:
        return out
    starts = list(range(0, n, _CHUNK))
    chunk_sums = [_fsum(vals[s:s + _CHUNK]) for s in starts]
    for idx, s in enumerate(starts):
        chunk = vals[s:s + _CHUNK]
        # suffix within the chunk, then shift by the exact sum of all later chunks
        within = np.cumsum(chunk[::-1])[::-1]
        offset = math.fsum(chunk_sums[idx + 1:])
        out[s:s + _CHUNK] = within + offset
    return out
