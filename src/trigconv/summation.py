"""Deterministic compensated summation helpers.

The long reductions of the condition checkers run through the functions
below so that repeated runs produce bit-identical results: fixed evaluation
order, no threading, and compensated (or exactly rounded) accumulation.  The
relative error of ``suffix_sums`` is a few ulp even for 2**20 terms, which
keeps downstream ratio checks well inside their 1e-9 windows.

Every exactly rounded sum is ``math.fsum`` reading the buffer of a
contiguous float64 array through a ``memoryview``: the same floats in the
same order as ``math.fsum(arr.tolist())``, so the same result bit for bit,
without building a Python list first.
"""

from __future__ import annotations

import math

import numpy as np

# Chunk length for the blocked suffix-sum scheme.  Within a chunk a plain
# reversed cumsum is used (error <= chunk * eps); across chunks the offsets
# are exactly rounded via math.fsum.
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

    Blocked compensated scheme: per-chunk reversed cumulative sums plus
    exactly rounded chunk offsets.  Deterministic and accurate to a few ulp
    independent of length; safe for the nonnegative arrays (absolute
    differences) this package feeds it.
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
