"""Coefficient sequences, weights, sectors, and the family grammar.

The package works with one-sided sequences ``c_1, c_2, ...`` (one pure
map of the index each: explicit data reads its array, a family computes;
an exponential series' ``{c_n}`` and ``{c_-n}`` are two of them),
positive non-decreasing weight sequences, and closed angular sectors

    K(theta0) = { z : |arg z| <= theta0 },   0 <= theta0 < pi/2,

with the convention that z = 0 belongs to every sector.  All generator
families are pure functions of the index, so a prefix computed twice is
bit-identical; randomized families derive every draw from an explicit
64-bit seed through the SplitMix64 finalizer.

Every map is elementwise: the value at an index depends on that index
alone, not on the length of the index array or on its other entries.  One
loop, _evaluate, runs every map over pieces of _PIECE indices into one
output array, which relies on that rule to give the values of a single
call over all of them.
"""

from __future__ import annotations

import math
import mmap
import re
import sys
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "ANGLE_TOL",
    "REL_TOL",
    "CoefficientSequence",
    "Sector",
    "SequenceError",
    "WeightSequence",
    "sequence_from_text",
    "unit_noise",
    "weight_from_text",
]

# Absolute angle tolerance (radians) for sector membership, and the relative
# tolerance used for monotonicity-style comparisons throughout the package.
# Both absorb generator round-off; see the individual checkers.
ANGLE_TOL = 1e-12
REL_TOL = 1e-12

# A truncated sum counts as stabilized when its last dyadic block
# contributes at most this fraction of the total.
STABILIZATION_THRESHOLD = 1e-3


class SequenceError(ValueError):
    """Malformed sequence input (wrong sign, wrong length, bad spec...)."""


# An error message repeats at most this many characters of a text it quotes.
_EXCERPT_CHARS = 60


def excerpt(text: str) -> str:
    """The repr of text for an error message: whole up to _EXCERPT_CHARS
    characters, else its first _EXCERPT_CHARS and how many more it has, so
    that one line stays short whatever the input."""
    if len(text) <= _EXCERPT_CHARS:
        return repr(text)
    return (f"{text[:_EXCERPT_CHARS]!r} (and "
            f"{len(text) - _EXCERPT_CHARS} more characters)")


# ... and at most this many characters of an integer's decimal text: every
# int64 and uint64 whole, and two long integers to a short line.
_EXCERPT_DIGITS = 30


def excerpt_int(value: int) -> str:
    """The decimal text of an integer for an error message: whole up to
    _EXCERPT_DIGITS characters, else its first _EXCERPT_DIGITS and how many
    more it has (an int option may have thousands of digits).

    A long integer is not converted whole: str() refuses one of more than
    4300 digits, and a product of int options can have that many.  Its
    digit count d is floor(b log10 2) + 1 for its bit length b, or one
    less, and its head is the integer quotient by 10^(d - kept digits)."""
    sign, mag = ("-", -value) if value < 0 else ("", value)
    keep = _EXCERPT_DIGITS - len(sign)
    if mag < 10 ** keep:
        return str(value)
    digits = int(mag.bit_length() * math.log10(2.0)) + 1
    if mag < 10 ** (digits - 1):
        digits -= 1
    return (f"{sign}{mag // 10 ** (digits - keep)} (and "
            f"{digits - keep} more digits)")


def _require_finite(value: float, what: str) -> None:
    """One rule for finite input whose derived value (c/R, a sum, a ratio,
    a partial sum) overflows."""
    if not math.isfinite(value):
        raise SequenceError(f"{what} overflows the float range")


_INT64_MAX = int(np.iinfo(np.int64).max)


def _require_allocatable(N: int) -> None:
    """MemoryError past what one array of N int64 or float64 values can
    hold (where numpy raises ValueError, or wraps an index range to an
    empty one at 2^63 - 1)."""
    if N > np.iinfo(np.intp).max // 8:
        raise MemoryError(f"cannot allocate {excerpt_int(N)} indices")


# Maps run over pieces of this many indices, so that the few float64
# temporaries of a map (128 KiB each) stay in cache.  values_at over 2^20
# indices for the six families of the classify_large benchmark
# (harmonic(1.0), log_damped, rbv_block(1.0), quasimono(0.5,2.0),
# lacunary(1.0), perturbed(1,harmonic(2.0),0.05)), in all, best of 7 on a
# 2-core Xeon with 4 MiB of L2 (2 MiB per core), numpy 2.4: whole arrays
# 126-142 ms; pieces of 2^12 69-87 ms, 2^13 71-73, 2^14 66, 2^15 67-68,
# 2^16 68, 2^17 73, 2^18 112-117.  2^13 to 2^16 are within the host's noise
# of each other; past 2^17 the temporaries leave L2.
_PIECE = 1 << 14


def _evaluate(fn: Callable[[np.ndarray], np.ndarray], label: str, size: int,
              indices: Callable[[int, int], np.ndarray],
              dtype: type) -> np.ndarray:
    """The values of the elementwise map fn at the indices of positions
    0..size-1 as one array of dtype, a piece of at most _PIECE positions
    at a time: indices(lo, hi) gives the int64 indices of positions lo to
    hi - 1.  Overflow and inf*0 give inf or nan without a warning; the
    caller checks them or reports them."""
    _require_allocatable(size)
    out = np.empty(size, dtype=dtype)
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, size, _PIECE):
            hi = min(lo + _PIECE, size)
            n = indices(lo, hi)
            vals = np.ascontiguousarray(fn(n), dtype=dtype)
            if vals.shape != n.shape:
                raise SequenceError(
                    f"generator for {excerpt(label)} returned a wrong shape")
            out[lo:hi] = vals
    return out


def _mapped_zeros(size: int, dtype: type) -> np.ndarray:
    """size zeros of dtype, writable, in a fresh private anonymous mapping.

    Such a mapping reads as zeros, and the kernel makes a page of it
    resident when the page is first written; a read maps the shared zero
    page.  np.zeros gives no such promise: calloc may hand out heap memory
    and clear every page of it, and numpy asks for huge pages on large
    arrays, so that one written value makes up to 2 MiB resident.  An
    OSError of mmap (ENOMEM) is a MemoryError, as numpy's failed
    allocations are; an empty array maps nothing."""
    _require_allocatable(size)
    if size == 0:
        return np.zeros(0, dtype=dtype)
    nbytes = size * np.dtype(dtype).itemsize
    try:
        buf = mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE)
    except OSError as exc:
        raise MemoryError(f"cannot map {nbytes} bytes: {exc}") from None
    return np.frombuffer(buf, dtype=dtype)


def _range_indices(lo: int, hi: int) -> np.ndarray:
    """The int64 indices lo + 1..hi: positions lo..hi - 1 of a prefix."""
    return np.arange(lo + 1, hi + 1, dtype=np.int64)


# ---------------------------------------------------------------------------
# seeded noise: SplitMix64
# ---------------------------------------------------------------------------

_SM64_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SM64_M1 = np.uint64(0xBF58476D1CE4E5B9)
_SM64_M2 = np.uint64(0x94D049BB133111EB)


def _splitmix64(state: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer (Steele, Lea & Flood), vectorized over uint64."""
    z = state + _SM64_GAMMA
    z = (z ^ (z >> np.uint64(30))) * _SM64_M1
    z = (z ^ (z >> np.uint64(27))) * _SM64_M2
    return z ^ (z >> np.uint64(31))


def unit_noise(seed: int, n: np.ndarray) -> np.ndarray:
    """Deterministic noise u_n in [-1, 1), a pure function of (seed, n).

    Index n is folded into the SplitMix64 stream position so that values are
    stable under prefix growth: u_n never depends on how many indices were
    requested.  The seed must be an integer in [0, 2^64), so that no two
    seeds draw the same noise.
    """
    if not (isinstance(seed, int) and 0 <= seed < 1 << 64):
        raise SequenceError(f"a noise seed must be an integer in [0, 2^64), "
                            f"got {seed!r}")
    idx = np.asarray(n, dtype=np.uint64)
    with np.errstate(over="ignore"):
        state = np.uint64(seed) + idx * _SM64_GAMMA
        bits = _splitmix64(state)
    u01 = (bits >> np.uint64(11)).astype(float) * (2.0 ** -53)
    return 2.0 * u01 - 1.0


# ---------------------------------------------------------------------------
# sectors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Sector:
    """Closed sector K(theta0) around the positive real axis.

    theta0 is in radians and must satisfy 0 <= theta0 < pi/2; the dominance
    constant 1/cos(theta0) would blow up at pi/2.  -0.0 is stored as +0.0,
    so that one sector has one label.
    """

    theta0: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.theta0 < math.pi / 2):
            raise SequenceError(
                f"sector half-angle must lie in [0, pi/2); got {self.theta0!r}")
        object.__setattr__(self, "theta0", self.theta0 + 0.0)


# ---------------------------------------------------------------------------
# coefficient sequences
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CoefficientSequence:
    """A one-sided coefficient sequence: one pure index map n -> c_n.

    label     -- canonical text form, used in manifests and reports
    fn        -- the map, from a one-dimensional int64 array of indices
                 (each >= 1) to the values there; explicit data reads its
                 array, and its prefixes are views of that array.  It must
                 be elementwise: the value at an index depends on that
                 index alone, not on the array's length or its other
                 entries, since it is called on pieces of the indices
    is_real   -- real-valued flag; decides the dtype prefix() returns
    length    -- the number of indices the map covers; None means
                 unbounded (a generated family); a composite has its base's
    support   -- optional map (lo, hi) -> the sorted int64 indices in
                 (lo, hi] off which the sequence is exactly zero (0.0);
                 None means every index may be nonzero.  Such a sequence
                 is evaluated on its support alone

    The memo of prefix() is not a field: each instance starts its own, so
    neither a constructor nor dataclasses.replace can give a sequence the
    values of another map.
    """

    label: str
    fn: Callable[[np.ndarray], np.ndarray]
    is_real: bool = True
    length: Optional[int] = None
    support: Optional[Callable[[int, int], np.ndarray]] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "_cache", {})

    @classmethod
    def explicit(cls, values, label: str = "") -> "CoefficientSequence":
        arr = np.asarray(values)
        if arr.ndim != 1:
            raise SequenceError("explicit sequence must be one-dimensional")
        is_real = not np.iscomplexobj(arr) or bool(np.all(arr.imag == 0.0))
        arr = np.ascontiguousarray(arr.real if is_real else arr,
                                   dtype=float if is_real else complex)
        arr.setflags(write=False)
        if not label:
            label = f"explicit[{arr.shape[0]}]"
        if not np.all(np.isfinite(arr)):
            raise SequenceError(f"explicit sequence {excerpt(label)} has "
                                f"non-finite values")
        seq = cls(label, lambda n: arr[n - 1], is_real, int(arr.shape[0]))
        seq._cache["arr"] = arr
        return seq

    def prefix(self, N: int) -> np.ndarray:
        """First N values as a read-only array (float64 when real, else
        complex128); element j is the value at index j + 1.

        The cached values_between(0, N), with its checks: SequenceError
        ("insufficient length ...") past the length.  Two computations of
        the same prefix are bit-identical because the map is pure.
        """
        N = int(N)
        cached = self._cache.get("arr")
        if cached is None or not 0 <= N <= cached.shape[0]:
            cached = self.values_between(0, N)
            cached.setflags(write=False)
            self._cache["arr"] = cached
        return cached[:N]

    def values_between(self, lo: int, hi: int) -> np.ndarray:
        """c_{lo+1}..c_hi as a new writable array with the dtype of
        prefix(), evaluated afresh; SequenceError past the length.  A
        sequence that lists its support is evaluated there alone, into
        the zeros of a fresh anonymous mapping (_mapped_zeros): the bytes
        of the map at every index, with no page written that holds no
        support index, so a page that no caller reads is never made
        resident."""
        lo, hi = int(lo), int(hi)
        if not 0 <= lo <= hi:
            raise SequenceError(f"bad index range ({excerpt_int(lo)}, "
                                f"{excerpt_int(hi)}]")
        self._require_length(hi)
        if self.support is None:
            return self._evaluated(
                hi - lo, lambda a, b: _range_indices(lo + a, lo + b))
        out = _mapped_zeros(hi - lo, float if self.is_real else complex)
        k = self.support(lo, hi)
        out[k - (lo + 1)] = self.values_at(k)
        return out

    def values_at(self, n: np.ndarray) -> np.ndarray:
        """Values at the indices n (a one-dimensional int64 array, each
        >= 1, in any order and with repeats), with the dtype and checks of
        prefix(), evaluated afresh."""
        if self.length is not None and n.size:
            self._require_length(int(n.max()))
        return self._evaluated(n.shape[0], lambda lo, hi: n[lo:hi])

    def _evaluated(self, size: int,
                   indices: Callable[[int, int], np.ndarray]) -> np.ndarray:
        """_evaluate of the map, which must give finite values."""
        arr = _evaluate(self.fn, self.label, size, indices,
                        float if self.is_real else complex)
        if not np.all(np.isfinite(arr)):
            raise SequenceError(
                f"generator for {excerpt(self.label)} produced non-finite "
                f"values")
        return arr

    def _require_length(self, N: int) -> None:
        if self.length is not None and N > self.length:
            raise SequenceError(
                f"insufficient length: sequence {excerpt(self.label)} has "
                f"{self.length} values, {excerpt_int(N)} requested")


# ---------------------------------------------------------------------------
# weight sequences
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class WeightSequence:
    """A positive, non-decreasing weight R(1), R(2), ...

    Construction does not validate; ``validated_prefix`` checks positivity
    and monotonicity on the finite part and reports where (if anywhere) the
    values overflow to infinity, so growth like 2**n can still be examined
    on its finite range.  As for a sequence, the memo of validated_prefix
    is not a field, and each instance starts its own.
    """

    label: str
    fn: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self) -> None:
        object.__setattr__(self, "_cache", {})

    def validated_prefix(self, N: int) -> tuple[np.ndarray, int]:
        """Return (values, finite_len) where values[:finite_len] are finite,
        positive, and non-decreasing within tolerance; raise otherwise.
        The values may overflow to inf past finite_len.

        The longest validated prefix and its finite_len are kept in
        ``_cache``: a later call up to that length returns a slice and
        min(finite_len, N) without evaluating or checking again, since a
        prefix of a valid prefix is valid.  A failed validation keeps
        nothing."""
        N = int(N)
        cached = self._cache.get("valid")
        if cached is not None and N <= cached[0].shape[0]:
            return cached[0][:N], min(cached[1], N)
        vals = _evaluate(self.fn, self.label, N, _range_indices, float)
        vals.setflags(write=False)
        finite = np.isfinite(vals)
        finite_len = int(np.argmin(finite)) if not finite.all() else N
        head = vals[:finite_len]
        if np.any(head <= 0.0):
            raise SequenceError(f"weight {self.label!r} must be positive")
        if finite_len > 1:
            a, b = head[:-1], head[1:]
            slack = REL_TOL * np.maximum(np.abs(a), np.abs(b))
            if np.any(b < a - slack):
                raise SequenceError(
                    f"weight {self.label!r} must be non-decreasing")
        self._cache["valid"] = (vals, finite_len)
        return vals, finite_len


# ---------------------------------------------------------------------------
# family grammar
# ---------------------------------------------------------------------------
#
# Canonical text form:  family_id(param1,param2,...), one spelling per
# sequence.  Parameters are numbers or nested specs; "explicit:[v1,v2,...]"
# embeds a short explicit sequence.  Weight specs use the same grammar with
# their own id set (one, const(c), power(beta), log, exp2).  A spec is read
# in one pass into its sequence or weight, whose label is the canonical text.

_ID_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")

# Each id's role and the kinds of its parameters, in order: a finite number,
# or a nested spec of the family or the weight role.  perturbed's seed must
# also be an integer in [0, 2^64), checked where it is realized.
_NUMBER, _FAMILY, _WEIGHT = "finite number", "family", "weight"
_GRAMMAR = {
    "harmonic": (_FAMILY, (_NUMBER,)),
    "log_damped": (_FAMILY, ()),
    "quasimono": (_FAMILY, (_NUMBER, _NUMBER)),
    "lacunary": (_FAMILY, (_NUMBER,)),
    "rbv_block": (_FAMILY, (_NUMBER,)),
    "orvqm": (_FAMILY, (_WEIGHT, _FAMILY)),
    "perturbed": (_FAMILY, (_NUMBER, _FAMILY, _NUMBER)),
    "zero": (_FAMILY, ()),
    "one": (_WEIGHT, ()),
    "const": (_WEIGHT, (_NUMBER,)),
    "power": (_WEIGHT, (_NUMBER,)),
    "log": (_WEIGHT, ()),
    "exp2": (_WEIGHT, ()),
}

# The reader stops at a spec inside more than this many others, before it
# recurses further.  Reading a spec (its label included) recurses once per
# level and evaluating a composite about 4 frames per level, so the deepest
# readable spec stays far inside Python's recursion limit of 1000.
_MAX_DEPTH = 32


def _split_args(text: str) -> list[str]:
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return [p.strip() for p in parts if p.strip()]


def _parse_number(token: str):
    try:
        if re.fullmatch(r"[+-]?\d+", token):
            return int(token)
        return float(token)
    except ValueError:
        return None


def _format_value(v) -> str:
    if isinstance(v, complex):
        return repr(v.real) if v.imag == 0.0 else repr(v).strip("()")
    return repr(v)


def _read(text: str, role: str, depth: int):
    """The sequence (role _FAMILY) or weight (role _WEIGHT) that the spec
    text names, labelled with its canonical text; depth is the number of
    specs around it."""
    if depth > _MAX_DEPTH:
        raise SequenceError(f"a spec may nest at most {_MAX_DEPTH} levels "
                            f"deep")
    text = text.strip()
    if text.startswith("explicit:"):
        if role != _FAMILY:
            raise SequenceError(f"unknown {role} id 'explicit'")
        return _read_explicit(text)
    if "(" in text:
        if not text.endswith(")"):
            raise SequenceError(f"malformed spec: {excerpt(text)}")
        head, _, body = text[:-1].partition("(")
        tokens = _split_args(body)
    else:
        head, tokens = text, []
    head = head.strip()
    if not _ID_RE.match(head):
        raise SequenceError(f"bad {role} id {excerpt(head)}")
    id_role, kinds = _GRAMMAR.get(head, (None, ()))
    if id_role != role:
        raise SequenceError(f"unknown {role} id {excerpt(head)}")
    if len(tokens) != len(kinds):
        raise SequenceError(
            f"{head!r} takes {len(kinds)} parameter(s), got {len(tokens)}")
    params, labels = [], []
    for i, (token, kind) in enumerate(zip(tokens, kinds), 1):
        num = _parse_number(token)
        if kind != _NUMBER and num is None:
            params.append(_read(token, kind, depth + 1))
            labels.append(params[-1].label)
        # abs(int) <= max compares exactly, with no float conversion
        elif (kind == _NUMBER and num is not None
              and abs(num) <= sys.float_info.max):
            params.append(num)
            labels.append(_format_value(num))
        else:
            raise SequenceError(
                f"parameter {i} of {head!r} must be a "
                f"{kind if kind == _NUMBER else 'spec'}, got "
                f"{excerpt(token if num is None else _format_value(num))}")
    label = f"{head}({','.join(labels)})" if labels else head
    return _realize(head, label, params)


def _read_explicit(text: str) -> CoefficientSequence:
    body = text[len("explicit:"):].strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise SequenceError(f"malformed explicit spec: {excerpt(text)}")
    vals = []
    for it in _split_args(body[1:-1]):
        try:
            vals.append(complex(it.replace("i", "j")))
        except ValueError as exc:
            raise SequenceError(f"bad explicit value {excerpt(it)}") from exc
    label = "explicit:[" + ",".join(_format_value(v) for v in vals) + "]"
    return CoefficientSequence.explicit(np.asarray(vals, dtype=complex),
                                        label=label)


def sequence_from_text(text: str) -> CoefficientSequence:
    """The sequence that a family spec names, labelled with its canonical
    text; SequenceError if the text is no family spec."""
    return _read(text, _FAMILY, 0)


def weight_from_text(text: str) -> WeightSequence:
    """The weight that a weight spec names, labelled with its canonical
    text; SequenceError if the text is no weight spec."""
    return _read(text, _WEIGHT, 0)


# -- realization ------------------------------------------------------------

def _block_exponent(n: np.ndarray) -> np.ndarray:
    """floor(log2 n) computed exactly from the float exponent."""
    return np.frexp(n.astype(float))[1] - 1


def _power_of_two_mask(n: np.ndarray) -> np.ndarray:
    return (n >= 2) & ((n & (n - 1)) == 0)


def _realize(fid: str, label: str, params: list):
    """The sequence or weight of fid, an id of _GRAMMAR, from its
    parameters as _read checked and read them: numbers, and the sequences
    and weights of its nested specs."""
    if fid == "one":
        return WeightSequence(label, lambda n: np.ones(n.shape[0]))
    if fid == "const":
        c = float(params[0])
        return WeightSequence(label, lambda n: np.full(n.shape[0], c))
    if fid == "power":
        beta = float(params[0])
        return WeightSequence(label, lambda n: n.astype(float) ** beta)
    if fid == "log":
        return WeightSequence(label, lambda n: np.log(n.astype(float) + 2.0))
    if fid == "exp2":
        return WeightSequence(label, lambda n: np.exp2(n.astype(float)))
    if fid == "zero":
        return CoefficientSequence(label, lambda n: np.zeros(n.shape[0]))
    if fid == "harmonic":
        p = float(params[0])
        return CoefficientSequence(label, lambda n: n.astype(float) ** (-p))
    if fid == "log_damped":
        def ld(n):
            x = n.astype(float)
            return 1.0 / (x * np.log(x + 2.0))
        return CoefficientSequence(label, ld)
    if fid == "quasimono":
        # n**alpha times a blockwise-constant decreasing factor: the quotient
        # by n**alpha is non-increasing by construction, while the sequence
        # itself climbs inside each dyadic block when alpha > 0.
        alpha, p = float(params[0]), float(params[1])

        def qm(n):
            return n.astype(float) ** alpha * np.exp2(-p * _block_exponent(n))
        return CoefficientSequence(label, qm)
    if fid == "lacunary":
        # Supported on the powers of two with exponent k >= 1 (so b_1 = 0):
        # b_n = 2**(-alpha*k) when n = 2**k, else 0.
        alpha = float(params[0])

        def lac(n):
            out = np.zeros(n.shape)
            mask = _power_of_two_mask(n)
            out[mask] = np.exp2(-alpha * _block_exponent(n[mask]))
            return out

        def powers_of_two(lo, hi):
            if hi > _INT64_MAX:
                raise SequenceError(
                    f"the support of {label!r} up to {excerpt_int(hi)} "
                    f"passes the int64 index range")
            return np.array([1 << k for k in range(
                max(1, int(lo).bit_length()), int(hi).bit_length())],
                dtype=np.int64)
        return CoefficientSequence(label, lac, support=powers_of_two)
    if fid == "rbv_block":
        # Blockwise constant 2**(-p*k) on [2**k, 2**(k+1)) with a half-depth
        # notch at the block midpoint: total variation stays comparable to
        # the running value, but the sequence is not monotone and not
        # quasimonotone for any fixed exponent at large indices.
        p = float(params[0])

        def rbv(n):
            k = _block_exponent(n)
            base = np.exp2(-p * k)
            mid = 3 << np.maximum(k - 1, 0).astype(np.int64)
            return np.where((n == mid) & (k >= 1), 0.5 * base, base)
        return CoefficientSequence(label, rbv)
    if fid == "orvqm":
        # Product R(n) * g_n with g from the base family; when the base is
        # non-increasing and null, the quotient by R(n) is non-increasing by
        # construction.
        weight, base = params

        def prod(n):
            return weight.fn(n) * base.values_at(n)
        return CoefficientSequence(label, prod, base.is_real, base.length)
    if fid == "perturbed":
        # base * (1 + eps * u_n) with u_n in [-1, 1) drawn from SplitMix64.
        seed, base, eps = params
        if not (isinstance(seed, int) and 0 <= seed < 1 << 64):
            raise SequenceError(f"the seed of 'perturbed' must be an integer "
                                f"in [0, 2^64), got "
                                f"{excerpt(_format_value(seed))}")
        eps = float(eps)

        def pert(n):
            return base.values_at(n) * (1.0 + eps * unit_noise(seed, n))
        return CoefficientSequence(label, pert, base.is_real, base.length)
