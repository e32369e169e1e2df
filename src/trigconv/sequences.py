"""Coefficient sequences, weights, sectors, and the family grammar.

The package works with one-sided sequences ``c_1, c_2, ...`` (one pure
map of the index each: explicit data reads its array, a family computes),
two-sided exponential coefficient collections ``({c_n}, {c_-n})``,
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
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

__all__ = [
    "SequenceError",
    "Sector",
    "sector_dominance_constant",
    "CoefficientSequence",
    "TwoSidedSequence",
    "WeightSequence",
    "FamilySpec",
    "parse_family_spec",
    "format_family_spec",
    "family_sequence",
    "sequence_from_text",
    "weight_from_spec",
    "unit_noise",
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
        raise MemoryError(f"cannot allocate {N} indices")


def _indices(N: int) -> np.ndarray:
    """The int64 indices 1..N, or MemoryError past what one array can hold."""
    _require_allocatable(N)
    return np.arange(1, N + 1, dtype=np.int64)


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
                    f"generator for {label!r} returned a wrong shape")
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


def sector_dominance_constant(sector: Sector) -> float:
    """Smallest M with |z| <= M * Re z on K(theta0), namely 1/cos(theta0)."""
    return 1.0 / math.cos(sector.theta0)


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
    """

    label: str
    fn: Callable[[np.ndarray], np.ndarray]
    is_real: bool = True
    length: Optional[int] = None
    support: Optional[Callable[[int, int], np.ndarray]] = None
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

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
            raise SequenceError(f"explicit sequence {label!r} has non-finite values")
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
            raise SequenceError(f"bad index range ({lo}, {hi}]")
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
                f"generator for {self.label!r} produced non-finite values")
        return arr

    def _require_length(self, N: int) -> None:
        if self.length is not None and N > self.length:
            raise SequenceError(
                f"insufficient length: sequence {self.label!r} has "
                f"{self.length} values, {N} requested")


@dataclass(frozen=True, eq=False)
class TwoSidedSequence:
    """Coefficients of an exponential series: {c_n} and {c_-n}, n >= 1."""

    pos: CoefficientSequence
    neg: CoefficientSequence
    label: str = ""

    def __post_init__(self) -> None:
        lp, ln = self.pos.length, self.neg.length
        if lp is not None and ln is not None and lp != ln:
            raise SequenceError("two-sided halves have different lengths")

    def pair_sums(self, N: int) -> np.ndarray:
        """c_n + c_-n for n = 1..N (complex128)."""
        return self.pos.prefix(N).astype(complex) + self.neg.prefix(N)

    def pair_diffs(self, N: int) -> np.ndarray:
        """c_n - c_-n for n = 1..N (complex128)."""
        return self.pos.prefix(N).astype(complex) - self.neg.prefix(N)


# ---------------------------------------------------------------------------
# weight sequences
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class WeightSequence:
    """A positive, non-decreasing weight R(1), R(2), ...

    Construction does not validate; ``validated_prefix`` checks positivity
    and monotonicity on the finite part and reports where (if anywhere) the
    values overflow to infinity, so growth like 2**n can still be examined
    on its finite range.
    """

    label: str
    fn: Callable[[np.ndarray], np.ndarray]
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def prefix(self, N: int) -> np.ndarray:
        N = int(N)
        cached = self._cache.get("arr")
        if cached is None or cached.shape[0] < N:
            # no finiteness check: a weight may overflow to inf, which
            # validated_prefix reports as its finite length
            arr = _evaluate(self.fn, self.label, N, _range_indices, float)
            arr.setflags(write=False)
            self._cache["arr"] = arr
            cached = arr
        return cached[:N]

    def validated_prefix(self, N: int) -> tuple[np.ndarray, int]:
        """Return (values, finite_len) where values[:finite_len] are finite,
        positive, and non-decreasing within tolerance; raise otherwise.

        The longest validated length and its finite_len are kept in
        ``_cache``: a later call up to that length returns a slice and
        min(finite_len, N) without checking again, since a prefix of a
        valid prefix is valid.  A failed validation keeps nothing."""
        N = int(N)
        done, done_finite = self._cache.get("valid", (-1, 0))
        if N <= done:
            return self.prefix(N), min(done_finite, N)
        vals = self.prefix(N)
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
        self._cache["valid"] = (N, finite_len)
        return vals, finite_len


# ---------------------------------------------------------------------------
# family grammar
# ---------------------------------------------------------------------------
#
# Canonical text form:  family_id(param1,param2,...), one spelling per
# sequence.  Parameters are numbers or nested specs; "explicit:[v1,v2,...]"
# embeds a short explicit sequence.  Weight specs use the same grammar with
# their own id set (one, const(c), power(beta), log, exp2).

@dataclass(frozen=True)
class FamilySpec:
    family_id: str
    params: tuple = ()

    def __str__(self) -> str:
        return format_family_spec(self)


_ID_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")

# The parameters each family and weight id takes, in order: a finite number
# or a nested spec.  perturbed's seed must also be an integer in [0, 2^64),
# checked where it is realized.
_NUMBER, _SPEC = "finite number", "spec"
_PARAM_KINDS = {
    "harmonic": (_NUMBER,),
    "log_damped": (),
    "quasimono": (_NUMBER, _NUMBER),
    "lacunary": (_NUMBER,),
    "rbv_block": (_NUMBER,),
    "orvqm": (_SPEC, _SPEC),
    "perturbed": (_NUMBER, _SPEC, _NUMBER),
    "zero": (),
    "one": (),
    "const": (_NUMBER,),
    "power": (_NUMBER,),
    "log": (),
    "exp2": (),
}


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


def _parse_value(token: str):
    num = _parse_number(token)
    if num is not None:
        return num
    return parse_family_spec(token)


def parse_family_spec(text: str) -> FamilySpec:
    """Parse the canonical text form into a FamilySpec (recursively)."""
    text = text.strip()
    if text.startswith("explicit:"):
        body = text[len("explicit:"):].strip()
        if not (body.startswith("[") and body.endswith("]")):
            raise SequenceError(f"malformed explicit spec: {text!r}")
        items = _split_args(body[1:-1])
        vals = []
        for it in items:
            try:
                vals.append(complex(it.replace("i", "j")))
            except ValueError as exc:
                raise SequenceError(f"bad explicit value {it!r}") from exc
        return FamilySpec("explicit", tuple(vals))
    if "(" in text:
        if not text.endswith(")"):
            raise SequenceError(f"malformed spec: {text!r}")
        head, body = text[:text.index("(")], text[text.index("(") + 1:-1]
        args = tuple(_parse_value(a) for a in _split_args(body))
    else:
        head, args = text, ()
    head = head.strip()
    if not _ID_RE.match(head):
        raise SequenceError(f"bad family id {head!r}")
    kinds = _PARAM_KINDS.get(head)
    if kinds is None:
        raise SequenceError(f"unknown family id {head!r}")
    if len(args) != len(kinds):
        raise SequenceError(
            f"{head!r} takes {len(kinds)} parameter(s), got {len(args)}")
    for i, (arg, kind) in enumerate(zip(args, kinds), 1):
        if kind == _SPEC:
            ok = isinstance(arg, FamilySpec)
        else:   # abs(int) <= max compares exactly, with no float conversion
            ok = (not isinstance(arg, FamilySpec)
                  and abs(arg) <= sys.float_info.max)
        if not ok:
            raise SequenceError(
                f"parameter {i} of {head!r} must be a {kind}, got "
                f"{_format_value(arg)!r}")
    return FamilySpec(head, args)


def _format_value(v) -> str:
    if isinstance(v, FamilySpec):
        return format_family_spec(v)
    if isinstance(v, complex):
        return repr(v.real) if v.imag == 0.0 else repr(v).strip("()")
    return repr(v)


def format_family_spec(spec: FamilySpec) -> str:
    if spec.family_id == "explicit":
        return "explicit:[" + ",".join(_format_value(v) for v in spec.params) + "]"
    out = spec.family_id
    if spec.params:
        out += "(" + ",".join(_format_value(v) for v in spec.params) + ")"
    return out


# -- weight realization -----------------------------------------------------

def weight_from_spec(spec: FamilySpec) -> WeightSequence:
    wid, params = spec.family_id, spec.params
    label = format_family_spec(spec)
    if wid == "one":
        return WeightSequence(label, lambda n: np.ones(n.shape[0]))
    if wid == "const":
        c = float(params[0])
        return WeightSequence(label, lambda n: np.full(n.shape[0], c))
    if wid == "power":
        beta = float(params[0])
        return WeightSequence(label, lambda n: n.astype(float) ** beta)
    if wid == "log":
        return WeightSequence(label, lambda n: np.log(n.astype(float) + 2.0))
    if wid == "exp2":
        return WeightSequence(label, lambda n: np.exp2(n.astype(float)))
    raise SequenceError(f"unknown weight id {wid!r}")


# -- family realization -----------------------------------------------------

def _block_exponent(n: np.ndarray) -> np.ndarray:
    """floor(log2 n) computed exactly from the float exponent."""
    return np.frexp(n.astype(float))[1] - 1


def _power_of_two_mask(n: np.ndarray) -> np.ndarray:
    return (n >= 2) & ((n & (n - 1)) == 0)


def family_sequence(spec: FamilySpec) -> CoefficientSequence:
    """Realize a FamilySpec as a CoefficientSequence."""
    fid, params = spec.family_id, spec.params
    label = format_family_spec(spec)

    if fid == "explicit":
        return CoefficientSequence.explicit(np.asarray(params, dtype=complex),
                                            label=label)
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
                    f"the support of {label!r} up to {hi} passes the int64 "
                    f"index range")
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
        weight = weight_from_spec(params[0])
        base = family_sequence(params[1])

        def prod(n):
            return weight.fn(n) * base.values_at(n)
        return CoefficientSequence(label, prod, base.is_real, base.length)
    if fid == "perturbed":
        # base * (1 + eps * u_n) with u_n in [-1, 1) drawn from SplitMix64.
        seed = params[0]
        if not (isinstance(seed, int) and 0 <= seed < 1 << 64):
            raise SequenceError(f"the seed of 'perturbed' must be an integer "
                                f"in [0, 2^64), got {_format_value(seed)!r}")
        base = family_sequence(params[1])
        eps = float(params[2])

        def pert(n):
            return base.values_at(n) * (1.0 + eps * unit_noise(seed, n))
        return CoefficientSequence(label, pert, base.is_real, base.length)
    raise SequenceError(f"unknown family id {fid!r}")


def sequence_from_text(text: str) -> CoefficientSequence:
    """Parse a canonical family string and realize it."""
    return family_sequence(parse_family_spec(text))
