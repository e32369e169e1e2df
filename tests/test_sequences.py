import dataclasses
import hashlib
import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trigconv import sequences
from trigconv.conditions import HOLDS, check_pair_sector
from trigconv.sequences import (
    ANGLE_TOL,
    CoefficientSequence,
    Sector,
    SequenceError,
    TwoSidedSequence,
    WeightSequence,
    sector_dominance_constant,
    sequence_from_text,
    unit_noise,
    weight_from_text,
)
from trigconv.sequences import _PIECE


# --- grammar ---------------------------------------------------------------

_WEIGHT_IDS = ("one", "const", "power", "log", "exp2")


def _reader(text):
    """The text entry for the role of the spec's outer id."""
    head = text.partition("(")[0].strip()
    return weight_from_text if head in _WEIGHT_IDS else sequence_from_text


def _prefix_or_error(obj):
    """prefix(8) of a sequence (at most its length) or validated_prefix(8)
    of a weight, as bytes, or the SequenceError it raises."""
    try:
        if isinstance(obj, WeightSequence):
            return obj.validated_prefix(8)[0].tobytes()
        return obj.prefix(8 if obj.length is None
                          else min(8, obj.length)).tobytes()
    except SequenceError as exc:
        return str(exc)


@pytest.mark.parametrize("text,family,params", [
    ("harmonic(1.0)", "harmonic", (1.0,)),
    ("lacunary(0.5)", "lacunary", (0.5,)),
    ("log_damped", "log_damped", ()),
    ("perturbed(3,harmonic(1.0),0.01)", "perturbed",
     (3, "harmonic(1.0)", 0.01)),
    ("zero", "zero", ()),
    ("rbv_block(1.0)", "rbv_block", (1.0,)),
])
def test_parse_family_spec(text, family, params):
    # the label is the id and its parameters, a number by its repr and a
    # nested spec by its label, whatever spaces or empty () the text holds
    parts = [p if isinstance(p, str) else repr(p) for p in params]
    assert text == (f"{family}({','.join(parts)})" if params else family)
    for spelling in (text, f" {family}( {' , '.join(parts)} ) "):
        assert sequence_from_text(spelling).label == text


def test_parse_explicit_inline():
    seq = sequence_from_text("explicit:[1,0.5,0.25]")
    assert np.allclose(seq.prefix(3), [1.0, 0.5, 0.25])


@pytest.mark.parametrize("text, label", [
    ("explicit:[1,0.5]", "explicit:[1.0,0.5]"),
    ("explicit:[1,0.5i,-0]", "explicit:[1.0,0.5j,-0.0]"),
    ("explicit:[1+0i,0.5-0.25i]", "explicit:[1.0,0.5-0.25j]"),
])
def test_explicit_label_prints_real_values_as_reals(text, label):
    seq = sequence_from_text(text)
    assert seq.label == label
    again = sequence_from_text(label)
    assert again.label == label
    np.testing.assert_array_equal(again.prefix(again.length),
                                  seq.prefix(seq.length))


def _nested(depth):
    """harmonic(1.0) inside depth perturbed(1, ., 0.1) levels."""
    return "perturbed(1," * depth + "harmonic(1.0)" + ",0.1)" * depth


@pytest.mark.parametrize("bad", [
    "harmonic(", "nosuchfamily(1)", "harmonic(1,2,3)", "explicit:[a]",
    "harmonic(1.0)@x", "",
    # one spelling per sequence: no @seed suffix, no aliases, no bare const
    "harmonic(1.0)@3", "log_damped@3", "perturbed(3,harmonic(1.0),0.01)@42",
    "logdamped", "rbvblock(1.0)", "const", "orvqm(const,harmonic(2.0))",
    # a spec inside more than 32 others, and 2000 nested parentheses
    pytest.param(_nested(33), id="nested-33"),
    pytest.param("harmonic(" + "(" * 2000 + "1" + ")" * 2000 + ")",
                 id="parentheses-2000"),
])
def test_parse_rejects(bad):
    for read in (sequence_from_text, weight_from_text):
        with pytest.raises(SequenceError):
            read(bad)


def test_excerpt_keeps_a_short_text_and_cuts_a_long_one():
    # up to 60 characters an error quotes the repr of the text, as it did
    # before any cut; past them, the first 60 and how many more there were
    assert sequences.excerpt("") == "''"
    assert sequences.excerpt("a'b" + "x" * 57) == repr("a'b" + "x" * 57)
    assert sequences.excerpt("x" * 60 + "yz") == \
        repr("x" * 60) + " (and 2 more characters)"


def _cut_text(value: int) -> str:
    text = str(value)
    return text if len(text) <= 30 else \
        f"{text[:30]} (and {len(text) - 30} more digits)"


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4299).flatmap(
    lambda k: st.sampled_from([10 ** k - 1, 10 ** k, 10 ** k + 1])
    | st.integers(10 ** (k - 1), 10 ** k)), st.booleans())
def test_excerpt_int_keeps_a_short_integer_and_cuts_a_long_one(value, neg):
    # the decimal text whole up to 30 characters, its sign included, else
    # its first 30 and how many more digits it has
    value = -value if neg else value
    assert sequences.excerpt_int(value) == _cut_text(value)


def test_excerpt_int_cuts_an_integer_str_refuses():
    # str() converts at most 4300 digits; 64 (10^4299 - 1) has 4301
    assert 10 ** 6020 <= 2 ** 20000 < 10 ** 6021
    for value, head, more in [
            (64 * (10 ** 4299 - 1), "63" + "9" * 28, 4271),
            (-(10 ** 5000), "-1" + "0" * 28, 4972),
            (2 ** 20000, str(2 ** 20000 // 10 ** 5991), 5991)]:
        assert sequences.excerpt_int(value) == \
            f"{head} (and {more} more digits)"


@given(st.sampled_from(["harmonic", "lacunary", "quasimono", "rbv_block"]),
       st.floats(0.1, 4.0, allow_nan=False))
def test_format_parse_round_trip(fam, p):
    text = f"{fam}({p!r},2.0)" if fam == "quasimono" else f"{fam}({p!r})"
    assert sequence_from_text(text).label == text


# --- grammar fuzzing -------------------------------------------------------

def _fmt(v):
    """The canonical text of a number: a complex one without parentheses,
    and as a real when its imaginary part is zero."""
    if isinstance(v, complex):
        return repr(v.real) if v.imag == 0.0 else repr(v).strip("()")
    return repr(v)


_NUMBERS = st.one_of(st.integers(-5, 50),
                     st.floats(allow_nan=False, allow_infinity=False))
_WEIGHT_SPECS = st.one_of(
    st.sampled_from(["one", "log", "exp2"]),
    st.builds(lambda w, v: f"{w}({_fmt(v)})",
              st.sampled_from(["const", "power"]), _NUMBERS))
_FAMILY_SPECS = st.recursive(
    st.one_of(
        st.builds(lambda f, p: f"{f}({_fmt(p)})",
                  st.sampled_from(["harmonic", "lacunary", "rbv_block"]),
                  _NUMBERS),
        st.builds(lambda a, p: f"quasimono({_fmt(a)},{_fmt(p)})",
                  _NUMBERS, _NUMBERS),
        st.sampled_from(["log_damped", "zero"]),
        st.builds(lambda v: f"explicit:[{','.join(map(_fmt, v))}]",
                  st.lists(st.complex_numbers(allow_nan=False,
                                              allow_infinity=False),
                           max_size=4))),
    lambda inner: st.one_of(
        st.builds(lambda w, b: f"orvqm({w},{b})", _WEIGHT_SPECS, inner),
        st.builds(lambda k, b, e: f"perturbed({k},{b},{_fmt(e)})",
                  st.integers(0, 2 ** 64 - 1), inner, _NUMBERS)),
    max_leaves=4)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_FAMILY_SPECS, _WEIGHT_SPECS))
def test_format_parse_round_trip_generated(text):
    # a canonical text reads, with itself as its label, and its label
    # reads again to that label and the same prefix bytes
    read = _reader(text)
    first = read(text)
    again = read(first.label)
    assert first.label == again.label == text
    assert _prefix_or_error(again) == _prefix_or_error(first)


_IDS = ["harmonic", "log_damped", "quasimono", "lacunary", "rbv_block",
        "orvqm", "perturbed", "zero", *_WEIGHT_IDS]
_TOKENS = st.one_of(
    st.sampled_from(_IDS + ["", "nan", "inf", "-inf", "1e999", "10" * 200,
                            "explicit:[1,0.5]", "explicit:[a]", "@", "(",
                            ")", "logdamped"]),
    _NUMBERS.map(repr))
_MALFORMED_SPECS = st.recursive(
    _TOKENS,
    lambda inner: st.builds(
        lambda f, args, seed: f"{f}({','.join(args)}){seed}",
        st.sampled_from(_IDS + ["x"]), st.lists(inner, max_size=4),
        st.sampled_from(["", "@3", "@x", "@"])),
    max_leaves=6)


@pytest.mark.filterwarnings("error")
@settings(max_examples=300, deadline=None)
@given(_MALFORMED_SPECS)
def test_malformed_or_kind_swapped_specs_raise_only_sequence_error(text):
    # whatever reads as a sequence or a weight must evaluate, or fail with
    # a SequenceError as well
    for read in (sequence_from_text, weight_from_text):
        try:
            _prefix_or_error(read(text))
        except SequenceError:
            pass


@pytest.mark.parametrize("text", [
    "orvqm(log,3)", "perturbed(1,2,3)", "orvqm(1,2)", "harmonic(zero)",
    "power(zero)", "perturbed(zero,harmonic(1.0),0.1)", "one(3)", "power",
    "harmonic(nan)", "perturbed(inf,harmonic(1.0),0.1)", "const(1e999)",
])
def test_parse_checks_parameter_kinds(text):
    with pytest.raises(SequenceError, match="parameter|takes"):
        _reader(text)(text)


@pytest.mark.filterwarnings("error")
def test_generator_overflow_is_a_sequence_error_without_warning():
    with pytest.raises(SequenceError, match="non-finite"):
        sequence_from_text("quasimono(1e308,1)").prefix(64)


# --- explicit sequences ----------------------------------------------------

def test_explicit_prefix_and_insufficient_length():
    seq = CoefficientSequence.explicit([1.0, 0.5])
    assert seq.prefix(2).shape == (2,)
    with pytest.raises(SequenceError, match="insufficient length"):
        seq.prefix(10)


def test_explicit_real_detection():
    assert CoefficientSequence.explicit([1.0, 0.5]).is_real
    assert not CoefficientSequence.explicit([1.0 + 1e-14j]).is_real


def test_explicit_rejects_non_finite_values():
    for bad in ([1.0, math.nan, 0.2], [1.0, math.inf], [1.0, complex(0.5, -math.inf)]):
        with pytest.raises(SequenceError, match="non-finite"):
            CoefficientSequence.explicit(bad)


@pytest.mark.parametrize("text", [
    "perturbed(3,harmonic(2.0),0.05)",
    "orvqm(log,harmonic(2.0))",
    "orvqm(power(0.5),perturbed(4,log_damped,0.1))",
])
def test_composite_generators_are_pure_per_index(text):
    # any index range, not only a 1-based prefix, gives the prefix's values
    seq = sequence_from_text(text)
    full = np.asarray(seq.prefix(300))
    for lo, hi in ((0, 300), (17, 40), (255, 300), (99, 100)):
        n = np.arange(lo + 1, hi + 1, dtype=np.int64)
        assert np.array_equal(seq.values_at(n), full[lo:hi])


def test_explicit_prefix_is_a_view_of_the_callers_array():
    # a float64 or complex128 array is read in place, with no copy
    for vals in (np.linspace(1.0, 0.0, 9), np.exp(1j * np.arange(9.0))):
        seq = CoefficientSequence.explicit(vals)
        assert seq.length == 9 and seq.is_real == (vals.dtype == float)
        assert np.shares_memory(seq.prefix(4), vals)
        assert seq.prefix(9).tobytes() == vals.tobytes()
        picked = np.array([9, 2, 2], dtype=np.int64)
        assert seq.values_at(picked).tobytes() == vals[picked - 1].tobytes()
        with pytest.raises(SequenceError, match="has 9 values, 10 requested"):
            seq.values_at(np.array([10], dtype=np.int64))


@pytest.mark.parametrize("seed,ok", [
    ("0", True), (str(2 ** 64 - 1), True), ("2.0", False), ("2.5", False),
    ("-1", False), (str(2 ** 64), False)])
def test_perturbed_seed_is_an_integer_below_2_to_the_64(seed, ok):
    # a seed is a finite number to the reader, then an integer in
    # [0, 2^64) to the family: every other seed is that one error
    text = f"perturbed({seed},harmonic(1.0),0.05)"
    if ok:
        seq = sequence_from_text(text)
        assert seq.label == text and seq.prefix(4).shape == (4,)
    else:
        with pytest.raises(SequenceError, match=r"the seed of 'perturbed' "
                                                r"must be an integer in "
                                                r"\[0, 2\^64\)"):
            sequence_from_text(text)


def test_composite_over_explicit_base():
    seq = sequence_from_text("perturbed(1,explicit:[1,0.5,0.25],0.1)")
    vals = np.asarray(seq.prefix(3))
    assert np.all(np.abs(vals / [1.0, 0.5, 0.25] - 1.0) <= 0.1)
    assert np.array_equal(seq.values_at(np.array([2, 3])), vals[1:])
    with pytest.raises(SequenceError, match="insufficient length"):
        seq.prefix(4)


@pytest.mark.parametrize("text", [
    "perturbed(1,explicit:[1,0.5,0.25,0.125],0.1)",
    "orvqm(power(0.5),explicit:[1,0.5,0.25,0.1])",
    "perturbed(2,orvqm(log,explicit:[1,0.5,0.25,0.1]),0.1)"])
def test_composite_of_finite_data_keeps_its_length(text):
    # the composite covers the values of its base, and a read past them
    # names the composite; it lists no support (orvqm(exp2, .) is inf * 0
    # off a support)
    seq = sequence_from_text(text)
    assert seq.length == 4 and seq.support is None
    assert seq.prefix(4).shape == (4,)
    with pytest.raises(SequenceError) as err:
        seq.prefix(5)
    assert str(err.value) == (f"insufficient length: sequence {seq.label!r} "
                              f"has 4 values, 5 requested")


# --- piecewise evaluation --------------------------------------------------

_P = _PIECE
_PIECE_SIZES = (0, 1, _P - 1, _P, _P + 1, 3 * _P + 17)
_EVERY_FAMILY = (
    "zero", "harmonic(1.0)", "harmonic(2.0)", "log_damped",
    "quasimono(0.5,2.0)", "lacunary(0.5)", "rbv_block(1.0)",
    "perturbed(3,log_damped,0.05)", "perturbed(7,harmonic(2.0),0.05)",
    "orvqm(power(0.5),harmonic(2.0))",
    "orvqm(log,perturbed(4,log_damped,0.1))",
    "perturbed(5,orvqm(power(1.5),quasimono(0.5,2.0)),0.1)",
)
_EVERY_WEIGHT = ("one", "const(2.5)", "power(0.5)", "log", "exp2")


def test_every_grammar_id_reads_into_its_role():
    # the lists above cover every id of the grammar's table, and each id
    # reads through the entry of its role into a map of that role
    ids = {text.partition("(")[0] for text in _EVERY_FAMILY + _EVERY_WEIGHT}
    assert ids == set(sequences._GRAMMAR)
    for read, cls, texts in ((sequence_from_text, CoefficientSequence,
                              _EVERY_FAMILY),
                             (weight_from_text, WeightSequence,
                              _EVERY_WEIGHT)):
        for text in texts:
            assert type(read(text)) is cls and read(text).label == text


def _whole(fn, n, dtype):
    """The map over all of n in one call: the reference for the pieces."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.ascontiguousarray(fn(n), dtype=dtype)


def _scattered(size):
    """size unsorted indices in 1..4P, with repeats."""
    return np.random.default_rng(size).integers(1, 4 * _P + 1, size,
                                                dtype=np.int64)


@pytest.mark.parametrize("text", _EVERY_FAMILY)
def test_pieces_give_the_whole_map_byte_for_byte(text):
    for size in _PIECE_SIZES:
        seq = sequence_from_text(text)
        n = np.arange(1, size + 1, dtype=np.int64)
        assert seq.prefix(size).tobytes() == _whole(seq.fn, n, float).tobytes()
        n = _scattered(size)
        assert seq.values_at(n).tobytes() == _whole(seq.fn, n, float).tobytes()


_BETWEEN = ((0, 0), (0, 1), (0, _P - 1), (0, _P), (0, _P + 1),
            (0, 3 * _P + 17), (5, 5), (1, _P), (_P - 1, _P + 1),
            (_P, 3 * _P + 17), (17, 2 * _P + 3), (3 * _P, 3 * _P + 17))


@pytest.mark.parametrize("text", ["log_damped", "lacunary(0.5)",
                                  "perturbed(7,harmonic(2.0),0.05)",
                                  "explicit"])
def test_values_between_is_values_at_the_range(text):
    # c_{lo+1}..c_hi byte for byte, around the piece edges and from lo > 0,
    # for a dense family, one that lists its support and explicit data
    if text == "explicit":
        vals = np.random.default_rng(3).normal(size=3 * _P + 17) * (1 - 2j)
        seq = CoefficientSequence.explicit(vals)
    else:
        seq = sequence_from_text(text)
    for lo, hi in _BETWEEN:
        got = seq.values_between(lo, hi)
        want = seq.values_at(np.arange(lo + 1, hi + 1, dtype=np.int64))
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert got.flags.writeable, (lo, hi)
    assert seq.prefix(_P + 1).tobytes() == seq.values_between(
        0, _P + 1).tobytes()


def test_values_between_has_the_checks_of_prefix():
    seq = CoefficientSequence.explicit([1.0, 0.5, 0.25])
    assert seq.values_between(1, 3).tolist() == [0.5, 0.25]
    with pytest.raises(SequenceError, match="has 3 values, 4 requested"):
        seq.values_between(2, 4)
    for lo, hi in ((-1, 2), (2, 1)):
        with pytest.raises(SequenceError, match="bad index range"):
            seq.values_between(lo, hi)
    with pytest.raises(SequenceError, match="produced non-finite values"):
        sequence_from_text("lacunary(-1100)").values_between(0, 8)


def test_support_listed_values_between_is_writable_zeros_off_the_support():
    seq = sequence_from_text("lacunary(0.5)")
    lo, hi = 3, (1 << 20) + 5
    got = seq.values_between(lo, hi)
    k = seq.support(lo, hi)
    assert got.dtype == float and got.shape == (hi - lo,)
    assert got.flags.writeable
    assert got[k - (lo + 1)].tobytes() == seq.values_at(k).tobytes()
    off = np.ones(hi - lo, dtype=bool)
    off[k - (lo + 1)] = False
    assert not got[off].any()
    got[1] = 7.0        # its own memory: a second call is zero at c_5
    assert seq.values_between(lo, hi)[1] == 0.0


def test_mapping_failure_is_memory_error(monkeypatch):
    # mmap's ENOMEM is a MemoryError, as a failed numpy allocation is; an
    # empty range maps nothing
    def no_mapping(*args, **kwargs):
        raise OSError(12, "Cannot allocate memory")

    monkeypatch.setattr(sequences.mmap, "mmap", no_mapping)
    seq = sequence_from_text("lacunary(1.0)")
    with pytest.raises(MemoryError, match="Cannot allocate memory"):
        seq.values_between(0, 1 << 12)
    for lo in (0, 5):
        empty = seq.values_between(lo, lo)
        assert empty.shape == (0,) and empty.dtype == float
        assert empty.flags.writeable


def test_pieces_of_explicit_data_give_the_whole_gather():
    vals = np.random.default_rng(1).normal(size=4 * _P) * (1 + 1j)
    seq = CoefficientSequence.explicit(vals)
    for size in _PIECE_SIZES:
        n = _scattered(size)
        assert seq.values_at(n).tobytes() == vals[n - 1].tobytes()


@pytest.mark.parametrize("text", _EVERY_WEIGHT)
def test_weight_pieces_give_the_whole_map_byte_for_byte(text):
    # exp2 overflows to inf from n = 1024 on, in the first piece and in
    # every later one; the prefix keeps the infs
    for size in _PIECE_SIZES:
        w = weight_from_text(text)
        n = np.arange(1, size + 1, dtype=np.int64)
        assert w.validated_prefix(size)[0].tobytes() == \
            _whole(w.fn, n, float).tobytes()


def test_a_fault_in_a_later_piece_raises_the_whole_arrays_error():
    N = 3 * _P + 17
    bad = 2 * _P + 5

    def inf_late(n):
        return np.where(n == bad, np.inf, 1.0 / n)

    def short_late(n):
        return 1.0 / n if n.max() < bad else np.ones(1)

    for fn, message in ((inf_late, "generator for 'f' produced non-finite "
                                    "values"),
                        (short_late, "generator for 'f' returned a wrong "
                                     "shape")):
        seq = CoefficientSequence("f", fn)
        for read in (seq.prefix, lambda N: seq.values_at(
                np.arange(N, 0, -1, dtype=np.int64))):
            with pytest.raises(SequenceError) as err:
                read(N)
            assert str(err.value) == message
        assert seq.prefix(bad - 1).shape == (bad - 1,)
    with pytest.raises(SequenceError, match="returned a wrong shape"):
        WeightSequence("w", short_late).validated_prefix(N)


def test_rbv_block_notches_every_block_midpoint():
    # the notch at 3 * 2^(k-1) halves the block's value 2^-k, past 2^31 too
    seq = sequence_from_text("rbv_block(1.0)")
    for k in (1, 2, 5, 30, 31, 32, 40, 61):
        mid = np.array([3 << (k - 1), 1 << k], dtype=np.int64)
        notch, start = seq.values_at(mid)
        assert start == 2.0 ** -k and notch == 0.5 * start


# sha256 of prefix(2^20).tobytes() for the six classify_large families,
# taken from the whole-array maps before they ran in pieces
_PREFIX_DIGESTS_2_20 = {
    "harmonic(1.0)":
        "d96a24f9121cf9293b0f387e53b377d951bddefb0c09c0e67b10d34a3701c25f",
    "log_damped":
        "0f332b80cf68bf6c85cc082157d1337062c996526b08686cec58fba984c31c70",
    "rbv_block(1.0)":
        "7873c780140a016b453c0c9805dfd22164bb2eb5486a82f9a72dffaf57f050a2",
    "quasimono(0.5,2.0)":
        "14cd5301c04fa74ee76d3215478d7a306ec12a4deeef398641c381a67442664d",
    "lacunary(1.0)":
        "21261f5d1c4b56d44e7cee50bc759089ea2f48063b9b6f9d9c6b6d9eadd8a487",
    "perturbed(1,harmonic(2.0),0.05)":
        "631f6613e83376cc1290e26af30f3c1ba879bc11927ac0aaba81b31232397e38",
}


@pytest.mark.parametrize("text", list(_PREFIX_DIGESTS_2_20))
def test_prefix_digest_at_the_bench_horizon(text):
    prefix = sequence_from_text(text).prefix(1 << 20)
    assert hashlib.sha256(prefix.tobytes()).hexdigest() == \
        _PREFIX_DIGESTS_2_20[text]


def test_prefix_too_large_to_index_raises():
    # np.arange(1, 2^63) wraps to an empty range: a prefix is N values or
    # an error, never fewer values
    with pytest.raises(MemoryError):
        sequence_from_text("harmonic(1.0)").prefix(2 ** 63 - 1)
    with pytest.raises(MemoryError):
        weight_from_text("log").validated_prefix(
            2 ** 63 - 1)


def test_prefix_is_stable_under_growth():
    seq = sequence_from_text("perturbed(9,harmonic(1.0),0.05)")
    a = np.asarray(seq.prefix(64)).copy()
    b = np.asarray(seq.prefix(4096))
    assert np.array_equal(a, b[:64])


# --- families --------------------------------------------------------------

def test_harmonic_values():
    seq = sequence_from_text("harmonic(2.0)")
    vals = seq.prefix(4)
    assert np.allclose(vals, [1.0, 0.25, 1.0 / 9.0, 0.0625], rtol=0, atol=0)


def test_lacunary_support():
    vals = np.asarray(sequence_from_text("lacunary(1.0)").prefix(64))
    nz = np.nonzero(vals)[0] + 1
    assert list(nz) == [2, 4, 8, 16, 32, 64]
    assert vals[1] == 0.5 and vals[3] == 0.25


@pytest.mark.parametrize("alpha", [0.5, 1.0, -1.0, 2000.0])
@pytest.mark.parametrize("N", sorted({*_PIECE_SIZES, 2, 3}))
def test_support_prefix_is_the_map_at_every_index(alpha, N):
    # the prefix is written on the support alone; it must hold the bytes of
    # the map evaluated at 1..N, where 2000.0 underflows every support value
    # to 0 and -1.0 grows
    seq = sequence_from_text(f"lacunary({alpha})")
    with np.errstate(over="ignore"):
        want = seq.fn(np.arange(1, N + 1, dtype=np.int64))
    got = seq.prefix(N)
    assert got.dtype == np.float64 and got.shape == (N,)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("N", [2, 3 * _P + 17])
def test_support_prefix_rejects_non_finite_values(N):
    # 2^(1100 k) is inf from n = 2 on
    with pytest.raises(SequenceError, match="produced non-finite values"):
        sequence_from_text("lacunary(-1100)").prefix(N)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 3.0])
def test_lacunary_values_match_the_closed_form(alpha):
    # b_n = 2^(-alpha k) at n = 2^k with k >= 1, else 0: bit for bit the
    # values of evaluating exp2 at every index and masking afterwards
    n = np.arange(1, (1 << 16) + 1, dtype=np.int64)
    k = np.frexp(n.astype(float))[1] - 1
    want = np.where((n >= 2) & ((n & (n - 1)) == 0), np.exp2(-alpha * k), 0.0)
    seq = sequence_from_text(f"lacunary({alpha})")
    assert seq.prefix(n.size).tobytes() == want.tobytes()
    picked = np.array([3, 1, 1 << 15, 7, 2], dtype=np.int64)
    assert seq.values_at(picked).tobytes() == want[picked - 1].tobytes()


def test_zero_family():
    assert not np.any(sequence_from_text("zero").prefix(100))


def test_unit_noise_deterministic_and_bounded():
    idx = np.arange(1000)
    a = unit_noise(7, idx)
    b = unit_noise(7, idx)
    assert np.array_equal(a, b)
    assert np.all((a >= -1.0) & (a < 1.0))
    assert not np.array_equal(a, unit_noise(8, idx))


# --- weights ---------------------------------------------------------------

def test_weight_one_and_power():
    one = weight_from_text("one")
    vals, n_fin = one.validated_prefix(8)
    assert np.all(vals == 1.0) and n_fin == 8
    pw = weight_from_text("power(0.5)")
    vals, _ = pw.validated_prefix(4)
    assert vals[3] == 2.0


def test_weight_exp2_overflow_is_reported():
    w = weight_from_text("exp2")
    vals, n_fin = w.validated_prefix(5000)
    assert n_fin < 5000          # doubling overflows float range
    assert np.all(np.isfinite(vals[:n_fin]))


def _same_validation(weight, N):
    """validated_prefix(N) of ``weight`` equals that of a fresh copy."""
    fresh = WeightSequence(weight.label, weight.fn)
    got, want = weight.validated_prefix(N), fresh.validated_prefix(N)
    assert got[0].tobytes() == want[0].tobytes() and got[1] == want[1]


def test_validated_prefix_memo_matches_a_fresh_weight():
    # short then long, long then short; exp2 is finite for n <= 1023
    for text in ("log", "exp2"):
        w = weight_from_text(text)
        for N in (100, 5000, 1000, 1023, 1024, 5000, 6000):
            _same_validation(w, N)
    # a failed longer call keeps nothing: the shorter memo still answers,
    # and the longer call fails again
    dip = WeightSequence("dip", lambda n: np.where(n <= 100, n, 1.0))
    _same_validation(dip, 50)
    for _ in range(2):
        with pytest.raises(SequenceError, match="non-decreasing"):
            dip.validated_prefix(200)
        _same_validation(dip, 80)
    _same_validation(dip, 100)


def test_the_memo_is_no_field_so_replace_reads_the_new_map():
    # a replaced map, memo already filled, gives the new map's values
    harmonic = sequence_from_text("harmonic(1.0)")
    log_damped = sequence_from_text("log_damped")
    harmonic.prefix(64)
    moved = dataclasses.replace(harmonic, label="log_damped",
                                fn=log_damped.fn)
    assert moved.prefix(64).tobytes() == log_damped.prefix(64).tobytes()
    # explicit data under a new label still reads the data
    data = CoefficientSequence.explicit(np.array([1.0, 0.5, 0.25, 0.125]))
    renamed = dataclasses.replace(data, label="renamed")
    assert renamed.prefix(4).tobytes() == data.prefix(4).tobytes()
    power, log = (weight_from_text(text)
                  for text in ("power(0.5)", "log"))
    power.validated_prefix(64)
    got = dataclasses.replace(power, fn=log.fn).validated_prefix(64)
    want = log.validated_prefix(64)
    assert got[0].tobytes() == want[0].tobytes() and got[1] == want[1]
    # no constructor takes a memo
    for cls, names in ((CoefficientSequence,
                        ("label", "fn", "is_real", "length", "support")),
                       (WeightSequence, ("label", "fn"))):
        assert "_cache" not in inspect.signature(cls).parameters
        assert tuple(f.name for f in dataclasses.fields(cls)) == names


# --- sectors ---------------------------------------------------------------

def test_sector_validation():
    with pytest.raises(SequenceError):
        Sector(math.pi / 2)
    with pytest.raises(SequenceError):
        Sector(-0.1)
    assert sector_dominance_constant(Sector(math.pi / 3)) == pytest.approx(2.0)
    # -0.0 is K(0), stored as +0.0: one sector, one label
    assert math.copysign(1.0, Sector(-0.0).theta0) == 1.0


@settings(max_examples=200)
@given(st.floats(0.0, math.pi / 2 - 1e-6), st.floats(-1.0, 1.0),
       st.floats(-1.0, 1.0), st.floats(0.0, 100.0), st.floats(0.0, 100.0))
def test_sector_closed_under_positive_combinations(theta0, f1, f2, a, b):
    # K(theta0) is a convex cone: positive combinations stay inside
    s = Sector(theta0)
    z1 = complex(np.exp(1j * f1 * theta0))
    z2 = complex(np.exp(1j * f2 * theta0))
    combo = a * z1 + b * z2
    if abs(combo) > 1e-12:
        # with c_-n = 0 the pair sums and differences are combo itself
        ts = TwoSidedSequence(CoefficientSequence.explicit([combo]),
                              CoefficientSequence.explicit([0.0]))
        assert check_pair_sector(ts, s, 1).verdict == HOLDS


# --- two-sided -------------------------------------------------------------

def test_two_sided_pairs():
    pos = CoefficientSequence.explicit([1.0, 0.5])
    neg = CoefficientSequence.explicit([0.25, 0.125])
    ts = TwoSidedSequence(pos, neg)
    assert np.allclose(ts.pair_sums(2), [1.25, 0.625])
    assert np.allclose(ts.pair_diffs(2), [0.75, 0.375])
