import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trigconv import cli, sequences
from trigconv.cli import _parse_n_list, _sequence_from_file, main
from trigconv.sequences import (CoefficientSequence, SequenceError,
                                 sequence_from_text)

import _cli_runs


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- argument helpers -------------------------------------------------------

def test_parse_n_list_comma():
    assert _parse_n_list("64,256,1024") == [64, 256, 1024]


def test_parse_n_list_dyadic():
    assert _parse_n_list("64..1024:dyadic") == [64, 128, 256, 512, 1024]


def test_parse_n_list_dyadic_stops_at_bound():
    assert _parse_n_list("10..100:dyadic") == [10, 20, 40, 80]


@pytest.mark.parametrize("bad", ["", "64..32:dyadic", "64..128:cubic", "a,b"])
def test_parse_n_list_rejects(bad):
    with pytest.raises(ValueError):
        _parse_n_list(bad)


# --- classify ---------------------------------------------------------------

def test_classify_harmonic(capsys):
    code, out, _ = run(capsys, "classify", "harmonic(1.0)", "--n0", "1")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"manifest", "reports"}
    group = [r for r in payload["reports"]
             if r["condition"] == "GROUP_BV(N0=1)"]
    assert len(group) == 1
    assert group[0]["verdict"] == "holds"
    assert group[0]["constant"] == pytest.approx(2.0 / 3.0, rel=1e-9)


def test_classify_short_explicit_is_input_error(capsys):
    code, _, err = run(capsys, "classify", "explicit:[1,0.5]",
                       "--horizon", "10")
    assert code == 2
    assert "insufficient length" in err


def test_classify_deterministic(capsys):
    spec = "perturbed(3,harmonic(1.0),0.05)"
    code1, out1, _ = run(capsys, "classify", spec, "--horizon", "4096")
    code2, out2, _ = run(capsys, "classify", spec, "--horizon", "4096")
    assert code1 == code2 == 0
    assert out1 == out2


def test_classify_theta0_negative_zero_is_theta0_zero(capsys):
    # -0.0 and 0 are one sector K(0): one ORVQM label and one manifest
    # value, byte for byte (JSON keeps the sign of a zero)
    texts = []
    for theta0 in ("-0.0", "0"):
        code, out, _ = run(capsys, "classify", "harmonic(1.0)",
                           "--theta0", theta0, "--horizon", "64")
        assert code == 0
        payload = json.loads(out)
        del payload["manifest"]["command"]
        texts.append(cli._json_text(payload))
    assert texts[0] == texts[1]
    assert '"ORVQM(one,theta0=0)"' in texts[0]


def test_classify_label_names_one_sector(capsys):
    # 0.1000001 prints as 0.1 at six digits, so its label falls back to repr
    labels = []
    for theta0 in ("0.1", "0.1000001"):
        code, out, _ = run(capsys, "classify", "harmonic(1.0)",
                           "--theta0", theta0, "--horizon", "64")
        assert code == 0
        payload = json.loads(out)
        labels += [r["condition"] for r in payload["reports"]
                   if r["condition"].startswith("ORVQM")]
        assert payload["manifest"]["defaults"]["theta0"] == float(theta0)
    assert labels == ["ORVQM(one,theta0=0.1)", "ORVQM(one,theta0=0.1000001)"]


def test_classify_file_input(tmp_path, capsys):
    path = tmp_path / "seq.txt"
    rows = ["# comment", ""] + [f"{1.0 / k}" for k in range(1, 5001)]
    path.write_text("\n".join(rows) + "\n")
    code, out, _ = run(capsys, "classify", f"file:{path}",
                       "--horizon", "4096", "--n0", "1")
    assert code == 0
    payload = json.loads(out)
    digests = payload["manifest"]["input_digests"]
    assert str(path) in digests
    assert len(digests[str(path)]) == 64


def _is_input_error(code, err):
    return code == 2 and err.startswith("error: ") and err.count("\n") == 1


def test_classify_non_finite_explicit_is_input_error(capsys):
    code, out, err = run(capsys, "classify", "explicit:[1,nan,0.2,0.1]")
    assert _is_input_error(code, err) and out == ""
    assert "non-finite" in err


def test_classify_non_finite_file_is_input_error(tmp_path, capsys):
    path = tmp_path / "seq.txt"
    path.write_text("1.0\n0.5\ninf\n0.125\n")
    code, out, err = run(capsys, "classify", f"file:{path}")
    assert _is_input_error(code, err) and out == ""


@pytest.mark.parametrize("horizon,extra", [
    pytest.param("0", (), id="0"), pytest.param("1", (), id="1"),
    pytest.param("-5", (), id="-5"),
    pytest.param("1", ("--theta0", "2"), id="1-theta0")])
def test_classify_rejects_horizon_without_scan_range(capsys, horizon, extra):
    # the views are built before the sector, so a short horizon is the
    # error reported even when theta0 is out of range too
    code, out, err = run(capsys, "classify", "harmonic(1.0)",
                         "--horizon", horizon, *extra)
    assert _is_input_error(code, err) and out == ""
    assert f"horizon {horizon} leaves the checkers an empty scan range" in err


_SEED_ERROR = "the seed of 'perturbed' must be an integer in [0, 2^64)"


@pytest.mark.parametrize("argv,message", [
    pytest.param(("classify", "harmonic(1.0)@3"), "malformed spec",
                 id="seed-suffix"),
    pytest.param(("classify", "perturbed(3,harmonic(1.0),0.05)@42"),
                 "malformed spec", id="perturbed-seed-suffix"),
    pytest.param(("classify", "harmonic(2.0)", "--weight", "power(0.5)@3"),
                 "malformed spec", id="weight-seed-suffix"),
    pytest.param(("classify", "log_damped@3"), "bad family id",
                 id="bare-seed-suffix"),
    pytest.param(("curve", "logdamped", "--n", "64"),
                 "unknown family id 'logdamped'", id="logdamped"),
    pytest.param(("classify", "rbvblock(1.0)"),
                 "unknown family id 'rbvblock'", id="rbvblock"),
    pytest.param(("classify", "harmonic(2.0)", "--weight", "const"),
                 "'const' takes 1 parameter(s), got 0", id="bare-const"),
    pytest.param(("classify", "orvqm(const,harmonic(2.0))"),
                 "'const' takes 1 parameter(s), got 0", id="nested-const"),
    pytest.param(("classify", "perturbed(2.5,harmonic(1.0),0.05)"),
                 _SEED_ERROR, id="seed-2.5"),
    pytest.param(("classify", "perturbed(2.0,harmonic(1.0),0.05)"),
                 _SEED_ERROR, id="seed-2.0"),
    pytest.param(("classify", "perturbed(-1,harmonic(1.0),0.05)"),
                 _SEED_ERROR, id="seed-negative"),
    pytest.param(("classify", "perturbed(18446744073709551616,harmonic(1.0),"
                  "0.05)"), _SEED_ERROR, id="seed-2^64"),
    pytest.param(("curve", "orvqm(log,perturbed(1e3,zero,0.1))", "--n", "8"),
                 _SEED_ERROR, id="nested-seed-1e3"),
])
def test_removed_spellings_and_bad_seeds_are_input_errors(capsys, argv,
                                                          message):
    # each sequence and weight has one spelling, and a perturbed seed is
    # an integer in [0, 2^64): anything else exits 2 with one line
    code, out, err = run(capsys, *argv)
    assert _is_input_error(code, err) and out == ""
    assert message in err


def test_classify_composite_over_explicit_base(capsys):
    code, out, _ = run(capsys, "classify",
                       "perturbed(1,explicit:[1,0.5,0.25],0.1)",
                       "--horizon", "3")
    assert code == 0
    assert all(r["range"]["horizon"] == 3
               for r in json.loads(out)["reports"])


@pytest.mark.parametrize("spec", [
    "perturbed(1,explicit:[1,0.5,0.25,0.125],0.1)",
    "orvqm(power(0.5),explicit:[1,0.5,0.25,0.1])"])
def test_classify_composite_of_finite_data_keeps_its_length(capsys, spec):
    # the default horizon is the four values of the base, and a longer
    # horizon is refused with the composite's label
    code, out, err = run(capsys, "classify", spec)
    assert code == 0, err
    assert all(r["range"]["horizon"] == 4
               for r in json.loads(out)["reports"])
    code, out, err = run(capsys, "classify", spec, "--horizon", "8")
    label = sequence_from_text(spec).label
    assert _is_input_error(code, err) and out == ""
    assert f"sequence {label!r} has 4 values, 8 requested" in err


# --- curve ------------------------------------------------------------------

def test_curve_of_a_composite_of_finite_data(capsys):
    # the truncation slack counts the composite's values up to its length
    code, out, err = run(capsys, "curve", "perturbed(1,explicit:[1,2,3],0.1)",
                         "--n", "1", "--nref", "3")
    assert code == 0, err
    assert out.splitlines()[1:] and out.splitlines()[1].startswith("1,")
    assert json.loads(err)["defaults"]["slack_settled"] is True


@pytest.mark.parametrize("spec", ["perturbed(3,harmonic(2.0),0.05)",
                                  "orvqm(log,harmonic(2.0))"])
def test_curve_composite_family(capsys, spec):
    # the truncation slack evaluates the generator on (N_ref, 16 N_ref]
    code, out, _ = run(capsys, "curve", spec, "--n", "16,32",
                       "--nref", "1024")
    assert code == 0
    rows = out.strip().split("\n")[1:]
    assert [r.split(",")[0] for r in rows] == ["16", "32"]
    assert all(float(r.split(",")[2]) > 0.0 for r in rows)


def test_curve_zero_sequence(capsys):
    code, out, err = run(capsys, "curve", "zero", "--n", "8")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,sup_estimate,truncation_slack,max_k_ck"
    assert len(lines) == 2
    assert lines[1].startswith("8,0.0,")
    # manifest goes to stderr when streaming CSV to stdout
    assert json.loads(err)["command"][0] == "curve"


def test_curve_out_writes_sidecar(tmp_path, capsys):
    target = tmp_path / "h.csv"
    code, out, _ = run(capsys, "curve", "harmonic(1.0)",
                       "--n", "16,32", "--nref", "256",
                       "--out", str(target))
    assert code == 0
    assert out == ""
    body = target.read_text().strip().splitlines()
    assert body[0] == "n,sup_estimate,truncation_slack,max_k_ck"
    assert len(body) == 3
    sidecar = json.loads((tmp_path / "h.csv.manifest.json").read_text())
    # the evaluation grid is sized for the largest requested n; --nref
    # only moves the truncation reference
    assert sidecar["defaults"]["grid"] == "grid(32,8)"
    assert sidecar["defaults"]["reference_horizon"] == 256


def test_curve_manifest_records_the_default_reference_horizon(capsys):
    # without --nref the curve runs at max(2^16, 64 * max n)
    code, _, err = run(capsys, "curve", "log_damped", "--n", "64..256:dyadic")
    assert code == 0
    defaults = json.loads(err)["defaults"]
    assert defaults["reference_horizon"] == 1 << 16
    assert defaults["n_ref"] == 256


def test_curve_of_file_data_defaults_its_reference_horizon_to_the_length(
        tmp_path, capsys):
    # 4096 lines of 1/k^2: without --nref the curve runs at the data's
    # length, where the tail is exact, and prints what --nref 4096 prints
    path = tmp_path / "coeffs.txt"
    path.write_text("".join(f"{1.0 / k ** 2!r}\n" for k in range(1, 4097)))
    spec, ns = f"file:{path}", "64..1024:dyadic"
    code, out, err = run(capsys, "curve", spec, "--n", ns)
    assert code == 0
    assert json.loads(err)["defaults"]["reference_horizon"] == 4096
    assert all(row.split(",")[2] == "0.0"
               for row in out.strip().splitlines()[1:])
    code, want, _ = run(capsys, "curve", spec, "--n", ns, "--nref", "4096")
    assert code == 0 and out == want


def test_curve_of_a_finite_composite_runs_at_its_length(capsys):
    code, out, err = run(capsys, "curve",
                         "perturbed(1,explicit:[1,0.5,0.25,0.125],0.1)",
                         "--n", "1")
    assert code == 0 and len(out.strip().splitlines()) == 2
    assert json.loads(err)["defaults"]["reference_horizon"] == 4


@pytest.mark.parametrize("n", [3000, 2049])
def test_curve_of_file_data_reaches_every_n_below_its_length(tmp_path,
                                                             capsys, n):
    # max k|c_k| runs over [n, min(2n, L + 1)), the window cut at the
    # data's length L = 4096, whose last value gives the largest k|c_k|
    c = [1.0 / k ** 2 for k in range(1, 4096)] + [1.0]
    path = tmp_path / "coeffs.txt"
    path.write_text("".join(f"{v!r}\n" for v in c))
    code, out, _ = run(capsys, "curve", f"file:{path}", "--n", str(n))
    assert code == 0
    (row,) = out.strip().splitlines()[1:]
    assert float(row.split(",")[3]) == \
        max(k * c[k - 1] for k in range(n, min(2 * n, len(c) + 1))) == 4096.0


def test_curve_of_short_explicit_data_cuts_its_window_at_the_length(capsys):
    code, out, _ = run(capsys, "curve", "explicit:[1,0.5,0.25]", "--n", "2")
    assert code == 0
    assert out.strip().splitlines()[1:] == ["2,0.25,0.0,1.0"]


def test_curve_at_the_length_of_finite_data_is_input_error(capsys):
    code, out, err = run(capsys, "curve", "explicit:[1,0.5,0.25]", "--n", "3")
    assert _is_input_error(code, err) and out == ""
    assert "reference horizon must exceed max(n_list)" in err


def test_sparse_curve_at_a_huge_reference_horizon_prints_rows(capsys):
    # lacunary lists its support: the rows and the truncation slack read
    # the powers of two up to N_ref = 2^34, and no dense prefix is built
    code, out, err = run(capsys, "curve", "lacunary(1.0)",
                         "--n", "64..256:dyadic", "--nref", str(1 << 34))
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [r[0] for r in rows] == ["64", "128", "256"]
    for n, sup, _, max_k_ck in rows:
        # the tail is at most sum_{2^j > n} 2^-j = 2^-floor(log2 n)
        assert 0.0 < float(sup) <= 1.0 / int(n)
        assert float(max_k_ck) == 1.0
    assert json.loads(err)["defaults"]["reference_horizon"] == 1 << 34


@pytest.mark.parametrize("nref", [str(1 << 60), str(1 << 63)])
def test_sparse_curve_past_the_int64_support_is_one_line(capsys, nref):
    code, out, err = run(capsys, "curve", "lacunary(1.0)", "--n", "4",
                         "--nref", nref)
    assert _is_input_error(code, err) and out == ""
    assert "passes the int64 index range" in err


_BIG8 = "explicit:[" + ",".join(["1e308"] * 8) + "]"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [
    # the partial sums and 2|c_2| pass the float range
    (_BIG8, "--n", "2", "--nref", "8"),
    # so does the exact sum of |c_k| over (2, 8] in the truncation slack
    (_BIG8, "--n", "1", "--nref", "2"),
    # |c_1| of a complex value does
    ("explicit:[1.7976931348623157e308+1.7976931348623157e308i,1,1,1]",
     "--n", "1", "--nref", "2"),
])
def test_curve_overflow_is_one_line(capsys, argv):
    code, out, err = run(capsys, "curve", *argv)
    assert _is_input_error(code, err) and out == ""
    assert "overflows the float range" in err


def test_curve_rejects_bad_n_list(capsys):
    code, _, err = run(capsys, "curve", "zero", "--n", "64..8:dyadic")
    assert code == 2
    assert err


@pytest.mark.parametrize("n", ["0", "-4"])
def test_curve_rejects_out_of_range_n(capsys, n):
    # the n_list check runs before the grid is built for max(n_list)
    code, out, err = run(capsys, "curve", "zero", "--n", n)
    assert _is_input_error(code, err) and out == ""
    assert "n_list must be strictly increasing, n >= 1" in err


# sha256 of stdout and of stderr, and the exit code, of the benchmark's five
# tail_curves curve commands (input seed 1) and of the README curve, frozen
# before the ladder ran in blocks of points and the grid split stopped
# sorting; a speedup must keep every byte
_CURVE_DIGESTS = [
    (("log_damped", "--n", "64..512:dyadic", "--nref", "16384"),
     "2f8b7c4bdca917681a75acc89143c310e2f0c5596a3494f43108c3020a8f6e34",
     "7a1dd8c9942768a78c9c0901219887390fc6c11ec02d93afb595606009339337"),
    (("harmonic(1.0)", "--n", "64..512:dyadic", "--nref", "8192"),
     "1afdb64b35e40c71a5c5c4b823c3058b5bcc196134da1073873a576b29672900",
     "65671c8df918ad1a489f794845e7279dc053b95baf0b0c2004ae2176a8e9da6a"),
    (("lacunary(1.0)", "--n", "64..1024:dyadic", "--nref", "262144"),
     "9dfd90312189150776068f981f6ed1cc3d737d456d7a44c0cfc90103b13fc0fb",
     "ddadf7ec4e2658977b675ed1af1755159f0537175ea15ddd163d1509fc751ab3"),
    (("lacunary(0.5)", "--n", "64..1024:dyadic", "--nref", "262144"),
     "41ef5a4e83f9387d05fac4e4fc22293eaf62a1dd6c06f6e4b358090d86fe02a8",
     "601f26541592f30edf2a555e2b002183b09dc5e916c0d7f09eed93c4217f5e35"),
    (("perturbed(1,log_damped,0.05)", "--n", "64..512:dyadic", "--nref",
      "8192"),
     "0752b202eb22d7daa156e044f8054fb6aa682374a577c6376a3e2a874d50428b",
     "c234179cf66eaacb6e5f2c94d1912696656cbe7d47bf98e8be404a79af0c3848"),
]


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("args, out_digest, err_digest", _CURVE_DIGESTS)
def test_curve_output_digest(capsys, args, out_digest, err_digest):
    code, out, err = run(capsys, "curve", *args)
    assert (code, _sha256(out), _sha256(err)) == (0, out_digest, err_digest)


def test_readme_curve_digest(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "curve", "log_damped", "--n",
                         "64..4096:dyadic", "--out", "curve.csv")
    assert (code, out, err) == (0, "", "")
    assert _sha256((tmp_path / "curve.csv").read_text()) == \
        "9567e1eb1e5bc2100d2ce0958b57fe4521f81fb9939601f88c2995c928fa7b57"
    assert _sha256((tmp_path / "curve.csv.manifest.json").read_text()) == \
        "c4688504816a0c8844625c7e5ac4bbf6c768cb84aa942ce435efa978e5cc14bc"


# --- verify -----------------------------------------------------------------

def test_verify_unknown_theorem_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "bogus"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ("lacunary", "--corpus-size", "3"),
    ("lacunary", "--seed", "9"),
    ("t3", "--alpha", "7"),
    ("corollary", "--alpha", "3"),
    ("equivalence", "--seed", "9"),
    ("equivalence", "--corpus-size", "2"),
    # the options belong to the claim, so they follow its name
    ("--seed", "5", "t3"),
])
def test_verify_rejects_an_option_its_claim_does_not_read(capsys, argv):
    # with the usage line of the claim, or of verify ahead of the claim
    usage = "verify" if argv[0].startswith("-") else f"verify {argv[0]}"
    with pytest.raises(SystemExit) as exc:
        main(["verify", *argv])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert err.startswith(f"usage: trigconv {usage} [-h]"), err
    assert f"trigconv {usage}: error: " in err and "Traceback" not in err


def test_verify_t3_small(capsys):
    code, out, err = run(capsys, "verify", "t3", "--corpus-size", "4")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"manifest", "outcome"}
    assert payload["outcome"]["status"] == "ok"
    assert payload["outcome"]["summary"]["headline"] == "4/4 chains hold"
    assert "[pass]" in err


def test_verify_lacunary_alpha_half_exit_code(capsys):
    code, out, _ = run(capsys, "verify", "lacunary", "--alpha", "0.5")
    assert code == 1
    assert json.loads(out)["outcome"]["status"] == "violated"


def test_verify_out_file(tmp_path, capsys):
    target = tmp_path / "t3.json"
    code, out, _ = run(capsys, "verify", "t3", "--corpus-size", "3",
                       "--out", str(target))
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["outcome"]["claim"] == "weighted_bv_implies_group_bv"


def test_verify_determinism(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "verify", "corollary", "--corpus-size", "2",
        "--out", str(a))
    run(capsys, "verify", "corollary", "--corpus-size", "2",
        "--out", str(b))
    pa, pb = json.loads(a.read_text()), json.loads(b.read_text())
    # the manifests differ only in the --out path they record
    assert json.dumps(pa["outcome"], sort_keys=True) == \
        json.dumps(pb["outcome"], sort_keys=True)
    assert pa["manifest"]["defaults"] == pb["manifest"]["defaults"]


# --- schema conformance -----------------------------------------------------

def _schema(name):
    import trigconv
    from pathlib import Path
    root = Path(trigconv.__file__).parent / "schemas"
    return json.loads((root / name).read_text())


def test_classify_payload_matches_schema(capsys):
    jsonschema = pytest.importorskip("jsonschema")
    _, out, _ = run(capsys, "classify", "harmonic(2.0)",
                    "--horizon", "4096")
    jsonschema.validate(json.loads(out), _schema("classify_output.json"))


def test_verify_payload_matches_schema(capsys):
    jsonschema = pytest.importorskip("jsonschema")
    _, out, _ = run(capsys, "verify", "lacunary", "--alpha", "2.0")
    jsonschema.validate(json.loads(out), _schema("verify_output.json"))


def test_verify_t3_worst_slack_is_a_measured_slack(capsys):
    # premise records carry no slack, so the summary reports the smallest
    # slack among the chain gates, not a placeholder 0.0
    code, out, _ = run(capsys, "verify", "t3", "--corpus-size", "3")
    assert code == 0
    outcome = json.loads(out)["outcome"]
    slacks = [r["slack"] for r in outcome["records"]
              if r["slack"] is not None]
    assert outcome["summary"]["worst_slack"] == min(slacks) > 0.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("base", ["harmonic(1.0)", "lacunary(1.0)"])
def test_classify_overflowing_composite_weight_is_one_line(capsys, base):
    code, out, err = run(capsys, "classify", f"orvqm(exp2,{base})",
                         "--horizon", "4096")
    assert _is_input_error(code, err) and out == ""
    assert "non-finite" in err


@pytest.mark.parametrize("argv", [
    ("classify", "orvqm(log,3)"),
    ("classify", "perturbed(1,2,3)"),
    ("curve", "orvqm(1,2)", "--n", "4"),
    ("classify", "harmonic(zero)"),
    ("classify", "harmonic(1.0)", "--weight", "power(zero)"),
    ("classify", "perturbed(zero,harmonic(1.0),0.1)"),
    ("classify", "harmonic(1.0)", "--weight", "one(3)"),
])
def test_spec_parameter_kind_mismatch_is_input_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert _is_input_error(code, err) and out == ""
    assert "parameter" in err


@pytest.mark.filterwarnings("error")
def test_classify_generator_overflow_is_one_line(capsys):
    code, out, err = run(capsys, "classify", "quasimono(1e308,1)",
                         "--horizon", "64")
    assert _is_input_error(code, err) and out == ""


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [
    # |c_1 - c_2| is inf
    ("explicit:[1e308,-1e308,1,1,1,1,1,1]",),
    # every difference is finite, their sum is not
    ("explicit:[1e308,0,1e308,0,1e308,0,1,1]",),
    # REST_BV's ratio T_1 / b_1 is about 2e600
    ("explicit:[1e-300,1e300,0,0,0,0,0,0]",),
    # c/R overflows
    ("explicit:[1,0.5,0.25]", "--weight", "const(1e-310)"),
])
def test_classify_overflow_is_one_line(capsys, argv):
    code, out, err = run(capsys, "classify", *argv)
    assert _is_input_error(code, err) and out == ""
    assert "overflows the float range" in err


def test_classify_of_two_terms_whose_variation_overflows_is_one_line(capsys):
    # the view is built without its tail sums; the first checker that
    # reads them reports the overflow
    code, out, err = run(capsys, "classify", "explicit:[1e308,-1e308]")
    assert (code, out) == (2, "")
    assert err == ("error: the variation sum of c_n/R(n) overflows the float "
                   "range\n")


@pytest.mark.filterwarnings("error")
def test_classify_at_the_largest_float_runs_clean(capsys):
    # the monotonicity slack a + 1e-12 a overflows at a = max float
    code, out, err = run(capsys, "classify",
                         "explicit:[1.7976931348623157e308,1e308,1,0.5]")
    assert code == 0 and err == ""
    reports = {r["condition"]: r for r in json.loads(out)["reports"]}
    assert reports["MONOTONE"]["verdict"] == "holds"


@pytest.mark.parametrize("argv", [
    ("lacunary", "--alpha", "inf"),
    ("lacunary", "--alpha", "nan"),
    ("lacunary", "--alpha", "1e-17"),     # 2^-alpha rounds to 1
    ("t3", "--corpus-size", "0"),
    ("t3", "--corpus-size", "-1"),
    ("corollary", "--corpus-size", "0"),
])
def test_verify_rejects_out_of_range_arguments(capsys, argv):
    code, out, err = run(capsys, "verify", *argv)
    assert _is_input_error(code, err) and out == ""


_CORPUS_SEED_ERROR = "every corpus seed must be an integer in [0, 2^64)"


@pytest.mark.parametrize("argv", [
    ("t3", "--seed", "-1", "--corpus-size", "2"),
    # the last seed, 2^64, would alias seed 0
    ("t3", "--seed", str(2 ** 64 - 1), "--corpus-size", "2"),
    ("t3", "--seed", str(2 ** 64), "--corpus-size", "1"),
    ("corollary", "--seed", "-2", "--corpus-size", "1"),    # draws -1
    # the odd seeds 2^64 - 3, 2^64 - 1 and 2^64 + 1
    ("corollary", "--seed", str(2 ** 64 - 3), "--corpus-size", "3"),
])
def test_verify_corpus_seeds_outside_64_bits_are_input_errors(capsys, argv):
    # read mod 2^64, -1 and 2^64 - 1 would print the same members under
    # two labels; the run names its seed range before unit_noise refuses one
    code, out, err = run(capsys, "verify", *argv)
    assert _is_input_error(code, err) and out == ""
    assert _CORPUS_SEED_ERROR in err


@pytest.mark.parametrize("argv", [
    ("t3", "--seed", "0", "--corpus-size", "1"),
    ("t3", "--seed", str(2 ** 64 - 1), "--corpus-size", "1"),
    ("corollary", "--seed", str(2 ** 64 - 4), "--corpus-size", "2"),
])
def test_verify_corpus_runs_every_64_bit_seed(capsys, argv):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 0 and _CORPUS_SEED_ERROR not in err
    assert json.loads(out)["outcome"]["summary"]["members"] == int(argv[-1])


@pytest.mark.parametrize("argv", [
    # no window fits two terms: the length is checked before the fit
    ("explicit:[1,0.5]", "--n0", "-5"),
    ("harmonic(1.0)", "--n0", "0"),
])
def test_classify_rejects_out_of_range_windows(capsys, argv):
    code, out, err = run(capsys, "classify", *argv)
    assert _is_input_error(code, err) and out == ""
    assert "N0 must be >= 1" in err



def test_classify_non_utf8_file_is_input_error(tmp_path, capsys):
    path = tmp_path / "seq.bin"
    path.write_bytes(b"\x80\x81")
    code, out, err = run(capsys, "classify", f"file:{path}")
    assert _is_input_error(code, err) and out == ""
    assert str(path) in err and "UTF-8" in err


@pytest.mark.parametrize("data", [b"\x80\x81", b"1.0\r\n\xff\n",
                                  b"1.0\r0.5\r\xe2\x82"])
def test_non_utf8_message_names_the_byte_a_text_read_names(tmp_path, data):
    path = tmp_path / "seq.bin"
    path.write_bytes(data)
    with pytest.raises(UnicodeDecodeError) as text_read:
        with open(path, "r", encoding="utf-8") as fh:
            fh.read()
    exc = text_read.value
    with pytest.raises(SequenceError) as parsed:
        _sequence_from_file(str(path))
    assert str(parsed.value) == (f"{path}: not UTF-8 text ({exc.reason} at "
                                 f"byte {exc.start})")


@pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"])
def test_file_manifest_pins_the_bytes_that_were_parsed(tmp_path, capsys,
                                                       monkeypatch, eol):
    # CR and CRLF files parse as LF files do, the file is opened once, and
    # the manifest's digest is the sha256 of the file's bytes
    data = eol.join(["# c_k = 1/k", ""] + [f"{1.0 / k!r}"
                                           for k in range(1, 301)])
    path = tmp_path / "seq.txt"
    path.write_bytes((data + eol).encode("utf-8"))
    opened = []
    real_open = open

    def counted(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counted)
    code, out, _ = run(capsys, "classify", f"file:{path}",
                       "--horizon", "256", "--n0", "1")
    monkeypatch.undo()
    assert code == 0 and opened.count(str(path)) == 1
    payload = json.loads(out)
    assert payload["manifest"]["input_digests"] == {
        str(path): hashlib.sha256(path.read_bytes()).hexdigest()}
    seq = _sequence_from_file(str(path))[0]
    assert seq.prefix(300).tobytes() == (1.0 / np.arange(1, 301)).tobytes()


def test_weight_leaving_one_finite_term_is_input_error(capsys):
    # power(1e308) is infinite from n = 2 on: no weighted range is left
    code, out, err = run(capsys, "classify", "harmonic(1.0)",
                         "--weight", "power(1e308)", "--horizon", "64")
    assert _is_input_error(code, err) and out == ""
    assert "power(1e+308)" in err
    # exp2 overflows past n = 1023: the weighted checks keep that range
    code, out, _ = run(capsys, "classify", "harmonic(1.0)",
                       "--weight", "exp2", "--horizon", "4096")
    assert code == 0
    weighted = [r for r in json.loads(out)["reports"]
                if r["condition"].startswith(("WEIGHTED", "ORVQM"))]
    assert len(weighted) == 2
    assert {r["range"]["horizon"] for r in weighted} == {1023}


def test_allocation_failure_is_input_error(capsys, monkeypatch):
    def no_memory(self, N):
        raise MemoryError("Unable to allocate 745. GiB for an array")

    monkeypatch.setattr(CoefficientSequence, "prefix", no_memory)
    code, out, err = run(capsys, "classify", "harmonic(1.0)",
                         "--horizon", "100000000000")
    assert _is_input_error(code, err) and out == ""
    assert "745. GiB" in err


def test_mapping_failure_is_out_of_memory(capsys, monkeypatch):
    # the prefix of a support-listed sequence lives in an anonymous mapping
    def no_mapping(*args, **kwargs):
        raise OSError(12, "Cannot allocate memory")

    monkeypatch.setattr(sequences.mmap, "mmap", no_mapping)
    code, out, err = run(capsys, "classify", "lacunary(1.0)")
    assert _is_input_error(code, err) and out == ""
    assert err.startswith("error: out of memory: ")


# --- file parsing: the one-map fast path against the per-line loop ---------

def _loop_parse(path):
    """The per-line reader: (values, is_real, label) or the error text."""
    values = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                parts = [p.strip() for p in line.split(",")]
                try:
                    if len(parts) == 1:
                        values.append(complex(float(parts[0]), 0.0))
                    elif len(parts) == 2:
                        values.append(complex(float(parts[0]),
                                              float(parts[1])))
                    else:
                        raise ValueError(line)
                except ValueError as exc:
                    raise SequenceError(
                        f"{path}:{lineno}: expected `re` or `re,im`, got "
                        f"{line!r}") from exc
        if not values:
            raise SequenceError(f"{path}: no values")
        return CoefficientSequence.explicit(
            np.asarray(values, dtype=complex), label=f"file:{path}")
    except SequenceError as exc:
        return str(exc)


def _file_parse(path):
    try:
        return _sequence_from_file(str(path))[0]
    except SequenceError as exc:
        return str(exc)


def _same_parse(path):
    got, want = _file_parse(path), _loop_parse(path)
    if isinstance(want, str):
        assert got == want
        return
    assert not isinstance(got, str), got
    assert got.prefix(got.length).dtype == want.prefix(want.length).dtype
    assert got.prefix(got.length).tobytes() == \
        want.prefix(want.length).tobytes()
    assert (got.is_real, got.label) == (want.is_real, want.label)


_FAST_FILES = [
    "1.0\n0.5\n0.25\n",                      # plain
    "1.0\r\n0.5\r\n0.25\r\n",                # CRLF
    "1.0  \n\t0.5 \n 0.25",                  # surrounding spaces, no final EOL
    "1_000\n2_5.0\n-0.0\n5e-324\n",          # underscores, signed zero
    "1.0\nnan\n",                             # non-finite value
    "",                                       # no values
]
_LOOP_FILES = [
    "# header\n1.0\n0.5\n",                  # comment
    "1.0\n\n0.5\n",                          # blank line
    "1.0\n0.5, -0.25\n",                      # re,im line
    "1.0\n0.5\nabc\n",                       # bad line
    "1.0\n0.5,1,2\n",                         # three fields
]


@pytest.mark.parametrize("text", _FAST_FILES + _LOOP_FILES)
def test_file_fast_path_matches_the_loop(tmp_path, monkeypatch, text):
    path = tmp_path / "seq.txt"
    path.write_bytes(text.encode("utf-8"))
    if text in _FAST_FILES:     # these never reach the per-line loop
        monkeypatch.setattr(cli, "_parse_lines", None)
    _same_parse(path)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.text(alphabet="0123456789.e-_ ,#\t\r\x0c", max_size=8)
                | st.sampled_from(["1.5", "nan", "inf", "1e400", "0.5,0.5"]),
                max_size=8),
       st.sampled_from(["\n", "\r\n", "\r"]))
def test_file_fast_path_matches_the_loop_generated(tmp_path_factory, lines,
                                                   eol):
    path = tmp_path_factory.mktemp("files") / "seq.txt"
    path.write_bytes(eol.join(lines).encode("utf-8"))
    _same_parse(path)


# --- fuzzing ----------------------------------------------------------------

_NUMBER_TOKENS = st.one_of(
    st.integers(-3, 40).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr))
# explicit data at the edges of the float range: differences, sums, ratios,
# partial sums and k|c_k| of these overflow although every value is finite
_EXPLICIT_DATA = st.lists(
    st.sampled_from(["1e308", "-1e308", "1.7976931348623157e308", "1e-300",
                     "5e-324", "-2.2e-310", "0", "1", "0.5", "-1", "0.5i",
                     "1e308i"]),
    max_size=12).map(lambda vals: f"explicit:[{','.join(vals)}]")
_SPEC_TOKENS = st.recursive(
    st.one_of(_NUMBER_TOKENS, st.sampled_from([
        "harmonic(1.0)", "harmonic(-2)", "log_damped", "lacunary(0.5)",
        "rbv_block(1.0)", "quasimono(0.5,2.0)", "zero", "log", "exp2",
        "one", "const", "power(0.5)", "explicit:[1,0.5i,0.25]",
        "explicit:[]", "nosuch", "harmonic(", ""])),
    lambda inner: st.builds(
        lambda f, args, seed: f"{f}({','.join(args)}){seed}",
        st.sampled_from(["harmonic", "quasimono", "lacunary", "rbv_block",
                         "orvqm", "perturbed", "power", "const", "one"]),
        st.lists(inner, max_size=3), st.sampled_from(["", "@5", "@x"])),
    max_leaves=5)


# prefix and index-range lengths past what an array can hold, 2^63 - 1
# among them, where np.arange(1, N + 1) wraps to an empty range
_HUGE_SIZES = st.sampled_from(
    [str(v) for v in (2 ** 60, 2 ** 61, 2 ** 63 - 1, 2 ** 63, 10 ** 20)])


def _flag(name, values):
    # name=value, so that a value such as -1e+16 is not read as an option
    return st.one_of(st.just(()), values.map(lambda v: (f"{name}={v}",)))


# "--" ends the options, so that a spec such as -inf stays positional
_CLASSIFY_ARGV = st.tuples(
    st.just(("classify",)),
    _flag("--horizon", st.one_of(st.integers(-2, 64).map(str), _HUGE_SIZES)),
    _flag("--weight", _SPEC_TOKENS),
    _flag("--theta0", _NUMBER_TOKENS),
    _flag("--n0", st.lists(st.integers(-1, 20).map(str), min_size=1,
                           max_size=3).map(",".join)),
    _flag("--m-max", st.integers(-1, 40).map(str)),
    st.one_of(_SPEC_TOKENS, _EXPLICIT_DATA).map(lambda s: ("--", s)))
_CURVE_ARGV = st.tuples(
    st.just(("curve",)),
    st.one_of(st.sampled_from(["4", "1,2", "8,16", "0,4", "16,8",
                               "2..32:dyadic"]), _HUGE_SIZES).map(
        lambda n: ("--n", n)),
    # a small reference horizon lets explicit data reach the row engine
    st.one_of(st.integers(-1, 2048).map(str), st.integers(-1, 12).map(str),
              _HUGE_SIZES).map(lambda r: (f"--nref={r}",)),
    st.one_of(_SPEC_TOKENS, _EXPLICIT_DATA).map(lambda s: ("--", s)))
# the options each claim reads; argparse rejects any other with exit 2
_VERIFY_READS = {"t3": {"--seed", "--corpus-size", "--out"},
                 "corollary": {"--seed", "--corpus-size", "--out"},
                 "lacunary": {"--alpha", "--out"},
                 "equivalence": {"--out"}}
# the option without which a claim runs its full default harness
_VERIFY_COSTLY_DEFAULT = {"t3": "--corpus-size", "corollary": "--corpus-size",
                          "lacunary": "--alpha"}


def _verify_options(argv) -> set:
    return {a.partition("=")[0] for a in argv[2:]}


def _verify_is_cheap(parts) -> bool:
    argv = [a for part in parts for a in part]
    names = _verify_options(argv)
    return bool(names - _VERIFY_READS[argv[1]]) or \
        _VERIFY_COSTLY_DEFAULT.get(argv[1]) in names


# any option for any claim, but only cheap runs: corpora of at most two
# members and out-of-range alphas (a valid one runs a 2^20-term harness,
# which the lacunary tests cover), and equivalence only when it is rejected
_VERIFY_ARGV = st.tuples(
    st.sampled_from(sorted(_VERIFY_READS)).map(lambda c: ("verify", c)),
    _flag("--seed", st.integers(-5, 400).map(str)),
    _flag("--corpus-size", st.integers(-2, 2).map(str)),
    _flag("--alpha", st.floats(allow_nan=True, allow_infinity=True)
          .filter(lambda a: not 0.0 < a <= 51.1).map(repr)),
    _flag("--out", st.just(os.devnull))).filter(_verify_is_cheap)


@settings(max_examples=150, deadline=None)
@given(st.one_of(_CLASSIFY_ARGV, _CURVE_ARGV, _VERIFY_ARGV))
def test_cli_fuzz_exits_0_1_or_2(parts):
    argv = [a for part in parts for a in part]
    out, err = io.StringIO(), io.StringIO()
    rejected = False
    with redirect_stdout(out), redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            code = main(argv)
        except SystemExit as exc:
            code, rejected = exc.code, True
    err = err.getvalue()
    # only verify meets an argparse rejection: an option its claim skips
    unread = (_verify_options(argv) - _VERIFY_READS[argv[1]]
              if argv[0] == "verify" else set())
    assert rejected == bool(unread)
    if rejected:
        assert code == 2, err
        assert err.startswith(f"usage: trigconv verify {argv[1]} [-h]"), err
        return
    assert code in (0, 1, 2)
    if code == 2:
        assert _is_input_error(code, err), err
    sizes = [a for a in argv if a.startswith("--corpus-size=")]
    seeds = [a for a in argv if a.startswith("--seed=")]
    if sizes:
        assert (code == 2) == (int(sizes[0].partition("=")[2]) < 1 or (
            bool(seeds) and int(seeds[0].partition("=")[2]) < 0))
    windows = [a.partition("=")[2] for a in argv if a.startswith("--n0=")]
    if windows and min(int(n0) for n0 in windows[0].split(",")) < 1:
        assert code == 2
    if "lacunary" in argv:
        assert code == 2


# --- the run list, in-process, under two hash seeds ----------------------

def test_cli_run_list_exits_as_listed_and_repeats_across_hash_seeds(
        tmp_path):
    # the README commands and tests/cli_runs.txt, each hash seed in one
    # process of its own: every exit code as listed, and byte-identical
    # trees of outputs and written files.  A RuntimeWarning is an error
    # there, as it is in-process (pyproject's filter), so a warning the
    # run list prints cannot repeat across hash seeds unnoticed
    runs = _cli_runs.runs()
    assert sum(name.startswith("readme") for name, _, _ in runs) == 7
    assert len({name for name, _, _ in runs}) == len(runs)
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    trees = []
    for seed in (1, 2):
        out = tmp_path / f"hashseed-{seed}"
        path = os.pathsep.join(filter(None, [str(src),
                                             os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=path)
        subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                        _cli_runs.__file__, str(out)],
                       env=env, check=True, timeout=600)
        trees.append({p.relative_to(out).as_posix(): p.read_bytes()
                      for p in sorted(out.rglob("*")) if p.is_file()})
    for name, want, command in runs:
        assert trees[0][f"{name}.rc"] == f"{want}\n".encode(), \
            (command, trees[0][f"{name}.err"])
    assert trees[0].keys() == trees[1].keys()
    assert [p for p in trees[0] if trees[0][p] != trees[1][p]] == []
