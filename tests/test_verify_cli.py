import json
import re

import pytest
from click.testing import CliRunner

import excprimes
from excprimes import (
    DomainError,
    INSUFFICIENT,
    NewformFixture,
    bernoulli_norm_numerator,
    character_by_index,
    frobenius_scan,
    is_prime,
    reducible_primes,
    square_inverse_eps,
    sturm_bound,
    trivial_character,
    verify_reducible,
    verify_weight2_squarefree,
)
from excprimes.cli import main

from conftest import FIXTURE_DIR, fixture_path, run_cli


# -- library: verify_reducible ----------------------------------------------------


def test_certified_result_structure(fx81):
    r = verify_reducible(fx81, 43)
    assert r.verdict == "certified" and r.certified and not r.refuted
    assert r.mode == "residue-point"
    assert r.eisenstein == "E(k=6, nu=chi(9,2))"
    assert r.checked_up_to == r.sturm == sturm_bound(6, 81) == 54
    assert any("alpha=[13,0,0]" in w for w in r.witnesses)
    d = r.to_dict()
    assert d["verdict"] == "certified" and d["ell"] == 43
    assert 43 in reducible_primes(6, 81)


def test_scan_has_no_witness_at_a_certifying_point(fx81):
    scan = frobenius_scan(fx81, 43, 20)
    assert len(scan.points) == 2
    certifying = [pt for pt in scan.points if "alpha=[13,0,0]" in pt["point"]]
    assert len(certifying) == 1
    # a residue point carrying the congruence has split characteristic
    # polynomials at every p, so the scan can never find a witness there
    assert certifying[0]["witness"] is None
    assert certifying[0]["tested"] and not any(certifying[0]["tested"].values())


def test_truncated_fixture_is_insufficient_and_grows_to_certified(fx81_printed, fx81):
    short = verify_reducible(fx81_printed, 43)
    assert short.verdict == INSUFFICIENT
    assert short.checked_up_to == 5 and short.sturm == 54
    assert not short.certified and not short.refuted
    full = verify_reducible(fx81, 43)
    assert full.verdict == "certified"


def test_refutation_reports_first_mismatch(fx81):
    r = verify_reducible(fx81, 5)
    assert r.verdict == "refuted-at-2" and r.refuted
    assert all("first mismatch at n = 2" in w for w in r.witnesses)


def test_denominator_obstruction_mode_routing(fx81):
    fallback = verify_reducible(fx81, 2)
    assert fallback.verdict == "norm-certified"
    assert fallback.mode == "norm-divisibility"
    assert any("falling back to norm mode" in w for w in fallback.warnings)
    assert any("per-n divisibility" in w for w in fallback.witnesses)


def test_explicit_character_selection(fx81):
    right = verify_reducible(fx81, 7, nu=character_by_index(9, 2))
    assert right.verdict == "certified"
    wrong = verify_reducible(fx81, 7, nu=character_by_index(3, 1))
    assert wrong.refuted


def test_verify_input_validation(fx81, fx11_2):
    with pytest.raises(DomainError):
        verify_reducible(fx81, 6)
    with pytest.raises(DomainError):
        verify_reducible(fx11_2, 5, nu=trivial_character())


@pytest.mark.parametrize("name, ell, modulus, index", [
    ("11-4a", 61, 3, 1),  # E_4 certifies 61, but a level-9 series is no family at N = 11
    ("81-6c", 43, 4, 1),  # 16 does not divide 81
])
def test_a_character_whose_square_modulus_misses_the_level_is_rejected(
        name, ell, modulus, index, monkeypatch):
    import excprimes.verify

    fixture = NewformFixture.from_json_file(fixture_path(f"{name}.json"))
    monkeypatch.setattr(excprimes.verify, "eisenstein_E", lambda *args: pytest.fail("a series was built"))
    with pytest.raises(DomainError, match=f"modulus {modulus}, but {modulus}\\^2 does not divide the level {fixture.level}"):
        verify_reducible(fixture, ell, nu=character_by_index(modulus, index))


def test_ell_dividing_level_keeps_a_warning(fx11_4):
    r = verify_reducible(fx11_4, 11)
    assert any("divides the level" in w for w in r.warnings)


# -- library: weight-2 square-free path -------------------------------------------


def test_weight2_certified_and_refuted(fx11_2):
    ok = verify_weight2_squarefree(fx11_2, 5)
    assert ok.verdict == "certified"
    assert ok.eisenstein == "Eprime(weight 2, signs={11:+1})"
    assert ok.checked_up_to == ok.sturm == 2
    bad = verify_weight2_squarefree(fx11_2, 7)
    assert bad.verdict == "refuted-at-2"


def test_weight2_domain_errors(fx11_2, fx11_4, fx81):
    for ell in (2, 3, 11):
        with pytest.raises(DomainError):
            verify_weight2_squarefree(fx11_2, ell)
    with pytest.raises(DomainError):
        verify_weight2_squarefree(fx11_4, 5)
    with pytest.raises(DomainError):
        verify_weight2_squarefree(fx81, 5)


def test_weight2_missing_signs_is_inconclusive(fixture_json):
    data = fixture_json("11-2a.json")
    del data["steinberg_signs"]
    fx = NewformFixture.from_dict(data)
    r = verify_weight2_squarefree(fx, 7)
    assert r.verdict == "inconclusive(missing steinberg signs for [11])"


def test_weight2_all_minus_signs_refuted_structurally():
    fx = NewformFixture.from_dict({
        "label": "toy",
        "weight": 2,
        "level": 7,
        "field_poly": [0, 1],
        "an": {"1": ["1"], "7": ["-1"]},
        "steinberg_signs": {"7": -1},
    })
    r = verify_weight2_squarefree(fx, 5)
    assert r.verdict == "refuted-structural" and r.refuted
    assert any("constant-term" in w for w in r.witnesses)


# -- library: frobenius scan -------------------------------------------------------


def test_scan_prime_selection_and_partial_flag(fx11_2):
    s = frobenius_scan(fx11_2, 5, 11)
    assert not s.partial
    assert list(s.points[0]["tested"]) == [2, 3, 7]  # 5 and 11 excluded
    s2 = frobenius_scan(fx11_2, 5, 50)
    assert s2.partial
    assert any("partial scan" in w for w in s2.warnings)


def test_scan_sieves_only_to_the_last_fixture_coefficient(fx11_4, monkeypatch):
    # only primes p with a_p in the fixture can be tested, so a large pmax
    # must not cost a sieve to pmax
    limits, sieve = [], excprimes.verify.primes_up_to
    monkeypatch.setattr(excprimes.verify, "primes_up_to", lambda n: limits.append(n) or sieve(n))
    s = frobenius_scan(fx11_4, 5, 30_000_000)
    assert limits == [max(fx11_4.an)]
    assert list(s.points[0]["tested"]) == [2, 3]
    assert s.partial and s.p_max == 30_000_000
    assert any("partial scan" in w for w in s.warnings)


def test_scan_characteristic_two_artin_schreier(fx11_2):
    s = frobenius_scan(fx11_2, 2, 10)
    assert len(s.points) == 1
    assert s.points[0]["witness"] == 3
    assert 2 not in s.points[0]["tested"]


def test_scan_to_dict_stringifies_tested_keys(fx11_4):
    s = frobenius_scan(fx11_4, 61, 5)
    d = s.to_dict()
    assert all(isinstance(k, str) for pt in d["points"] for k in pt["tested"])
    assert d["ell"] == 61 and d["p_max"] == 5


def test_scan_validation(fx11_2):
    with pytest.raises(DomainError):
        frobenius_scan(fx11_2, 4, 10)
    with pytest.raises(DomainError):
        frobenius_scan(fx11_2, 5, 1)


# -- CLI ----------------------------------------------------------------------------


def _payload(proc):
    assert proc.stdout, proc.stderr
    return json.loads(proc.stdout)


def test_cli_bound_is_deterministic_and_frozen():
    a = run_cli("bound", "--weight", 4, "--level", 11)
    b = run_cli("bound", "--weight", 4, "--level", 11)
    assert a.returncode == 0 and a.stdout == b.stdout
    env = _payload(a)
    assert env["tool"] == "excprimes" and env["command"] == "bound"
    assert env["outputs"]["reducible_primes"] == [2, 3, 5, 11, 61]
    assert "timing" not in env
    timed = run_cli("bound", "--weight", 4, "--level", 11, "--timing")
    assert "timing" in _payload(timed)


def test_cli_bound_renders_a_bound_past_the_str_digit_limit():
    # the dihedral bound at (6, 1089) has more digits than str(int) allows
    from decimal import Decimal

    from excprimes import candidate_report

    bound = candidate_report(6, 1089).dihedral.bound
    assert bound.bit_length() > 4300 * 3.33
    proc = run_cli("bound", "--weight", 6, "--level", 1089)
    assert proc.returncode == 0, proc.stderr
    assert Decimal(_payload(proc)["outputs"]["dihedral"]["bound"]) == bound
    text = run_cli("bound", "--weight", 6, "--level", 1089, "--format", "text")
    assert text.returncode == 0, text.stderr
    line = next(l for l in text.stdout.splitlines() if l.startswith("dihedral bound"))
    assert Decimal(line.rsplit(": ", 1)[1]) == bound


def test_cli_bound_names_reducible_primes_with_14_and_15_digit_factors():
    # (22, 1089) factors Bernoulli norm numerators with 14- and 15-digit
    # prime factors, which need the ECM stage
    from excprimes import candidate_report

    proc = run_cli("bound", "--weight", 22, "--level", 1089, timeout=120)
    assert proc.returncode == 0, proc.stderr
    want = candidate_report(22, 1089).reducible_primes()
    assert _payload(proc)["outputs"]["reducible_primes"] == want


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("weight, level", [(22, 81), (24, 2025)])
def test_cli_bound_renders_each_big_integer_once(monkeypatch, weight, level, fmt):
    # one decimal conversion for the dihedral bound and one per unfactored entry
    import sys

    from excprimes import candidate_report, exact

    real, rendered = exact.decimal_string, []

    def counting(n):
        rendered.append(n)
        return real(n)

    for name, module in list(sys.modules.items()):
        if name.startswith("excprimes") and getattr(module, "decimal_string", None) is real:
            monkeypatch.setattr(module, "decimal_string", counting)
    argv = ["bound", "--weight", str(weight), "--level", str(level), "--format", fmt]
    res = CliRunner().invoke(main, argv)
    assert res.exit_code == 0, res.output
    report = candidate_report(weight, level)
    assert report.dihedral.bound is not None and report.unfactored
    want = [report.dihedral.bound] + [c for c, _ in report.unfactored]
    assert sorted(rendered) == sorted(want)


def test_cli_bound_text_report_is_a_view_of_the_json_outputs():
    argv = ["bound", "--weight", "22", "--level", "81"]
    outputs = json.loads(CliRunner().invoke(main, argv).output)["outputs"]
    text = CliRunner().invoke(main, [*argv, "--format", "text"]).output.splitlines()
    dihedral = outputs["dihedral"]
    assert f"dihedral bound (degree {dihedral['degree']}): {dihedral['bound']}" in text
    assert [line for line in text if line.startswith("  ell divides ")] == [
        f"  ell divides {u['cofactor']} (unfactored, {u['digits']} digits): {u['clause']}"
        for u in outputs["unfactored"]
    ]


def test_cli_bound_reports_an_unfactored_cofactor_and_exits_zero():
    # (22, 81): the Bernoulli norm numerator has a 44-digit part, a 20-digit
    # prime times a 25-digit prime, that the ECM budget leaves unsplit
    import time

    start = time.monotonic()
    proc = run_cli("bound", "--weight", 22, "--level", 81, timeout=120)
    assert time.monotonic() - start < 10
    assert proc.returncode == 0, proc.stderr
    out = _payload(proc)["outputs"]
    cofactors = {e["cofactor"] for e in out["unfactored"]}
    assert len(cofactors) == 1
    c = int(cofactors.pop())
    assert all(e["digits"] == 44 == len(str(c)) for e in out["unfactored"])
    assert not is_prime(c)
    for e in out["unfactored"]:
        index = int(e["clause"].rsplit("chi(9,", 1)[1].rstrip(")"))
        bn = bernoulli_norm_numerator(22, square_inverse_eps(character_by_index(9, index)))
        assert bn.value % c == 0 and bn.cofactor == c
        assert e["clause"] == f"numerator of norm of B_(k,eps)/2k, nu = chi(9,{index})"
    assert not {p for p in out["reducible_primes"] if c % p == 0}
    text = run_cli("bound", "--weight", 22, "--level", 81, "--format", "text", timeout=120)
    assert text.returncode == 0, text.stderr
    assert f"  ell divides {c} (unfactored, 44 digits): numerator of norm" in text.stdout


def test_cli_bound_is_completed_by_a_cache_line_for_the_norm(tmp_path):
    p, q = 16640620490166841687, 2450493213137653603679509
    norm = 6402103229047855566623041627192831804155994231
    assert norm == 157 * p * q
    hints = tmp_path / "factors.txt"
    hints.write_text(f"{norm}=157,{p},{q}\n", encoding="ascii")
    proc = run_cli("bound", "--weight", 22, "--level", 81, "--factors", hints, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = _payload(proc)["outputs"]
    assert "unfactored" not in out
    assert {p, q, 157} <= set(out["reducible_primes"])


def test_cli_exits_2_when_a_modulus_is_past_the_ecm_budget():
    # a modulus needs its complete factorization; an unsplit part is a usage error
    c = 40777727573553220169573513548998928688891683
    proc = run_cli("characters", "--modulus", c, timeout=120)
    assert proc.returncode == 2
    assert "past the ECM budget" in proc.stderr


def test_cli_verify_certified_exits_zero():
    proc = run_cli("verify", "--form", fixture_path("81-6c.json"), "--ell", 43)
    assert proc.returncode == 0
    env = _payload(proc)
    assert env["outputs"]["verdict"] == "certified"
    assert "scan" not in env["outputs"]


def test_cli_verify_refuted_exits_one():
    proc = run_cli(
        "verify", "--form", fixture_path("81-6c.json"), "--ell", 5, "--pmax", 10
    )
    assert proc.returncode == 1
    env = _payload(proc)
    assert env["outputs"]["verdict"] == "refuted-at-2"
    assert [pt["witness"] for pt in env["outputs"]["scan"]["points"]] == [2, 2]


def test_cli_verify_insufficient_exits_three():
    proc = run_cli(
        "verify", "--form", fixture_path("81-6c-printed.json"), "--ell", 43, "--pmax", 5
    )
    assert proc.returncode == 3
    env = _payload(proc)
    assert env["outputs"]["verdict"] == INSUFFICIENT
    assert any(pt["witness"] is None for pt in env["outputs"]["scan"]["points"])


def test_cli_verify_character_flags():
    proc = run_cli(
        "verify", "--form", fixture_path("81-6c.json"), "--ell", 7,
        "--char-modulus", 9, "--char-index", 2,
    )
    assert proc.returncode == 0
    env = _payload(proc)
    assert env["outputs"]["eisenstein"] == "E(k=6, nu=chi(9,2))"
    half = run_cli(
        "verify", "--form", fixture_path("81-6c.json"), "--ell", 7, "--char-modulus", 9
    )
    assert half.returncode == 2


def test_cli_verify_a_character_whose_square_modulus_misses_the_level_exits_2():
    argv = ["verify", "--form", fixture_path("11-4a.json"), "--ell", "61",
            "--char-modulus", "3", "--char-index", "1"]
    res = CliRunner().invoke(main, argv)
    _assert_usage_exit(res)
    assert res.stderr == (
        "error: nu has modulus 3, but 3^2 does not divide the level 11: "
        "its series is not a family at this level\n"
    )


def test_cli_verify_weight2_trivial_character_names_no_function():
    """An explicit trivial nu at weight 2 is a usage error whose text points at a CLI choice."""
    argv = ["verify", "--form", fixture_path("11-2a.json"), "--ell", "5",
            "--char-modulus", "1", "--char-index", "0"]
    res = CliRunner().invoke(main, argv)
    _assert_usage_exit(res)
    assert res.stderr == (
        "error: weight 2 with trivial character has no Eisenstein series; "
        "leaving nu unset tests the sign-twisted E' at square-free level\n"
    )
    assert not set(re.findall(r"\w+", res.stderr)) & set(excprimes.__all__)


def test_cli_verify_weight2_preference():
    ok = run_cli("verify", "--form", fixture_path("11-2a.json"), "--ell", 5)
    assert ok.returncode == 0
    env = _payload(ok)
    assert env["outputs"]["verdict"] == "certified"
    assert "signs={11:+1}" in env["outputs"]["eisenstein"]
    bad = run_cli("verify", "--form", fixture_path("11-2a.json"), "--ell", 7)
    assert bad.returncode == 1
    assert _payload(bad)["outputs"]["verdict"] == "refuted-at-2"


def test_cli_verify_scan_upgrade(tmp_path, fixture_json):
    data = fixture_json("11-2a.json")
    del data["steinberg_signs"]
    p = tmp_path / "nosigns.json"
    p.write_text(json.dumps(data), encoding="utf-8")
    proc = run_cli("verify", "--form", p, "--ell", 7)
    assert proc.returncode == 1
    env = _payload(proc)
    assert env["outputs"]["verdict"] == "refuted-by-scan"
    # the weight-2 family answers even without signs and says they are missing
    assert env["outputs"]["eisenstein"] == "Eprime(weight 2, steinberg)"
    assert all(pt["witness"] is not None for pt in env["outputs"]["scan"]["points"])


def test_cli_verify_malformed_fixture(tmp_path, fixture_json):
    data = fixture_json("11-2a.json")
    data["an"]["1"] = ["2"]
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(data), encoding="utf-8")
    proc = run_cli("verify", "--form", p, "--ell", 5)
    assert proc.returncode == 2
    assert "malformed fixture" in proc.stderr
    missing = run_cli("verify", "--form", tmp_path / "no-such.json", "--ell", 5)
    assert missing.returncode == 2


def test_cli_verify_composite_ell():
    proc = run_cli("verify", "--form", fixture_path("11-2a.json"), "--ell", 6)
    assert proc.returncode == 2
    assert "not prime" in proc.stderr


def test_cli_internal_error_lets_a_base_exception_through(monkeypatch):
    # a deadline raised as a BaseException (as the benchmark's is) still stops the command
    import excprimes.verify

    class Deadline(BaseException):
        pass

    def stop(*args, **kwargs):
        raise Deadline()

    monkeypatch.setattr(excprimes.verify, "frobenius_scan", stop)
    with pytest.raises(Deadline):
        main(args=["verify", "--form", fixture_path("11-4a.json"), "--ell", "2"], prog_name="excprimes")


def test_cli_dims():
    proc = run_cli("dims", "--weight", 6, "--level", 81)
    assert proc.returncode == 0
    out = _payload(proc)["outputs"]
    assert out["index"] == 108 and out["genus"] == 4 and out["cusps"] == 12
    assert out["dim_cusp_forms"] == 39 and out["dim_new"] == 18
    assert out["sturm_bound"] == 54


def test_cli_eisenstein_frozen_series():
    proc = run_cli(
        "eisenstein", "--weight", 6, "--char-modulus", 9, "--char-index", 2,
        "--terms", 5,
    )
    assert proc.returncode == 0
    out = _payload(proc)["outputs"]
    assert out["level"] == 81 and out["character_order"] == 3
    assert out["coefficients"] == {
        "0": "0",
        "1": "1",
        "2": "-32-31*z",
        "3": "0",
        "4": "31+1023*z",
        "5": "-1+3124*z",
    }


def test_cli_scan_frozen_table():
    proc = run_cli(
        "scan", "--form", fixture_path("11-4a.json"), "--ell", 11, "--pmax", 5
    )
    assert proc.returncode == 0
    env = _payload(proc)
    pts = {pt["point"]: pt["witness"] for pt in env["outputs"]["points"]}
    assert pts == {"(alpha=[6])": None, "(alpha=[7])": 2}
    assert any("divides the level" in w for w in env["outputs"]["warnings"])


@pytest.mark.parametrize("name", ["81-6c", "81-6c-printed"])
def test_cli_scan_denominator_obstruction_is_a_usage_error(name):
    # a_5 of 81.6c has a denominator divisible by 2, so there is no residue point
    proc = run_cli("scan", "--form", fixture_path(f"{name}.json"), "--ell", 2, "--pmax", 50)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: a_5 has denominator divisible by 2")
    assert "Traceback" not in proc.stderr


def test_cli_characters_table():
    proc = run_cli("characters", "--modulus", 9)
    assert proc.returncode == 0
    rows = _payload(proc)["outputs"]["characters"]
    assert len(rows) == 6
    nu = next(r for r in rows if r["index"] == 2)
    assert nu["order"] == 3 and nu["conductor"] == 9
    assert nu["parity"] == "even" and nu["primitive"] is True
    assert nu["values"]["2"] == "1*z"


def test_cli_factor_hints_warn_on_each_corrupt_line(tmp_path):
    path = tmp_path / "factors.txt"
    path.write_text("352471=7,43,1171\n81=3^3\njunkline\n", encoding="ascii")
    env = _payload(run_cli("bound", "--weight", 6, "--level", 81, "--factors", path))
    assert sum("corrupt factor hint" in w for w in env["warnings"]) == 2
    assert env["outputs"]["reducible_primes"] == [2, 3, 5, 7, 43, 1171]


def test_cli_undecodable_factor_hint_is_one_warning(tmp_path):
    path = tmp_path / "factors.txt"
    path.write_bytes(b"\xe9=1\n")
    res = CliRunner().invoke(main, ["bound", "--weight", "4", "--level", "11", "--factors", str(path)])
    assert res.exit_code == 0, res.output
    assert json.loads(res.stdout)["warnings"] == ["ignoring corrupt factor hint: '\ufffd=1'"]


def test_cli_out_file_and_text_format(tmp_path):
    target = tmp_path / "report.json"
    proc = run_cli("dims", "--weight", 2, "--level", 11, "--out", target)
    assert proc.returncode == 0 and proc.stdout == ""
    env = json.loads(target.read_text(encoding="utf-8"))
    assert env["outputs"]["genus"] == 1

    text = run_cli("dims", "--weight", 2, "--level", 11, "--format", "text")
    assert text.returncode == 0
    assert text.stdout.startswith("dimensions for weight 2, level 11")
    with pytest.raises(json.JSONDecodeError):
        json.loads(text.stdout)


# -- CLI error contract ------------------------------------------------------------

F11_2, F81 = fixture_path("11-2a.json"), fixture_path("81-6c.json")

BAD_ARGUMENTS = {
    "bound-degree-0": ["bound", "--weight", "6", "--level", "81", "--degree", "0"],
    "bound-degree-0-squarefree": ["bound", "--weight", "2", "--level", "11", "--degree", "0"],
    "bound-degree-above-dim-new": ["bound", "--weight", "4", "--level", "4", "--degree", "100000"],
    "bound-degree-above-dim-new-squarefree": ["bound", "--weight", "2", "--level", "11", "--degree", "2"],
    "bound-no-newform-2-1": ["bound", "--weight", "2", "--level", "1"],
    "bound-no-newform-4-1": ["bound", "--weight", "4", "--level", "1"],
    "bound-no-newform-2-2": ["bound", "--weight", "2", "--level", "2"],
    "bound-no-newform-2-4": ["bound", "--weight", "2", "--level", "4"],
    "bound-no-newform-4-4": ["bound", "--weight", "4", "--level", "4"],
    "bound-weight-3": ["bound", "--weight", "3", "--level", "11"],
    "bound-level-0": ["bound", "--weight", "4", "--level", "0"],
    "dims-weight-3": ["dims", "--weight", "3", "--level", "11"],
    "dims-level-0": ["dims", "--weight", "4", "--level", "0"],
    "eisenstein-weight-3": ["eisenstein", "--weight", "3", "--char-modulus", "1",
                            "--char-index", "0", "--terms", "5"],
    "eisenstein-weight-2-trivial-character": ["eisenstein", "--weight", "2", "--char-modulus", "1",
                                              "--char-index", "0", "--terms", "5"],
    "eisenstein-terms-0": ["eisenstein", "--weight", "6", "--char-modulus", "9",
                           "--char-index", "2", "--terms", "0"],
    "eisenstein-char-index": ["eisenstein", "--weight", "6", "--char-modulus", "9",
                              "--char-index", "6", "--terms", "5"],
    "characters-modulus-0": ["characters", "--modulus", "0"],
    "verify-char-index": ["verify", "--form", F81, "--ell", "7", "--char-modulus", "9",
                          "--char-index", "6"],
    "verify-composite-ell": ["verify", "--form", F11_2, "--ell", "6"],
    "verify-missing-form": ["verify", "--form", fixture_path("no-such.json"), "--ell", "5"],
    "verify-directory-form": ["verify", "--form", FIXTURE_DIR, "--ell", "5"],
    "scan-composite-ell": ["scan", "--form", F11_2, "--ell", "6", "--pmax", "10"],
    "scan-missing-form": ["scan", "--form", fixture_path("no-such.json"), "--ell", "5", "--pmax", "10"],
    "scan-directory-form": ["scan", "--form", FIXTURE_DIR, "--ell", "5", "--pmax", "10"],
    "scan-ell-2-on-81-6c": ["scan", "--form", F81, "--ell", "2", "--pmax", "50"],
    "verify-pmax-0": ["verify", "--form", F11_2, "--ell", "5", "--pmax", "0"],
    "scan-pmax-1": ["scan", "--form", F11_2, "--ell", "5", "--pmax", "1"],
}

# (fixture, mutation of its raw dict): each breaks a rule of the documented format
MALFORMED = {
    "top-level-list": ("11-4a", lambda d: [d]),
    "an-as-a-list": ("11-4a", lambda d: {**d, "an": list(d["an"].values())}),
    "coefficient-abc": ("11-4a", lambda d: {**d, "an": {**d["an"], "2": ["abc", "1"]}}),
    "coefficient-1-over-0": ("11-4a", lambda d: {**d, "an": {**d["an"], "2": ["1/0", "1"]}}),
    "coefficient-index-x": ("11-4a", lambda d: {**d, "an": {**d["an"], "x": ["1"]}}),
    "coefficient-index-02": ("11-4a", lambda d: {**d, "an": {**d["an"], "02": ["5"]}}),
    "steinberg-key-x": ("11-2a", lambda d: {**d, "steinberg_signs": {"x": 1}}),
    "weight-six": ("11-4a", lambda d: {**d, "weight": "six"}),
    "field_poly-float": ("11-2a", lambda d: {**d, "field_poly": [0.5, 1]}),
    "vector-as-a-string": ("11-4a", lambda d: {**d, "an": {**d["an"], "2": "35"}}),
    "weight-4.9": ("11-4a", lambda d: {**d, "weight": 4.9}),
}


def _assert_usage_exit(res):
    assert res.exit_code == 2, (res.exit_code, res.output)
    assert res.stdout == ""
    assert "internal error" not in res.stderr and "Traceback" not in res.stderr


@pytest.mark.parametrize("argv", BAD_ARGUMENTS.values(), ids=BAD_ARGUMENTS.keys())
def test_cli_bad_argument_exits_2(argv):
    _assert_usage_exit(CliRunner().invoke(main, argv))


@pytest.mark.parametrize("argv", [
    ["verify", "--form", fixture_path("11-4a.json"), "--ell", "5", "--pmax", "0"],  # refuted at 2 when scanned
    ["verify", "--form", fixture_path("11-4a.json"), "--ell", "61", "--pmax", "1"],  # certified, with no scan
    ["scan", "--form", fixture_path("11-4a.json"), "--ell", "5", "--pmax", "1"],
])
def test_cli_pmax_below_2_is_a_usage_error_whatever_the_verdict(argv):
    res = CliRunner().invoke(main, argv)
    _assert_usage_exit(res)
    assert res.stderr == f"error: p_max must be >= 2, got {argv[-1]}\n"


@pytest.mark.parametrize("name, mutate", MALFORMED.values(), ids=MALFORMED.keys())
def test_cli_malformed_fixture_exits_2(tmp_path, fixture_json, name, mutate):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(mutate(fixture_json(f"{name}.json"))), encoding="utf-8")
    res = CliRunner().invoke(main, ["verify", "--form", str(path), "--ell", "5"])
    _assert_usage_exit(res)
    assert res.stderr.startswith("error: malformed fixture: ")


@pytest.mark.parametrize("argv, code", [
    (BAD_ARGUMENTS["bound-degree-0"], 2),
    (BAD_ARGUMENTS["bound-weight-3"], 2),
    (["bound", "--weight", "4", "--level", "11"], 0),
])
def test_cli_releases_the_factor_cache_however_a_command_ends(tmp_path, argv, code):
    # the factor hints of one `bound` run are gone when it exits, with or without an error
    from excprimes import exact

    hints = tmp_path / "factors.txt"
    hints.write_text("84=2^2,3,7\n", encoding="ascii")
    res = CliRunner().invoke(main, [*argv, "--factors", str(hints)])
    assert res.exit_code == code, res.output
    assert exact._hints == {}


def _boom(*args, **kwargs):
    raise AssertionError("the command body ran")


# the reason click gives for each unusable path below
_UNUSABLE = {
    "afile/out.json": "is not an existing directory",
    "nodir/out.json": "is not an existing directory",
    "adir": "is a directory",
    "nofile.txt": "does not exist",
}


@pytest.mark.parametrize("option, under", [
    ("--out", "afile/out.json"),
    ("--out", "nodir/out.json"),
    ("--factors", "adir"),
    ("--factors", "nofile.txt"),
])
def test_cli_unusable_output_path_exits_2_before_any_work(tmp_path, monkeypatch, option, under):
    import excprimes.bounds
    import excprimes.dimensions

    (tmp_path / "afile").write_text("", encoding="utf-8")
    (tmp_path / "adir").mkdir()
    monkeypatch.setattr(excprimes.dimensions, "level_invariants", _boom)
    monkeypatch.setattr(excprimes.bounds, "candidate_report", _boom)
    command = "bound" if option == "--factors" else "dims"
    res = CliRunner().invoke(main, [command, "--weight", "4", "--level", "11", option, str(tmp_path / under)])
    _assert_usage_exit(res)
    assert f"Invalid value for '{option}'" in res.stderr and _UNUSABLE[under] in res.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["adir", "afile"]
