"""One verdict policy: the CLI envelope, the library result and the golden record agree.

`verify_golden.json` holds the `outputs` (or, for text runs, the stdout) and
the exit code of each job in `JOBS`, recorded before the verdict policy moved
from the CLI into `verify_fixture`. Regenerate it with
`PYTHONPATH=src python tests/test_verify_policy.py --write` only when a change
of verdict is intended, and say why in CHANGES.md.
"""

import collections
import functools
import json
import os
import sys

import pytest
from click.testing import CliRunner

from conftest import fixture_path

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "verify_golden.json")

# (fixture, ell, extra CLI arguments): every bundled fixture at every prime of
# its reducible candidate set, plus the weight-2, explicit character and
# text-format paths.
JOBS = [
    ("11-2a", 2, ()), ("11-2a", 3, ()), ("11-2a", 5, ()), ("11-2a", 11, ()),
    ("11-4a", 2, ()), ("11-4a", 3, ()), ("11-4a", 5, ()), ("11-4a", 11, ()),
    ("11-4a", 61, ()),
    ("81-6c", 2, ()), ("81-6c", 3, ()), ("81-6c", 5, ()), ("81-6c", 7, ()),
    ("81-6c", 43, ()), ("81-6c", 1171, ()),
    ("81-6c-printed", 2, ()), ("81-6c-printed", 3, ()), ("81-6c-printed", 5, ()),
    ("81-6c-printed", 7, ()), ("81-6c-printed", 43, ()), ("81-6c-printed", 1171, ()),
    ("11-2a", 7, ()), ("11-2a", 13, ()),
    ("81-6c", 7, ("--char-modulus", "9", "--char-index", "2")),
    ("11-2a", 3, ("--format", "text")),
]


def job_id(job) -> str:
    name, ell, extra = job
    return " ".join([name, str(ell), *extra])


def run_job(job) -> dict:
    from excprimes.cli import main

    name, ell, extra = job
    argv = ["verify", "--form", fixture_path(f"{name}.json"), "--ell", str(ell), *extra]
    res = CliRunner().invoke(main, argv)
    if res.exception is not None and not isinstance(res.exception, SystemExit):
        raise res.exception
    if "text" in extra:
        return {"exit": res.exit_code, "stdout": res.stdout}
    return {"exit": res.exit_code, "outputs": json.loads(res.stdout)["outputs"]}


@functools.lru_cache(maxsize=None)
def cli_run(job) -> dict:
    """run_job, once per job for the golden and the agreement tests."""
    return run_job(job)


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("job", JOBS, ids=job_id)
def test_envelope_matches_golden(job, golden):
    assert cli_run(job) == golden[job_id(job)]


def library_kwargs(extra) -> dict:
    from excprimes import character_by_index

    opts = dict(zip(extra[::2], extra[1::2]))
    kwargs = {}
    if "--char-modulus" in opts:
        kwargs["nu"] = character_by_index(int(opts["--char-modulus"]), int(opts["--char-index"]))
    return kwargs


@pytest.mark.parametrize("job", JOBS, ids=job_id)
def test_library_agrees_with_cli(job):
    from excprimes import NewformFixture, candidate_report, verify_fixture

    name, ell, extra = job
    fx = NewformFixture.from_json_file(fixture_path(f"{name}.json"))
    result = verify_fixture(fx, ell, **library_kwargs(extra))
    run = cli_run(job)
    if "outputs" in run:
        assert result.to_dict() == run["outputs"]
    expected_exit = 1 if result.refuted else 0 if result.certified else 3
    assert run["exit"] == expected_exit
    if result.certified:
        assert ell in candidate_report(fx.weight, fx.level).reducible_primes()


def test_scan_fields_only_on_the_final_result(fx81_printed):
    from excprimes import verify_reducible

    assert set(verify_reducible(fx81_printed, 7).to_dict()) == {
        "label", "ell", "mode", "eisenstein", "checked_up_to", "sturm", "verdict",
        "witnesses", "warnings",
    }
    obstructed = cli_run(("81-6c-printed", 2, ()))["outputs"]
    assert "scan" not in obstructed
    assert obstructed["scan_error"] == "a_5 has denominator divisible by 2"


def test_scan_failure_outside_its_contract_propagates(monkeypatch, fx11_4):
    import excprimes.verify
    from excprimes import verify_fixture
    from excprimes.cli import main

    def broken(*args, **kwargs):
        raise RuntimeError("scan broke")

    monkeypatch.setattr(excprimes.verify, "frobenius_scan", broken)
    with pytest.raises(RuntimeError, match="scan broke"):
        verify_fixture(fx11_4, 2)
    # the library lets it propagate; the CLI exits 4, never 1 (refuted)
    res = CliRunner().invoke(main, ["verify", "--form", fixture_path("11-4a.json"), "--ell", "2"])
    assert res.exit_code == 4
    assert res.stdout == ""
    assert res.stderr == "internal error: RuntimeError: scan broke\n"


def test_scan_upgrade_is_the_library_verdict(fixture_json):
    from excprimes import NewformFixture, verify_fixture

    data = fixture_json("11-2a.json")
    del data["steinberg_signs"]
    result = verify_fixture(NewformFixture.from_dict(data), 7)
    assert result.verdict == "refuted-by-scan" and result.refuted
    assert result.eisenstein == "Eprime(weight 2, steinberg)"
    assert all(pt["witness"] is not None for pt in result.scan.points)


@pytest.mark.parametrize("level", [1, 24, 44])
def test_weight2_level1_has_no_sign_family(level, tmp_path):
    # at 24 = 8 * 3 and 44 = 4 * 11 no primitive nu has c^2 | N either, and
    # the loader requires a_2 = 0 when 4 | N
    from excprimes import DomainError, NewformFixture, verify_fixture, verify_weight2_squarefree
    from excprimes.cli import main

    data = {
        "label": f"w2-level{level}", "weight": 2, "level": level, "field_poly": [0, 1],
        "an": {"1": ["1"], "2": ["3" if level == 1 else "0"]},
    }
    fx = NewformFixture.from_dict(data)
    result = verify_fixture(fx, 5)
    assert result.verdict == "inconclusive(no Eisenstein candidate for this level shape)"
    assert result.eisenstein == "(none)"
    # a direct call is out of the family's domain, not refuted-structural
    with pytest.raises(DomainError, match=rf"^level {level} (has no Steinberg primes|is not square-free)"):
        verify_weight2_squarefree(fx, 5)
    # the CLI reports that verdict: exit 3, not a usage error
    form = tmp_path / "form.json"
    form.write_text(json.dumps(data), encoding="utf-8")
    res = CliRunner().invoke(main, ["verify", "--form", str(form), "--ell", "5"])
    assert res.exit_code == 3, res.output
    assert json.loads(res.stdout)["outputs"]["verdict"] == result.verdict


@pytest.mark.parametrize("ell, p_max", [(5, 0), (5, 1), (61, 1), (61, -7)])
def test_verify_fixture_rejects_pmax_below_2_before_any_candidate(monkeypatch, ell, p_max):
    from excprimes import DomainError, NewformFixture, verify

    fx = NewformFixture.from_json_file(fixture_path("11-4a.json"))
    assert verify.verify_fixture(fx, ell, p_max=2).verdict == ("certified" if ell == 61 else "refuted-at-2")
    monkeypatch.setattr(verify, "verify_reducible", lambda *args, **kwargs: pytest.fail("a candidate ran"))
    with pytest.raises(DomainError, match=rf"^p_max must be >= 2, got {p_max}$"):
        verify.verify_fixture(fx, ell, p_max=p_max)


# -- the scan runs at the verdict's own index-1 points ----------------------------


def window_400_fixture() -> dict:
    """A degree-2 fixture of weight 12 and level 419 (Sturm bound 420) with 420 coefficients.

    a_n = sigma_11(n) + (alpha - 3) v_n with alpha^2 = 2: congruent to E_12 at
    alpha -> 3 mod 7, and at neither point mod 17, where 2 = 6^2.
    """
    window = 420
    sigma = [0] * (window + 1)
    for d in range(1, window + 1):
        for n in range(d, window + 1, d):
            sigma[n] += d ** 11
    an = {"1": ["1", "0"]}
    for n in range(2, window + 1):
        v = n % 5 + 1
        an[str(n)] = [str(sigma[n] - 3 * v), str(v)]
    return {"label": "w400", "weight": 12, "level": 419, "field_poly": [-2, 0, 1], "an": an}


def residue_builds(monkeypatch, run):
    """run()'s value, and the `find_residue_points` calls it makes counted per (index, ell)."""
    import excprimes.verify

    calls = collections.Counter()
    build = excprimes.verify.find_residue_points

    def counting(fixture, n, ell):
        calls[n, ell] += 1
        return build(fixture, n, ell)

    monkeypatch.setattr(excprimes.verify, "find_residue_points", counting)
    value = run()
    monkeypatch.undo()
    return value, calls


@pytest.mark.parametrize("name, ell, eisenstein", [
    ("11-4a", 3, "classical E_4"),
    ("11-2a", 7, "Eprime(weight 2, signs={11:+1})"),
    ("11-2a", 3, "(none)"),  # 3 divides 6N: no candidate built points, so the scan builds them
    ("w400", 17, "classical E_12"),
])
def test_scan_reuses_the_verdicts_index1_points(monkeypatch, fixture_json, name, ell, eisenstein):
    from excprimes import NewformFixture, verify_fixture

    fx = NewformFixture.from_dict(window_400_fixture() if name == "w400" else fixture_json(f"{name}.json"))
    result, calls = residue_builds(monkeypatch, lambda: verify_fixture(fx, ell))
    assert calls == {(1, ell): 1}
    assert result.eisenstein == eisenstein and result.scan is not None and result.scan.points
    if name == "w400":
        assert result.verdict == "refuted-at-2" and result.sturm == result.checked_up_to == 420
        assert verify_fixture(fx, 7).verdict == "certified"


def test_scan_command_builds_its_own_points(monkeypatch, fx11_4):
    from excprimes import verify_fixture
    from excprimes.cli import main

    argv = ["scan", "--form", fixture_path("11-4a.json"), "--ell", "3", "--pmax", "100"]
    res, calls = residue_builds(monkeypatch, lambda: CliRunner().invoke(main, argv))
    assert calls == {(1, 3): 1}
    assert res.exit_code == 0
    assert json.loads(res.stdout)["outputs"] == verify_fixture(fx11_4, 3).scan.to_dict()


# -- level 1: the constant term counts ---------------------------------------------


def tau(m: int) -> list[int]:
    """tau(1), ..., tau(m) from q prod_n (1 - q^n)^24, in exact integers."""
    prod = [1] + [0] * (m - 1)  # prod_n (1 - q^n)^24 through q^(m-1)
    for n in range(1, m):
        for _ in range(24):
            for i in range(m - 1, n - 1, -1):
                prod[i] -= prod[i - n]
    return prod


def delta_fixture(m: int) -> dict:
    return {
        "label": f"delta-{m}",
        "weight": 12,
        "level": 1,
        "field_poly": [0, 1],
        "an": {str(n): [str(t)] for n, t in enumerate(tau(m), start=1)},
    }


def test_tau_reference():
    assert tau(6) == [1, -24, 252, -1472, 4830, -6048]


def obstructed(ell: int) -> str:
    return f"inconclusive(denominator obstruction: a_0(E) = 691/65520 has denominator divisible by {ell})"


@pytest.mark.parametrize("m", [1, 12])
def test_delta_is_certified_only_at_691(m):
    from excprimes import NewformFixture, verify_fixture, verify_reducible

    fx = NewformFixture.from_dict(delta_fixture(m))
    assert verify_fixture(fx, 691).certified
    for ell in (17, 101, 1000003):
        result = verify_fixture(fx, ell)
        assert result.verdict == "refuted-at-0", ell
    # ell | 65520, the denominator of a_0(E_12) = 691/65520: E_12 has no
    # ell-integral reduction, so the comparison says nothing either way.
    for ell in (2, 3, 5, 7, 13):
        assert verify_reducible(fx, ell).verdict == obstructed(ell), ell
    # Ramanujan: tau(n) = sigma_11(n) mod 2 for odd n and mod 3 for 3 not dividing n,
    # so rho_Delta is reducible at 2 and 3 and nothing may refute them.
    for ell in (2, 3):
        result = verify_fixture(fx, ell)
        assert not result.refuted and result.verdict == obstructed(ell), ell
    # 13 is not exceptional for Delta: tau(2) = -24 gives an irreducible
    # X^2 + 24 X + 2^11 mod 13 once the fixture has a_2.
    expected = "refuted-by-scan" if m > 1 else obstructed(13)
    assert verify_fixture(fx, 13).verdict == expected


@pytest.mark.parametrize("m", [1, 12])
def test_delta_norm_check_holds_only_at_691(m):
    # the norm path, which verify takes only when a coefficient denominator
    # blocks the residue points, agrees with the residue path on Delta
    from excprimes import NewformFixture, eisenstein_E, sturm_bound, trivial_character
    from excprimes.verify import _norm_mode_check

    fx = NewformFixture.from_dict(delta_fixture(m))
    window = min(fx.n_max, sturm_bound(12, 1))
    E = eisenstein_E(12, trivial_character(), window)
    assert _norm_mode_check(fx, E, 1, 691, window) is None
    for ell in (17, 101, 1000003):
        assert _norm_mode_check(fx, E, 1, ell, window) == 0, ell


def test_cli_delta_exit_codes(tmp_path):
    from excprimes.cli import main

    path = tmp_path / "delta.json"
    path.write_text(json.dumps(delta_fixture(1)), encoding="utf-8")
    for ell, code, verdict in ((691, 0, "certified"), (17, 1, "refuted-at-0"),
                               (101, 1, "refuted-at-0"), (1000003, 1, "refuted-at-0"),
                               (2, 3, obstructed(2)),
                               (3, 3, obstructed(3)),
                               (13, 3, obstructed(13))):
        res = CliRunner().invoke(main, ["verify", "--form", str(path), "--ell", str(ell)])
        assert res.exit_code == code, ell
        assert json.loads(res.stdout)["outputs"]["verdict"] == verdict


# -- 2.8a at 17: congruent to the 2-stabilised E_8, not to E_8 (ROADMAP item 2) ----


def eta_2_8a(m: int) -> list[int]:
    """a_1, ..., a_m of 2.8a = eta(z)^8 eta(2z)^8 = q prod_n (1 - q^n)^8 (1 - q^2n)^8."""
    prod = [1] + [0] * (m - 1)
    for n in range(1, m):
        for step in (n, 2 * n):
            for _ in range(8):
                for i in range(m - 1, step - 1, -1):
                    prod[i] -= prod[i - step]
    return prod


def test_2_8a_is_congruent_to_the_stabilised_E8_mod_17():
    from oracles import divisor_power_sums_reference

    an = eta_2_8a(41)
    assert an[:7] == [1, -8, 12, 64, -210, -96, 1016]
    sigma7 = divisor_power_sums_reference(7, 41)
    for n in range(1, 42):
        stabilised = sigma7[n] - (sigma7[n // 2] if n % 2 == 0 else 0)
        assert (an[n - 1] - stabilised) % 17 == 0, n


# verify compares against the unstabilised E_8 and reads refuted-at-2 today.
# ell = 2 is not pinned: it is certified only through the ell | n skip (item 3).
@pytest.mark.xfail(raises=AssertionError, strict=True, reason="ROADMAP item 2")
def test_2_8a_is_certified_at_17():
    from excprimes import NewformFixture, verify_fixture

    fx = NewformFixture.from_dict({
        "label": "2.8a", "weight": 8, "level": 2, "field_poly": [0, 1],
        "an": {str(n): [str(a)] for n, a in enumerate(eta_2_8a(41), start=1)},
    })
    assert verify_fixture(fx, 17).verdict == "certified"


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump({job_id(j): run_job(j) for j in JOBS}, fh, indent=1, sort_keys=True)
        fh.write("\n")
