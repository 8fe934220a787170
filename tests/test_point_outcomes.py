"""The integer comparison of `verify._point_outcomes` against its FieldElement reference.

The kernel reduces a_n(f)'s coordinates mod ell once per n and maps them
through each residue point's table of alpha-power coordinates; the
reference in `oracles.point_outcomes_reference` builds a FieldElement for
a_n(f) and a_n(E) at every n and every point. Both must name the same first
mismatch at every point.
"""

import functools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import fixture_path
from excprimes import (
    DenominatorObstruction,
    NewformFixture,
    QExpansion,
    candidate_report,
    eisenstein_E,
    eprime_weight2_steinberg,
    find_residue_points,
    sturm_bound,
    verify_fixture,
)
from excprimes import residues
from excprimes.characters import trivial_character
from excprimes.cyclotomic import CycloElement
from excprimes.verify import _eisenstein_candidates, _point_outcomes
from oracles import point_outcomes_reference


def _comparisons(fx, ell):
    """(E, points, window) for every Eisenstein candidate of fx at ell that has residue points."""
    window = min(fx.n_max, sturm_bound(fx.weight, fx.level))
    candidates = [(E, n_cyclo) for _, E, n_cyclo in _eisenstein_candidates(fx, None, window)]
    if not candidates and fx.weight == 2 and (6 * fx.level) % ell:  # as verify_fixture falls back
        candidates = [(eprime_weight2_steinberg(sorted(fx.steinberg_signs.items()), ell, window), 1)]
    out = []
    for E, n_cyclo in candidates:
        try:
            out.append((E, find_residue_points(fx, n_cyclo, ell), window))
        except DenominatorObstruction:
            continue
    return out


@pytest.mark.parametrize("name", ["11-2a", "11-4a", "81-6c", "81-6c-printed"])
def test_kernel_matches_reference_on_every_bundled_candidate(name):
    fx = NewformFixture.from_json_file(fixture_path(f"{name}.json"))
    seen = set()
    for ell in candidate_report(fx.weight, fx.level).reducible_primes():
        for E, points, window in _comparisons(fx, ell):
            got = _point_outcomes(fx, E, points, ell, window)
            assert got == point_outcomes_reference(fx, E, points, ell, window), (ell, E)
            seen.add(isinstance(E.coefficient(1), CycloElement))
            seen.update("held" if n is None else "mismatch" for _, n in got)
    assert "held" in seen and ("mismatch" in seen or fx.degree() == 1)
    if fx.level == 81:
        assert {True, False} <= seen  # c = 1 int targets and c > 1 CycloElement targets


# -- random fixtures over fields of degree 1 to 4 ---------------------------------


@st.composite
def _random_comparison(draw):
    """A fixture of degree 1-4 whose a_n agree with a random E mod ell at chosen n, and E."""
    deg = draw(st.integers(1, 4))
    field_poly = [-draw(st.sampled_from((2, 3)))] + [0] * (deg - 1) + [1]  # Eisenstein at 2 or 3
    ell = draw(st.sampled_from((2, 3, 5, 7, 11, 13)))
    n_cyclo = draw(st.sampled_from([m for m in (1, 3, 4) if m % ell]))
    level = draw(st.sampled_from((1, 11)))
    window = draw(st.integers(1, 30))
    ints = st.integers(-(10 ** 30), 10 ** 30)
    dens = st.integers(1, 10 ** 6).filter(lambda d: d % ell)
    coordinate = st.one_of(ints, st.builds(Fraction, st.integers(-(10 ** 12), 10 ** 12), dens))
    targets = [draw(ints) for _ in range(window + 1)]
    an = {"1": ["1"]}
    targets[1] = 1
    for n in range(2, window + 1):
        if draw(st.booleans()):  # agrees with targets[n] at every point
            vec = [targets[n] + ell * draw(coordinate)] + [ell * draw(coordinate) for _ in range(deg - 1)]
        else:
            vec = draw(st.lists(coordinate, min_size=1, max_size=deg))
        an[str(n)] = [str(Fraction(c)) for c in vec]
    fx = NewformFixture("random", 4, level, field_poly, an)
    if n_cyclo > 1:
        targets = [CycloElement(n_cyclo, [t, ell * draw(ints)]) for t in targets]
    return fx, QExpansion(targets, 4, level), n_cyclo, ell


@settings(max_examples=100, deadline=None)
@given(_random_comparison())
def test_kernel_matches_reference_on_random_fixtures(case):
    fx, E, n_cyclo, ell = case
    points = find_residue_points(fx, n_cyclo, ell)
    assert _point_outcomes(fx, E, points, ell, fx.n_max) == point_outcomes_reference(
        fx, E, points, ell, fx.n_max)


# -- a long window built here ----------------------------------------------------------

K, ELL, OTHER = 20, 283, 617  # 283 * 617 = 174611 is the numerator of B_20 / 40


def _sigma(e: int, limit: int) -> list[int]:
    sig = [0] * (limit + 1)
    for m in range(1, limit + 1):
        for j in range(m, limit + 1, m):
            sig[j] += m ** e
    return sig


def _is_square(x: int, p: int) -> bool:
    return pow(x, (p - 1) // 2, p) == 1


# alpha^2 = D splits mod ELL, where the fixture certifies, and stays inert mod
# OTHER, where it is refuted in F_{OTHER^2}.
D = next(d for d in range(2, 100)
         if all(d % (q * q) for q in range(2, 10)) and _is_square(d, ELL) and not _is_square(d, OTHER))
S = next(x for x in range(ELL) if (x * x - D) % ELL == 0)


@functools.lru_cache(maxsize=None)
def long_window_fixture(p: int, fail_at: int) -> NewformFixture:
    """a_n = sigma_19(n) + ELL u_n + (alpha - S) v_n in Q(alpha), alpha^2 = D, at prime level p.

    It is congruent to E_20 at alpha -> S mod ELL. Mod OTHER, u_n and v_n are
    multiples of OTHER below fail_at, and a_{fail_at} - sigma_19(fail_at) = ELL
    there, so every point first mismatches at n = fail_at.
    """
    window = sturm_bound(K, p)
    sig = _sigma(K - 1, window)
    rng = random.Random(f"long-window:{p}")
    an = {"1": ["1", "0"]}
    for n in range(2, window + 1):
        u, v = rng.randint(-5, 5), rng.choice((-1, 1)) * rng.randint(1, 5)
        if n < fail_at:
            u, v = OTHER * u, OTHER * v
        elif n == fail_at:
            u, v = 1, 0
        an[str(n)] = [str(sig[n] + ELL * u - S * v), str(v)]
    return NewformFixture(f"lw.k{K}.p{p}", K, p, [-D, 0, 1], an)


def test_long_window_certifies_and_refutes_where_it_was_built_to():
    fail_at = 397
    fx = long_window_fixture(239, fail_at)
    assert fx.n_max == sturm_bound(K, 239) == 400 and fail_at % OTHER
    E = eisenstein_E(K, trivial_character(), 400)
    for ell, degree in ((ELL, 1), (OTHER, 2)):
        points = find_residue_points(fx, 1, ell)
        assert {pt.field.d for pt in points} == {degree}
        got = _point_outcomes(fx, E, points, ell, 400)
        assert got == point_outcomes_reference(fx, E, points, ell, 400)
    certified = verify_fixture(fx, ELL)
    assert certified.verdict == "certified" and certified.checked_up_to == 400
    assert verify_fixture(fx, OTHER).verdict == f"refuted-at-{fail_at}"


def test_field_elements_built_by_verify_do_not_grow_with_the_window(monkeypatch):
    """A certified verify builds no FieldElement per compared n: 400 and 800 terms cost the same."""
    counts = {}
    for p in (239, 479):
        fx = long_window_fixture(p, 2)
        built = [0]
        init = residues.FieldElement.__init__

        def counting(self, field, coeffs, init=init, built=built):
            built[0] += 1
            init(self, field, coeffs)

        monkeypatch.setattr(residues.FieldElement, "__init__", counting)
        result = verify_fixture(fx, ELL)
        monkeypatch.undo()
        assert result.verdict == "certified"
        counts[result.checked_up_to] = built[0]
    assert set(counts) == {400, 800}
    assert 0 < counts[800] <= counts[400]
