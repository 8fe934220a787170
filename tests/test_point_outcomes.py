"""The integer comparison of `verify._point_outcomes` and the integer Frobenius test against references.

Each residue point walks n on its own, in one walk for every case: a_n(f)
and a_n(E) are int tuples in F_q, from dot products of a_n(f)'s coordinates
(raw ints, or Fractions reduced mod ell once per n for all points) with the
point's table of alpha-power coordinates, and of a CycloElement a_n(E)'s
reduced coordinates with its table of zeta-power coordinates. The reference
in `oracles.point_outcomes_reference` evaluates a_n(f) and a_n(E) by Horner
in the reference field at every n and every point. Both must name the same
first mismatch at every point. The Frobenius scan's one int test must agree
with `oracles.quadratic_irreducible_reference` and with a count of roots.

Counters of `FieldElement` builds pin the integer routes: a point's tables
are built with it, and neither the comparison nor the Frobenius scan builds
one, at any ell, 2 included; root finding over F_ell itself and over F_{ell^2}
for odd ell, and the residue points of a quadratic field over F_ell, build
none, and beyond F_ell they are built only for factor degrees, the modulus
search and root finding.
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
from excprimes import verify as verify_module
from excprimes.characters import trivial_character
from excprimes.cyclotomic import CycloElement
from excprimes.verify import _eisenstein_candidates, _point_outcomes, frobenius_scan
from oracles import (
    divisor_power_sums_reference, field_of, point_outcomes_reference, quadratic_irreducible_reference,
)


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


# -- each route of the comparison -----------------------------------------------------


def _calls(monkeypatch, owner, name: str) -> list:
    """A counter of calls to owner.name until `monkeypatch.undo()`."""
    calls = [0]
    method = getattr(owner, name)

    def counting(*args, method=method, **kwargs):
        calls[0] += 1
        return method(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def _image_calls(monkeypatch) -> list:
    """A counter of `ResiduePoint.vector_image` calls, which the walk does not make: it reads the point's rows itself."""
    return _calls(monkeypatch, residues.ResiduePoint, "vector_image")


def _field_degree(pt) -> int:
    return len(pt.modulus) - 1


def _planted(k, level, ell, fails, window, fraction=False):
    """(fixture, s): congruent to E_k mod ell at each point of Q(alpha), alpha^2 = d, until its own planted n.

    a_n = sigma_{k-1}(n) + (alpha - s) v_n + (alpha + s) w_n with s^2 = d mod
    ell, so a_n - sigma_{k-1}(n) is 2 s w_n at alpha -> s and -2 s v_n at
    alpha -> -s. w_n (v_n) is a multiple of ell below fails[0] (fails[1]) and 1
    there; None plants no mismatch. fraction adds ell / 3 to each a_n's first
    coordinate past a_1, which changes no residue but makes the coordinates Fractions.
    """
    d = next(d for d in range(2, 100) if all(d % (q * q) for q in range(2, 10))
             and pow(d, (ell - 1) // 2, ell) == 1)
    s = next(x for x in range(ell) if (x * x - d) % ell == 0)
    sig = divisor_power_sums_reference(k - 1, window)
    rng = random.Random(f"planted:{k}:{level}:{ell}:{fails}")

    def coefficient(n, fail):
        if n == fail:
            return 1
        agree = fail is None or n < fail
        return rng.randint(-9, 9) * (ell if agree else 1)

    an = {"1": ["1", "0"]}
    for n in range(2, window + 1):
        w, v = coefficient(n, fails[0]), coefficient(n, fails[1])
        first = sig[n] + s * (w - v) + (Fraction(ell, 3) if fraction else 0)
        an[str(n)] = [str(first), str(v + w)]
    return NewformFixture(f"planted.k{k}.N{level}", k, level, [-d, 0, 1], an), s


def _int_fixture_over_81_6c_field(ell: int, fail: int, window: int, shift: int = 0) -> NewformFixture:
    """a_n = sigma_5(n) + ell (integer vector) over the quartic field of 81.6c at level 11, off by alpha - shift at n = fail."""
    rng = random.Random(f"quartic:{ell}:{fail}")
    an = {"1": ["1", "0", "0", "0"]}
    sig = divisor_power_sums_reference(5, window)
    for n in range(2, window + 1):
        vec = [c + ell * rng.randint(-9, 9) for c in (sig[n], 0, 0, 0)]
        if n == fail:
            vec[0] -= shift
            vec[1] += 1
        an[str(n)] = [str(c) for c in vec]
    return NewformFixture("quartic", 6, 11, [792, -72, -84, 3, 1], an)


@pytest.mark.parametrize("level, ell, fails, fraction", [
    (11, 691, (17, 41), False),  # the two points first mismatch at different n
    (11, 691, (29, 8), True),
    (11, 691, (None, 23), False),  # one point holds over the window
    (11, 691, (None, 23), True),
    (11, 691, (60, None), False),  # the last n of the window
    (1, 691, (13, 37), False),  # a_0(E) = 691/65520 vanishes mod 691
    (1, 691, (13, 37), True),
    (1, 11, (13, 37), False),  # ... and not mod 11: every point fails at n = 0
])
def test_first_mismatches_where_they_were_planted(monkeypatch, level, ell, fails, fraction):
    window = 60
    fx, s = _planted(12, level, ell, fails, window, fraction)
    assert (fx.denominator_lcm > 1) == fraction
    E = eisenstein_E(12, trivial_character(), window)
    points = find_residue_points(fx, 1, ell)
    calls = _image_calls(monkeypatch)
    reduced = _calls(monkeypatch, verify_module, "residue")
    got = _point_outcomes(fx, E, points, ell, window)
    walked = calls[0]
    monkeypatch.undo()
    assert got == point_outcomes_reference(fx, E, points, ell, window)
    if ell == 11:
        assert [n for _, n in got] == [0] * len(points)
    else:
        assert len(points) == 2
        assert [n for _, n in got] == [fails[0] if pt.alpha_image[0] == s else fails[1] for pt in points]
    # one walk for every case: no `vector_image` call; Fraction coordinates are reduced
    # once per compared n (0 at level 1, and 1 up to the last first mismatch)
    # for both points, int ones never; the Fraction a_0(E) at level 1 once
    assert walked == 0
    firsts = [n for _, n in got]
    terms = (window if None in firsts else max(firsts)) + (level == 1)
    assert reduced[0] == (2 * terms if fraction else 0) + (level == 1)


def test_walk_compares_a_1():
    fx, _ = _planted(12, 11, 691, (None, None), 30)
    E = eisenstein_E(12, trivial_character(), 30)
    E = QExpansion(E.coeffs[:1] + (2,) + E.coeffs[2:], 12, 11)
    points = find_residue_points(fx, 1, 691)
    got = _point_outcomes(fx, E, points, 691, 30)
    assert got == point_outcomes_reference(fx, E, points, 691, 30)
    assert [n for _, n in got] == [1, 1]


@pytest.mark.parametrize("ell", [7, 43])
def test_81_6c_every_candidate_in_its_degree_3_residue_fields(monkeypatch, fx81, ell):
    window = min(fx81.n_max, sturm_bound(6, 81))
    kinds = set()
    for E, points, _ in _comparisons(fx81, ell):
        assert {_field_degree(pt) for pt in points} == {3}
        built = _field_elements_built(monkeypatch)
        cyclo_built = _calls(monkeypatch, CycloElement, "__init__")
        got = _point_outcomes(fx81, E, points, ell, window)
        monkeypatch.undo()
        assert (built[0], cyclo_built[0]) == (0, 0)  # no FieldElement, no CycloElement arithmetic
        assert got == point_outcomes_reference(fx81, E, points, ell, window)
        kinds.add(type(E.coefficient(1)).__name__)
    assert kinds == {"int", "CycloElement"}  # the classical E_6 and the c = 3, 9 series
    # 81.6c has Fraction coordinates; over its field with int ones, E_6 walks each point alone.
    # a_31 is off by alpha - c, with c the first F_q coordinate of alpha at the first point,
    # so there the mismatch shows only in the other coordinates.
    E = eisenstein_E(6, trivial_character(), window)
    c = find_residue_points(_int_fixture_over_81_6c_field(ell, 31, window), 1, ell)[0].alpha_image[0]
    fx = _int_fixture_over_81_6c_field(ell, 31, window, shift=c)
    points = find_residue_points(fx, 1, ell)
    assert points[0].vector_image([-c, 1, 0, 0])[0] == 0
    calls = _image_calls(monkeypatch)
    got = _point_outcomes(fx, E, points, ell, window)
    assert calls[0] == 0
    monkeypatch.undo()
    assert got == point_outcomes_reference(fx, E, points, ell, window)
    assert [n for _, n in got] == [31] * len(points) and {_field_degree(pt) for pt in points} == {3}


@pytest.mark.parametrize("ell", [5, 7, 13, 17])
def test_weight2_eprime_walks_each_point_alone(monkeypatch, ell):
    fx = NewformFixture.from_json_file(fixture_path("11-2a.json"))
    E = eprime_weight2_steinberg(sorted(fx.steinberg_signs.items()), ell, fx.n_max)
    points = find_residue_points(fx, 1, ell)
    calls = _image_calls(monkeypatch)
    got = _point_outcomes(fx, E, points, ell, fx.n_max)
    assert calls[0] == 0
    monkeypatch.undo()
    assert got == point_outcomes_reference(fx, E, points, ell, fx.n_max)


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
    sig = divisor_power_sums_reference(K - 1, window)
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
        assert {_field_degree(pt) for pt in points} == {degree}
        got = _point_outcomes(fx, E, points, ell, 400)
        assert got == point_outcomes_reference(fx, E, points, ell, 400)
    certified = verify_fixture(fx, ELL)
    assert certified.verdict == "certified" and certified.checked_up_to == 400
    assert verify_fixture(fx, OTHER).verdict == f"refuted-at-{fail_at}"


def _field_elements_built(monkeypatch) -> list:
    """A counter of `FieldElement.__init__` calls until `monkeypatch.undo()`."""
    built = [0]
    init = residues.FieldElement.__init__

    def counting(self, field, coeffs, init=init):
        built[0] += 1
        init(self, field, coeffs)

    monkeypatch.setattr(residues.FieldElement, "__init__", counting)
    return built


def test_field_elements_built_by_verify_do_not_grow_with_the_window(monkeypatch):
    """A certified verify builds no FieldElement per compared n: 400 and 800 terms cost the same."""
    counts = {}
    for p in (239, 479):
        fx = long_window_fixture(p, 2)
        built = _field_elements_built(monkeypatch)
        result = verify_fixture(fx, ELL)
        monkeypatch.undo()
        assert result.verdict == "certified"
        counts[result.checked_up_to] = built[0]
    assert set(counts) == {400, 800}
    assert counts[800] == counts[400] == 0  # at D = 1 building the residue points takes none either


def test_prime_field_roots_build_no_field_element(monkeypatch):
    ell = 691
    F = residues.FiniteField(ell, 1)
    poly = [-3, 0, 1]  # 3 is not a square mod 691
    for r in (5, 5, 100, 690, 0):
        poly = [a - r * b for a, b in zip([0] + poly, poly + [0])]
    built = _field_elements_built(monkeypatch)
    roots = residues.poly_roots_in_field(poly, F)
    monkeypatch.undo()
    assert roots == [(0,), (5,), (100,), (690,)]
    assert built[0] == 0


@pytest.mark.parametrize("n_cyclo, roots", [(1, 2), (3, 4)])  # 3 | ELL - 1, so Phi_3 splits too
def test_quadratic_prime_field_points_build_no_field_element_or_powmod(monkeypatch, n_cyclo, roots):
    """Factor degrees, roots and Frobenius orbits at D = 1 take closed forms on ints."""
    fx = long_window_fixture(239, 2)
    built = _field_elements_built(monkeypatch)
    powmods = _calls(monkeypatch, residues.polys, "powmod")
    found = [0]
    roots_in_field = residues.poly_roots_in_field

    def counting(*args):
        out = roots_in_field(*args)
        found[0] += len(out)
        return out

    monkeypatch.setattr(residues, "poly_roots_in_field", counting)
    points = find_residue_points(fx, n_cyclo, ELL)
    monkeypatch.undo()
    assert (built[0], powmods[0], found[0]) == (0, 0, roots)
    assert len(points) == (4 if n_cyclo == 3 else 2)
    assert {(_field_degree(pt), pt.degree) for pt in points} == {(1, 1)}
    assert sorted({pt.alpha_image[0] for pt in points}) == sorted((S, ELL - S))


def test_81_6c_roots_at_1171_build_no_field_element_or_powmod(monkeypatch, fx81):
    """In F_{1171^2}, roots of the field polynomial and of Phi_3 and Phi_9 come from the int kernel."""
    field = residues.FiniteField(1171, 2)
    built = _field_elements_built(monkeypatch)
    powmods = _calls(monkeypatch, residues.polys, "powmod")
    roots = [residues.poly_roots_in_field(f, field)
             for f in (fx81.field_poly, residues.cyclotomic_polynomial(3), residues.cyclotomic_polynomial(9))]
    monkeypatch.undo()
    assert (built[0], powmods[0]) == (0, 0)
    assert [len(r) for r in roots] == [4, 2, 6]  # f = (1)(1)(2) mod 1171, and 1171 = 1 mod 9
    assert [sum(1 for _, y in r if y) for r in roots] == [2, 0, 0]


@pytest.mark.parametrize("p, d, builds", [(5, 6, False), (13, 4, False), (2, 2, False), (43, 3, True)])
def test_modulus_search_builds_field_elements_only_at_degree_3(monkeypatch, p, d, builds):
    """Rabin's test picks the modulus on int lists at d >= 4 and for F_4; d = 3 keeps FieldElements (item 1a)."""
    built = _field_elements_built(monkeypatch)
    field = residues.FiniteField(p, d)
    monkeypatch.undo()
    assert len(field.modulus) == d + 1
    assert (built[0] > 0) == builds


@pytest.mark.parametrize("ell, n_cyclo, field_degree", [(5, 3, 6), (7, 3, 3), (43, 3, 3), (1171, 3, 2), (43, 1, 3)])
def test_points_beyond_f_ell_use_field_elements_in_three_callers(
        monkeypatch, fx81, ell, n_cyclo, field_degree):
    """At D > 1, outside factor degrees, the modulus search and root finding, orbits and tables build none."""
    counts, depth = [0, 0], [0]  # FieldElements built outside those three callers, and inside
    init = residues.FieldElement.__init__

    def counting(self, field, coeffs):
        counts[depth[0] > 0] += 1
        init(self, field, coeffs)

    def entered(fn):
        def wrapped(*args):
            depth[0] += 1
            try:
                return fn(*args)
            finally:
                depth[0] -= 1
        return wrapped

    monkeypatch.setattr(residues.FieldElement, "__init__", counting)
    monkeypatch.setattr(residues, "poly_roots_in_field", entered(residues.poly_roots_in_field))
    monkeypatch.setattr(residues, "factor_degree_multiset", entered(residues.factor_degree_multiset))
    monkeypatch.setattr(residues.FiniteField, "_find_modulus",
                        staticmethod(entered(residues.FiniteField._find_modulus)))
    points = find_residue_points(fx81, n_cyclo, ell)
    monkeypatch.undo()
    assert {_field_degree(pt) for pt in points} == {field_degree}
    assert counts[0] == 0 < counts[1]


@pytest.mark.parametrize("name, ell", [("11-2a", 7), ("11-2a", 3), ("11-2a", 2), ("long-window", ELL)])
def test_prime_field_scan_agrees_with_field_elements_and_builds_none_at_odd_ell(monkeypatch, name, ell):
    if name == "long-window":
        fx = long_window_fixture(239, 2)
    else:
        fx = NewformFixture.from_json_file(fixture_path(f"{name}.json"))
    points = find_residue_points(fx, 1, ell)
    assert {_field_degree(pt) for pt in points} == {1}
    built = _field_elements_built(monkeypatch)
    scan = frobenius_scan(fx, ell, 100, points)
    monkeypatch.undo()
    assert built[0] == 0  # at ell = 2 too, where the trace criterion runs on ints
    # only the long-window fixture has a point, alpha -> S mod ELL, where it is congruent
    assert {row["witness"] is None for row in scan.points} == ({False, True} if ell == ELL else {False})
    for pt, row in zip(points, scan.points):
        assert row["tested"]
        R = field_of(pt)
        for p, irreducible in row["tested"].items():
            a_p, pk = pt.vector_image(fx.a(p)), R.of(pow(p, fx.weight - 1, ell))
            assert irreducible == quadratic_irreducible_reference(R, a_p, pk), (pt, p)


# a_p for Q(omega), omega^2 + omega + 1 = 0, which stays irreducible mod 2, with its image in F_4
# and whether X^2 - a_p X + 1 (p^(k-1) = 1 in F_2) is irreducible there: a_p in F_2 has a root
# (a = 0: X^2 + 1 = (X + 1)^2, a = 1: the roots of X^2 + X + 1), and a_p outside F_2 has none
F4_SCAN = {3: ([1, 0], False), 5: ([2, 4], False), 7: ([3, 2], False), 13: ([0, 1], True),
           17: ([1, 3], True), 19: ([4, 0], False), 23: ([5, 5], True), 29: ([7, 8], False)}


def test_scan_at_2_over_f4_matches_root_counts(monkeypatch):
    """No bundled run reaches ell = 2 with d > 1: a quadratic field inert at 2 does, in F_4."""
    rng = random.Random("scan-at-2")
    an = {str(n): [str(rng.randint(-9, 9)), str(rng.randint(-9, 9))] for n in range(2, 31)}
    an["1"] = ["1", "0"]
    an.update((str(p), [str(c) for c in a_p]) for p, (a_p, _) in F4_SCAN.items())
    fx = NewformFixture("f4", 4, 11, [1, 1, 1], an)
    [pt] = find_residue_points(fx, 1, 2)
    assert (_field_degree(pt), pt.degree) == (2, 2)
    built = _field_elements_built(monkeypatch)
    [row] = frobenius_scan(fx, 2, 30, [pt]).points
    monkeypatch.undo()
    assert built[0] == 0
    assert row["tested"] == {p: irreducible for p, (_, irreducible) in F4_SCAN.items()}
    assert row["witness"] == 13
    R = field_of(pt)
    for p, irreducible in row["tested"].items():
        a, c = pt.vector_image(fx.a(p)), R.of(pow(p, fx.weight - 1, 2))
        roots = sum(1 for x in R.elements if not any(R.add(R.sub(R.mul(x, x), R.mul(a, x)), c)))
        assert irreducible == (roots == 0), (p, a, roots)
    assert frobenius_scan(fx, 2, 30).points == (row,)
