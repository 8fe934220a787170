import dataclasses
import functools
import itertools
import json
import math
import random
import re
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import fixture_path, run_cli
from excprimes import (
    DenominatorObstruction,
    DomainError,
    FixtureError,
    NewformFixture,
    compositum_norm,
    cyclotomic_polynomial,
    find_residue_points,
    polys,
)
from excprimes.cyclotomic import CycloElement, euler_phi
from excprimes.residues import (
    FiniteField,
    _fp_irreducible_quadratic,
    _is_irreducible_over_q,
    factor_degree_multiset,
    poly_roots_in_field,
    residue,
)
from excprimes import residues
from oracles import (
    describe,
    field,
    field_of,
    frobenius_reference,
    is_square_euler,
    parse_an_reference,
    quadratic_irreducible_reference,
    reduce_cyclo_reference,
    reduce_vector_reference,
    trace_reference,
)


# -- finite fields ---------------------------------------------------------------


def _reference(F):
    """The int reference field on the modulus of the FiniteField F."""
    return field(F.p, F.modulus)


def test_field_construction_is_deterministic():
    a = FiniteField(5, 3)
    b = FiniteField(5, 3)
    assert a == b and a.modulus == b.modulus and a.q == 125
    with pytest.raises(DomainError):
        FiniteField(6, 2)
    with pytest.raises(DomainError):
        FiniteField(5, 0)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([(2, 1), (2, 3), (3, 2), (5, 1), (5, 2), (7, 3)]), st.data())
def test_field_ring_axioms(params, data):
    ell, d = params
    F = FiniteField(ell, d)
    draw = lambda: F.element([data.draw(st.integers(0, ell - 1)) for _ in range(d)])
    a, b, c = draw(), draw(), draw()
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a and a + b == b + a
    assert a + (-a) == F.zero()
    if a:
        assert a * a.inverse() == F.one()
    # Frobenius is a field automorphism
    assert (a + b) ** ell == a ** ell + b ** ell
    assert (a * b) ** ell == a ** ell * b ** ell


def test_frobenius_fixes_prime_field_and_trace_lands_there():
    R = _reference(FiniteField(7, 3))
    for c in range(7):
        x = R.of(c)
        assert frobenius_reference(R, x) == x
    x = (1, 2, 3)
    y = x
    for _ in range(3):
        y = frobenius_reference(R, y)
    assert y == x  # Frobenius has order d
    assert 0 <= trace_reference(R, x) < 7


def test_from_fraction_and_denominator_obstruction():
    assert residue(Fraction(1, 7), 5) == 3
    with pytest.raises(DenominatorObstruction, match=r"^coefficient: denominator 10 is divisible by 5$"):
        residue(Fraction(1, 10), 5)
    # ints reduce without a Fraction, with the value Fraction(x) gives
    for x in (0, 7, -7, 10 ** 40 + 3, -(10 ** 40)):
        assert residue(x, 5) == residue(Fraction(x), 5) == x % 5


def _irreducible(R, a, c) -> bool:
    """The scan's int test on the elements a and c of the reference field R."""
    return _fp_irreducible_quadratic(a, c, list(R.m), R.p)


def test_squares_by_euler_criterion():
    # X^2 - x has no root exactly when x is not a square; the int test (by the
    # norm of the discriminant 4x) and the Euler criterion both match the
    # squares found by brute force, and in characteristic 2 every x is a square
    for ell, dmax in ((2, 2), (3, 4), (5, 3), (7, 2), (11, 2)):
        for d in range(1, dmax + 1):
            R = _reference(FiniteField(ell, d))
            squares = {R.mul(x, x) for x in R.elements}
            for x in R.elements:
                assert (not _irreducible(R, R.zero, R.sub(R.zero, x))) == (x in squares), (ell, d, x)
                if ell > 2:
                    assert is_square_euler(R, x) == (x in squares), (ell, d, x)


def test_quadratic_irreducible_matches_brute_force():
    # degree 2 over a field: irreducible iff X^2 - aX + c has no root x, i.e. c != a x - x^2;
    # the scan's int test and the reference agree on every (a, c)
    for ell, d in ((2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1), (7, 2), (11, 1), (13, 1)):
        R = _reference(FiniteField(ell, d))
        with_root = {(a, R.sub(R.mul(a, x), R.mul(x, x))) for a in R.elements for x in R.elements}
        for a in R.elements:
            for c in R.elements:
                has_root = (a, c) in with_root
                assert _irreducible(R, a, c) == quadratic_irreducible_reference(R, a, c) == (not has_root), (ell, d, a, c)


# -- root finding ----------------------------------------------------------------


QUARTIC = (792, -72, -84, 3, 1)


def test_poly_roots_vanish_and_respect_degree():
    for ell, d in ((43, 1), (43, 3), (7, 2), (1171, 2)):
        F = FiniteField(ell, d)
        roots = poly_roots_in_field(QUARTIC, F)
        assert len(roots) <= 4
        for r in roots:
            assert not any(_reference(F).horner(QUARTIC, r))
    assert poly_roots_in_field(QUARTIC, FiniteField(43, 1))[0] == (13,)


def test_factor_degree_multiset_consistency():
    for ell in (2, 3, 5, 7, 11, 43, 61, 1171):
        degs = factor_degree_multiset(QUARTIC, ell)
        assert sum(d * c for d, c in degs) <= 4
        # squarefree part may drop degree only for ramified primes
        if ell not in (2, 3):
            assert sum(d * c for d, c in degs) == 4
    assert factor_degree_multiset((*QUARTIC,), 43) == [(1, 1), (3, 1)]


def _roots_by_enumeration(coeffs, F):
    """The roots of an integer polynomial of degree <= 5, by evaluating it everywhere."""
    p, d = F.p, F.d
    terms = [(i * d, c % p) for i, c in enumerate(coeffs) if c % p]
    return sorted(
        x
        for x, row in _reference(F).power_table(5)
        if all(sum(c * row[k + j] for k, c in terms) % p == 0 for j in range(d))
    )


# F_{43^3} and F_{5^6} serve 81.6c at ell = 43 and 5; the prime fields take the int route
ENUMERATION_FIELDS = [
    (2, 1), (2, 3), (2, 4), (3, 2), (5, 1), (5, 2), (5, 4), (5, 6), (7, 1), (43, 1), (43, 3), (691, 1),
]


def _linear_product(roots) -> list:
    """The integer coefficients of the product of x - r over the roots r."""
    poly = [1]
    for r in roots:
        poly = [a - r * b for a, b in zip([0] + poly, poly + [0])]
    return poly


@st.composite
def _integer_polys(draw):
    """Random integer polynomials, and products of linear factors with repeated roots."""
    if draw(st.booleans()):
        return draw(st.lists(st.integers(-60, 60), min_size=2, max_size=6))
    return _linear_product(draw(st.lists(st.integers(0, 42), min_size=1, max_size=5)))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ENUMERATION_FIELDS), _integer_polys())
@example((43, 3), QUARTIC)
@example((5, 6), QUARTIC)
@example((2, 4), QUARTIC)
def test_root_finding_matches_enumeration(params, coeffs):
    F = FiniteField(*params)
    if all(c % F.p == 0 for c in coeffs):
        with pytest.raises(DomainError):
            poly_roots_in_field(coeffs, F)
        return
    assert poly_roots_in_field(coeffs, F) == _roots_by_enumeration(coeffs, F)


@pytest.mark.parametrize("ell", [2, 3, 43, 131, 691, 3617])
def test_prime_field_roots_match_enumeration(ell):
    F = FiniteField(ell, 1)
    nonsquare = next((n for n in range(2, ell) if pow(n, (ell - 1) // 2, ell) != 1), None)
    no_roots = [1, 1, 1] if ell == 2 else [-nonsquare, 0, 1]
    all_roots = _linear_product(range(ell) if ell <= 3 else (0, 1, 2, ell - 1, ell // 2))
    cases = {
        "repeated roots": (_linear_product((1, 1, 5, 5, 5)), {1, 5 % ell}),
        "no roots": (no_roots, set()),
        "squared, no roots": (polys.mul(no_roots, no_roots), set()),
        "all roots": (all_roots, set(range(ell)) if ell <= 3 else {0, 1, 2, ell - 1, ell // 2}),
        "leading coefficient 0 mod ell": (_linear_product((2, 7)) + [0, 0, ell], {2 % ell, 7 % ell}),
        "nonzero constant mod ell": ([1 + ell, ell, 2 * ell], set()),
    }
    for name, (coeffs, expected) in cases.items():
        roots = poly_roots_in_field(coeffs, F)
        assert roots == _roots_by_enumeration(coeffs, F) == sorted((r,) for r in expected), (name, coeffs)
    with pytest.raises(DomainError):
        poly_roots_in_field([ell, -ell, 3 * ell], F)


_residue_lists = st.lists(st.integers(0, 10 ** 4), min_size=1, max_size=7)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([2, 3, 43, 691]), _residue_lists, _residue_lists, st.integers(1, 10 ** 4))
def test_prime_field_kernel_matches_polys(p, f, g, e):
    F = FiniteField(p, 1)
    f, g = polys.trim([c % p for c in f]), polys.trim([c % p for c in g])
    assume(f and g)

    def lift(h):
        return [F.element(c) for c in h]

    q, r = residues._fp_divmod(f, g, p)
    assert (lift(q), lift(r)) == polys.quo_rem(lift(f), lift(g))
    assert lift(residues._fp_gcd(f, g, p)) == polys.gcd(lift(f), lift(g))
    assert F.element(residues._fp_resultant(f, g, p)) == polys.resultant(lift(f), lift(g))
    if len(g) > 1:
        assert lift(residues._fp_mulmod(f, f, g, p)) == polys.rem(polys.mul(lift(f), lift(f)), lift(g))
        assert lift(residues._fp_powmod(f, e, g, p)) == polys.powmod(lift(f), e, lift(g))
    assert lift(residues._fp_quo(polys.mul(f, g), g, p)) == lift([c % p for c in f])
    if r:
        with pytest.raises(DomainError):
            residues._fp_quo(f, g, p)


# -- degree <= 2 over F_p for odd p: roots and factor degrees in closed form ---------------


def _degrees_by_polys(coeffs, p):
    """Factor degrees mod p by distinct-degree factorization on FieldElements, at any degree."""
    F = FiniteField(p, 1)
    return residues._distinct_degrees(residues._squarefree(polys.trim([F.element(c) for c in coeffs])))


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_closed_forms_match_the_general_routes_on_every_polynomial(p):
    F = FiniteField(p, 1)
    kinds = set()
    for a, b, c in itertools.product(range(p), repeat=3):
        disc = (b * b - 4 * a * c) % p
        kinds.add("constant" if not (a or b) else "linear" if not a else
                  "zero" if not disc else "square" if is_square_euler(_reference(F), (disc,)) else "non-square")
        if a or b:
            roots, degrees = _roots_by_enumeration([c, b, a], F), _degrees_by_polys([c, b, a], p)
            assert degrees == [[(2, 1)], [(1, 1)], [(1, 2)]][len(roots)]
        # [c, b, a] itself, and with a leading coefficient that is 0 mod p
        for coeffs in ([c, b, a], [c, b, a, p]):
            if not (a or b):
                if c:
                    assert poly_roots_in_field(coeffs, F) == []
                with pytest.raises(DomainError):
                    factor_degree_multiset(coeffs, p)
                continue
            assert poly_roots_in_field(coeffs, F) == roots, coeffs
            assert factor_degree_multiset(coeffs, p) == degrees, coeffs
    assert kinds == {"constant", "linear", "zero", "square", "non-square"}


@pytest.mark.parametrize("p", [43, 691, 3617, 7681, 12289, 65537])
def test_closed_forms_at_every_2_adic_valuation_of_p_minus_1(p):
    # v_2(p - 1) is 1, 1, 5, 9, 12 and 16, the most steps a Tonelli-Shanks square root can take
    F = FiniteField(p, 1)
    nonsquare = next(n for n in range(2, p) if pow(n, (p - 1) // 2, p) != 1)
    rng = random.Random(f"closed-forms:{p}")
    for _ in range(100):
        lead, r, s = rng.randrange(1, p), rng.randrange(p), rng.randrange(p)
        if rng.random() < 0.2:
            s = r
        split = [lead * r * s, -lead * (r + s), lead]
        assert [x[0] for x in poly_roots_in_field(split, F)] == sorted({r, s})
        assert factor_degree_multiset(split, p) == ([(1, 1)] if r == s else [(1, 2)])
        # (X - r)^2 - nonsquare * t^2 has no root
        t = rng.randrange(1, p)
        inert = [r * r - nonsquare * t * t, -2 * r, 1]
        assert poly_roots_in_field(inert, F) == [] and factor_degree_multiset(inert, p) == [(2, 1)]
        coeffs = [rng.randrange(p), rng.randrange(p), rng.randrange(1, p)]
        roots = [x[0] for x in poly_roots_in_field(coeffs, F)]
        assert all((coeffs[2] * x * x + coeffs[1] * x + coeffs[0]) % p == 0 for x in roots)
        degrees = _degrees_by_polys(coeffs, p)
        assert factor_degree_multiset(coeffs, p) == degrees
        assert len(roots) == sum(count for d, count in degrees if d == 1)


def test_closed_forms_stay_out_of_characteristic_2_higher_degrees_and_extension_fields(monkeypatch):
    def refuse(f, p):
        raise AssertionError(f"closed form taken for {f} mod {p}")

    monkeypatch.setattr(residues, "_quadratic_roots_mod_p", refuse)
    F2 = FiniteField(2, 1)
    for coeffs, degrees in (([1, 1, 1], [(2, 1)]), ([0, 1, 1], [(1, 2)]), ([1, 0, 1], [(1, 1)]), ([1, 1], [(1, 1)])):
        assert factor_degree_multiset(coeffs, 2) == degrees
        assert poly_roots_in_field(coeffs, F2) == _roots_by_enumeration(coeffs, F2)
    assert factor_degree_multiset(QUARTIC, 43) == [(1, 1), (3, 1)]
    for params in ((5, 3), (5, 4)):  # X^2 - 2 over F_125 and F_625
        F = FiniteField(*params)
        assert poly_roots_in_field([-2, 0, 1], F) == _roots_by_enumeration([-2, 0, 1], F)
    assert len(poly_roots_in_field([-2, 0, 1], FiniteField(5, 4))) == 2


# -- F_{p^2} for odd p: roots of F_p-factors of degree 1 and 2 by the quadratic formula -----------


def _random_factored_poly(rng, p: int, degree: int) -> list:
    """An integer polynomial of degree <= degree, often with a factor of multiplicity >= 2 mod p."""
    factors = []
    while sum(len(g) - 1 for g in factors) < degree:
        g = [rng.randrange(p) for _ in range(rng.randint(1, 2))] + [1]
        factors += [g] * (2 if rng.random() < 0.3 else 1)
    poly = [1]
    for g in factors:
        if len(poly) + len(g) - 2 <= degree:
            poly = polys.mul(poly, g)
    return [c + p * rng.randint(-3, 3) for c in poly]


@pytest.mark.parametrize("p", [3, 5, 7])
def test_f_p2_roots_match_enumeration(p):
    """Every monic polynomial of degree <= 3 over F_p, and random ones up to degree 6, over F_{p^2}."""
    F = FiniteField(p, 2)
    R = _reference(F)

    def enumerated(coeffs):
        return sorted(x for x in R.elements if not any(R.horner(coeffs, x)))

    for degree in (1, 2, 3):
        for low in itertools.product(range(p), repeat=degree):
            coeffs = [*low, 1]
            assert poly_roots_in_field(coeffs, F) == enumerated(coeffs), coeffs
    rng = random.Random(f"f_p2:{p}")
    for _ in range(150):
        coeffs = _random_factored_poly(rng, p, 6) if rng.random() < 0.5 else \
            [rng.randint(-40, 40) for _ in range(rng.randint(2, 7))]
        if rng.random() < 0.2:
            coeffs.append(p * rng.randint(-2, 2))  # a leading coefficient that is 0 mod p
        if all(c % p == 0 for c in coeffs):
            continue
        assert poly_roots_in_field(coeffs, F) == enumerated(coeffs), coeffs
    # X^2 - 2 is irreducible over F_5, so both its roots lie in F_25 outside F_5
    roots = poly_roots_in_field([-2, 0, 1], FiniteField(5, 2))
    assert roots == _roots_by_enumeration([-2, 0, 1], FiniteField(5, 2)) and all(y for _, y in roots)
    assert len(roots) == 2


@pytest.mark.parametrize("p", [1171, 7681, 65537])
def test_f_p2_roots_at_large_primes_satisfy_f_and_match_factor_degrees(p):
    """Too large to enumerate: each root satisfies f, one per linear factor and two per quadratic one."""
    F = FiniteField(p, 2)
    R = _reference(F)
    rng = random.Random(f"f_p2-large:{p}")
    for _ in range(25):
        coeffs = _random_factored_poly(rng, p, 6) if rng.random() < 0.6 else \
            [rng.randrange(p) for _ in range(rng.randint(2, 6))] + [1]
        roots = poly_roots_in_field(coeffs, F)
        assert len(set(roots)) == len(roots) and all(not any(R.horner(coeffs, r)) for r in roots), coeffs
        degrees = factor_degree_multiset(coeffs, p)
        assert len(roots) == sum(count * d for d, count in degrees if d <= 2), (coeffs, degrees)
    for coeffs in (QUARTIC, tuple(cyclotomic_polynomial(9))):
        roots = poly_roots_in_field(coeffs, F)
        assert all(not any(R.horner(coeffs, r)) for r in roots)
        assert len(roots) == sum(count * d for d, count in factor_degree_multiset(coeffs, p) if d <= 2)


def _rabins_choice(p: int, d: int) -> tuple[int, ...]:
    """The first candidate of the seeded modulus draw for F_{p^d} that Rabin's test over FieldElements accepts."""
    F1 = FiniteField(p, 1)
    rng = random.Random(f"modulus:{p}:{d}")
    while True:
        cand = [rng.randrange(p) for _ in range(d)] + [1]
        if residues._is_irreducible_mod_p([F1.element(c) for c in cand]):
            return tuple(cand)


def test_f_p2_modulus_is_rabins_choice_below_3000():
    """The root test on each seeded candidate picks the modulus that Rabin's test over FieldElements picks."""
    for p in range(3, 3000, 2):
        if all(p % r for r in range(3, math.isqrt(p) + 1, 2)):
            assert FiniteField(p, 2).modulus == _rabins_choice(p, 2), p


def _divides_mod_p(g: list, f: list, p: int) -> bool:
    """Does the monic g divide f over F_p? Schoolbook long division on int lists, lowest degree first."""
    r, dg = list(f), len(g) - 1
    for top in range(len(r) - 1, dg - 1, -1):
        c = r[top] % p
        for i, gi in enumerate(g):
            r[top - dg + i] -= c * gi
    return not any(c % p for c in r)


# the number of monic irreducible polynomials of degree d over F_p, (1/d) sum_{e | d} mu(e) p^(d/e)
IRREDUCIBLE_COUNTS = {(2, 4): 3, (2, 5): 6, (2, 6): 9, (3, 4): 18, (3, 5): 48, (3, 6): 116, (5, 4): 150}


@pytest.mark.parametrize("p, d", sorted(IRREDUCIBLE_COUNTS))
def test_int_rabin_test_matches_trial_division_on_every_monic_polynomial(p, d):
    divisors = [[*low, 1] for e in range(1, d // 2 + 1) for low in itertools.product(range(p), repeat=e)]
    irreducible = 0
    for low in itertools.product(range(p), repeat=d):
        m = [*low, 1]
        by_division = not any(_divides_mod_p(g, m, p) for g in divisors)
        assert residues._fp_is_irreducible(m, p) == by_division, m
        irreducible += by_division
    assert irreducible == IRREDUCIBLE_COUNTS[p, d]


@pytest.mark.parametrize("m, p", [([0, 4, 0, 0, 0, 1], 5), ([0, 1, 1], 2)])
def test_int_rabin_test_where_a_frobenius_power_of_x_is_x_mod_m(m, p):
    """x^5 - x over F_5 and x^2 + x over F_2: x^(p^d) = x, and x^(p^(d/r)) - x is 0 mod m, so the gcd is m."""
    assert residues._fp_powmod([0, 1], p ** (len(m) - 1), m, p) == [0, 1]
    assert not residues._fp_is_irreducible(m, p)


def test_int_rabin_test_picks_rabins_modulus_at_degrees_4_to_6_and_over_f4():
    """Below 100, the modulus of F_{p^4}, F_{p^5}, F_{p^6} and F_4 is the one Rabin's test over FieldElements picks."""
    primes = [p for p in range(2, 100) if all(p % r for r in range(2, math.isqrt(p) + 1))]
    for p, d in [(p, d) for d in (4, 5, 6) for p in primes] + [(2, 2)]:
        assert FiniteField(p, d).modulus == _rabins_choice(p, d), (p, d)


def test_large_field_root_finding_agrees_with_enumeration():
    # in a field too large to enumerate, the roots lying in the prime field agree
    F_big = FiniteField(1171, 2)
    roots = poly_roots_in_field(QUARTIC, F_big)
    for r in roots:
        assert not any(_reference(F_big).horner(QUARTIC, r))
    in_prime_field = [r for r in roots if all(c == 0 for c in r[1:])]
    small = poly_roots_in_field(QUARTIC, FiniteField(1171, 1))
    assert sorted(r[0] for r in in_prime_field) == sorted(
        r[0] for r in small
    )


# -- residue points ----------------------------------------------------------------


def test_residue_points_frozen_level81_example(fx81):
    points = find_residue_points(fx81, 3, 43)
    descs = [describe(pt) for pt in points]
    assert any(d["alpha"] == [13, 0, 0] and d["zeta"] == [36, 0, 0] for d in descs)
    for d in descs:
        assert d["ell"] == 43 and d["cyclo_index"] == 3
        assert d["field_degree"] == 3


# describe(pt) for each point of find_residue_points(81.6c, n, ell) at ell = 5
# and 43, in the fields F_{5^3}, F_{5^6} and F_{43^3}: the field moduli and
# the canonical orbit representatives that verify reports are built from.
FROZEN_POINTS_81 = {
    (5, 1): [
        {"ell": 5,
         "field_degree": 3,
         "field_modulus": [4, 2, 0, 1],
         "alpha": [1, 0, 0],
         "degree": 1},
        {"ell": 5,
         "field_degree": 3,
         "field_modulus": [4, 2, 0, 1],
         "alpha": [1, 0, 3],
         "degree": 3},
    ],
    (5, 3): [
        {"ell": 5,
         "field_degree": 6,
         "field_modulus": [3, 0, 2, 3, 1, 2, 1],
         "alpha": [0, 4, 4, 3, 4, 1],
         "degree": 6,
         "zeta": [0, 1, 4, 1, 1, 3],
         "cyclo_index": 3},
        {"ell": 5,
         "field_degree": 6,
         "field_modulus": [3, 0, 2, 3, 1, 2, 1],
         "alpha": [1, 0, 0, 0, 0, 0],
         "degree": 2,
         "zeta": [0, 1, 4, 1, 1, 3],
         "cyclo_index": 3},
    ],
    (43, 1): [
        {"ell": 43,
         "field_degree": 3,
         "field_modulus": [15, 25, 27, 1],
         "alpha": [8, 11, 24],
         "degree": 3},
        {"ell": 43,
         "field_degree": 3,
         "field_modulus": [15, 25, 27, 1],
         "alpha": [13, 0, 0],
         "degree": 1},
    ],
    (43, 3): [
        {"ell": 43,
         "field_degree": 3,
         "field_modulus": [15, 25, 27, 1],
         "alpha": [8, 11, 24],
         "degree": 3,
         "zeta": [6, 0, 0],
         "cyclo_index": 3},
        {"ell": 43,
         "field_degree": 3,
         "field_modulus": [15, 25, 27, 1],
         "alpha": [8, 11, 24],
         "degree": 3,
         "zeta": [36, 0, 0],
         "cyclo_index": 3},
        {"ell": 43,
         "field_degree": 3,
         "field_modulus": [15, 25, 27, 1],
         "alpha": [13, 0, 0],
         "degree": 1,
         "zeta": [6, 0, 0],
         "cyclo_index": 3},
        {"ell": 43,
         "field_degree": 3,
         "field_modulus": [15, 25, 27, 1],
         "alpha": [13, 0, 0],
         "degree": 1,
         "zeta": [36, 0, 0],
         "cyclo_index": 3},
    ],
}


def test_residue_points_frozen_at_5_and_43(fx81):
    for (ell, n), want in FROZEN_POINTS_81.items():
        assert [describe(pt) for pt in find_residue_points(fx81, n, ell)] == want, (ell, n)


def test_residue_points_without_cyclotomic_part(fx11_4):
    points = find_residue_points(fx11_4, 1, 5)
    assert len(points) == 1
    d = describe(points[0])
    assert d["alpha"] == [1, 2] and d["degree"] == 2
    assert "zeta" not in d and "cyclo_index" not in d


def test_residue_point_count_matches_gcd_formula(fx81, fx11_4):
    for fixture, n, ell in ((fx81, 3, 7), (fx81, 3, 1171), (fx11_4, 1, 61), (fx11_4, 3, 11)):
        fdegs = factor_degree_multiset(fixture.field_poly, ell)
        if n > 1:
            pdegs = factor_degree_multiset(cyclotomic_polynomial(n), ell)
        else:
            pdegs = [(1, 1)]
        expected = sum(cf * cp * math.gcd(df, dp) for df, cf in fdegs for dp, cp in pdegs)
        assert len(find_residue_points(fixture, n, ell)) == expected


def test_reduce_vector_is_a_ring_map(fx11_4, fx81):
    pt = find_residue_points(fx11_4, 1, 61)[0]
    # alpha^2 = 2 alpha + 2 must hold for the reduced image
    R, a = field_of(pt), pt.alpha_image
    assert R.mul(a, a) == R.add(R.mul(R.of(2), a), R.of(2))
    # multiplicativity of the reduced eigenvalues: a_2 a_5 = a_10
    pt81 = find_residue_points(fx81, 1, 7)[0]
    R = field_of(pt81)
    a2, a5, a10, a4 = (pt81.vector_image(fx81.a(n)) for n in (2, 5, 10, 4))
    assert R.mul(a2, a5) == a10
    # and the prime-power recurrence a_4 = a_2^2 - 2^(k-1)
    assert a4 == R.sub(R.mul(a2, a2), R.of(32))


@functools.lru_cache(maxsize=None)
def _bundled_points() -> tuple:
    """(fixture, point) for every residue point of the bundled fixtures at their candidate primes.

    Cyclotomic indices 1, 3 and 6 cover the characters mod 9 that 81.6c
    meets; 81.6c at 43 with index 3 lands in F_{43^3}.
    """
    from excprimes import candidate_report

    out = []
    for name in ("11-2a", "11-4a", "81-6c", "81-6c-printed"):
        fx = NewformFixture.from_json_file(fixture_path(f"{name}.json"))
        indices = (1, 3, 6) if fx.level == 81 else (1,)
        for ell in candidate_report(fx.weight, fx.level).reducible_primes():
            for n in indices:
                try:
                    out += [(fx, pt) for pt in find_residue_points(fx, n, ell)]
                except DenominatorObstruction:
                    continue
    return tuple(out)


def _orbit(x, step) -> list:
    """x, step(x), step(step(x)), ... up to the first return to x."""
    orbit = [x]
    while (y := step(orbit[-1])) != x:
        orbit.append(y)
    return orbit


# the field degrees of the points at cyclotomic index 1 and 3 (81.6c), or 1 and 3 or 7 (the
# toy fields F_4 and F_8 at ell = 2, which no bundled run reaches with d > 1)
ORBIT_FIELD_DEGREES = {
    ("81-6c", 5): {3, 6}, ("81-6c", 7): {3}, ("81-6c", 43): {3}, ("81-6c", 1171): {2},
    ("f4", 2): {2}, ("f8", 2): {3},
}


def _orbit_fixture_points(fx81, name, ell):
    """(fixture, point) at cyclotomic index 1 and 3 (81.6c), or 1 and 3 or 7 (the toy fields)."""
    # Phi_3 and Phi_7 factor mod 2 into factors of the degrees of x^2 + x + 1 and x^3 + x + 1,
    # so at cyclotomic index 3 and 7 zeta lands in F_4 and in F_8 as alpha does
    toys = {"f4": ([1, 1, 1], (1, 3)), "f8": ([1, 1, 0, 1], (1, 7))}
    if name in toys:
        field_poly, indices = toys[name]
        fx = NewformFixture(name, 4, 11, field_poly, {"1": ["1"] + ["0"] * (len(field_poly) - 2)})
    else:
        fx, indices = fx81, (1, 3)
    return [(fx, pt) for n in indices for pt in find_residue_points(fx, n, ell)]


@pytest.mark.parametrize("name, ell", ORBIT_FIELD_DEGREES)
def test_integer_orbits_and_tables_match_field_element_powers(fx81, name, ell):
    """Each image's `_frobenius` orbit and each point's power tables, against powers in the reference field."""
    seen = set()
    for fx, pt in _orbit_fixture_points(fx81, name, ell):
        R, n = field_of(pt), pt.cyclo_index
        seen.add(R.d)
        orbits = []
        for image in (pt.alpha_image, pt.zeta_image):
            if image is not None:
                orbit = _orbit(image, lambda x: residues._frobenius(x, pt.modulus, ell))
                assert orbit == _orbit(image, lambda x: frobenius_reference(R, x)), (n, image)
                orbits.append(len(orbit))
        assert math.lcm(*orbits) == pt.degree
        a, z = pt.alpha_image, R.one if pt.zeta_image is None else pt.zeta_image
        assert pt.rows == tuple(zip(*(R.pow(a, i) for i in range(fx.degree())))), n
        assert pt.zeta_rows == tuple(zip(*(R.pow(z, j) for j in range(n)))), n
    assert seen == ORBIT_FIELD_DEGREES[name, ell]


def _plain(x) -> bool:
    return x is None or type(x) is int or type(x) is tuple and all(map(_plain, x))


@pytest.mark.parametrize("name, ell", ORBIT_FIELD_DEGREES)
def test_residue_points_are_plain_data(fx81, name, ell):
    """Every field of a point is an int, None or a tuple of them: no FiniteField, no memo."""
    for _, pt in _orbit_fixture_points(fx81, name, ell):
        assert all(_plain(getattr(pt, f.name)) for f in dataclasses.fields(pt)), pt
        assert set(vars(pt)) == {f.name for f in dataclasses.fields(pt)}  # nothing cached beside them


def test_reduce_vector_matches_horner_on_every_fixture_coefficient():
    points = _bundled_points()
    assert any((pt.ell, len(pt.modulus) - 1) == (43, 3) for _, pt in points)
    for fx, pt in points:
        for n in sorted(fx.an):
            assert pt.vector_image(fx.a(n)) == reduce_vector_reference(pt, fx.a(n)), (fx.label, describe(pt), n)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_reduce_vector_matches_horner(data):
    fx, pt = data.draw(st.sampled_from(_bundled_points()))
    denominators = st.integers(1, 10 ** 6).filter(lambda d: d % pt.ell)
    rationals = st.builds(Fraction, st.integers(-(10 ** 12), 10 ** 12), denominators)
    coordinates = st.one_of(st.integers(-(10 ** 40), 10 ** 40), rationals)
    vec = data.draw(st.lists(coordinates, min_size=1, max_size=fx.degree()))
    assert pt.vector_image(vec) == reduce_vector_reference(pt, vec)


def test_reduce_vector_denominator_obstruction_message(fx81):
    pt = find_residue_points(fx81, 1, 7)[0]
    with pytest.raises(
        DenominatorObstruction, match=r"^coefficient of alpha: denominator 14 is divisible by 7$"
    ):
        pt.vector_image([Fraction(1), Fraction(3, 14), Fraction(0), Fraction(0)])


@pytest.mark.parametrize("ell", [7, 13, 43])
def test_zeta_table_images_match_horner_at_every_81_6c_point(fx81, ell):
    """x in Q(zeta_m), m | n, maps through the zeta-power table as through embedding and Horner at zeta."""
    rng = random.Random(f"zeta-table:{ell}")
    for n in (2, 3, 6):
        points = find_residue_points(fx81, n, ell)
        assert points
        for pt in points:
            for m in (m for m in range(1, n + 1) if n % m == 0):
                for _ in range(5):
                    x = CycloElement(m, [Fraction(rng.randint(-10 ** 9, 10 ** 9), rng.choice((1, 2, 5, 12, 55)))
                                         for _ in range(euler_phi(m))])
                    residues_ = [residue(c, ell) for c in x.coeffs]
                    assert pt.cyclo_image(residues_, m) == reduce_cyclo_reference(pt, x), (n, m, x)
        with pytest.raises(DomainError):
            points[0].cyclo_image([1, 1, 1, 1], 4)


def test_denominator_obstruction_routes_to_norm_mode(fx81):
    with pytest.raises(DenominatorObstruction):
        find_residue_points(fx81, 3, 2)


def test_denominator_obstruction_names_the_smallest_index():
    data = _base_fixture_dict()
    data["an"].update({"7": ["1/3", "0"], "6": ["1/2", "3"], "4": ["0", "2/9"], "5": ["5/6"], "3": ["9", "27"]})
    fx = NewformFixture.from_dict(data)
    assert fx.denominator_lcm == 18
    for ell, idx in ((3, 4), (2, 5)):
        with pytest.raises(DenominatorObstruction, match=f"^a_{idx} has denominator divisible by {ell}$"):
            find_residue_points(fx, 1, ell)
    assert find_residue_points(fx, 1, 5)


def test_integer_coordinates_never_obstruct():
    data = _base_fixture_dict()
    data["an"].update({"3": ["9", "27"], "4": ["-2.0", "3/1"], "5": ["9/2", "-81"]})
    fx = NewformFixture.from_dict(data)
    assert fx.denominator_lcm == 2
    assert [type(c) for c in fx.a(3) + fx.a(4)] == [int, int, Fraction, Fraction]
    assert find_residue_points(fx, 1, 3)
    fx = NewformFixture("t", 4, 11, [-2, -2, 1], {1: [1], 2: [0, 1], 3: [9, 27]})
    assert fx.denominator_lcm == 1 and find_residue_points(fx, 1, 3)


def test_residue_points_input_validation(fx11_4):
    with pytest.raises(DomainError):
        find_residue_points(fx11_4, 1, 15)
    with pytest.raises(DomainError):
        find_residue_points(fx11_4, 0, 5)


# -- compositum norms ---------------------------------------------------------------


def test_compositum_norm_known_value():
    # product over roots of x^2 - 2 and z^2 + 1 of (alpha - zeta) = 9
    f = [-2, 0, 1]
    assert compositum_norm([0, 1], [0, 1], f, 4) == 9


def test_compositum_norm_zero_when_images_collide():
    # P(alpha) = 1 for alpha = 1; Q(zeta) = -zeta^2 = 1 for zeta = +-i
    assert compositum_norm([0, 0, 1], [0, 0, -1], [-1, 1], 4) == 0


def test_compositum_norm_against_numeric_product():
    f = [792, -72, -84, 3, 1]
    phi = [1, 1, 1]  # zeta_3
    P = [Fraction(0), Fraction(1)]  # alpha itself
    Q = [Fraction(-1), Fraction(2)]  # 2 zeta - 1
    exact = compositum_norm(P, Q, f, 3)
    with mpmath.workdps(40):
        alphas = mpmath.polyroots([mpmath.mpf(c) for c in reversed(f)], maxsteps=200)
        zetas = mpmath.polyroots([mpmath.mpf(c) for c in reversed(phi)], maxsteps=200)
        prod = mpmath.mpc(1)
        for a in alphas:
            for z in zetas:
                prod *= a - (2 * z - 1)
        target = mpmath.mpf(exact.numerator) / exact.denominator
        assert abs(prod - target) < 1e-20 * (1 + abs(target))


def test_compositum_norm_rejects_constant_minimal_polys():
    with pytest.raises(DomainError):
        compositum_norm([0, 1], [0, 1], [5], 4)


# -- fixture validation ---------------------------------------------------------------


def _base_fixture_dict():
    return {
        "label": "test",
        "weight": 4,
        "level": 11,
        "field_poly": [-2, -2, 1],
        "an": {"1": ["1"], "2": ["0", "1"]},
        "non_cm": True,
    }


def test_fixture_short_vectors_are_zero_padded():
    fx = NewformFixture.from_dict(_base_fixture_dict())
    assert fx.a(1) == (Fraction(1), Fraction(0))
    assert fx.a(2) == (Fraction(0), Fraction(1))
    assert fx.n_max == 2 and fx.degree() == 2


def test_fixture_accepts_the_documented_number_forms():
    data = _base_fixture_dict()
    data["an"]["3"] = ["-3/2", "-2.0"]
    assert NewformFixture.from_dict(data).a(3) == (Fraction(-3, 2), Fraction(-2))
    # Python callers may use int keys and int coordinates
    fx = NewformFixture("t", 4, 11, [-2, -2, 1], {1: [1], 2: [0, 1]}, steinberg_signs={11: 1})
    assert fx.a(2) == (Fraction(0), Fraction(1)) and fx.steinberg_signs == {11: 1}


# int() accepts a subset of the strings Fraction() accepts, with the same value;
# the loader tries int() first, so it must accept and reject what Fraction(str) does.
PARSE_EDGE_CASES = [
    "7", " 7", "+7", "-0", "007", "1_000", "1e3", "-2.0", "3/4", "1/0", "--1", "", "abc",
    "9" * 5000,
]


def _parses(kind, s) -> bool:
    try:
        kind(s)
    except (ValueError, ZeroDivisionError):
        return False
    return True


@pytest.mark.parametrize("s", PARSE_EDGE_CASES, ids=lambda s: repr(s)[:12])
def test_fixture_coordinates_parse_as_fraction_does(s):
    data = _base_fixture_dict()
    data["an"]["3"] = [s, "0"]
    if not _parses(Fraction, s):
        with pytest.raises(FixtureError, match="decimal strings"):
            NewformFixture.from_dict(data)
        return
    got = NewformFixture.from_dict(data).a(3)[0]
    assert got == Fraction(s)
    assert type(got) is (int if _parses(int, s) else Fraction)


def test_fixture_vector_mixing_an_int_string_with_a_fraction_string():
    data = _base_fixture_dict()
    data["an"]["3"] = ["3", "1/2"]
    got = NewformFixture.from_dict(data).a(3)
    assert got == (3, Fraction(1, 2)) and [type(c) for c in got] == [int, Fraction]


@pytest.mark.parametrize("vec", [["3", 1.5], ["1/2", 2.0], ["3", True], [0, False]], ids=repr)
def test_fixture_rejects_a_float_or_bool_after_valid_coordinates(vec):
    data = _base_fixture_dict()
    data["an"]["3"] = vec
    message = f"coefficient entries must be decimal strings, got {vec[-1]!r}"
    with pytest.raises(FixtureError, match=f"^{re.escape(message)}$"):
        NewformFixture.from_dict(data)


def test_fixture_rejects_a_key_given_twice(tmp_path):
    with open(fixture_path("11-4a.json"), encoding="utf-8") as fh:
        text = fh.read()
    assert '"2": [' in text and '"weight": 4' in text
    for dup, key in ((text.replace('"2": [', '"2": ["7", "0"],\n    "2": [', 1), "'2'"),
                     (text.replace('"weight": 4', '"weight": 4,\n  "weight": 6', 1), "'weight'")):
        p = tmp_path / "dup.json"
        p.write_text(dup, encoding="utf-8")
        message = f"fixture is not valid JSON: key {key} appears twice in one JSON object"
        with pytest.raises(FixtureError, match=f"^{message}$"):
            NewformFixture.from_json_file(p)
        proc = run_cli("verify", "--form", p, "--ell", 7)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == f"error: malformed fixture: {message}\n"


def test_fixture_rejections():
    bad = _base_fixture_dict()
    bad["field_poly"] = [-2, -2, 3]
    with pytest.raises(FixtureError, match="monic"):
        NewformFixture.from_dict(bad)

    bad = _base_fixture_dict()
    bad["field_poly"] = [-1, 0, 1]  # x^2 - 1 is reducible
    with pytest.raises(FixtureError, match="reducible"):
        NewformFixture.from_dict(bad)

    bad = _base_fixture_dict()
    bad["an"] = {"1": ["2"]}
    with pytest.raises(FixtureError, match="a_1"):
        NewformFixture.from_dict(bad)

    bad = _base_fixture_dict()
    bad["an"]["3"] = ["1", "0", "5"]
    with pytest.raises(FixtureError, match="coordinates"):
        NewformFixture.from_dict(bad)

    bad = _base_fixture_dict()
    bad["weight"] = 3
    with pytest.raises(FixtureError, match="weight"):
        NewformFixture.from_dict(bad)

    bad = _base_fixture_dict()
    del bad["field_poly"]
    with pytest.raises(FixtureError, match="missing"):
        NewformFixture.from_dict(bad)

    bad = _base_fixture_dict()
    bad["an"]["0"] = ["1"]
    with pytest.raises(FixtureError, match="out of range"):
        NewformFixture.from_dict(bad)

    bad = _base_fixture_dict()
    bad["non_cm"] = "yes"
    with pytest.raises(FixtureError, match="non_cm must be a bool"):
        NewformFixture.from_dict(bad)


def test_quadratic_field_poly_irreducibility_matches_sympy():
    import sympy

    # the grid holds discriminants b^2 - 4c that are 0, negative, squares and non-squares
    x = sympy.Symbol("x")
    for b, c in itertools.product(range(-30, 31), repeat=2):
        assert _is_irreducible_over_q([c, b, 1]) == sympy.Poly([1, b, c], x).is_irreducible, (b, c)


@pytest.mark.parametrize("field_poly", [[-4, 0, 1], [0, 0, 1], [1, 2, 1], [-6, 1, 1]])
def test_reducible_quadratic_fixture_is_a_usage_error(tmp_path, field_poly):
    p = tmp_path / "reducible.json"
    p.write_text(json.dumps({"label": "toy", "weight": 2, "level": 11, "field_poly": field_poly,
                             "an": {"1": ["1", "0"], "2": ["-2", "0"]}}), encoding="utf-8")
    with pytest.raises(FixtureError, match="^field_poly is reducible over Q$"):
        NewformFixture.from_json_file(p)
    proc = run_cli("verify", "--form", p, "--ell", 7)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "error: malformed fixture: field_poly is reducible over Q\n"


def test_fixture_accepts_non_cm_and_keeps_nothing_of_it():
    for data in (_base_fixture_dict(), {**_base_fixture_dict(), "non_cm": False}):
        assert not hasattr(NewformFixture.from_dict(data), "non_cm")
    base = _base_fixture_dict()
    del base["non_cm"]
    assert NewformFixture.from_dict(base).an == NewformFixture.from_dict(_base_fixture_dict()).an


def test_fixture_steinberg_validation():
    good = {
        "label": "t",
        "weight": 2,
        "level": 11,
        "field_poly": [0, 1],
        "an": {"1": ["1"], "11": ["1"]},
        "steinberg_signs": {"11": 1},
    }
    fx = NewformFixture.from_dict(good)
    assert fx.steinberg_signs == {11: 1}

    bad = dict(good)
    bad["steinberg_signs"] = {"11": 2}
    with pytest.raises(FixtureError, match="sign"):
        NewformFixture.from_dict(bad)

    bad = dict(good)
    bad["steinberg_signs"] = {"7": 1}  # 7 does not divide 11
    with pytest.raises(FixtureError, match="exactly divide"):
        NewformFixture.from_dict(bad)

    bad = dict(good)
    bad["an"] = {"1": ["1"], "11": ["-1"]}  # contradicts sign +1
    with pytest.raises(FixtureError, match="contradicts"):
        NewformFixture.from_dict(bad)


def test_fixture_level_square_divisor_forces_vanishing_ap():
    bad = {
        "label": "t",
        "weight": 6,
        "level": 81,
        "field_poly": [0, 1],
        "an": {"1": ["1"], "3": ["1"]},
    }
    with pytest.raises(FixtureError, match="vanish"):
        NewformFixture.from_dict(bad)


def test_fixture_from_json_file_errors(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json", encoding="utf-8")
    with pytest.raises(FixtureError, match="JSON"):
        NewformFixture.from_json_file(p)
    for raw in (b"\xff\xfe{}", b"[" * 100_000 + b"]" * 100_000):  # not UTF-8; nested too deep
        p.write_bytes(raw)
        with pytest.raises(FixtureError, match="JSON"):
            NewformFixture.from_json_file(p)
    p2 = tmp_path / "ok.json"
    p2.write_text(json.dumps(_base_fixture_dict()), encoding="utf-8")
    fx = NewformFixture.from_json_file(p2)
    with pytest.raises(DomainError):
        fx.a(50)


class _Unvalidated(NewformFixture):
    """A fixture whose load stops after parsing, so any a_n dict can be compared."""

    def _validate(self):
        pass


_GOOD_KEYS = st.integers(1, 12).map(str)
_ODD_KEYS = st.sampled_from(["0", "01", "-1", " 2", "١", "2 ", "", "+3"]) | st.integers(-1, 12)
_GOOD_ENTRIES = st.integers(-(10 ** 30), 10 ** 30).map(str)
_ODD_ENTRIES = (
    st.sampled_from(["3/4", "-6/4", "1/0", "2.5", "1e3", " 7", "1_000", "١٢", "x", "", "--1"])
    | st.integers(-50, 50) | st.floats(allow_nan=False, allow_infinity=False) | st.booleans()
    | st.none() | st.lists(st.integers(0, 3), max_size=2)
)


@st.composite
def _an_dicts(draw):
    """(an, deg): mostly well formed, so the one-pass path runs, with odd keys, lengths and entries mixed in."""
    deg = draw(st.integers(0, 3))
    odd = draw(st.integers(0, 3))  # 0: keys, 1: vector lengths, 2: entries, 3: vector types
    keys = draw(st.lists(_GOOD_KEYS | _ODD_KEYS if odd == 0 else _GOOD_KEYS, max_size=8, unique=True))
    entries = _GOOD_ENTRIES | _ODD_ENTRIES if odd == 2 else _GOOD_ENTRIES
    sizes = st.integers(0, deg + 1) if odd == 1 else st.just(deg)
    an = {}
    for key in keys:
        size = draw(sizes)
        vec = draw(st.lists(entries, min_size=size, max_size=size))
        if odd == 3 and draw(st.booleans()):
            vec = draw(st.sampled_from([tuple(vec), "1", 1, None, {"0": "1"}]))
        an[key] = vec
    return an, deg


@settings(max_examples=400, deadline=None)
@given(_an_dicts())
@example(({"1": ["1", "0"], "2": ["5", "7"]}, 2))
@example(({"1": [], "2": []}, 0))
@example(({"1": ["1"], "2": ["3/4"]}, 1))
@example(({"1": ["1", "0"], "0": ["1", "0"]}, 2))
def test_one_pass_loader_matches_the_entry_by_entry_parser(case):
    an, deg = case
    field_poly = [0] * deg + [1]
    try:
        want = parse_an_reference(an, deg)
    except FixtureError as exc:
        with pytest.raises(FixtureError) as got:
            _Unvalidated("t", 2, 11, field_poly, an)
        assert str(got.value) == str(exc)
        return
    fx = _Unvalidated("t", 2, 11, field_poly, an)
    got = (fx.an, fx.denominator_lcm, fx.n_max)
    assert got == want
    assert [(n, [type(c) for c in v]) for n, v in fx.an.items()] == [
        (n, [type(c) for c in v]) for n, v in want[0].items()
    ]
