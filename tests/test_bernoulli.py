from fractions import Fraction

import mpmath
import pytest

from excprimes import (
    DomainError,
    VacuousClauseError,
    bernoulli_classical,
    bernoulli_generalized,
    bernoulli_norm_numerator,
    character_by_index,
    enumerate_characters,
    trivial_character,
)
from oracles import (
    bernoulli_generalized_by_polynomials,
    bernoulli_polynomial,
    is_rational,
    lvalue_numeric,
    rational_value,
    von_staudt_denominator,
)


def test_classical_values_and_odd_vanishing():
    assert bernoulli_classical(0) == 1
    assert bernoulli_classical(1) == Fraction(-1, 2)
    assert bernoulli_classical(2) == Fraction(1, 6)
    assert bernoulli_classical(12) == Fraction(-691, 2730)
    for m in range(3, 40, 2):
        assert bernoulli_classical(m) == 0
    with pytest.raises(DomainError):
        bernoulli_classical(-1)


def test_von_staudt_clausen_denominator():
    for m in range(2, 42, 2):
        assert bernoulli_classical(m).denominator == von_staudt_denominator(m)
    with pytest.raises(DomainError):
        von_staudt_denominator(5)


def test_bernoulli_polynomial_difference_identity():
    # B_m(x + 1) - B_m(x) = m x^(m-1)
    for m in (1, 2, 3, 5, 8):
        for x in (Fraction(0), Fraction(1, 3), Fraction(-7, 2), Fraction(4)):
            lhs = bernoulli_polynomial(m, x + 1) - bernoulli_polynomial(m, x)
            assert lhs == m * x ** (m - 1)
    assert bernoulli_polynomial(6, Fraction(0)) == bernoulli_classical(6)


def test_generalized_matches_the_polynomial_sum():
    # the integer power sums give the same element of Q(zeta_ord) as
    # f^(k-1) sum_a chi(a) B_k(a/f)
    cases = 0
    for f in (1, 3, 4, 5, 8, 9, 13, 16, 21, 25, 32):
        for chi in enumerate_characters(f, "primitive"):
            for k in (1, 2, 3, 6, 11, 22):
                got = bernoulli_generalized(k, chi)
                want = bernoulli_generalized_by_polynomials(k, chi)
                assert got == want and got.n == want.n == chi.order, (k, chi)
                cases += 1
    assert cases > 300


def test_generalized_reduces_to_classical_for_trivial_character():
    one = trivial_character()
    for k in (2, 4, 6, 8):
        b = bernoulli_generalized(k, one)
        assert is_rational(b) and rational_value(b) == bernoulli_classical(k)


def test_parity_vanishing():
    # B_{k,chi} = 0 exactly when chi(-1) != (-1)^k, except (k, f) = (1, 1)
    for f in (1, 3, 4, 5, 7, 8, 9):
        for chi in enumerate_characters(f, "primitive"):
            sign = 1 if chi.is_even() else -1
            for k in range(1, 7):
                b = bernoulli_generalized(k, chi)
                if k == 1 and f == 1:
                    assert rational_value(b) == Fraction(1, 2)
                elif sign == (-1) ** k:
                    assert b, f"B_{k} of chi({f},{chi.index}) unexpectedly zero"
                else:
                    assert not b


def test_generalized_requires_primitive():
    imprimitive = character_by_index(9, 3)
    with pytest.raises(DomainError):
        bernoulli_generalized(4, imprimitive)


def test_norm_numerator_frozen_value_and_vacuous_clause():
    nu = character_by_index(9, 2)
    fac = bernoulli_norm_numerator(6, nu)
    assert fac.factors == ((7, 1), (43, 1), (1171, 1))
    odd_quadratic = character_by_index(4, 1)
    assert not odd_quadratic.is_even()
    with pytest.raises(VacuousClauseError):
        bernoulli_norm_numerator(6, odd_quadratic)


def test_numeric_lvalue_matches_zeta_and_euler_formula():
    one = trivial_character()
    with mpmath.workdps(40):
        got = lvalue_numeric(4, one, precision=40)
        assert abs(got - mpmath.zeta(4)) < 1e-30
        # zeta(4) = -(2 pi i)^4 / (2 * 4!) * B_4
        euler = -((2j * mpmath.pi) ** 4) / (2 * mpmath.factorial(4)) * Fraction(-1, 30)
        assert abs(got - euler) < 1e-30
    with pytest.raises(DomainError):
        lvalue_numeric(3, one)
    with pytest.raises(DomainError):
        lvalue_numeric(4, character_by_index(4, 1))


def test_small_known_values():
    # formerly checked on import of excprimes.bernoulli
    assert bernoulli_classical(6) == Fraction(1, 42)
    assert bernoulli_classical(0) == 1 and bernoulli_classical(3) == 0
    assert bernoulli_classical(1) == Fraction(-1, 2)
    assert bernoulli_polynomial(1, Fraction(1)) == Fraction(1, 2)  # B_1(1) = +1/2
    assert von_staudt_denominator(6) == 42
