from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from excprimes import DomainError, polys
from excprimes.cyclotomic import cyclotomic_polynomial
from excprimes.residues import FiniteField


def test_resultant_known_values():
    assert polys.resultant([1, 1, 1], [-1, 1]) == 3  # Res(x^2+x+1, x-1) = value at 1
    assert polys.resultant([-1, 1], [1, 1, 1]) == 3  # deg product even: same sign
    assert polys.resultant([Fraction(1, 2), 1], [1, 0, 1]) == Fraction(5, 4)  # (x+1/2): x^2+1 at -1/2


def test_quo_rem_known_value():
    assert polys.quo_rem([Fraction(1), 0, 1], [1, Fraction(1)]) == ([-1, 1], [2])
    # a non-monic int divisor divides exactly: (x^2 + 1) = (x/2 - 1/4)(2x + 1) + 5/4
    q, r = polys.quo_rem([1, 0, 1], [1, 2])
    assert (q, r) == ([Fraction(-1, 4), Fraction(1, 2)], [Fraction(5, 4)])
    assert not any(isinstance(c, float) for c in q + r)
    assert polys.monic([2, 4]) == [Fraction(1, 2), 1]


def test_non_exact_division_raises():
    with pytest.raises(DomainError, match="not exact"):
        polys.exact_quo([Fraction(1), 0, 1], [Fraction(1), 1])  # x^2 + 1 by x + 1
    F = FiniteField(7, 2)
    x_plus_one = [F.one(), F.one()]
    with pytest.raises(DomainError, match="not exact"):
        polys.exact_quo([F.one(), F.zero(), F.one()], x_plus_one)
    assert polys.exact_quo([F.one(), F.element(2), F.one()], x_plus_one) == x_plus_one
    with pytest.raises(DomainError):
        polys.quo_rem([Fraction(1)], [])


def test_cyclotomic_division_stays_integral():
    # Phi_12 from x^12 - 1 by monic integer divisors, with no Fraction in sight
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    assert all(type(c) is int for c in cyclotomic_polynomial(30))


def _rationals():
    return st.fractions(min_value=-20, max_value=20, max_denominator=7)


@settings(max_examples=80, deadline=None)
@given(st.lists(_rationals(), max_size=6), st.lists(_rationals(), min_size=1, max_size=4))
def test_division_identity_over_q(f, g):
    g = polys.trim(g)
    if not g:
        return
    q, r = polys.quo_rem(f, g)
    assert polys.add(polys.mul(q, g), r) == polys.trim(f)
    assert polys.degree(r) < polys.degree(g)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([(2, 3), (5, 1), (5, 2), (43, 3)]),
    st.lists(st.lists(st.integers(0, 42), min_size=3, max_size=3), min_size=1, max_size=4),
    st.lists(st.lists(st.integers(0, 42), min_size=3, max_size=3), min_size=1, max_size=4),
    st.lists(st.lists(st.integers(0, 42), min_size=3, max_size=3), min_size=1, max_size=3),
)
def test_gcd_and_division_over_finite_fields(params, a, b, c):
    F = FiniteField(*params)
    a, b, c = ([F.element(v) for v in vs] for vs in (a, b, c))
    a, b, c = polys.trim(a), polys.trim(b), polys.trim(c)
    if not b or not c:
        return
    q, r = polys.quo_rem(a, b)
    assert polys.add(polys.mul(q, b), r) == a
    assert polys.degree(r) < polys.degree(b)
    # the gcd is monic and divides both; a common factor c survives in it
    ac, bc = polys.mul(a, c), polys.mul(b, c)
    g = polys.gcd(ac, bc)
    assert g[-1] == 1
    assert not polys.rem(ac, g) and not polys.rem(bc, g)
    assert not polys.rem(g, polys.monic(c))


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([(3, 1), (5, 2), (43, 3)]),
    st.lists(st.integers(0, 42), min_size=1, max_size=4),
    st.integers(1, 200),
)
def test_powmod_matches_repeated_multiplication(params, base, e):
    F = FiniteField(*params)
    m = [F.element(c) for c in (3, 1, 4, 1)]
    f = [F.element(c) for c in base]
    want = [F.one()]
    for _ in range(e):
        want = polys.rem(polys.mul(want, f), m)
    assert polys.powmod(f, e, m) == want
    with pytest.raises(DomainError):
        polys.powmod(f, 0, m)


def test_derivative_in_characteristic_p():
    F = FiniteField(3, 1)
    # d/dx (x^3 + 2x) = 3x^2 + 2 = 2 over F_3
    assert polys.derivative([F.zero(), F.element(2), F.zero(), F.one()]) == [F.element(2)]
    assert polys.derivative([Fraction(5), Fraction(0), Fraction(1, 2)]) == [0, 1]
