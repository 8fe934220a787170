from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from excprimes import (
    CycloElement,
    DomainError,
    cyclotomic_polynomial,
    euler_phi,
    zeta,
)
from excprimes.polys import resultant
from oracles import conj, embed_numeric, is_rational, rational_value


def test_cyclotomic_polynomial_basics():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(9) == (1, 0, 0, 1, 0, 0, 1)
    for n in range(1, 30):
        assert len(cyclotomic_polynomial(n)) == euler_phi(n) + 1


def test_product_of_cyclotomics_is_x_n_minus_one():
    for n in (1, 2, 6, 12, 15):
        prod = [Fraction(1)]
        for d in range(1, n + 1):
            if n % d == 0:
                phi_d = [Fraction(c) for c in cyclotomic_polynomial(d)]
                new = [Fraction(0)] * (len(prod) + len(phi_d) - 1)
                for i, a in enumerate(prod):
                    for j, b in enumerate(phi_d):
                        new[i + j] += a * b
                prod = new
        expected = [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)]
        assert prod == expected


def test_zeta_has_multiplicative_order_n():
    for n in (3, 4, 5, 8, 9, 12):
        z = zeta(n)
        acc = z
        for _ in range(n - 1):
            assert not (is_rational(acc) and rational_value(acc) == 1)
            acc = acc * z
        assert is_rational(acc) and rational_value(acc) == 1


def test_embed_preserves_arithmetic():
    x = zeta(3) + 2
    y = x.embed(9)
    assert y.n == 9
    assert (x * x).embed(9) == y * y
    assert abs(embed_numeric(x, 30) - embed_numeric(y, 30)) < 1e-25
    with pytest.raises(DomainError):
        zeta(4).embed(9)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([1, 3, 4, 5, 8, 9]), st.data())
def test_norm_is_multiplicative(n, data):
    deg = euler_phi(n)
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=3)
    x = CycloElement(n, [data.draw(coeff) for _ in range(deg)])
    y = CycloElement(n, [data.draw(coeff) for _ in range(deg)])
    assert (x * y).norm() == x.norm() * y.norm()


def test_norm_against_embedding_product():
    x = CycloElement(5, [7])
    assert x.norm() == Fraction(7) ** 4
    w = 1 + 2 * zeta(5)
    assert w.norm() == 11  # 2^4 * Phi_5(-1/2)
    with mpmath.workdps(40):
        full = mpmath.mpc(1)
        for j in range(1, 5):
            root = mpmath.expjpi(mpmath.mpf(2 * j) / 5)
            full *= 1 + 2 * root
        assert abs(full - 11) < 1e-30


def test_conj_is_complex_conjugation():
    w = 1 + 2 * zeta(5) - zeta(5, 3)
    wc = conj(w)
    assert wc == 1 + 2 * zeta(5, 4) - zeta(5, 2)
    val = embed_numeric(w, 30)
    val_c = embed_numeric(wc, 30)
    assert abs(val.conjugate() - val_c) < 1e-12
    assert abs(embed_numeric(w * wc, 30).imag) < 1e-25


def test_division_and_inverse():
    z = zeta(9)
    x = 3 + z - 2 * z ** 4
    assert is_rational(x / x) and rational_value(x / x) == 1
    inv = x.inverse()
    assert rational_value(x * inv) == 1
    with pytest.raises(DomainError):
        CycloElement(9, [0]).inverse()


def test_mixed_order_arithmetic_lands_in_lcm_field():
    s = zeta(3) + zeta(4)
    assert s.n == 12
    assert s == zeta(12, 4) + zeta(12, 3)
    assert zeta(6) == -zeta(3, 2)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_resultant_swaps_with_sign(data):
    deg_f = data.draw(st.integers(min_value=1, max_value=4))
    deg_g = data.draw(st.integers(min_value=1, max_value=4))
    ints = st.integers(min_value=-6, max_value=6)
    f = [Fraction(data.draw(ints)) for _ in range(deg_f)]
    f.append(Fraction(data.draw(st.integers(1, 5))))
    g = [Fraction(data.draw(ints)) for _ in range(deg_g)]
    g.append(Fraction(data.draw(st.integers(1, 5))))
    assert resultant(f, g) == (-1) ** (deg_f * deg_g) * resultant(g, f)


def test_resultant_detects_common_root():
    # f = (x - 2)(x + 1) and g = (x - 2)(x - 5) share the root 2
    f = [Fraction(-2), Fraction(-1), Fraction(1)]
    g = [Fraction(10), Fraction(-7), Fraction(1)]
    assert resultant(f, g) == 0


def test_small_known_values():
    # formerly checked on import of excprimes.cyclotomic
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    assert euler_phi(81) == 54 and euler_phi(1) == 1
    assert zeta(3) + zeta(3, 2) == -1
    assert zeta(6) == -zeta(3, 2)
    assert (zeta(4) + 1).norm() == 2
    assert (zeta(3) * 751 + 1172).norm() == 3 * 7 * 43 * 1171
    assert (zeta(5) + 2) * (zeta(5) + 2).inverse() == 1
    assert conj(zeta(12)) * zeta(12) == 1
    assert str(zeta(3) * Fraction(-31) - 32) == "-32-31*z"
