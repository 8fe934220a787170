import math

import pytest
from hypothesis import given, settings, strategies as st

from excprimes import (
    DomainError,
    character_by_index,
    character_count,
    enumerate_characters,
    euler_phi,
    square_inverse_eps,
    trivial_character,
    zeta,
)
from excprimes.characters import _component_generators
from oracles import (
    conductor_reference, is_rational, is_trivial, primitive_associate_by_values, rational_value,
)


def test_character_count_is_euler_phi():
    for m in range(1, 60):
        assert character_count(m) == euler_phi(m)


def test_index_roundtrip_and_range_check():
    for m in (1, 2, 8, 9, 11, 12, 24, 45):
        for i in range(character_count(m)):
            assert character_by_index(m, i).index == i
        with pytest.raises(DomainError):
            character_by_index(m, character_count(m))
        with pytest.raises(DomainError):
            character_by_index(m, -1)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([3, 4, 5, 8, 9, 12, 16, 21, 40]),
    st.data(),
)
def test_values_are_completely_multiplicative(m, data):
    i = data.draw(st.integers(min_value=0, max_value=character_count(m) - 1))
    chi = character_by_index(m, i)
    a = data.draw(st.integers(min_value=0, max_value=3 * m))
    b = data.draw(st.integers(min_value=0, max_value=3 * m))
    assert chi.value(a) * chi.value(b) == chi.value(a * b)


def test_value_at_minus_one_matches_parity():
    for m in (3, 4, 5, 8, 9, 12, 16, 21):
        for chi in enumerate_characters(m, "all"):
            v = chi.value(m - 1)
            assert is_rational(v)
            expected = 1 if chi.parity() == "even" else -1
            assert rational_value(v) == expected
            assert chi.is_even() == (expected == 1)


def test_value_vanishes_off_units():
    chi = character_by_index(12, 1)
    for a in (0, 2, 3, 4, 6, 8, 9, 10):
        assert not chi.value(a)
    assert rational_value(chi.value(5)) == -1


def test_enumeration_filters():
    for m in (1, 2, 7, 8, 9, 12, 16, 45):
        allc = enumerate_characters(m, "all")
        even = enumerate_characters(m, "even")
        prim = enumerate_characters(m, "primitive")
        assert len(allc) == character_count(m)
        assert [c for c in allc if c.is_even()] == even
        assert [c for c in allc if c.is_primitive()] == prim
        # a character mod m is induced by a unique primitive character
        total = sum(
            len(enumerate_characters(f, "primitive"))
            for f in range(1, m + 1)
            if m % f == 0
        )
        assert total == character_count(m)
    with pytest.raises(DomainError):
        enumerate_characters(9, "odd-primitive")


def test_primitive_associate_agrees_on_units():
    for m in range(1, 61):
        for chi in enumerate_characters(m, "all"):
            chi0 = chi.primitive_associate()
            assert chi0.is_primitive()
            assert chi0.modulus == chi.conductor
            assert chi.conductor % chi0.conductor == 0
            for a in range(1, m + 1):
                if math.gcd(a, m) == 1:  # chi(a) = e^(2 pi i t) with t in [0, 1)
                    assert chi.value_exponent(a) == chi0.value_exponent(a)


def test_descent_matches_the_value_based_reference():
    for m in (64, 128, 243, 125, 343, 4 * 81 * 25):
        for chi in enumerate_characters(m, "all"):
            assert chi.conductor == conductor_reference(chi)
            chi0, ref = chi.primitive_associate(), primitive_associate_by_values(chi)
            assert (chi0.modulus, chi0.exponents) == (ref.modulus, ref.exponents)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 40487])
def test_generators_mod_p_f_are_reductions_of_those_mod_p_e(p):
    """The invariant the descent relies on; 40487 takes the g + p branch above p^1."""
    for e in range(1, 5):
        gens_e = _component_generators(p, e)
        for f in range(1, e + 1):
            gens_f = _component_generators(p, f)
            assert [g % p ** f for g, _ in gens_e[: len(gens_f)]] == [g for g, _ in gens_f]
            assert all(g % p ** f == 1 for g, _ in gens_e[len(gens_f):])
            if gens_f and len(gens_f) == len(gens_e):
                assert gens_e[-1][1] == gens_f[-1][1] * p ** (e - f)
    if p == 40487:  # its least primitive root 5 has 5^(p-1) = 1 mod p^2
        assert pow(5, p - 1, p * p) == 1
        assert [_component_generators(p, e)[0][0] for e in (1, 2, 3)] == [5, p + 5, p + 5]


def test_order_divides_group_order_and_matches_values():
    for m in (5, 8, 9, 16, 21):
        for chi in enumerate_characters(m, "all"):
            assert euler_phi(m) % chi.order == 0
            for a in range(1, m):
                if math.gcd(a, m) == 1:
                    v = chi.value(a) ** chi.order
                    assert is_rational(v) and rational_value(v) == 1


def test_group_structure():
    for m in (8, 9, 15):
        chars = enumerate_characters(m, "all")
        for chi in chars[:4]:
            ident = chi * chi.inverse()
            assert is_trivial(ident)
        with pytest.raises(DomainError):
            chars[0] * enumerate_characters(m + 1, "all")[0]


def test_square_inverse_eps_is_even_and_needs_primitive():
    for m in (5, 8, 9, 16, 21):
        for nu in enumerate_characters(m, "primitive"):
            eps = square_inverse_eps(nu)
            assert eps.is_even() and eps.is_primitive()
            # eps inverts the square: nu(a)^2 * eps(a) = 1 on units mod m
            for a in range(1, m):
                if math.gcd(a, m) == 1:
                    assert (nu.value(a) ** 2) * eps.value(a) == 1
    imprimitive = character_by_index(9, 3)
    assert not imprimitive.is_primitive()
    with pytest.raises(DomainError):
        square_inverse_eps(imprimitive)


def test_trivial_character_is_the_modulus_one_character():
    one = trivial_character()
    assert one.modulus == 1 and one.order == 1
    assert one.is_primitive() and one.is_even()
    assert rational_value(one.value(7)) == 1


def test_small_modulus_tables():
    # formerly checked on import of excprimes.characters
    assert len(enumerate_characters(9, "all")) == 6
    assert sorted(c.order for c in enumerate_characters(9, "primitive")) == [3, 3, 6, 6]
    assert [c.order for c in enumerate_characters(1, "all")] == [1]
    nu = character_by_index(9, 2)
    assert nu.value(2) == zeta(3) and nu.order == 3 and nu.is_primitive()
    assert nu.value(5) == zeta(3, 2)  # 2^5 = 5 mod 9
    assert not nu.value(3)
    assert nu.parity() == "even" and nu.conductor == 9
    assert square_inverse_eps(nu) == nu  # nu^3 = 1 so (nu^2)^(-1) = nu
    assert character_by_index(9, 3).conductor == 3  # quadratic factors through mod 3
    assert trivial_character().is_primitive()
    assert character_by_index(8, 1).conductor == 8 and character_by_index(8, 2).conductor == 4
