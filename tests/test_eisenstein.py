import itertools
import math
import time
from fractions import Fraction

import pytest

import excprimes.eisenstein
from excprimes import (
    DomainError,
    QExpansion,
    TruncationError,
    character_by_index,
    eisenstein_E,
    enumerate_characters,
    eprime_twisted,
    eprime_weight2_steinberg,
    trivial_character,
)
from excprimes.eisenstein import _divisor_power_sums, _twisted_series, sigma_nu
from excprimes.verify import verify_fixture
from oracles import (
    apply_Tr,
    divisor_power_sums_reference,
    e2_series,
    eisenstein_E2u,
    eprime_twisted_by_subsets,
    eprime_weight2_by_operators,
    is_rational,
    rational_value,
    theta_operator,
    twist,
)


NU9 = character_by_index(9, 2)


def test_classical_E4_coefficients():
    e4 = eisenstein_E(4, trivial_character(), 6)
    assert rational_value(e4.coefficient(0)) == Fraction(1, 240)
    sigma3 = [1, 9, 28, 73, 126, 252]
    for n, want in enumerate(sigma3, start=1):
        got = e4.coefficient(n)
        assert type(got) is int and got == want


def test_eisenstein_E_input_validation():
    with pytest.raises(DomainError):
        eisenstein_E(3, trivial_character(), 5)
    with pytest.raises(DomainError):
        eisenstein_E(2, trivial_character(), 5)
    with pytest.raises(DomainError):
        eisenstein_E(4, character_by_index(9, 3), 5)  # imprimitive


# -- the memo of twisted series -------------------------------------------------

MEMO_MODULI = (3, 4, 5, 7, 8, 9)


@pytest.mark.parametrize("k", [2, 4, 6, 12])
def test_a_memo_hit_equals_a_fresh_build(k):
    _twisted_series.cache_clear()
    for c in MEMO_MODULI:
        for nu in enumerate_characters(c, "primitive"):
            for T in (5, 54):
                first = eisenstein_E(k, nu, T)
                hit = eisenstein_E(k, nu, T)
                fresh = _twisted_series.__wrapped__(k, nu, T)
                assert hit is first and hit == fresh, (k, nu, T)
                assert (hit.weight, hit.level, hit.truncation) == (k, c * c, T)
            short, long = eisenstein_E(k, nu, 5), eisenstein_E(k, nu, 54)
            assert long.coeffs[:6] == short.coeffs, (k, nu)


def test_a_domain_error_is_raised_on_every_call():
    _twisted_series.cache_clear()
    for _ in range(3):
        with pytest.raises(DomainError):
            eisenstein_E(5, NU9, 5)  # odd weight
        with pytest.raises(DomainError):
            eisenstein_E(6, character_by_index(9, 3), 5)  # imprimitive
    assert _twisted_series.cache_info().currsize == 0


def test_verify_at_a_second_prime_reuses_the_twisted_series(fx81, monkeypatch):
    _twisted_series.cache_clear()
    assert verify_fixture(fx81, 7).verdict == "certified"
    calls = []

    def counting(*args):
        calls.append(args)
        return sigma_nu(*args)

    monkeypatch.setattr(excprimes.eisenstein, "sigma_nu", counting)
    assert verify_fixture(fx81, 43).verdict == "certified"
    assert calls == []
    assert _twisted_series.cache_info().hits == 5


def test_eisenstein_E_accepts_odd_characters():
    # the series for nu has nebentypus nu^(-2), which is even for every nu,
    # so odd primitive nu is a valid input at even weight
    odd = character_by_index(4, 1)
    e = eisenstein_E(4, odd, 6)
    assert e.level == 16
    assert not e.coefficient(0)
    one = e.coefficient(1)
    assert is_rational(one) and rational_value(one) == 1
    # sigma_nu(k, nu, p) = nu(p) + nu^(-1)(p) p^(k-1) at primes
    assert e.coefficient(3) == odd.value(3) * (1 + 27)
    assert e.coefficient(5) == odd.value(5) * (1 + 125)


def test_truncation_discipline():
    f = QExpansion([Fraction(1), Fraction(2), Fraction(3)], 2, 1)
    assert f.truncation == 2
    with pytest.raises(TruncationError):
        f.coefficient(3)
    with pytest.raises(DomainError):
        f.coefficient(-1)
    with pytest.raises(AttributeError):
        f.coeffs = (Fraction(0),)


def test_E_is_a_Tr_eigenform():
    cases = [
        (eisenstein_E(4, trivial_character(), 24), trivial_character(), 4, (2, 3, 5)),
        (eisenstein_E(6, NU9, 25), NU9, 6, (2, 5)),
    ]
    for series, nu, k, primes in cases:
        for r in primes:
            assert series.level % r != 0
            lhs = apply_Tr(series, r)
            eigenvalue = sigma_nu(k, nu, r)
            assert list(lhs.coeffs) == [eigenvalue * c for c in series.coeffs[: lhs.truncation + 1]]


def test_sigma_nu_is_multiplicative():
    for k in (2, 6):
        for m, n in ((2, 5), (4, 7), (8, 5), (2, 25)):
            assert math.gcd(m, n) == 1
            prod = sigma_nu(k, NU9, m) * sigma_nu(k, NU9, n)
            assert prod == sigma_nu(k, NU9, m * n)


def test_Up_on_E2_splits_into_E2u_and_pE2():
    # U_p E_2 = E_2^(p) + p E_2, coefficientwise: sigma_1(pn) decomposes
    for p in (2, 3, 5):
        T = 30
        lhs = e2_series(T).coeffs[::p]
        rhs = [a + p * b for a, b in zip(eisenstein_E2u(p, T // p).coeffs, e2_series(T // p).coeffs)]
        assert list(lhs) == rhs


def test_E2u_series_shape():
    # the divisor sums against plain trial division over every m <= n
    for u in (2, 3, 6):
        e = eisenstein_E2u(u, 60)
        assert e.coefficient(0) == Fraction(u - 1, 24)
        for n in range(1, 61):
            want = sum(m for m in range(1, n + 1) if n % m == 0 and m % u)
            assert e.coefficient(n) == want
    e2 = e2_series(60)
    assert e2.coefficient(0) == Fraction(-1, 24)
    for n in range(1, 61):
        assert e2.coefficient(n) == sum(m for m in range(1, n + 1) if n % m == 0)
    with pytest.raises(DomainError):
        eisenstein_E2u(1, 5)


def test_twist_and_theta_operator():
    e4 = eisenstein_E(4, trivial_character(), 10)
    psi = character_by_index(4, 1)
    tw = twist(e4, psi)
    assert tw.level == math.lcm(e4.level, 16)
    for n in range(11):
        assert tw.coefficient(n) == psi.value(n) * e4.coefficient(n)
    th = theta_operator(e4)
    for n in range(11):
        assert th.coefficient(n) == n * e4.coefficient(n)


def test_weight2_steinberg_frozen_series():
    mod7 = eprime_weight2_steinberg([(11, 1)], 7, 5)
    assert mod7.coeffs == (1, 1, 3, 4, 0, 6)
    mod5 = eprime_weight2_steinberg([(11, 1)], 5, 5)
    assert mod5.coeffs == (0, 1, 3, 4, 2, 1)
    with pytest.raises(DomainError):
        eprime_weight2_steinberg([(11, 1)], 11, 5)
    with pytest.raises(DomainError):
        eprime_weight2_steinberg([(11, 2)], 7, 5)
    with pytest.raises(DomainError):
        eprime_weight2_steinberg([(11, 1), (11, -1)], 7, 5)


@pytest.mark.parametrize("primes, T, sign_vectors, ells", [
    ((11,), 60, [(1,), (-1,)], (5, 7, 13, 101)),
    ((41, 43), 30, list(itertools.product((1, -1), repeat=2)), (5, 7, 11, 13, 1009)),
    ((2, 3, 5, 7, 11), 15, [(1,) * 5, (-1,) * 5, (1, -1, 1, -1, 1), (-1, -1, 1, 1, -1)],
     (13, 17, 19, 1009)),
])
def test_weight2_steinberg_matches_the_operator_construction(primes, T, sign_vectors, ells):
    N = math.prod(primes)
    for vector in sign_vectors:
        signs = list(zip(primes, vector))
        exact = eprime_weight2_by_operators(signs, T)
        for ell in ells:
            want = tuple(c.numerator * pow(c.denominator, -1, ell) % ell for c in exact)
            E = eprime_weight2_steinberg(signs, ell, T)
            assert (E.coeffs, E.weight, E.level) == (want, 2, N), (signs, ell)


def _sigma_1(n: int) -> int:
    return sum(d + (n // d if d * d != n else 0) for d in range(1, math.isqrt(n) + 1) if n % d == 0)


def test_weight2_steinberg_at_a_three_prime_level_is_fast():
    signs, ell, T = [(41, 1), (43, -1), (47, 1)], 13, 100
    start = time.perf_counter()
    E = eprime_weight2_steinberg(signs, ell, T)
    assert time.perf_counter() - start < 1.0
    assert (E.truncation, E.level) == (T, 41 * 43 * 47)
    # a_n = sum over d | N of c_d sigma_1(n d), c_d = prod_{p | d} s_p prod_{p | N/d} (-p)
    for n in (1, 2, 41, 43, 47, 82, 94, 100):
        total = 0
        for chosen in itertools.product((False, True), repeat=3):
            d = c_d = 1
            for (p, s), in_d in zip(signs, chosen):
                d, c_d = (d * p, c_d * s) if in_d else (d, -p * c_d)
            total += c_d * _sigma_1(n * d)
        assert E.coefficient(n) == total % ell, n


# (signs, ell, T, eprime_weight2_steinberg(signs, ell, T).coeffs), recorded while it
# still composed U_p, truncate and reduce_mod on QExpansion objects.
WEIGHT2_PINNED = [
    ([(11, 1)], 13, 20, (8, 1, 3, 4, 7, 6, 12, 8, 2, 0, 5, 1, 2, 1, 11, 11, 5, 5, 0, 7, 3)),
    ([(11, -1)], 7, 20, (4, 5, 1, 6, 0, 2, 4, 5, 5, 2, 6, 1, 0, 0, 1, 1, 1, 6, 6, 2, 0)),
    ([(37, -1)], 5, 20, (2,) + (0,) * 20),
    ([(2, 1)], 7, 20, (5, 1, 1, 4, 1, 6, 4, 1, 1, 6, 6, 5, 4, 0, 1, 3, 1, 4, 6, 6, 6)),
    ([(5, 1), (7, -1)], 11, 20, (6, 7, 10, 6, 5, 7, 7, 8, 6, 3, 10, 7, 9, 10, 2, 6, 8, 5, 9, 8, 5)),
    ([(2, -1), (13, 1)], 5, 15, (1, 0, 2, 0, 1, 0, 3, 0, 4, 0, 2, 0, 4, 0, 1, 0)),
    ([(3, -1), (5, -1)], 7, 20, (6, 0, 0, 2, 0, 0, 6, 0, 0, 1, 0, 0, 0, 0, 0, 6, 0, 0, 3, 0, 0)),
    ([(7, 1), (11, 1)], 13, 20, (4, 1, 3, 4, 7, 6, 12, 1, 2, 0, 5, 1, 2, 1, 3, 11, 5, 5, 0, 7, 3)),
    ([(2, 1), (3, -1), (5, 1)], 7, 15, (3, 0, 0, 3, 0, 0, 3, 0, 0, 5, 0, 0, 3, 0, 0, 3)),
    ([(2, -1), (7, 1), (11, -1)], 5, 12, (4, 0, 4, 0, 2, 0, 1, 0, 3, 0, 4, 0, 3)),
    ([(3, 1), (5, -1), (13, -1)], 17, 12, (7, 8, 7, 8, 5, 15, 7, 13, 1, 8, 11, 11, 5)),
    ([(5, 1), (7, 1), (11, 1)], 13, 10, (10, 1, 3, 4, 7, 1, 12, 1, 2, 0, 3)),
]


def test_weight2_steinberg_pinned_shapes():
    for signs, ell, T, want in WEIGHT2_PINNED:
        level = math.prod(p for p, _ in signs)
        for order in (signs, signs[::-1]):  # the order of the signs is irrelevant
            E = eprime_weight2_steinberg(order, ell, T)
            assert (E.coeffs, E.weight, E.level) == (want, 2, level), (order, ell, T)


def test_eprime_twisted_coefficients():
    p = 2
    base = eisenstein_E(2, NU9, 20)
    prime = eprime_twisted(NU9, [p], 20)
    nu_inv_p = NU9.inverse().value(p)
    for n in range(1, 21):
        if n % p:
            assert prime.coefficient(n) == base.coefficient(n)
        else:
            want = base.coefficient(n) - p * nu_inv_p * base.coefficient(n // p)
            assert prime.coefficient(n) == want
    assert not prime.coefficient(0)
    with pytest.raises(DomainError):
        eprime_twisted(NU9, [3], 10)  # steinberg prime divides the modulus
    with pytest.raises(DomainError):
        eprime_twisted(trivial_character(), [2], 10)


@pytest.mark.parametrize("primes", [(2, 5), (5, 7, 11)])
@pytest.mark.parametrize("modulus", [3, 4, 9])
def test_eprime_twisted_matches_the_subset_expansion(modulus, primes):
    for nu in enumerate_characters(modulus, "primitive"):
        if any(modulus % p == 0 for p in primes):
            with pytest.raises(DomainError, match="divides the character modulus"):
                eprime_twisted(nu, primes, 40)
            continue
        want = eprime_twisted_by_subsets(nu, primes, 40)
        got = eprime_twisted(nu, primes[::-1], 40)
        assert (got.coeffs, got.weight, got.level) == (want.coeffs, want.weight, want.level)
        # the same str and the same field Q(zeta_n), also where a_n = 0
        assert [(str(c), c.n) for c in got.coeffs] == [(str(c), c.n) for c in want.coeffs], (nu, primes)


def test_steinberg_prime_one_is_rejected_before_any_loop():
    with pytest.raises(DomainError, match="steinberg prime 1 is not prime"):
        eprime_weight2_steinberg([(1, 1)], 7, 10)
    with pytest.raises(DomainError, match="steinberg prime 1 is not prime"):
        eprime_twisted(NU9, [1], 10)


def test_composite_steinberg_primes_are_rejected():
    with pytest.raises(DomainError, match="steinberg prime 4 is not prime"):
        eprime_twisted(NU9, [4], 10)
    with pytest.raises(DomainError, match="steinberg prime 4 is not prime"):
        eprime_weight2_steinberg([(4, 1)], 7, 10)


def test_steinberg_primes_are_read_once():
    from_generator = eprime_twisted(NU9, (p for p in [2]), 10)
    assert from_generator == eprime_twisted(NU9, [2], 10) and from_generator.level == 162
    with pytest.raises(DomainError, match="steinberg primes must be distinct"):
        eprime_twisted(NU9, (p for p in [2, 2]), 10)
    signs = iter([(11, 1)])
    assert eprime_weight2_steinberg(signs, 7, 5).coeffs == (1, 1, 3, 4, 0, 6)


def test_trivial_character_series_is_sigma_nu():
    nu = trivial_character()
    for k in range(4, 27, 2):
        E = eisenstein_E(k, nu, 300)
        assert (E.weight, E.level, E.truncation) == (k, 1, 300)
        for n in range(1, 301):
            assert E.coefficient(n) == sigma_nu(k, nu, n), (k, n)


@pytest.mark.parametrize("e", [1, 3, 5, 11, 13, 15, 17, 19, 21])
def test_multiplicative_sieve_matches_the_additive_one_at_every_truncation(e):
    full = divisor_power_sums_reference(e, 1500)
    for T in range(1501):
        assert _divisor_power_sums(e, T) == full[: T + 1], (e, T)


def test_e2_series_is_sigma_1():
    E2 = e2_series(300)
    assert (E2.weight, E2.level, E2.coefficient(0)) == (2, 1, Fraction(-1, 24))
    for n in range(1, 301):
        a_n = E2.coefficient(n)
        assert isinstance(a_n, Fraction)
        assert a_n == sum(m for m in range(1, n + 1) if n % m == 0)


def _tau_mod(p: int, T: int) -> list[int]:
    """tau(n) mod p for 0 <= n <= T, from Delta = q (sum (-1)^m (2m+1) q^(m(m+1)/2))^8 (Jacobi)."""
    cube = []
    m = 0
    while m * (m + 1) // 2 < T:
        cube.append((m * (m + 1) // 2, (-1) ** m * (2 * m + 1)))
        m += 1
    series = [1] + [0] * (T - 1)  # coefficients of q^0 .. q^(T-1)
    for _ in range(8):
        acc = [0] * T
        for e, c in cube:
            acc[e:] = [a + c * b for a, b in zip(acc[e:], series)]
        series = [a % p for a in acc]
    return [0] + series


def test_ramanujan_691_over_a_long_window():
    T = 2000
    tau = _tau_mod(691, T)
    assert tau[1:4] == [1, -24 % 691, 252]
    E12 = eisenstein_E(12, trivial_character(), T)
    a0 = rational_value(E12.coefficient(0))  # tau(0) = 0 and 691 | num(B_12)
    assert a0.numerator % 691 == 0 and a0.denominator % 691
    for n in range(1, T + 1):
        assert tau[n] == E12.coefficient(n) % 691, n

