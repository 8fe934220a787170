import math
import os
import random
import subprocess
import sys
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from excprimes import (
    DomainError,
    factorize,
    is_prime,
    lcm_pow_minus_one,
    primes_up_to,
)
from excprimes import exact
from excprimes.exact import factor_hints, parse_factor_hints
from oracles import ecm_curve_reference

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# -- an independent reference: Miller-Rabin, trial division and Floyd rho ------


def _ref_is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve prime bases; exact below 3.3e24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    for p in bases:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _ref_next_prime(n: int) -> int:
    while not _ref_is_prime(n):
        n += 1
    return n


def _ref_factor(n: int) -> Counter:
    """Trial division below 1000, then Floyd-cycle rho; for cofactors below ~1e20."""
    out = Counter()
    for p in range(2, 1000):
        while n % p == 0:
            out[p] += 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if _ref_is_prime(m):
            out[m] += 1
            continue
        c, g = 1, m
        while g == m:
            x = y = 2
            g = 1
            while g == 1:
                x = (x * x + c) % m
                y = (y * y + c) % m
                y = (y * y + c) % m
                g = math.gcd(x - y, m)
            c += 1
        stack += [g, m // g]
    return out


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=10 ** 9))
def test_factorize_remultiplies_with_prime_parts(n):
    fac = factorize(n)
    prod = 1
    for p, e in fac.factors:
        assert e >= 1 and is_prime(p)
        prod *= p ** e
    assert prod == n == fac.value


def test_factorize_zero_and_negatives():
    with pytest.raises(DomainError):
        factorize(0)
    neg = factorize(-12)
    assert neg.value == -12 and neg.factors == ((2, 2), (3, 1))


def test_primes_up_to_matches_is_prime():
    listed = primes_up_to(500)
    assert listed == [p for p in range(2, 501) if is_prime(p)]
    assert primes_up_to(1) == []


def test_primes_up_to_matches_trial_division_at_every_limit():
    reference = [n for n in range(2, 2001) if all(n % d for d in range(2, math.isqrt(n) + 1))]
    for limit in range(-2, 2001):
        assert primes_up_to(limit) == [p for p in reference if p <= limit], limit
    assert len(primes_up_to(65535)) == 6542 and primes_up_to(65535)[-1] == 65521


def test_lcm_pow_minus_one_value():
    # lcm(3^6 - 1, 3^4 - 1) = lcm(728, 80) = 7280
    assert lcm_pow_minus_one(3, 6) == 7280
    assert lcm_pow_minus_one(2, 4) == 15  # lcm(2^4 - 1, 2^2 - 1) = lcm(15, 3)


def test_factor_cache_roundtrip_and_corruption():
    table, warnings = parse_factor_hints([
        "84=2^2,3,7",
        "",
        "84=2^2,3,9",        # does not re-multiply
        "60=2^2,3,5,junk",   # unparsable token
        "90=2,45",           # 45 is not prime
    ])
    assert table == {84: ((2, 2), (3, 1), (7, 1))}  # corrupt lines rejected
    assert warnings == [f"ignoring corrupt factor hint: {line!r}"
                        for line in ("84=2^2,3,9", "60=2^2,3,5,junk", "90=2,45")]
    with factor_hints(table):
        assert factorize(84).factors == ((2, 2), (3, 1), (7, 1))
    assert not exact._hints


def test_factor_cache_rejects_a_prime_listed_twice():
    # "12=2,2,3" re-multiplies, but read as exponents 1, 1, 1 it would give
    # level 12 the index of level 18
    table, warnings = parse_factor_hints(["12=2,2,3"])
    assert table == {} and warnings == ["ignoring corrupt factor hint: '12=2,2,3'"]
    with factor_hints(table):
        assert factorize(12).factors == ((2, 2), (3, 1))


def test_factorize_known_values():
    # formerly checked on import of excprimes.exact
    assert factorize(14640).factors == ((2, 4), (3, 1), (5, 1), (61, 1))
    assert factorize(1).factors == ()
    assert factorize(-12).value == -12 and factorize(-12).factors == ((2, 2), (3, 1))
    assert lcm_pow_minus_one(11, 4) == 14640
    assert lcm_pow_minus_one(2, 4) == 15


_small = st.integers(2, 1 << 16).map(_ref_next_prime)
_medium = st.integers(1 << 16, 10 ** 9).map(_ref_next_prime)
_large = st.integers(10 ** 11, 10 ** 15).map(_ref_next_prime)


@settings(max_examples=20, deadline=None)
@given(
    st.lists(_small, max_size=4),
    st.lists(_medium, max_size=2),
    st.lists(_large, min_size=2, max_size=2),
)
def test_factorize_mixed_sizes_matches_reference(small, medium, large):
    # past trial division, ECM splits the medium primes and the two 12-15 digit ones
    n = math.prod(small + medium + large)
    fac = factorize(n)
    prod = 1
    for p, e in fac.factors:
        assert is_prime(p) and _ref_is_prime(p)
        prod *= p ** e
    assert prod == n == fac.value
    want = _ref_factor(math.prod(small + medium)) + Counter(large)
    assert fac.factors == tuple(sorted(want.items()))


def test_ecm_stages_split_known_curves(monkeypatch):
    p, q = 10 ** 12 + 39, 10 ** 12 + 61
    # sigma = 28: the point's order mod p is 2000-smooth, so stage 1 splits;
    # sigma = 7: that order has one prime above 2000, which stage 2 finds
    assert exact._ecm_curve(p * q, 28, 2000) == p
    assert exact._ecm_curve(p * q, 7, 2000) == p
    monkeypatch.setattr(exact, "_ECM_B2_FACTOR", 0)  # no giant steps
    assert exact._ecm_curve(p * q, 28, 2000) == p
    assert exact._ecm_curve(p * q, 7, 2000) == 1


# The numerator of N(B_(22,eps)/44) at level 81 has this 44-digit cofactor, a
# 20-digit prime times a 25-digit one: past the first row of the ECM schedule.
_HARD = 40777727573553220169573513548998928688891683


def test_new_curve_returns_the_reference_gcd():
    # the leaner curve multiplies only the stage-2 pairs m D +- j that are
    # prime; on these curves the gcd it returns is the step-by-step curve's
    ps = (1000003, 99990001, 10 ** 10 + 19, 10 ** 11 + 3, 10 ** 12 + 39, 10 ** 12 + 61)
    split = 0
    for p, q in zip(ps, ps[1:] + ps[:1]):
        n = p * q
        for sigma in range(6, 14):
            got = exact._ecm_curve(n, sigma, 2000)
            assert got == ecm_curve_reference(n, sigma, 2000), (p, q, sigma)
            split += 1 < got < n
    assert split >= 10


def test_ecm_budget_leaves_a_large_composite_as_a_cofactor():
    assert _HARD > exact._ECM_FULL_LIMIT and not is_prime(_HARD)
    assert exact._ecm(_HARD) is None
    fac = factorize(-6 * _HARD, partial=True)
    assert fac.factors == ((2, 1), (3, 1)) and fac.cofactor == _HARD
    assert fac.value == -6 * _HARD and fac.primes() == [2, 3]
    assert str(fac) == f"-2*3*({_HARD})"
    with pytest.raises(DomainError, match="44-digit composite part"):
        factorize(6 * _HARD)
    assert factorize(84, partial=True).cofactor == 1


def test_a_complete_cache_line_completes_a_partial_result():
    p, q = 16640620490166841687, 2450493213137653603679509
    assert p * q == _HARD and _ref_is_prime(p) and _ref_is_prime(q)
    assert factorize(_HARD, partial=True).cofactor == _HARD  # memoised
    table, warnings = parse_factor_hints([f"{_HARD}={p},{q}"])
    assert not warnings
    with factor_hints(table):
        fac = factorize(-_HARD)
    assert fac.cofactor == 1 and fac.factors == ((p, 1), (q, 1)) and fac.value == -_HARD
    # the hint is gone with its block, and never entered the memo
    assert not exact._hints
    assert factorize(_HARD, partial=True).cofactor == _HARD


def test_ecm_splits_a_product_of_two_13_digit_primes():
    p, q = 10 ** 12 + 39, 10 ** 12 + 61
    assert exact._ecm(p * q) in (p, q)
    assert factorize(7 * p * q).factors == ((7, 1), (p, 1), (q, 1))


def test_decimal_string_is_str_of_decimal():
    # 128-bit leaves, carries across the split at 10^k +- 1, both signs
    from decimal import Decimal

    edges = [0, 1, 2 ** 128 - 1, 2 ** 128, 2 ** 129 - 1, 2 ** 129]
    edges += [10 ** k + d for k in (38, 39, 100, 4300, 20_000) for d in (-1, 1)]
    rng = random.Random(14)
    randoms = [rng.choice((1, -1)) * rng.getrandbits(rng.randrange(1, 200_001)) for _ in range(50)]
    for n in [sign * n for n in edges for sign in (1, -1)] + randoms:
        assert exact.decimal_string(n) == str(Decimal(n)), n


def test_decimal_string_of_powers_of_ten_past_the_str_digit_limit():
    k = 300_000
    assert exact.decimal_string(10 ** k - 1) == "9" * k
    assert exact.decimal_string(-10 ** k) == "-1" + "0" * k


@pytest.mark.parametrize("p", [100003, 1000003, 99999989, 1000000007, 9999999967])
def test_ecm_budget_splits_small_factors_of_large_numbers(p):
    # past 10^32 only the first ECM row runs; it still finds a 6- to 10-digit
    # factor next to a 41-digit prime, with nothing left unfactored
    q = _ref_next_prime(10 ** 40)
    fac = factorize(p * q, partial=True)
    assert fac.cofactor == 1 and fac.factors == ((p, 1), (q, 1))


def test_factorize_perfect_powers_of_large_primes():
    p = _ref_next_prime(10 ** 20)
    assert factorize(p ** 2).factors == ((p, 2),)
    assert factorize(12 * p ** 3).factors == ((2, 2), (3, 1), (p, 3))


def test_factorize_memo_keeps_the_sign():
    n = 2 ** 4 * 3 * 1000000007
    pos = factorize(n)
    neg = factorize(-n)
    assert pos.value == n and neg.value == -n
    assert neg.factors == pos.factors == ((2, 4), (3, 1), (1000000007, 1))
    assert str(neg) == "-" + str(pos)


def test_factorization_checks_survive_python_O():
    code = f"""
import sys
from excprimes.exact import DomainError, FactoredInteger, parse_factor_hints
print(sys.flags.optimize)
print(parse_factor_hints(["12=2,2,3"]) == ({{}}, ["ignoring corrupt factor hint: '12=2,2,3'"]))
C, P = {_HARD}, {_ref_next_prime(10 ** 40)}
print(FactoredInteger(-6 * C, ((2, 1), (3, 1)), C).cofactor == C)
for value, factors, cofactor, error in (
    (12, ((2, 1), (3, 1)), 1, ArithmeticError),
    (12, ((1, 1), (2, 2), (3, 1)), 1, DomainError),
    (12, ((2, 2), (3, 0)), 1, DomainError),
    (12, ((3, 1), (2, 2)), 1, DomainError),
    (12, ((2, 1), (2, 1), (3, 1)), 1, DomainError),
    (12 * C, ((2, 1), (3, 1)), C, ArithmeticError),
    (2 * P, ((2, 1),), P, DomainError),
    (12, ((2, 2),), 3, DomainError),
    (2 * 10 ** 32, ((2, 1),), 10 ** 32, DomainError),
):
    try:
        FactoredInteger(value, factors, cofactor)
    except error:
        print("raised")
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "True", "True"] + ["raised"] * 9
