import math

import pytest

from excprimes import (
    DomainError,
    dim_cusp_forms,
    dim_new,
    level_invariants,
    sturm_bound,
)


def _tau(n: int) -> int:
    return sum(1 for d in range(1, n + 1) if n % d == 0)


def test_index_is_multiplicative_psi():
    # index(N) = N * prod over p | N of (1 + 1/p)
    for N in (1, 2, 11, 12, 81, 100, 1888):
        inv = level_invariants(N)
        expected = N
        m = N
        p = 2
        while p * p <= m:
            if m % p == 0:
                expected = expected // p * (p + 1)
                while m % p == 0:
                    m //= p
            p += 1
        if m > 1:
            expected = expected // m * (m + 1)
        assert inv.index == expected


def test_genus_formula_internal_consistency():
    for N in range(1, 200):
        inv = level_invariants(N)
        lhs = 12 * (inv.genus - 1) + 3 * inv.nu2 + 4 * inv.nu3 + 6 * inv.nu_inf
        assert lhs == inv.index
        assert inv.genus >= 0 and inv.nu_inf >= 1


def test_weight_two_dimension_is_the_genus():
    for N in range(1, 500):
        assert dim_cusp_forms(2, N) == level_invariants(N).genus


def test_frozen_dimensions():
    assert dim_cusp_forms(6, 81) == 39
    assert dim_cusp_forms(4, 11) == 2
    assert dim_cusp_forms(2, 11) == 1
    assert dim_new(6, 81) == 18
    assert dim_new(4, 11) == 2
    assert dim_new(2, 23) == 2
    assert dim_new(2, 1888) == 58
    assert dim_cusp_forms(12, 1) == 1  # the level-one weight-12 form


def test_old_new_decomposition():
    # dim S_k(N) = sum over M | N of tau(N/M) * dim S_k^new(M)
    for k in (2, 4, 6):
        for N in range(1, 300):
            total = sum(
                _tau(N // M) * dim_new(k, M)
                for M in range(1, N + 1)
                if N % M == 0
            )
            assert total == dim_cusp_forms(k, N), (k, N)


def test_new_dimensions_are_nonnegative_and_bounded():
    for k in (2, 4, 6, 8):
        for N in range(1, 150):
            d = dim_new(k, N)
            assert 0 <= d <= dim_cusp_forms(k, N)


def test_sturm_bound_values_and_monotonicity():
    assert sturm_bound(6, 81) == 54
    assert sturm_bound(2, 11) == 2
    assert sturm_bound(4, 11) == 4
    assert sturm_bound(2, 1) == 1
    for N in range(1, 100):
        idx = level_invariants(N).index
        for k in (2, 4, 6):
            s = sturm_bound(k, N)
            assert 12 * s >= k * idx > 12 * (s - 1)


def test_cusp_count_matches_divisor_sum():
    for N in (1, 4, 11, 12, 81, 90):
        inv = level_invariants(N)
        total = 0
        for d in range(1, N + 1):
            if N % d == 0:
                g = math.gcd(d, N // d)
                phi = sum(1 for a in range(1, g + 1) if math.gcd(a, g) == 1)
                total += phi
        assert inv.nu_inf == total


def test_rejects_bad_weights_and_levels():
    with pytest.raises(DomainError):
        dim_cusp_forms(3, 11)
    with pytest.raises(DomainError):
        dim_cusp_forms(0, 11)
    with pytest.raises(DomainError):
        level_invariants(0)


def test_small_known_values():
    # formerly checked on import of excprimes.dimensions
    assert level_invariants(11).genus == 1 and level_invariants(23).genus == 2
    assert dim_cusp_forms(2, 1) == 0 and dim_cusp_forms(2, 23) == 2
    assert dim_new(6, 81) == 18 and dim_cusp_forms(6, 81) == 39
    assert dim_new(4, 11) == 2 and dim_new(2, 23) == 2
    assert sturm_bound(6, 81) == 54 and sturm_bound(2, 23) == 4 and sturm_bound(2, 1) == 1
