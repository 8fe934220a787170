import contextlib
import math
import re

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import iv

from excprimes import (
    DomainError,
    candidate_report,
    dihedral_candidates,
    dim_new,
    exceptional_image_candidates,
    factorize,
    is_prime,
    lcm_pow_minus_one,
    primes_up_to,
    reducible_candidates,
    reducible_primes,
)
from excprimes.bounds import _dihedral_bound, _ln_upper, _reducible


FROZEN_SETS = {
    (4, 11): [2, 3, 5, 11, 61],
    (6, 81): [2, 3, 5, 7, 43, 1171],
    (2, 11): [2, 3, 5, 11],
    (2, 12): [2, 3],
    (2, 8): [2, 3],
    (2, 25): [2, 3, 5],
    (2, 44): [2, 3, 5, 11],
    (2, 99): [2, 3, 5, 11],
    (2, 300): [2, 3, 5],
    (4, 176): [2, 3, 5, 11, 61],
    (6, 1): [2, 3, 5, 7],
    (8, 1): [2, 3, 5, 7],
}

# The full _reducible answer, {clause: primes} and the unfactored list, at one
# (k, N) per shape of the level: N = 1, square-free (k > 2 and k = 2), N = c^2
# with v_2 = 4 (no p^2 - 1 clause at 2), the weight-2 shape with v_2 = 4, and
# the general shape (v_2 = 3 forces 3, odd v_p >= 3 at 2 and 3; at k = 2 the
# vacuous p^0 = eta(p) clause is dropped).
SMALL = "small prime gate (ell <= k+1)"
LEVEL = "divides the level"
FROZEN_CLAUSES = {
    (12, 1): ({SMALL: [2, 3, 5, 7, 11, 13], "divides the numerator of B_k/2k": [691]}, []),
    (4, 11): ({
        SMALL: [2, 3, 5],
        LEVEL: [11],
        "divides gcd over p | N of lcm(p^k - 1, p^(k-2) - 1)": [2, 3, 5, 61],
    }, []),
    (2, 210): ({SMALL: [2, 3], LEVEL: [2, 3, 5, 7], "divides lcm over p | N of p^2 - 1": [2, 3]}, []),
    (4, 144): ({
        SMALL: [2, 3, 5],
        LEVEL: [2, 3],
        "p = 3 with v_p(N) = 2: ell divides p^2 - 1": [2],
        "norm of p^k - eps^(-1)(p) at p = 2, nu = chi(12,3)": [3, 5],
        "norm of p^k - eps^(-1)(p) at p = 3, nu = chi(12,3)": [2, 5],
    }, []),
    (2, 80): ({
        SMALL: [2, 3],
        LEVEL: [2, 5],
        "divides p - 1 for p = 5": [2],
        "norm of p^2 - nu^2(p) at p = 5, nu = chi(4,1)": [2, 3],
        "norm of p^2 - eps^(-1)(p) at p = 2, nu = chi(4,1)": [3],
    }, []),
    (2, 1080): ({
        SMALL: [2, 3],
        LEVEL: [2, 3, 5],
        "2-adic valuation of the level forces ell = 3": [3],
        "p = 2 with odd v_p(N) >= 3: ell divides p^2 - 1": [3],
        "p = 3 with odd v_p(N) >= 3: ell divides p^2 - 1": [2],
        "norm of p^2 - eta(p) at p = 5, eta = chi(6,0)": [2, 3],
    }, []),
    (4, 1080): ({
        SMALL: [2, 3, 5],
        LEVEL: [2, 3, 5],
        "2-adic valuation of the level forces ell = 3": [3],
        "p = 2 with odd v_p(N) >= 3: ell divides p^2 - 1": [3],
        "p = 3 with odd v_p(N) >= 3: ell divides p^2 - 1": [2],
        "norm of p^4 - eta(p) at p = 5, eta = chi(6,0)": [2, 3, 13],
        "norm of p^2 - eta(p) at p = 5, eta = chi(6,0)": [2, 3],
    }, []),
}

# Primes dividing the numerator of B_k/2k: the level-1 Eisenstein congruences
# (691 is Ramanujan's congruence for Delta).
LEVEL_ONE_PRIMES = {
    12: [691],
    16: [3617],
    18: [43867],
    20: [283, 617],
    22: [131, 593],
    26: [657931],
}


def test_frozen_reducible_sets():
    for (k, N), want in FROZEN_SETS.items():
        assert reducible_primes(k, N) == want, (k, N)


def test_frozen_clauses_per_level_shape():
    for (k, N), (clauses, unfactored) in FROZEN_CLAUSES.items():
        pairs = sorted((p, clause) for clause, primes in clauses.items() for p in primes)
        assert _reducible(k, N) == (pairs, unfactored), (k, N)


def test_level_one_bernoulli_clause():
    clause = "divides the numerator of B_k/2k"
    for k, want in LEVEL_ONE_PRIMES.items():
        pairs = reducible_candidates(k, 1)
        assert sorted(p for p, c in pairs if c == clause) == want, k
        assert reducible_primes(k, 1) == sorted(set(primes_up_to(k + 1)) | set(want)), k


def test_unconditional_gates_always_present():
    for k, N in ((2, 7), (4, 90), (6, 128), (8, 1)):
        got = set(reducible_primes(k, N))
        for ell in primes_up_to(k + 1):
            assert ell in got
        for p in factorize(N).primes() if N > 1 else ():
            assert p in got


def test_gcd_clause_attribution_at_prime_level():
    pairs = reducible_candidates(4, 11)
    clause = "divides gcd over p | N of lcm(p^k - 1, p^(k-2) - 1)"
    assert (61, clause) in pairs
    # 61 enters through lcm(11^4 - 1, 11^2 - 1) = 14640 = 2^4 * 3 * 5 * 61
    assert lcm_pow_minus_one(11, 4) == 14640
    assert all(isinstance(p, int) and isinstance(c, str) and c for p, c in pairs)
    assert pairs == sorted(pairs)


def test_square_level_clause_attribution():
    pairs = reducible_candidates(6, 81)
    big = [c for p, c in pairs if p == 1171]
    assert big and all("B_(k,eps)" in c for c in big)


def test_weight2_squarefree_uses_lcm_of_p2_minus_1():
    pairs = reducible_candidates(2, 11)
    clause = "divides lcm over p | N of p^2 - 1"
    assert (5, clause) in pairs and (3, clause) in pairs


def test_reducible_input_validation():
    with pytest.raises(DomainError):
        reducible_primes(3, 11)
    with pytest.raises(DomainError):
        reducible_primes(4, 0)


def test_weight_and_level_errors_read_the_same_in_every_family():
    cases = [
        (3, 11, "weight must be even and >= 2, got 3"),
        (0, 11, "weight must be even and >= 2, got 0"),
        (4, 0, "level must be positive, got 0"),
        (4, -9, "level must be positive, got -9"),
    ]
    for check in (_reducible, dihedral_candidates, exceptional_image_candidates):
        for k, N, message in cases:
            with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
                check(k, N)


def test_dihedral_squarefree_sets():
    rep = dihedral_candidates(2, 11)
    assert rep.squarefree and rep.bound is None
    assert rep.primes == (2, 3, 11)  # 2k - 1 = 3 is prime
    rep = dihedral_candidates(6, 11)
    assert rep.primes == (2, 3, 5, 11)  # 2k - 1 = 11 already present
    rep = dihedral_candidates(4, 15)
    assert rep.primes == (2, 3, 5, 7)  # includes 2k - 1 = 7
    assert rep.assumptions == ("newform assumed non-CM",)


def test_dihedral_bound_for_non_squarefree_levels():
    rep = dihedral_candidates(2, 1888, degree=5)
    assert not rep.squarefree and rep.primes is None
    assert rep.degree == 5 and rep.bound > 0
    smaller = dihedral_candidates(2, 1888, degree=1)
    assert smaller.bound < rep.bound
    # default degree comes from the new-subspace dimension
    auto = dihedral_candidates(2, 1888)
    assert auto.degree == 58
    d = rep.to_dict()
    assert d["bound"] == str(rep.bound) and d["degree"] == 5


@pytest.mark.parametrize("k, N, dim", [(2, 1888, 58), (6, 81, 18), (4, 4, 0), (2, 11, 1), (12, 1, 1)])
def test_degree_above_the_new_dimension_is_outside_the_domain(k, N, dim):
    """A newform's Galois conjugates are distinct newforms, so its degree is at most dim S_k^new."""
    assert dim_new(k, N) == dim
    if dim:
        assert dihedral_candidates(k, N, degree=dim).degree in (dim, None)
        match = rf"<= dim S_{k}\^new\(Gamma_0\({N}\)\) = {dim}, got {dim + 1}$"
    else:
        match = rf"^no newform to bound: dim S_{k}\^new\(Gamma_0\({N}\)\) = 0$"
    with pytest.raises(DomainError, match=match):
        dihedral_candidates(k, N, degree=dim + 1)


@pytest.mark.parametrize("k, N", [(2, 1), (4, 1), (2, 2), (2, 4), (4, 4)])
@pytest.mark.parametrize("degree", [None, 0, 1])
def test_a_level_with_no_newform_has_no_bound_at_any_shape(k, N, degree):
    """dim S_k^new = 0 is one DomainError, read before any degree check, square-free or not."""
    assert dim_new(k, N) == 0
    with pytest.raises(DomainError, match=rf"^no newform to bound: dim S_{k}\^new\(Gamma_0\({N}\)\) = 0$"):
        dihedral_candidates(k, N, degree)


# The non-square-free points of the benchmark's bound grid.
NON_SQUAREFREE_GRID = [(k, n) for k in (2, 4, 6, 8, 12, 16, 20, 22) for n in (81, 121, 225, 441, 1089)]


@contextlib.contextmanager
def _iv_prec(bits):
    saved, iv.prec = iv.prec, bits
    try:
        yield
    finally:
        iv.prec = saved


@pytest.mark.parametrize("k, N, D", [(k, n, dim_new(k, n)) for k, n in NON_SQUAREFREE_GRID]
                         + [(2, 1888, D) for D in range(1, 6)])
def test_exact_dihedral_bound_is_a_tight_upper_bound(k, N, D):
    # V = (2 q^((k-1)/2))^D, q = 4.8 k N^2 (1 + ln ln N), compared in log space
    # with mpmath interval arithmetic: outward rounding makes each assertion a
    # proof of V <= bound <= (1 + 2^-50) V + 1
    bound = dihedral_candidates(k, N, D).bound
    assert bound == _dihedral_bound(k, N, D)
    with _iv_prec(300):
        q = iv.mpf(24) / 5 * k * iv.mpf(N) ** 2 * (1 + iv.log(iv.log(N)))
        log_v = D * (iv.log(2) + (k - 1) * iv.log(q) / 2)
        assert iv.log(bound).a >= log_v.b
        assert iv.log(bound - 1).b <= (log_v + iv.log(1 + iv.mpf(2) ** -50)).a


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10 ** 30), st.integers(0, 10 ** 30), st.sampled_from([8, 64, 200]))
def test_ln_upper_brackets_log(den, extra, prec):
    num = den + extra
    u = _ln_upper(num, den, prec)
    with _iv_prec(prec + 64):
        scaled = iv.log(iv.mpf(num) / den) * 2 ** prec
        assert scaled.b <= u <= scaled.a + 2 * (num // den).bit_length() * (prec + 8)


def test_exceptional_image_candidates():
    for k, N in ((2, 11), (6, 1), (4, 90)):
        want = set(primes_up_to(4 * k - 3))
        if N > 1:
            want.update(factorize(N).primes())
        assert exceptional_image_candidates(k, N) == sorted(want)


def test_fundamental_orders_characterizations():
    # n = (ell-1)/gcd(ell-1, k-1) and m = (ell+1)/gcd(ell+1, k-1): n = 2 iff
    # ell = 2k-1 and m = 2 iff ell = 2k-3, and an ell with n <= 5 or m <= 5
    # must be an exceptional-image candidate
    for k in (2, 4, 6, 8, 10, 12):
        exceptional = exceptional_image_candidates(k, 11)
        dihedral = dihedral_candidates(k, 11).primes
        for ell in primes_up_to(300):
            if ell <= k:
                continue
            n = (ell - 1) // math.gcd(ell - 1, k - 1)
            m = (ell + 1) // math.gcd(ell + 1, k - 1)
            assert (n == 2) == (ell == 2 * k - 1)
            assert (m == 2) == (ell == 2 * k - 3)
            if n <= 5 or m <= 5:
                assert ell in exceptional, (k, ell, n, m)
            if ell == 2 * k - 1:
                assert ell in dihedral, (k, ell)


def test_candidate_report_round_trip():
    rep = candidate_report(4, 11)
    assert rep.reducible_primes() == [2, 3, 5, 11, 61]
    d = rep.to_dict()
    assert d["weight"] == 4 and d["level"] == 11
    assert d["reducible_primes"] == [2, 3, 5, 11, 61]
    assert d["dihedral"]["squarefree"] is True
    assert d["exceptional_image"] == exceptional_image_candidates(4, 11)
    assert {c["prime"] for c in d["reducible"]} == set(d["reducible_primes"])
    assert is_prime(61)
