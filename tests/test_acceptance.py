"""Acceptance gate: twelve numbered criteria, one test (= one pass/fail line
under pytest -v) per criterion. Each assert carries the stated tolerance; no
criterion is weakened to force a pass.
"""

import time
from fractions import Fraction

import pytest

from excprimes import (
    INSUFFICIENT,
    CycloElement,
    character_by_index,
    dihedral_candidates,
    dim_new,
    eisenstein_E,
    eprime_weight2_steinberg,
    factorize,
    frobenius_scan,
    reducible_primes,
    sturm_bound,
    verify_reducible,
)
from excprimes.bernoulli import bernoulli_generalized
from excprimes.verify import _norm_mode_check


def zeta3(a, b):
    """a + b*zeta_3 as an exact element of Q(zeta_3)."""
    return CycloElement(3, [Fraction(a), Fraction(b)])


def test_criterion_01_reducible_candidates_weight4_level11():
    t0 = time.monotonic()
    assert reducible_primes(4, 11) == [2, 3, 5, 11, 61]
    assert time.monotonic() - t0 < 1.0


def test_criterion_02_reducible_candidates_weight6_level81():
    t0 = time.monotonic()
    assert reducible_primes(6, 81) == [2, 3, 5, 7, 43, 1171]
    assert time.monotonic() - t0 < 5.0


def test_criterion_03_generalized_bernoulli_exact():
    nu = character_by_index(9, 2)
    b = bernoulli_generalized(6, nu) / 12
    assert b == zeta3(Fraction(1172, 3), Fraction(751, 3))
    norm = b.norm()
    assert norm == Fraction(352471, 3)
    assert factorize(352471).factors == ((7, 1), (43, 1), (1171, 1))


def test_criterion_04_eisenstein_coefficients_exact():
    nu = character_by_index(9, 2)
    E = eisenstein_E(6, nu, 5)
    assert E.level == 81
    assert E.coefficient(0) == zeta3(0, 0)
    assert E.coefficient(1) == zeta3(1, 0)
    assert E.coefficient(2) == zeta3(-32, -31)
    assert E.coefficient(3) == zeta3(0, 0)
    assert E.coefficient(4) == zeta3(31, 1023)
    assert E.coefficient(5) == zeta3(-1, 3124)


def test_criterion_05_sturm_bound():
    assert sturm_bound(6, 81) == 54


def test_criterion_06_new_subspace_dimensions():
    assert dim_new(6, 81) == 18
    assert dim_new(4, 11) == 2
    assert dim_new(2, 23) == 2
    assert dim_new(2, 1888) == 58


def test_criterion_07_dihedral_bound_non_squarefree():
    t0 = time.monotonic()
    rep = dihedral_candidates(2, 1888, degree=5)
    elapsed = time.monotonic() - t0
    assert rep.primes is None and rep.bound is not None
    reference = 3476092007703911714679
    rel = abs(rep.bound - reference) / reference
    assert rel <= 1e-6, f"relative error {rel}"
    assert elapsed < 1.0


def test_criterion_08_weight6_level81_congruences(fx81, fx81_printed):
    nu = character_by_index(9, 2)

    # Reducibility certificates through the full Sturm window.
    r7 = verify_reducible(fx81, 7, nu=nu)
    assert r7.verdict == "certified" and r7.checked_up_to == 54

    r43 = verify_reducible(fx81, 43, nu=nu)
    assert r43.verdict == "certified"
    assert any("alpha=[13,0,0]" in w and "zeta=[36,0,0]" in w for w in r43.witnesses)

    r1171 = verify_reducible(fx81, 1171, nu=nu)
    assert r1171.verdict == "certified"
    assert any("alpha=[138,0]" in w and "zeta=[750,0]" in w for w in r1171.witnesses)

    # At 2 a coefficient denominator blocks the residue points, and verify
    # falls back to per-n norm divisibility, which goes through. At 3 the
    # residue points certify, and per-n norm divisibility holds there too.
    r2 = verify_reducible(fx81, 2, nu=nu)
    assert r2.verdict == "norm-certified" and r2.mode == "norm-divisibility"
    assert verify_reducible(fx81, 3, nu=nu).verdict == "certified"
    for ell in (2, 3):
        assert _norm_mode_check(fx81, eisenstein_E(6, nu, 54), nu.order, ell, 54) is None, ell

    # 5 is a candidate that does not survive contact with the coefficients.
    r5 = verify_reducible(fx81, 5, nu=nu)
    assert r5.verdict.startswith("refuted")
    s5 = frobenius_scan(fx81, 5, 100)
    assert len(s5.points) == 2
    assert all(pt["witness"] == 2 for pt in s5.points)

    # Degraded path: only the printed window of coefficients is available.
    for ell in (7, 43, 1171):
        r = verify_reducible(fx81_printed, ell, nu=nu)
        assert r.verdict == INSUFFICIENT, (ell, r.verdict)


def test_criterion_09_weight4_level11_scan_and_certificate(fx11_4):
    # Smallest irreducibility witness per residue point; the scan only tests
    # p coprime to ell*N, so at ell = 2 the witness search starts at p = 3.
    expected = {
        2: {"(alpha=[0])": 3},
        3: {"(alpha=[1])": 2},
        5: {"(alpha=[1,2])": 2},
        11: {"(alpha=[6])": None, "(alpha=[7])": 2},
        61: {"(alpha=[9])": None, "(alpha=[54])": 2},
    }
    for ell, table in expected.items():
        scan = frobenius_scan(fx11_4, ell, 5)
        got = {pt["point"]: pt["witness"] for pt in scan.points}
        assert got == table, (ell, got)

    r61 = verify_reducible(fx11_4, 61)
    assert r61.verdict == "certified"
    assert any("alpha=[9]" in w for w in r61.witnesses)


def test_criterion_10_property_suite():
    import math
    import random

    import mpmath

    from excprimes import enumerate_characters
    from excprimes.bernoulli import bernoulli_classical
    from excprimes.cyclotomic import euler_phi
    from oracles import (
        conj, embed_numeric, gauss_sum_exact, is_rational, is_trivial, lattice_sum_oracle,
        lvalue_functional_rhs, lvalue_numeric, rational_value, von_staudt_denominator,
    )

    # von Staudt-Clausen: exact denominator of B_m for even m <= 30.
    for m in range(2, 31, 2):
        assert bernoulli_classical(m).denominator == von_staudt_denominator(m)

    # Character orthogonality for every modulus m <= 40.
    for m in range(1, 41):
        chars = enumerate_characters(m, "all")
        phi = len(chars)
        for chi in chars:
            total = CycloElement(1, [Fraction(0)])
            for a in range(1, m + 1) if m > 1 else [1]:
                if math.gcd(a, m) == 1:
                    total = total + chi.value(a)
            expected = phi if is_trivial(chi) else 0
            assert is_rational(total) and rational_value(total) == expected, (m, chi.index)

    # Norm multiplicativity, 1000 random pairs across cyclotomic fields.
    rng = random.Random(20260814)
    for _ in range(1000):
        n = rng.choice([1, 3, 4, 5, 7, 8, 9, 12])
        deg = euler_phi(n)
        x = CycloElement(n, [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(deg)])
        y = CycloElement(n, [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(deg)])
        assert (x * y).norm() == x.norm() * y.norm()

    # Gauss sums: W(psi) conj(W(psi)) = f exactly for primitive psi, f <= 12;
    # numerically |W(psi)|^2 - f stays below 1e-10.
    with mpmath.workdps(40):
        for f in range(2, 13):
            for psi in enumerate_characters(f, "primitive"):
                w = gauss_sum_exact(psi)
                ww = w * conj(w)
                assert is_rational(ww) and rational_value(ww) == f, (f, psi.index)
                numeric = abs(embed_numeric(w, 40)) ** 2
                assert abs(numeric - f) < 1e-10

    # Functional-equation identity for L(k, chi), conductor <= 12, k <= 8.
    for f in range(1, 13):
        for chi in enumerate_characters(f, "primitive"):
            if not chi.is_even():
                continue
            for k in (2, 4, 6, 8):
                lhs = lvalue_numeric(k, chi, 40)
                rhs = lvalue_functional_rhs(k, chi, 40)
                assert abs(lhs - rhs) < 1e-8, (f, chi.index, k)

    # Lattice double-sum oracle vs nu(-u) L(6, nu^2) at M = 10^5.
    nu = character_by_index(9, 2)
    val = lattice_sum_oracle(nu, 6, 10 ** 5)
    with mpmath.workdps(50):
        target = embed_numeric(nu.value(-1), 50) * lvalue_numeric(6, (nu * nu).primitive_associate(), 50)
    assert abs(val - target) < 1e-4


def test_criterion_11_cross_module_soundness(fx81, fx11_4, fx11_2):
    nu = character_by_index(9, 2)
    red81 = set(reducible_primes(6, 81))
    for ell in (7, 43, 1171):
        assert verify_reducible(fx81, ell, nu=nu).certified
        assert ell in red81
    for ell in (2, 3):
        assert verify_reducible(fx81, ell, nu=nu).certified
        assert ell in red81

    red11 = set(reducible_primes(4, 11))
    assert verify_reducible(fx11_4, 61).certified and 61 in red11

    # The verifier's window bookkeeping agrees with the dimension module.
    assert verify_reducible(fx81, 7, nu=nu).sturm == sturm_bound(6, 81)
    assert verify_reducible(fx11_4, 61).sturm == sturm_bound(4, 11)

    # Weight-2 square-free route agrees with the sign-clause bound engine.
    from excprimes import reducible_weight2_signs, verify_weight2_squarefree

    rep = reducible_weight2_signs({11: 1})
    assert rep.primes() == [2, 5]  # divisors of 11 - 1 = 10
    r5 = verify_weight2_squarefree(fx11_2, 5)
    assert r5.verdict == "certified"
    assert 5 in rep.primes()


def test_criterion_12_weight2_constant_term_mod_ell():
    # Constant term of [prod (s_p U_p - p)] E_2 in F_ell for t <= 3 factors:
    # all signs +1 gives (-1)^(t+1) prod(p_i - 1)/24; a -1 sign at p = -1 mod
    # ell kills it.
    cases = [
        (7, [(5, 1)]),
        (7, [(5, 1), (11, 1)]),
        (7, [(5, 1), (11, 1), (17, 1)]),
        (5, [(11, 1)]),
        (5, [(7, 1), (11, 1)]),
        (13, [(7, 1), (11, 1), (19, 1)]),
    ]
    for ell, signs in cases:
        t = len(signs)
        E = eprime_weight2_steinberg(signs, ell, 5)
        prod = 1
        for p, _ in signs:
            prod *= p - 1
        expected = (-1) ** (t + 1) * prod * pow(24, -1, ell) % ell
        assert E.coefficient(0) == expected, (ell, signs)

    # -1 signs sampled at primes p = -1 (mod ell): constant term vanishes.
    minus_cases = [
        (7, [(13, -1)]),
        (7, [(13, -1), (5, 1)]),
        (7, [(41, -1), (83, -1)]),
        (5, [(19, -1), (29, -1), (7, 1)]),
        (13, [(103, -1)]),
    ]
    for ell, signs in minus_cases:
        for p, s in signs:
            if s == -1:
                assert (p + 1) % ell == 0  # sampling discipline
        E = eprime_weight2_steinberg(signs, ell, 5)
        assert E.coefficient(0) == 0, (ell, signs)
