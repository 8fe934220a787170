"""Standard invariants of X_0(N) and dimensions of cusp-form spaces.

Supplies the genus/index/elliptic-point data, dim S_k(Gamma_0(N)), the new
subspace dimension through Moebius-style inclusion-exclusion over divisor
levels, and the Sturm bound ceil(k * index / 12).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .cyclotomic import euler_phi
from .exact import DomainError, factorize


@dataclass(frozen=True)
class LevelInvariants:
    N: int
    index: int
    nu2: int
    nu3: int
    nu_inf: int
    genus: int


@lru_cache(maxsize=None)
def level_invariants(N: int) -> LevelInvariants:
    if N < 1:
        raise DomainError(f"level must be positive, got {N}")
    fac = factorize(N).factors
    index = N
    for p, _ in fac:
        index = index // p * (p + 1)

    nu2 = _count_elliptic(N, fac, 2)
    nu3 = _count_elliptic(N, fac, 3)

    nu_inf = 0
    for d in _divisors(N):
        nu_inf += euler_phi(math.gcd(d, N // d))

    genus_frac = 1 + Fraction(index, 12) - Fraction(nu2, 4) - Fraction(nu3, 3) - Fraction(nu_inf, 2)
    if genus_frac.denominator != 1 or genus_frac < 0:
        raise ArithmeticError(f"genus of X_0({N}) came out as {genus_frac}")
    genus = int(genus_frac)
    return LevelInvariants(N, index, nu2, nu3, nu_inf, genus)


def _count_elliptic(N: int, fac, q: int) -> int:
    """Elliptic points of order q = 2 or 3: 0 when q^2 | N, else the product
    over p | N of 1 + (-4/p) (q = 2) or 1 + (-3/p) (q = 3)."""
    if N % (q * q) == 0:
        return 0
    m = 4 if q == 2 else 3  # (-4/p) and (-3/p) are +1 at p = 1 mod m, -1 at the other p != q
    return math.prod(1 if p == q else 2 * (p % m == 1) for p, _ in fac)


def _divisors(N: int) -> list[int]:
    divs = [1]
    for p, e in factorize(N).factors:
        divs = [d * p ** i for d in divs for i in range(e + 1)]
    return sorted(divs)


def dim_cusp_forms(k: int, N: int) -> int:
    """dim S_k(Gamma_0(N)) for even k >= 2."""
    if k % 2 or k < 2:
        raise DomainError(f"weight must be even and >= 2, got {k}")
    inv = level_invariants(N)
    if k == 2:
        return inv.genus
    dim = (
        (k - 1) * (inv.genus - 1)
        + (k // 2 - 1) * inv.nu_inf
        + (k // 4) * inv.nu2
        + (k // 3) * inv.nu3
    )
    if dim < 0:
        raise ArithmeticError(f"dim S_{k}(Gamma_0({N})) came out as {dim}")
    return dim


@lru_cache(maxsize=None)
def _beta(n: int) -> int:
    """Multiplicative, beta(p) = -2, beta(p^2) = 1, beta(p^e) = 0 for e >= 3."""
    out = 1
    for _, e in factorize(n).factors if n > 1 else []:
        if e == 1:
            out *= -2
        elif e == 2:
            out *= 1
        else:
            return 0
    return out


def dim_new(k: int, N: int) -> int:
    """Dimension of the new subspace of S_k(Gamma_0(N))."""
    total = 0
    for M in _divisors(N):
        b = _beta(N // M)
        if b:
            total += b * dim_cusp_forms(k, M)
    if total < 0:
        raise ArithmeticError(f"dim S_{k}^new(Gamma_0({N})) came out as {total}")
    return total


def sturm_bound(k: int, N: int) -> int:
    """ceil(k * [SL_2(Z) : Gamma_0(N)] / 12)."""
    inv = level_invariants(N)
    return -(-k * inv.index // 12)
