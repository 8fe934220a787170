"""Classical and character-twisted Bernoulli numbers.

B_{k,chi} = f^(k-1) * sum_{a=1..f} chi(a) B_k(a/f), exact over Q(zeta_ord),
is computed by expanding B_k(x) = sum_j C(k,j) B_j x^(k-j):
B_{k,chi} = sum_j C(k,j) B_j f^(j-1) sum_a chi(a) a^(k-j), with the inner
sums taken as integer power sums over the a that share a value of chi.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .exact import DomainError, FactoredInteger, factorize
from .cyclotomic import CycloElement
from .characters import DirichletCharacter


class VacuousClauseError(ValueError):
    """A divisibility clause whose target vanishes constrains nothing."""


@lru_cache(maxsize=None)
def bernoulli_classical(m: int) -> Fraction:
    """B_m under the generating-function convention (B_1 = -1/2)."""
    if m < 0:
        raise DomainError(f"Bernoulli index must be nonnegative, got {m}")
    if m == 0:
        return Fraction(1)
    if m % 2 == 1 and m > 1:
        return Fraction(0)
    acc = Fraction(0)
    for j in range(m):
        acc += math.comb(m + 1, j) * bernoulli_classical(j)
    return -acc / (m + 1)


def bernoulli_generalized(k: int, chi: DirichletCharacter) -> CycloElement:
    """B_{k,chi} as an exact element of Q(zeta_ord(chi))."""
    if not chi.is_primitive():
        raise DomainError("bernoulli_generalized requires a primitive character")
    f, order = chi.modulus, chi.order
    # sums[t][i] = sum of a^i over the units a mod f with chi(a) = zeta_order^t
    sums: dict[int, list[int]] = {}
    for a in range(1, f + 1):
        if math.gcd(a, f) == 1:
            t = chi.value_exponent(a) * order
            row = sums.setdefault(t.numerator, [0] * (k + 1))
            power = 1
            for i in range(k + 1):
                row[i] += power
                power *= a
    # weights[j] = C(k,j) B_j f^(j-1), paired with the power sum of index k - j
    weights = [
        math.comb(k, j) * bernoulli_classical(j) * Fraction(f) ** (j - 1) for j in range(k + 1)
    ]
    coeffs = [Fraction(0)] * order
    for t, row in sums.items():
        coeffs[t] = sum(w * row[k - j] for j, w in enumerate(weights) if w)
    return CycloElement(order, coeffs)


def bernoulli_norm_numerator(k: int, eps: DirichletCharacter) -> FactoredInteger:
    """Factored numerator of |N(B_{k,eps} / 2k)|, norm from Q(zeta_ord(eps)).

    The factorization may be partial: see `FactoredInteger.cofactor`.
    """
    b = bernoulli_generalized(k, eps)
    if not b:
        raise VacuousClauseError(
            f"B_{{{k},chi({eps.modulus},{eps.index})}} = 0: clause is vacuous"
        )
    norm = (b / (2 * k)).norm()
    return factorize(abs(norm.numerator), partial=True)
