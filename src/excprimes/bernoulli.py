"""Classical and character-twisted Bernoulli numbers.

B_{k,chi} is computed through the Bernoulli-polynomial identity
B_{k,chi} = f^(k-1) * sum_{a=1..f} chi(a) B_k(a/f), exact over Q(zeta_ord).
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


def bernoulli_polynomial(m: int, x: Fraction) -> Fraction:
    """B_m(x) = sum_j C(m,j) B_j x^(m-j)."""
    x = Fraction(x)
    acc = Fraction(0)
    for j in range(m + 1):
        acc += math.comb(m, j) * bernoulli_classical(j) * x ** (m - j)
    return acc


def bernoulli_generalized(k: int, chi: DirichletCharacter) -> CycloElement:
    """B_{k,chi} as an exact element of Q(zeta_ord(chi))."""
    if not chi.is_primitive():
        raise DomainError("bernoulli_generalized requires a primitive character")
    f = chi.modulus
    total = CycloElement(1, [Fraction(0)])
    for a in range(1, f + 1):
        if math.gcd(a, f) != 1:
            continue
        total = total + chi.value(a) * bernoulli_polynomial(k, Fraction(a, f))
    return Fraction(f) ** (k - 1) * total


def bernoulli_norm_numerator(k: int, eps: DirichletCharacter) -> FactoredInteger:
    """Factored numerator of |N(B_{k,eps} / 2k)|, norm from Q(zeta_ord(eps))."""
    b = bernoulli_generalized(k, eps)
    if not b:
        raise VacuousClauseError(
            f"B_{{{k},chi({eps.modulus},{eps.index})}} = 0: clause is vacuous"
        )
    norm = (b / (2 * k)).norm()
    return factorize(abs(norm.numerator))
