"""Exact arithmetic in cyclotomic fields Q(zeta_n).

Elements are polynomials in zeta_n reduced mod the n-th cyclotomic
polynomial, with Fraction coefficients. Mixed-order arithmetic embeds both
operands into Q(zeta_lcm) via zeta_n = zeta_m^(m/n). Norms are absolute
norms from the representation field Q(zeta_n) down to Q, computed as a
resultant with Phi_n.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .exact import DomainError, factorize
from . import polys


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, lowest degree first."""
    if n < 1:
        raise DomainError(f"cyclotomic index must be positive, got {n}")
    if n == 1:
        return (-1, 1)
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            # Phi_d is monic, so the division stays in Z
            poly = polys.exact_quo(poly, cyclotomic_polynomial(d))
    return tuple(poly)


def euler_phi(n: int) -> int:
    if n < 1:
        raise DomainError(f"euler phi of non-positive {n}")
    out = n
    for p in factorize(n).primes() if n > 1 else ():
        out = out // p * (p - 1)
    return out


class CycloElement:
    """An element of Q(zeta_n), immutable."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs):
        if n < 1:
            raise DomainError(f"root of unity order must be positive, got {n}")
        modulus = cyclotomic_polynomial(n)
        phi = polys.degree(modulus)
        vec = [Fraction(c) for c in coeffs]
        if len(vec) > phi:
            vec = polys.rem(vec, modulus)
        vec = vec + [Fraction(0)] * (phi - len(vec))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "coeffs", tuple(vec[:phi]))

    def __setattr__(self, *args):
        raise AttributeError("CycloElement is immutable")

    # -- coercion and embedding -------------------------------------------

    @staticmethod
    def _coerce(value) -> "CycloElement | None":
        if isinstance(value, CycloElement):
            return value
        if isinstance(value, (int, Fraction)):
            return CycloElement(1, [Fraction(value)])
        return None

    def embed(self, m: int) -> "CycloElement":
        """Rewrite in Q(zeta_m) for n | m."""
        if m == self.n:
            return self
        if m % self.n != 0:
            raise DomainError(f"cannot embed Q(zeta_{self.n}) into Q(zeta_{m})")
        step = m // self.n
        lifted = [Fraction(0)] * ((len(self.coeffs) - 1) * step + 1) if self.coeffs else []
        for i, c in enumerate(self.coeffs):
            lifted[i * step] = c
        return CycloElement(m, lifted)

    def _pair(self, other) -> "tuple[CycloElement, CycloElement]":
        m = math.lcm(self.n, other.n)
        return self.embed(m), other.embed(m)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._pair(other)
        return CycloElement(a.n, polys.add(a.coeffs, b.coeffs))

    __radd__ = __add__

    def __neg__(self):
        return CycloElement(self.n, [-c for c in self.coeffs])

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._pair(other)
        return CycloElement(a.n, polys.mul(a.coeffs, b.coeffs))

    __rmul__ = __mul__

    def inverse(self) -> "CycloElement":
        if not self:
            raise DomainError("inverse of zero in a cyclotomic field")
        # extended Euclid in Q[x] against Phi_n
        r0, r1 = [Fraction(c) for c in cyclotomic_polynomial(self.n)], list(self.coeffs)
        s0, s1 = [], [Fraction(1)]
        r1 = polys.trim(r1)
        while polys.degree(r1) > 0:
            q, r = polys.quo_rem(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, polys.sub(s0, polys.mul(q, s1))
        if not r1:
            raise ArithmeticError("Phi_n and a nonzero reduced element must be coprime")
        inv = polys.scale(s1, Fraction(1) / r1[0])
        return CycloElement(self.n, inv)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        result = CycloElement(self.n, [Fraction(1)])
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- comparisons and predicates ----------------------------------------

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._pair(other)
        return a.coeffs == b.coeffs

    __hash__ = None  # no canonical minimal form is maintained

    def __bool__(self):
        return any(self.coeffs)

    # -- field-theoretic maps ----------------------------------------------

    def norm(self) -> Fraction:
        """Absolute norm from Q(zeta_n): the product over all conjugates."""
        if not self:
            return Fraction(0)
        return polys.resultant(cyclotomic_polynomial(self.n), self.coeffs)

    # -- display -------------------------------------------------------------

    def __str__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                body = str(c)
            elif i == 1:
                body = f"{c}*z"
            else:
                body = f"{c}*z^{i}"
            terms.append((c < 0, body))
        if not terms:
            return "0"
        pieces = []
        for j, (negative, body) in enumerate(terms):
            if j == 0:
                pieces.append(body)
            elif negative:
                pieces.append("-" + body.lstrip("-"))
            else:
                pieces.append("+" + body)
        return "".join(pieces)

    def __repr__(self):
        return f"CycloElement({self.n}, {self})"


def zeta(n: int, power: int = 1) -> CycloElement:
    """zeta_n^power as an element of Q(zeta_n)."""
    power %= n
    mono = [Fraction(0)] * power + [Fraction(1)]
    return CycloElement(n, mono)
