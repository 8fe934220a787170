"""The package's one dense univariate polynomial core.

Polynomials are lists indexed by degree (lowest degree first), trimmed so the
last entry is nonzero; the zero polynomial is the empty list. The routines use
only the coefficients' own arithmetic (+, -, *, / and truth value), so the same
code serves Fraction coefficients (Q, and Q(zeta_n) through CycloElement) and
FieldElement coefficients (F_q, with F_p as a field of degree one). Division
needs field coefficients; int coefficients are divided as Fractions, so a
non-monic int divisor gives Fraction, never float, coefficients.

Over Q and Z the module also has the resultant, which follows the
fraction-free subresultant PRS to keep intermediate integers small (rational
inputs are cleared to integer polynomials first), Lagrange interpolation and
Horner evaluation.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exact import DomainError


def trim(poly: list) -> list:
    """Drop trailing zeros; [] is the zero polynomial."""
    i = len(poly)
    while i > 0 and not poly[i - 1]:
        i -= 1
    return poly[:i]


def degree(poly: list) -> int:
    """Degree, with deg 0 = -1 convention for the zero polynomial."""
    return len(poly) - 1


def add(f: list, g: list) -> list:
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    for i, c in enumerate(g):
        out[i] += c
    return trim(out)


def neg(f: list) -> list:
    return [-c for c in f]


def sub(f: list, g: list) -> list:
    return add(f, neg(g))


def mul(f: list, g: list) -> list:
    if not f or not g:
        return []
    out = [f[0] * 0] * (len(f) + len(g) - 1)  # the coefficients' own zero
    for i, a in enumerate(f):
        if not a:
            continue
        for j, b in enumerate(g):
            out[i + j] += a * b
    return trim(out)


def scale(f: list, c) -> list:
    if not c:
        return []
    return [a * c for a in f]


def _inverse(c):
    """1 / c, exact for an int c (where 1 / c would be a float)."""
    return Fraction(1, c) if isinstance(c, int) else 1 / c


def quo_rem(f: list, g: list) -> tuple[list, list]:
    """Quotient and remainder of f by g over a field."""
    if not g:
        raise DomainError("division by the zero polynomial")
    dg = len(g) - 1
    inv = None if g[-1] == 1 else _inverse(g[-1])
    r = list(f)
    q = [None] * max(len(r) - dg, 0)
    for k in range(len(q) - 1, -1, -1):
        c = r[k + dg] if inv is None else r[k + dg] * inv
        q[k] = c
        if c:
            for i in range(dg):
                r[k + i] -= c * g[i]
    return trim(q), trim(r[:dg])


def rem(f: list, g: list) -> list:
    return quo_rem(f, g)[1]


def exact_quo(f: list, g: list) -> list:
    """f / g, raising DomainError when g does not divide f."""
    q, r = quo_rem(f, g)
    if r:
        raise DomainError("polynomial division is not exact")
    return q


def monic(f: list) -> list:
    """f scaled to leading coefficient 1 (f nonzero)."""
    if f[-1] == 1:
        return list(f)
    inv = _inverse(f[-1])
    return [c * inv for c in f]


def gcd(f: list, g: list) -> list:
    """Monic gcd; the gcd of two zero polynomials is []."""
    f, g = trim(list(f)), trim(list(g))
    while g:
        f, g = g, rem(f, g)
    return monic(f) if f else f


def powmod(f: list, e: int, m: list) -> list:
    """f^e mod m for e >= 1, by square and multiply."""
    if e < 1:
        raise DomainError(f"powmod needs a positive exponent, got {e}")
    base = rem(f, m)
    result = None
    while True:
        if e & 1:
            result = base if result is None else rem(mul(result, base), m)
        e >>= 1
        if not e:
            return result
        base = rem(mul(base, base), m)


def derivative(f: list) -> list:
    return trim([i * f[i] for i in range(1, len(f))])


def evaluate(f: list, x):
    """Horner evaluation; works for any coefficient/point ring."""
    acc = 0
    for c in reversed(f):
        acc = acc * x + c
    return acc


def content(f: list[int]) -> int:
    g = 0
    for c in f:
        g = math.gcd(g, abs(c))
    return g if g else 1


def _pseudo_rem(f: list[int], g: list[int]) -> list[int]:
    """prem(f, g): remainder of lc(g)^(deg f - deg g + 1) * f by g over Z."""
    f = list(f)
    d = len(f) - len(g)
    lc = g[-1]
    e = d + 1
    while len(f) >= len(g) and trim(f):
        f = trim(f)
        if len(f) < len(g):
            break
        k = len(f) - len(g)
        top = f[-1]
        f = [lc * c for c in f]
        for i, b in enumerate(g):
            f[k + i] -= top * b
        f = trim(f[:-1])
        e -= 1
    # normalize remaining scaling so the total factor is exactly lc^(d+1)
    if e > 0:
        f = [lc ** e * c for c in f]
    return trim(f)


def _resultant_int(f: list[int], g: list[int]) -> int:
    """Resultant of nonzero integer polynomials via subresultant PRS."""
    f, g = trim(list(f)), trim(list(g))
    if not f or not g:
        raise DomainError("resultant of the zero polynomial")
    if degree(f) == 0:
        return f[0] ** degree(g)
    if degree(g) == 0:
        return g[0] ** degree(f)
    s = 1
    if degree(f) < degree(g):
        if degree(f) % 2 == 1 and degree(g) % 2 == 1:
            s = -s
        f, g = g, f
    a, b = content(f), content(g)
    f = [c // a for c in f]
    g = [c // b for c in g]
    t = a ** degree(g) * b ** degree(f)
    gg = 1  # running leading-coefficient product
    h = 1
    while True:
        dF, dG = degree(f), degree(g)
        delta = dF - dG
        if dF % 2 == 1 and dG % 2 == 1:
            s = -s
        r = _pseudo_rem(f, g)
        if not r:
            return 0  # nontrivial common factor
        f = g
        divisor = gg * h ** delta
        g = [c // divisor for c in r]
        gg = f[-1]
        if delta == 0:
            h = h  # unchanged when degrees drop by 0 via gg**0
        else:
            h = gg ** delta // h ** (delta - 1)
        if degree(g) == 0:
            break
    dF = degree(f)
    h = g[0] ** dF // h ** (dF - 1) if dF >= 1 else h
    return s * t * h


def _clear_denominators(f: list) -> tuple[list[int], int]:
    """Return (integer polynomial, d) with int_poly = d * f."""
    d = 1
    for c in f:
        d = math.lcm(d, Fraction(c).denominator)
    out = []
    for c in f:
        q = Fraction(c) * d
        assert q.denominator == 1
        out.append(q.numerator)
    return out, d


def resultant(f: list, g: list) -> Fraction:
    """Res(f, g) for rational polynomials (fraction-free PRS underneath)."""
    f, g = trim(list(f)), trim(list(g))
    if not f or not g:
        raise DomainError("resultant of the zero polynomial")
    fi, df = _clear_denominators(f)
    gi, dg = _clear_denominators(g)
    r = _resultant_int(fi, gi)
    return Fraction(r, df ** degree(g) * dg ** degree(f))


def lagrange_interpolate(points: list[tuple[Fraction, Fraction]]) -> list[Fraction]:
    """The unique polynomial of degree < len(points) through the points."""
    n = len(points)
    result: list[Fraction] = []
    for i, (xi, yi) in enumerate(points):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            basis = mul(basis, [-xj, Fraction(1)])
            denom *= xi - xj
        result = add(result, scale(basis, yi / denom))
    out = [Fraction(c) for c in result] + [Fraction(0)] * (n - len(result))
    return out[:n]
