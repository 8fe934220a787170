"""The package's one dense univariate polynomial core.

Polynomials are lists indexed by degree (lowest degree first), trimmed so the
last entry is nonzero; the zero polynomial is the empty list. The routines use
only the coefficients' own arithmetic (+, -, *, /, ** and truth value), so the
same code serves Fraction coefficients (Q, and Q(zeta_n) through CycloElement) and
FieldElement coefficients (F_q, with F_p as a field of degree one). Division
needs field coefficients; int coefficients are divided as Fractions, so a
non-monic int divisor gives Fraction, never float, coefficients.

The one resultant follows the Euclidean remainder sequence in the same
coefficient arithmetic, so it serves Q (cyclotomic norms, `CycloElement.norm`),
Q(zeta_n) (`residues.compositum_norm`) and F_q alike. Points are never
evaluated here: residue points map field elements into F_q by int dot
products, and the F_p kernel in `residues` runs the same remainder sequence
on ints mod p for the norm behind the Frobenius scan's test.
"""

from __future__ import annotations

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


def resultant(f: list, g: list):
    """Res(f, g) over any field, by the Euclidean remainder sequence.

    Res(f, g) = (-1)^(deg f deg g) lc(g)^(deg f - deg r) Res(g, r) with
    r = f mod g, and Res(f, c) = c^(deg f) for a nonzero constant c.
    """
    f, g = trim(list(f)), trim(list(g))
    if not f or not g:
        raise DomainError("resultant of the zero polynomial")
    acc = 1
    while len(g) > 1:
        r = rem(f, g)
        if not r:
            return g[0] * 0  # a common factor; the coefficients' own zero
        if (len(f) - 1) * (len(g) - 1) % 2:
            acc = -acc
        acc = acc * g[-1] ** (len(f) - len(r))
        f, g = g, r
    return acc * g[0] ** (len(f) - 1)
