"""Finite fields F_{ell^d}, newform fixtures, and residue points.

F_{ell^d} is F_ell[x] modulo a seeded irreducible polynomial. FiniteField and
FieldElement stay inside root finding: they serve only factor degrees, the
modulus search and root finding at d > 1, through the one polynomial core in
`polys` (F_p is the field of degree one). A root comes back as a coordinate
tuple, and everything after it runs on the int kernel below.

A residue point is a concrete reduction of the coefficient field (and, when
needed, a cyclotomic field) into one finite field, as plain frozen data in
ints: the modulus, coordinate tuples (alpha_image, zeta_image) with
f(alpha) = 0 and Phi_n(zeta) = 0, and the tables of the F_q coordinates of
the powers of alpha and zeta, built with the point. An element of Q(alpha),
or of Q(zeta_m) with m dividing the point's index, maps into F_q by one dot
product mod ell of its coordinates, reduced by `residue`, with each row of a
table. Points are produced up to Frobenius orbits with a lexicographically
least canonical representative, which keeps reports byte-identical across
runs.

A small F_p kernel on int lists finds roots over F_p itself (d = 1) by
Cantor-Zassenhaus, and decides whether X^2 - aX + c is irreducible over any
F_q: Euler's criterion on the norm of the discriminant for odd q, the
Artin-Schreier trace for q = 2^d. For odd p, a polynomial of degree 1 or 2
mod p has its roots in F_p, and so its factor degrees, in closed form, and
Frobenius fixes F_p without a power.
"""

from __future__ import annotations

import json
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, zip_longest

from .exact import DomainError, factorize, is_prime, primes_up_to
from . import polys
from .cyclotomic import CycloElement, cyclotomic_polynomial


class FixtureError(ValueError):
    """A fixture file violates one of its load-time invariants."""


class DenominatorObstruction(ValueError):
    """ell divides a coefficient denominator: residue-point mode unavailable."""


# -- factor degrees and irreducibility over F_p -----------------------------------


def _squarefree(f: list) -> list:
    """The radical (product of the distinct monic irreducible factors) of f over F_p."""
    f = polys.monic(f)
    if len(f) <= 2:
        return f
    df = polys.derivative(f)
    if not df:
        # f = g(x^p) = g^p, as Frobenius fixes the coefficients in F_p
        return _squarefree(f[:: f[0].field.p])
    g = polys.gcd(f, df)
    if len(g) == 1:
        return f
    quotient = polys.exact_quo(f, g)
    part = _squarefree(g)
    return polys.mul(quotient, polys.exact_quo(part, polys.gcd(part, quotient)))


def factor_degree_multiset(coeffs, p) -> list[tuple[int, int]]:
    """(degree, count) pairs for the distinct irreducible factors of coeffs mod p.

    For odd p and degree <= 2 mod p, the number of roots in F_p (0, 1 or 2)
    decides; otherwise distinct-degree factorization runs on FieldElements.
    """
    fp = polys.trim([c % p for c in coeffs])
    if len(fp) <= 1:
        raise DomainError("polynomial vanishes mod p")
    if len(fp) <= 3 and p != 2:
        return [[(2, 1)], [(1, 1)], [(1, 2)]][len(_quadratic_roots_mod_p(fp, p))]
    F = FiniteField(p, 1)
    return _distinct_degrees(_squarefree([F.element(c) for c in fp]))


def _distinct_degrees(v: list) -> list[tuple[int, int]]:
    """(degree, count) pairs for a monic square-free v over F_p, by distinct-degree factorization."""
    F = v[0].field
    x = [F.zero(), F.one()]
    out = []
    h = x
    d = 0
    while len(v) - 1 >= 2 * (d + 1):
        d += 1
        h = polys.powmod(h, F.p, v)
        g = polys.gcd(polys.sub(h, x), v)
        if len(g) > 1:
            out.append((d, (len(g) - 1) // d))
            v = polys.exact_quo(v, g)
            h = polys.rem(h, v)
    if len(v) > 1:
        out.append((len(v) - 1, 1))
    return out


def _is_irreducible_mod_p(m: list) -> bool:
    """Rabin's test for a monic m of degree d >= 2 over F_p."""
    p, d = m[0].field.p, len(m) - 1
    x = [m[0].field.zero(), m[0].field.one()]
    if polys.powmod(x, p ** d, m) != x:
        return False
    for r in {r for r, _ in factorize(d).factors}:
        if len(polys.gcd(polys.sub(polys.powmod(x, p ** (d // r), m), x), m)) != 1:
            return False
    return True


# -- polynomials over F_p as int lists --------------------------------------------
# Lists of ints lowest degree first, trimmed like `polys`; each routine takes
# trimmed, nonzero divisors and returns coefficients reduced into [0, p).


def _fp_sub(f: list, g: list, p: int) -> list:
    return polys.trim([(a - b) % p for a, b in zip_longest(f, g, fillvalue=0)])


def _fp_divmod(f: list, g: list, p: int) -> tuple[list, list]:
    dg = len(g) - 1
    inv = pow(g[-1], -1, p)
    r = list(f)
    q = [0] * max(len(r) - dg, 0)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = r[k + dg] * inv % p
        if c:
            for i in range(dg):
                r[k + i] -= c * g[i]
    return polys.trim(q), polys.trim([c % p for c in r[:dg]])


def _fp_quo(f: list, g: list, p: int) -> list:
    """f / g, raising DomainError when g does not divide f."""
    q, r = _fp_divmod(f, g, p)
    if r:
        raise DomainError("polynomial division is not exact")
    return q


def _fp_mulmod(f: list, g: list, m: list, p: int) -> list:
    prod = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            prod[i + j] += a * b
    return _fp_divmod(prod, m, p)[1]


def _fp_powmod(f: list, e: int, m: list, p: int) -> list:
    """f^e mod m for e >= 0."""
    result, base = [1], _fp_divmod(f, m, p)[1]
    while True:
        if e & 1:
            result = _fp_mulmod(result, base, m, p)
        e >>= 1
        if not e:
            return result
        base = _fp_mulmod(base, base, m, p)


def _fp_gcd(f: list, g: list, p: int) -> list:
    """Monic gcd of f and g, not both zero."""
    while g:
        f, g = g, _fp_divmod(f, g, p)[1]
    inv = pow(f[-1], -1, p)
    return [c * inv % p for c in f]


def _fp_resultant(f: list, g: list, p: int) -> int:
    """Res(f, g) mod p by the Euclidean remainder sequence, as `polys.resultant`."""
    acc = 1
    while len(g) > 1:
        r = _fp_divmod(f, g, p)[1]
        if not r:
            return 0
        if (len(f) - 1) * (len(g) - 1) % 2:
            acc = -acc
        acc = acc * pow(g[-1], len(f) - len(r), p) % p
        f, g = g, r
    return acc * pow(g[0], len(f) - 1, p) % p


def _fp_irreducible_quadratic(a, c, m: list, p: int) -> bool:
    """Is X^2 - aX + c irreducible over F_q = F_p[x]/(m)? a and c are given by their coordinates in [0, p).

    Odd p: the discriminant a^2 - 4c is not a square in F_q, zero included,
    that is, Euler's criterion finds its norm Res(m, a^2 - 4c), the
    discriminant itself at q = p, a non-square in F_p. p = 2: a != 0 and
    Tr(c / a^2) = 1 (Artin-Schreier), with 1 / a^2 = a^(q-3) and the trace
    summed over the d Frobenius conjugates.
    """
    d = len(m) - 1
    if p != 2:
        if d == 1:
            norm = (a[0] * a[0] - 4 * c[0]) % p
        else:
            disc = _fp_sub(polys.mul(a, a), [4 * x for x in c], p)
            norm = _fp_resultant(m, disc, p) if disc else 0
        return pow(norm, (p - 1) // 2, p) == p - 1
    if not any(a):
        return False  # X^2 + c is a Frobenius square
    q = 2 ** d
    x = trace = _fp_mulmod(c, _fp_powmod(a, (q - 3) % (q - 1), m, 2), m, 2)
    for _ in range(d - 1):
        x = _fp_mulmod(x, x, m, 2)
        trace = _fp_sub(trace, x, 2)  # trace + x in characteristic 2
    return trace == [1]


def _quadratic_roots_mod_p(f: list, p: int) -> list[int]:
    """The sorted distinct roots in F_p of f, of degree 1 or 2, for odd p.

    A linear f = bX + c has the root -c/b. For monic X^2 + bX + c, Euler's
    criterion on D = b^2 - 4c counts the roots, and Tonelli-Shanks (Cohen,
    GTM 138, Alg. 1.5.1) takes the square root of D.
    """
    inv = pow(f[-1], -1, p)
    if len(f) == 2:
        return [-f[0] * inv % p]
    b, c = f[1] * inv % p, f[0] * inv % p
    disc, half = (b * b - 4 * c) % p, (p + 1) // 2
    if not disc:
        return [-b * half % p]
    if pow(disc, (p - 1) // 2, p) != 1:
        return []
    e, q = 0, p - 1
    while not q & 1:
        e, q = e + 1, q >> 1
    n = 2
    while pow(n, (p - 1) // 2, p) == 1:
        n += 1
    y, r = pow(n, q, p), e
    x = pow(disc, (q - 1) // 2, p)
    t, x = disc * x * x % p, disc * x % p
    while t != 1:
        m, t2 = 1, t * t % p
        while t2 != 1:
            m, t2 = m + 1, t2 * t2 % p
        z = pow(y, 1 << (r - m - 1), p)
        y, r = z * z % p, m
        x, t = x * z % p, t * y % p
    return sorted({(-b + x) * half % p, (-b - x) * half % p})


# -- the field F_{ell^d} -------------------------------------------------------


class FiniteField:
    """F_{ell^d} as F_ell[x] mod a deterministic seeded irreducible polynomial."""

    __slots__ = ("p", "d", "q", "modulus")

    def __init__(self, ell: int, d: int):
        if not is_prime(ell):
            raise DomainError(f"field characteristic {ell} is not prime")
        if d < 1:
            raise DomainError(f"field degree must be >= 1, got {d}")
        object.__setattr__(self, "p", ell)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "q", ell ** d)
        object.__setattr__(self, "modulus", self._find_modulus(ell, d))

    def __setattr__(self, *args):
        raise AttributeError("FiniteField is immutable")

    @staticmethod
    def _find_modulus(p: int, d: int) -> tuple[int, ...]:
        if d == 1:
            return (0, 1)
        F = FiniteField(p, 1)
        rng = random.Random(f"modulus:{p}:{d}")
        while True:
            cand = [rng.randrange(p) for _ in range(d)] + [1]
            if _is_irreducible_mod_p([F.element(c) for c in cand]):
                return tuple(cand)

    def _reduce(self, vec) -> tuple[int, ...]:
        """Integer coefficients (lowest degree first) mod p and the monic modulus."""
        vec = list(vec)
        m, d, p = self.modulus, self.d, self.p
        for top in range(len(vec) - 1, d - 1, -1):
            c = vec[top] % p
            if c:
                for i in range(d):
                    vec[top - d + i] -= c * m[i]
        return tuple(c % p for c in vec[:d]) + (0,) * (d - len(vec))

    def element(self, coeffs) -> "FieldElement":
        if isinstance(coeffs, int):
            coeffs = [coeffs]
        return FieldElement(self, self._reduce(coeffs))

    def zero(self) -> "FieldElement":
        return self.element(0)

    def one(self) -> "FieldElement":
        return self.element(1)

    def __eq__(self, other):
        return (
            isinstance(other, FiniteField)
            and (self.p, self.d, self.modulus) == (other.p, other.d, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.d, self.modulus))

    def __repr__(self):
        return f"F_{self.p}^{self.d}" if self.d > 1 else f"F_{self.p}"


class FieldElement:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: FiniteField, coeffs: tuple):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, *args):
        raise AttributeError("FieldElement is immutable")

    def _check(self, other) -> "FieldElement":
        if isinstance(other, int):
            return self.field.element(other)
        if not isinstance(other, FieldElement) or other.field != self.field:
            raise DomainError("field mismatch")
        return other

    def __add__(self, other):
        other = self._check(other)
        p = self.field.p
        return FieldElement(
            self.field, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs))
        )

    __radd__ = __add__

    def __neg__(self):
        p = self.field.p
        return FieldElement(self.field, tuple(-a % p for a in self.coeffs))

    def __sub__(self, other):
        return self + (-self._check(other))

    def __mul__(self, other):
        other = self._check(other)
        field = self.field
        prod = [0] * (2 * field.d - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    prod[i + j] += a * b
        return FieldElement(field, field._reduce(prod))

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        """1 / self, as self^(q - 2) (Fermat)."""
        if not self:
            raise DomainError("inverse of zero field element")
        return self ** (self.field.q - 2)

    def __rtruediv__(self, other):
        return self._check(other) * self.inverse()

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        result = self.field.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.field.element(other)
        return (
            isinstance(other, FieldElement)
            and other.field == self.field
            and other.coeffs == self.coeffs
        )

    def __repr__(self):
        if self.field.d == 1:
            return str(self.coeffs[0])
        return "(" + ",".join(str(c) for c in self.coeffs) + ")"


# -- root finding ---------------------------------------------------------------


def poly_roots_in_field(coeffs, field: FiniteField) -> list[tuple[int, ...]]:
    """The distinct roots in F_q of an integer polynomial, as sorted coordinate tuples.

    gcd(x^q - x, f) is the product of the distinct linear factors of f over
    F_q; Cantor-Zassenhaus equal-degree splitting then separates them. Over
    F_p itself (d = 1) both steps run on int lists mod p, or for odd p and
    degree <= 2 mod p a closed form does, and no FieldElement is built.
    """
    p = field.p
    fp = polys.trim([c % p for c in coeffs])
    if not fp:
        raise DomainError("polynomial vanishes identically mod p")
    if len(fp) == 1:
        return []
    if field.d == 1 and len(fp) <= 3 and p != 2:
        return [(r,) for r in _quadratic_roots_mod_p(fp, p)]
    rng = random.Random(f"edf:{p}:{field.d}:{tuple(fp)}")
    roots = []
    if field.d == 1:
        h = _fp_gcd(fp, _fp_sub(_fp_powmod([0, 1], p, fp, p), [0, 1], p), p)
        _split_linear_product_mod_p(h, roots, rng, p)
        return [(r,) for r in sorted(set(roots))]
    f = polys.monic([field.element(c) for c in fp])
    x = [field.zero(), field.one()]
    h = polys.gcd(polys.sub(polys.powmod(x, field.q, f), x), f)
    _split_linear_product(h, roots, rng)
    return sorted({r.coeffs for r in roots})


def _split_linear_product_mod_p(h: list, out: list, rng: random.Random, p: int):
    """`_split_linear_product` over F_p on int lists: h monic, a product of distinct linear factors."""
    if len(h) <= 1:
        return
    if len(h) == 2:
        out.append(-h[0] % p)
        return
    while True:
        a = rng.randrange(p)
        # at p = 2 the trace polynomial of a x over F_2 is a x itself
        split = polys.trim([0, a]) if p == 2 else _fp_sub(_fp_powmod([a, 1], (p - 1) // 2, h, p), [1], p)
        g = _fp_gcd(h, split, p)
        if 1 < len(g) < len(h):
            _split_linear_product_mod_p(g, out, rng, p)
            _split_linear_product_mod_p(_fp_quo(h, g, p), out, rng, p)
            return


def _split_linear_product(h, out: list, rng: random.Random):
    """h is monic and splits into distinct linear factors; collect the roots."""
    if len(h) <= 1:
        return
    if len(h) == 2:
        out.append(-h[0])
        return
    field = h[0].field
    while True:
        a = field.element([rng.randrange(field.p) for _ in range(field.d)])
        if field.p == 2:
            # trace polynomial of a random multiple splits Artin-Schreier style
            t = []
            term = polys.rem([field.zero(), a], h)
            for _ in range(field.d):
                t = polys.add(t, term)
                term = polys.rem(polys.mul(term, term), h)
            g = polys.gcd(t, h)
        else:
            power = polys.powmod([a, field.one()], (field.q - 1) // 2, h)
            g = polys.gcd(polys.sub(power, [field.one()]), h)
        if 1 < len(g) < len(h):
            _split_linear_product(g, out, rng)
            _split_linear_product(polys.exact_quo(h, g), out, rng)
            return


# -- compositum norms ------------------------------------------------------------


def compositum_norm(P, Q, f, n: int) -> Fraction:
    """Product of P(alpha_i) - Q(zeta_j) over the roots alpha_i of the monic f
    and the primitive n-th roots of unity zeta_j.

    Res_x(f(x), P(x) - Q(zeta_n)), taken over Q(zeta_n), is the product over
    the alpha_i; its norm from Q(zeta_n) to Q is the product over the zeta_j.
    """
    f = polys.trim(list(f))
    if polys.degree(f) < 1:
        raise DomainError("the minimal polynomial must have positive degree")
    g = polys.sub([CycloElement(n, [c]) for c in P], [CycloElement(n, Q)])
    if not g:
        return Fraction(0)
    return polys.resultant([CycloElement(n, [c]) for c in f], g).norm()


# -- newform fixtures -------------------------------------------------------------


def _parse_rational(s) -> int | Fraction:
    """An int where int() takes s (a subset of what Fraction() takes, same value), else a Fraction."""
    for parse in (int, Fraction) if isinstance(s, str) or type(s) is int else ():
        try:
            return parse(s)
        except (ValueError, ZeroDivisionError):
            pass
    raise FixtureError(f"coefficient entries must be decimal strings, got {s!r}")


def _integer(x, what: str, key: bool = False) -> int:
    """x as an int; a digit string without leading zeros counts only as a JSON object key."""
    if key and isinstance(x, str) and x.isascii() and x.isdigit() and (x[0] != "0" or x == "0"):
        return int(x)
    if type(x) is not int:
        raise FixtureError(f"{what} must be an integer, got {x!r}")
    return x


def _unique_keys(pairs) -> dict:
    """A JSON object as a dict, where a repeated key is an error and not last-one-wins."""
    out = dict(pairs)
    if len(out) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise FixtureError(f"key {key!r} appears twice in one JSON object")
            seen.add(key)
    return out


def _typed(x, kind: type, what: str):
    if not isinstance(x, kind):
        raise FixtureError(f"{what} must be a {kind.__name__}, got {type(x).__name__}")
    return x


def _parse_an(an: dict, deg: int) -> tuple[dict, int]:
    """The a_n vectors padded to deg coordinates, and the lcm of their denominators.

    Keys n >= 1 without leading zeros and vectors of deg strings take one int()
    pass over all coordinates, regrouped by zip; anything else (padding,
    Fractions, JSON ints, errors) goes entry by entry, with the same results.
    """
    vecs = an.values()
    if deg > 0 and all(type(k) is str and k.isascii() and k.isdigit() and k[0] != "0" for k in an) \
            and all(type(vec) is list and len(vec) == deg for vec in vecs):
        flat = list(chain.from_iterable(vecs))
        try:
            "".join(flat)  # rejects any entry that is not a string
            return dict(zip(map(int, an), zip(*[map(int, flat)] * deg))), 1
        except (TypeError, ValueError):
            pass
    parsed, den = {}, 1
    for key, vec in an.items():
        n = _integer(key, "a coefficient index", key=True)
        if n < 1:
            raise FixtureError(f"coefficient index {n} out of range")
        if not isinstance(vec, list):
            raise FixtureError(f"a_{n} must be a list, got {type(vec).__name__}")
        if len(vec) > deg:
            raise FixtureError(f"a_{n} has {len(vec)} coordinates, field degree is {deg}")
        try:  # int() over a vector of strings in one pass; the join rejects any other entry
            "".join(vec)
            coords = tuple(map(int, vec))
        except (TypeError, ValueError):
            coords = tuple(map(_parse_rational, vec))
            den = math.lcm(den, *(c.denominator for c in coords))
        parsed[n] = coords + (0,) * (deg - len(vec))
    return parsed, den


class NewformFixture:
    """Ingested newform data: defining polynomial, power-basis a_n vectors, lcm of their denominators."""

    __slots__ = (
        "label",
        "weight",
        "level",
        "field_poly",
        "an",
        "steinberg_signs",
        "n_max",
        "denominator_lcm",
    )

    def __init__(self, label, weight, level, field_poly, an, steinberg_signs=None):
        self.label = str(label)
        self.weight = _integer(weight, "weight")
        self.level = _integer(level, "level")
        self.field_poly = tuple(_integer(c, "a field_poly coefficient")
                                for c in _typed(field_poly, list, "field_poly"))
        signs = _typed({} if steinberg_signs is None else steinberg_signs, dict, "steinberg_signs")
        self.steinberg_signs = {_integer(p, "a steinberg prime", key=True): _integer(s, "a steinberg sign")
                                for p, s in signs.items()}
        self.an, self.denominator_lcm = _parse_an(_typed(an, dict, "an"), len(self.field_poly) - 1)
        n = 0
        while (n + 1) in self.an:
            n += 1
        self.n_max = n
        self._validate()

    def _validate(self):
        if self.weight < 2 or self.weight % 2:
            raise FixtureError(f"weight must be even and >= 2, got {self.weight}")
        if self.level < 1:
            raise FixtureError(f"level must be positive, got {self.level}")
        deg = len(self.field_poly) - 1
        if deg < 1:
            raise FixtureError("field_poly must have positive degree")
        if self.field_poly[-1] != 1:
            raise FixtureError("field_poly must be monic")
        if not _is_irreducible_over_q(list(self.field_poly)):
            raise FixtureError("field_poly is reducible over Q")
        one = (1,) + (0,) * (deg - 1)
        if self.an.get(1) != one:
            raise FixtureError("a_1 != 1: fixture is not a normalized eigenform")
        for p, e in factorize(self.level).factors:
            if e >= 2 and p in self.an:
                if any(self.an[p]):
                    raise FixtureError(f"a_{p} must vanish since {p}^2 divides the level")
        for p, s in self.steinberg_signs.items():
            if s not in (1, -1):
                raise FixtureError(f"steinberg sign for {p} must be +-1, got {s}")
            if self.level % p != 0 or (self.level // p) % p == 0:
                raise FixtureError(f"{p} does not exactly divide the level {self.level}")
            if p in self.an:
                expected = s * p ** (self.weight // 2 - 1)
                vec = self.an[p]
                if vec[0] != expected or any(vec[1:]):
                    raise FixtureError(
                        f"a_{p} = {vec} contradicts steinberg sign {s}"
                    )

    @classmethod
    def from_dict(cls, data: dict) -> "NewformFixture":
        _typed(data, dict, "a fixture")
        _typed(data.get("non_cm", False), bool, "non_cm")
        try:
            return cls(
                data["label"],
                data["weight"],
                data["level"],
                data["field_poly"],
                data["an"],
                data.get("steinberg_signs"),
            )
        except KeyError as exc:
            raise FixtureError(f"fixture is missing required key {exc}") from exc

    @classmethod
    def from_json_file(cls, path) -> "NewformFixture":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh, object_pairs_hook=_unique_keys)
            except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, nesting too deep
                raise FixtureError(f"fixture is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    def a(self, n: int) -> tuple:
        if n not in self.an:
            raise DomainError(f"a_{n} is not available in fixture {self.label}")
        return self.an[n]

    def degree(self) -> int:
        return len(self.field_poly) - 1

    def __repr__(self):
        return f"NewformFixture({self.label}, k={self.weight}, N={self.level}, n<={self.n_max})"


def _is_irreducible_over_q(coeffs: list[int]) -> bool:
    """Monic integer polynomial irreducibility: inert-prime sieve, sympy fallback.

    Degree 1 is irreducible, and x^2 + bx + c is irreducible exactly when its
    discriminant b^2 - 4c is not a square, which needs neither.
    """
    deg = len(coeffs) - 1
    if deg == 1:
        return True
    if deg == 2:
        disc = coeffs[1] ** 2 - 4 * coeffs[0]
        return disc < 0 or math.isqrt(disc) ** 2 != disc
    for p in primes_up_to(200):
        if coeffs[0] % p == 0:
            continue
        try:
            degs = factor_degree_multiset(coeffs, p)
        except DomainError:
            continue
        if sum(d * c for d, c in degs) != deg:
            continue  # lost degree mod p, not usable
        if degs == [(deg, 1)]:
            return True
    try:
        import sympy
    except ImportError:
        raise FixtureError(
            f"no prime below 200 shows field_poly {coeffs} irreducible, and the "
            "fallback test needs sympy, which is not installed"
        ) from None
    x = sympy.Symbol("x")
    poly = sum(c * x ** i for i, c in enumerate(coeffs))
    return sympy.Poly(poly, x).is_irreducible


# -- residue points ----------------------------------------------------------------


def residue(x: int | Fraction, ell: int, context: str = "coefficient") -> int:
    """x mod ell as an int in [0, ell) for an int or Fraction x with a denominator prime to ell."""
    den = x.denominator
    if den % ell == 0:
        raise DenominatorObstruction(f"{context}: denominator {den} is divisible by {ell}")
    return x.numerator * pow(den, -1, ell) % ell


def _coordinates(y: list, d: int) -> tuple[int, ...]:
    """A remainder mod the degree-d modulus, as its d coordinates in F_q."""
    return tuple(y) + (0,) * (d - len(y))


def _frobenius(x: tuple | None, modulus: tuple, ell: int) -> tuple[int, ...] | None:
    """The coordinates of x^ell in F_q = F_ell[x]/(modulus): x itself at d = 1, and None (no zeta) stays None."""
    if len(modulus) == 2 or x is None:
        return x
    return _coordinates(_fp_powmod(list(x), ell, list(modulus), ell), len(modulus) - 1)


def _power_rows(x: tuple | None, count: int, modulus: tuple, ell: int) -> tuple:
    """The F_q coordinates of x^0, ..., x^(count-1), one row per coordinate."""
    powers, m = [[1]], list(modulus)
    for _ in range(count - 1):
        powers.append(_fp_mulmod(powers[-1], x, m, ell))
    return tuple(zip(*(_coordinates(y, len(m) - 1) for y in powers)))


@dataclass(frozen=True)
class ResiduePoint:
    """Q(alpha), and Q(zeta_n) for the index n, reduced into F_q = F_ell[x]/(modulus).

    rows holds the F_q coordinates of alpha^0, ..., alpha^(D-1), D the fixture's degree, and zeta_rows
    those of zeta^0, ..., zeta^(n-1), one row per coordinate; degree is the size of the Frobenius orbit.
    """

    ell: int
    modulus: tuple[int, ...]
    alpha_image: tuple[int, ...]
    zeta_image: tuple[int, ...] | None
    cyclo_index: int
    degree: int
    rows: tuple[tuple[int, ...], ...]
    zeta_rows: tuple[tuple[int, ...], ...]

    def vector_image(self, vec) -> tuple[int, ...]:
        """F_q coordinates of sum v_i alpha^i for ints or Fractions v_i: one dot product mod ell per row."""
        residues = [residue(v, self.ell, "coefficient of alpha") for v in vec]
        return tuple(sum(map(operator.mul, residues, row)) % self.ell for row in self.rows)

    def cyclo_image(self, residues, m: int) -> tuple[int, ...]:
        """F_q coordinates of sum r_j zeta_m^j for ints r_j, where m divides the point's index n.

        zeta_m maps to zeta^(n/m), so zeta_m^j reads column j n/m of the zeta-power table.
        """
        if self.cyclo_index % m:
            raise DomainError(f"cannot reduce Q(zeta_{m}) through a point for zeta_{self.cyclo_index}")
        step = self.cyclo_index // m
        return tuple(sum(map(operator.mul, residues, row[::step])) % self.ell for row in self.zeta_rows)


def find_residue_points(fixture: NewformFixture, n: int, ell: int) -> list[ResiduePoint]:
    """All (alpha, zeta_n) reductions mod ell, one per Frobenius orbit."""
    if not is_prime(ell):
        raise DomainError(f"{ell} is not prime")
    if n < 1:
        raise DomainError(f"cyclotomic index must be >= 1, got {n}")
    if fixture.denominator_lcm % ell == 0:
        idx = min(i for i, vec in fixture.an.items() if any(c.denominator % ell == 0 for c in vec))
        raise DenominatorObstruction(f"a_{idx} has denominator divisible by {ell}")
    f = list(fixture.field_poly)
    fdegs = factor_degree_multiset(f, ell)
    degs_all = [d for d, _ in fdegs]
    phi = None
    if n > 1:
        phi = list(cyclotomic_polynomial(n))
        pdegs = factor_degree_multiset(phi, ell)
        degs_all += [d for d, _ in pdegs]
    else:
        pdegs = [(1, 1)]
    D = math.lcm(*degs_all)
    field = FiniteField(ell, D)
    alpha_roots = poly_roots_in_field(f, field)
    zeta_roots = [None] if phi is None else poly_roots_in_field(phi, field)

    modulus = field.modulus
    seen = set()
    points = []
    for a in alpha_roots:
        for z in zeta_roots:
            if (a, z) in seen:
                continue
            orbit = [(a, z)]
            while (image := tuple(_frobenius(x, modulus, ell) for x in orbit[-1])) != orbit[0]:
                orbit.append(image)
            seen.update(orbit)
            # an orbit's pairs differ, its zeta images all None or all tuples: min never orders None
            alpha, zeta = min(orbit)
            points.append(ResiduePoint(ell, modulus, alpha, zeta, n, len(orbit),
                                       _power_rows(alpha, len(f) - 1, modulus, ell),
                                       _power_rows(zeta, n, modulus, ell)))
    expected = sum(
        cf * cp * math.gcd(df, dp) for df, cf in fdegs for dp, cp in pdegs
    )
    if len(points) != expected:
        raise ArithmeticError(f"found {len(points)} residue points mod {ell}, expected {expected}")
    return sorted(points, key=lambda pt: (pt.alpha_image, pt.zeta_image or ()))
