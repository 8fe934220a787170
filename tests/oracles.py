"""Reference implementations that only the tests use.

Numeric L-values and a lattice double sum (mpmath) cross-check the exact
Bernoulli and Eisenstein routes; the q-expansion operators V_m, T_r, twist
and theta, and E_2 - u E_2(u tau), check identities of the series the
package builds; an additive divisor sieve checks the multiplicative one of
`eisenstein._divisor_power_sums`, and E_2 and the weight-2 E' built from it
by U_p operators check the stabilisation steps of
`eprime_weight2_steinberg`; the 2^t subset expansion of the twisted E'
checks the value and the `str` of each coefficient of `eprime_twisted`;
Gauss sums and the von Staudt-Clausen denominator check the character and
Bernoulli layers; B_{k,chi} summed over Bernoulli
polynomials checks the power-sum route of `bernoulli_generalized`; the
conductor from the orders of the generators' images and the primitive
associate read off values at CRT lifts check the exponent arithmetic of
`DirichletCharacter._descent`; the
rational value of a Q(zeta_n) element, the triviality of a character and
the data of a residue point are read here for the tests. `Fq` is the one
reference field F_p[y]/(m), on int tuples by schoolbook arithmetic, with m
the modulus of the point or field under test; it shares no arithmetic with
`residues` or `polys`. In it, Frobenius as a power checks the integer orbits
of `find_residue_points`; Horner evaluation (of a power-basis vector at
alpha, of a Q(zeta_m) element at a point's zeta) checks a residue point's
integer tables, and with it the congruence comparison at every n and point
checks `verify._point_outcomes`; the Euler criterion, and the discriminant
and Artin-Schreier trace, check the integer irreducibility test of the
Frobenius scan, `residues._fp_irreducible_quadratic`; its element lists and
power tables let the tests find roots by enumeration. The entry-by-entry `an` parser
checks the one-pass loader of `residues._parse_an`; and a plain ECM curve,
with one inversion per point and every stage-2 pair, checks
`exact._ecm_curve`. None of this is on the package's runtime path.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

import mpmath

from excprimes import (
    DomainError, DirichletCharacter, FixtureError, QExpansion, eisenstein_E, exact, is_prime, verify,
)
from excprimes.bernoulli import bernoulli_classical, bernoulli_generalized
from excprimes.characters import _group
from excprimes.cyclotomic import CycloElement, zeta
from excprimes.eisenstein import TruncationError
from excprimes.residues import _integer, _parse_rational


def evaluate(f: list, x):
    """Horner evaluation; works for any coefficient/point ring."""
    acc = 0
    for c in reversed(f):
        acc = acc * x + c
    return acc


# -- Q(zeta_n) in C ----------------------------------------------------------------


def embed_numeric(x: CycloElement, prec: int = 50):
    """Complex value with zeta_n = exp(2 pi i / n), via mpmath."""
    with mpmath.workdps(prec):
        coeffs = [mpmath.mpf(c.numerator) / c.denominator for c in x.coeffs]
        return evaluate(coeffs, mpmath.expjpi(mpmath.mpf(2) / x.n))


def conj(x: CycloElement) -> CycloElement:
    """Complex conjugation, zeta_n -> zeta_n^(n-1)."""
    if x.n <= 2:
        return x
    return evaluate(x.coeffs, zeta(x.n, x.n - 1))


def is_rational(x: CycloElement) -> bool:
    """x lies in Q: every coordinate past the constant one is 0."""
    return all(c == 0 for c in x.coeffs[1:])


def rational_value(x: CycloElement) -> Fraction:
    """x as a Fraction, for x in Q."""
    if not is_rational(x):
        raise DomainError(f"{x} is not rational")
    return x.coeffs[0] if x.coeffs else Fraction(0)


def is_trivial(chi: DirichletCharacter) -> bool:
    return chi.order == 1


def conductor_reference(chi: DirichletCharacter) -> int:
    """The conductor, component by component from the orders of the generators' images."""
    cond = 1
    pos = 0
    for p, e, gens in _group(chi.modulus):
        exps = chi.exponents[pos : pos + len(gens)]
        pos += len(gens)
        if p != 2:
            (_, d) = gens[0]
            o = d // math.gcd(d, exps[0])
            if o > 1:
                vp = 0
                while o % p == 0:
                    o //= p
                    vp += 1
                cond *= p ** (1 + vp)
        elif e == 2:
            if exps[0] % 2 == 1:
                cond *= 4
        elif e >= 3:
            s, j = exps
            d5 = gens[1][1]
            o5 = d5 // math.gcd(d5, j)
            if o5 > 1:
                cond *= 4 * o5
            elif s % 2 == 1:
                cond *= 4
    return cond


def _lift_unit(m: int, a: int, pe: int) -> int:
    """x = a mod pe, x = 1 mod (the other prime powers of m), a unit mod m."""
    p_part = rest = 1
    for p, e in exact.factorize(m).factors:
        if pe % p == 0:
            p_part = p ** e  # pe divides the p-part of m; lift a through it
        else:
            rest *= p ** e
    if p_part % pe or math.gcd(a, pe) != 1:
        raise ArithmeticError(f"{a} is not a unit mod {pe}, or {pe} is not in the modulus")
    # CRT: x = a mod p_part, x = 1 mod rest
    x = (1 + rest * ((a - 1) * pow(rest, -1, p_part))) % (p_part * rest)
    if x % pe != a % pe or math.gcd(x, m) != 1:
        raise ArithmeticError(f"the CRT lift {x} of {a} is wrong")
    return x


def primitive_associate_by_values(chi: DirichletCharacter) -> DirichletCharacter:
    """The primitive associate, read off chi's values at CRT lifts of the conductor's generators."""
    f = conductor_reference(chi)
    exps = []
    for p, e, gens in _group(f):
        for g, d in gens:
            x = _lift_unit(chi.modulus, g, p ** e)
            t = chi.value_exponent(x) * d
            if t.denominator != 1:
                raise ArithmeticError(f"chi({x}) is not a {d}-th root of unity")
            exps.append(t.numerator % d)
    return DirichletCharacter(f, tuple(exps))


def gauss_sum_exact(psi: DirichletCharacter) -> CycloElement:
    """W(psi) = sum of psi(a) zeta_f^a over a mod f, for primitive psi."""
    if not psi.is_primitive():
        raise DomainError(f"gauss sum requires a primitive character, modulus {psi.modulus}")
    f = psi.modulus
    total = CycloElement(1, [Fraction(0)])
    for a in range(1, f + 1):
        if math.gcd(a, f) == 1:
            total = total + psi.value(a) * zeta(f, a)
    return total


def von_staudt_denominator(m: int) -> int:
    """Product of primes p with (p-1) | m; the exact denominator of B_m, m even."""
    if m <= 0 or m % 2:
        raise DomainError(f"need a positive even index, got {m}")
    out = 1
    for p in range(2, m + 2):
        if m % (p - 1) == 0 and is_prime(p):
            out *= p
    return out


# -- residue points ------------------------------------------------------------------


def describe(pt) -> dict:
    """The data of a residue point: its field, the images of alpha and zeta, its orbit size."""
    out = {
        "ell": pt.ell,
        "field_degree": len(pt.modulus) - 1,
        "field_modulus": list(pt.modulus),
        "alpha": list(pt.alpha_image),
        "degree": pt.degree,
    }
    if pt.zeta_image is not None:
        out["zeta"] = list(pt.zeta_image)
        out["cyclo_index"] = pt.cyclo_index
    return out


class Fq:
    """F_q = F_p[y]/(m) on d-tuples of ints in [0, p), for a monic m of degree d irreducible mod p.

    A sum is taken coordinate by coordinate and a product by schoolbook
    multiplication, reduced mod m from the top coefficient down; a power is
    square-and-multiply. The element list and the power tables are built
    once per field, which `field` builds once per (p, m).
    """

    def __init__(self, p: int, modulus: tuple):
        self.p, self.m, self.d = p, modulus, len(modulus) - 1
        self.q = p ** self.d
        self.zero = (0,) * self.d
        self.one = self.of(1)

    def of(self, x) -> tuple:
        """An int, or a Fraction whose denominator p does not divide, as an element of F_p inside F_q."""
        return (x.numerator * pow(x.denominator, -1, self.p) % self.p,) + (0,) * (self.d - 1)

    def add(self, x: tuple, y: tuple) -> tuple:
        return tuple((a + b) % self.p for a, b in zip(x, y))

    def sub(self, x: tuple, y: tuple) -> tuple:
        return tuple((a - b) % self.p for a, b in zip(x, y))

    def mul(self, x: tuple, y: tuple) -> tuple:
        p, m, d = self.p, self.m, self.d
        prod = [0] * (2 * d - 1)
        for i, a in enumerate(x):
            for j, b in enumerate(y):
                prod[i + j] += a * b
        for top in range(2 * d - 2, d - 1, -1):
            c = prod[top] % p
            for i in range(d):
                prod[top - d + i] -= c * m[i]
        return tuple(c % p for c in prod[:d])

    def pow(self, x: tuple, e: int) -> tuple:
        """x^e for e >= 0."""
        result = self.one
        while e:
            if e & 1:
                result = self.mul(result, x)
            x, e = self.mul(x, x), e >> 1
        return result

    def horner(self, coeffs, x: tuple) -> tuple:
        """sum c_i x^i for ints or Fractions c_i."""
        acc = self.zero
        for c in reversed(coeffs):
            acc = self.add(self.mul(acc, x), self.of(c))
        return acc

    @functools.cached_property
    def elements(self) -> list:
        """Every element, in the order of the coordinate tuples."""
        return list(itertools.product(range(self.p), repeat=self.d))

    @functools.cached_property
    def generator(self) -> tuple:
        """The first element, in the order of the coordinate tuples, whose multiplicative order is q - 1."""
        n = self.q - 1
        primes = [r for r in range(2, n + 1) if n % r == 0 and all(r % s for s in range(2, math.isqrt(r) + 1))]
        return next(x for x in self.elements[1:] if all(self.pow(x, n // r) != self.one for r in primes))

    @functools.cache
    def power_table(self, top: int) -> list:
        """(x, the coordinates of x^0, ..., x^top in one tuple) for every element x.

        F_q^* is cyclic: x = g^k for the generator g has x^i = g^(ik mod q-1),
        so the q - 1 powers of g give every row.
        """
        n = self.q - 1
        powers = [self.one]
        for _ in range(n - 1):
            powers.append(self.mul(powers[-1], self.generator))
        table = [(self.zero, self.one + self.zero * top)]
        for k, x in enumerate(powers):
            table.append((x, tuple(itertools.chain.from_iterable(powers[i * k % n] for i in range(top + 1)))))
        return table


@functools.cache
def field(p: int, modulus: tuple) -> Fq:
    return Fq(p, modulus)


def field_of(pt) -> Fq:
    """The field of a residue point: its ell and its modulus."""
    return field(pt.ell, pt.modulus)


def reduce_vector_reference(pt, vec) -> tuple:
    """sum c_i alpha^i at a residue point, by Horner at alpha."""
    return field_of(pt).horner(vec, pt.alpha_image)


def reduce_cyclo_reference(pt, x: CycloElement) -> tuple:
    """x in Q(zeta_m), m dividing the point's index n, at the point: embedded in Q(zeta_n), then Horner at zeta."""
    if pt.cyclo_index % x.n:
        raise DomainError(f"cannot reduce Q(zeta_{x.n}) through a point for zeta_{pt.cyclo_index}")
    F = field_of(pt)
    return F.horner(x.embed(pt.cyclo_index).coeffs, F.one if pt.zeta_image is None else pt.zeta_image)


def frobenius_reference(F: Fq, x: tuple) -> tuple:
    """x^p, by its power; x itself in F_p."""
    return x if F.d == 1 else F.pow(x, F.p)


def trace_reference(F: Fq, x: tuple) -> int:
    """Absolute trace of x down to F_p, the sum of its d Frobenius conjugates, as an int."""
    acc, y = F.zero, x
    for _ in range(F.d):
        acc, y = F.add(acc, y), frobenius_reference(F, y)
    if any(acc[1:]):
        raise ArithmeticError(f"trace of {x} does not lie in F_{F.p}")
    return acc[0]


def quadratic_irreducible_reference(F: Fq, a: tuple, c: tuple) -> bool:
    """Is X^2 - aX + c irreducible over F?

    Odd characteristic: the discriminant a^2 - 4c is a non-square (Euler's
    criterion) and nonzero. Characteristic 2: a != 0 and Tr(c / a^2) = 1
    (Artin-Schreier), with 1 / a^2 = (a^2)^(q-2).
    """
    if F.p == 2:
        return any(a) and trace_reference(F, F.mul(c, F.pow(F.mul(a, a), F.q - 2))) == 1
    disc = F.sub(F.mul(a, a), F.mul(F.of(4), c))
    return any(disc) and not is_square_euler(F, disc)


def is_square_euler(F: Fq, x: tuple) -> bool:
    """Euler criterion in F_q: x^((q-1)/2) = 1; zero counts as a square. Odd characteristic only."""
    if F.p == 2:
        raise DomainError("squareness via the Euler criterion needs odd characteristic")
    return not any(x) or F.pow(x, (F.q - 1) // 2) == F.one


def parse_an_reference(an: dict, deg: int) -> tuple[dict, int, int]:
    """(a_n vectors, lcm of their denominators, n_max), parsed one entry at a time."""
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
    n_max = 0
    while (n_max + 1) in parsed:
        n_max += 1
    return parsed, den, n_max


def point_outcomes_reference(fixture, E: QExpansion, points, ell: int, window: int) -> list:
    """`verify._point_outcomes` with a_n(f) and a_n(E) evaluated by Horner at every n and point."""
    mismatch = [None] * len(points)
    for n, a_n in verify._compared(fixture, ell, window):
        live = [i for i, m in enumerate(mismatch) if m is None]
        if not live:
            break
        target = E.coefficient(n)
        for i in live:
            pt = points[i]
            if isinstance(target, CycloElement):
                rhs = reduce_cyclo_reference(pt, target)
            else:
                rhs = field_of(pt).of(target)
            if reduce_vector_reference(pt, a_n) != rhs:
                mismatch[i] = n
    return [(verify._point_name(pt), n) for pt, n in zip(points, mismatch)]


# -- Bernoulli polynomials ----------------------------------------------------------


def bernoulli_polynomial(m: int, x: Fraction) -> Fraction:
    """B_m(x) = sum_j C(m,j) B_j x^(m-j)."""
    x = Fraction(x)
    acc = Fraction(0)
    for j in range(m + 1):
        acc += math.comb(m, j) * bernoulli_classical(j) * x ** (m - j)
    return acc


def bernoulli_generalized_by_polynomials(k: int, chi: DirichletCharacter) -> CycloElement:
    """B_{k,chi} = f^(k-1) * sum_{a=1..f} chi(a) B_k(a/f), for primitive chi mod f."""
    f = chi.modulus
    total = CycloElement(1, [Fraction(0)])
    for a in range(1, f + 1):
        if math.gcd(a, f) == 1:
            total = total + chi.value(a) * bernoulli_polynomial(k, Fraction(a, f))
    return Fraction(f) ** (k - 1) * total


# -- one ECM curve, step by step ---------------------------------------------------------


def _xdbl(x: int, z: int, a24: int, n: int) -> tuple[int, int]:
    s, d = (x + z) ** 2 % n, (x - z) ** 2 % n
    t = s - d
    return s * d % n, t * (d + a24 * t) % n


def _xadd(xp: int, zp: int, xq: int, zq: int, xd: int, zd: int, n: int) -> tuple[int, int]:
    """P + Q from P, Q and their difference P - Q = (xd : zd)."""
    u = (xp - zp) * (xq + zq) % n
    v = (xp + zp) * (xq - zq) % n
    return zd * (u + v) ** 2 % n, xd * (u - v) ** 2 % n


def _ladder(k: int, x: int, z: int, a24: int, n: int) -> tuple[int, int]:
    """k * (x : z) for k >= 1 by the Montgomery ladder."""
    xr, zr = x, z
    xs, zs = _xdbl(x, z, a24, n)
    for bit in bin(k)[3:]:
        xa, za = _xadd(xs, zs, xr, zr, x, z, n)
        if bit == "1":
            xr, zr = xa, za
            xs, zs = _xdbl(xs, zs, a24, n)
        else:
            xs, zs = xa, za
            xr, zr = _xdbl(xr, zr, a24, n)
    return xr, zr


def ecm_curve_reference(n: int, sigma: int, b1: int) -> int:
    """One ECM curve with the same sigma, B1 and B2 as `exact._ecm_curve`.

    Each point is brought to Z = 1 by its own inversion, and stage 2
    multiplies x(m D Q) - x(j Q) over every baby step j, prime pair or not.
    """
    d_step = exact._ECM_D
    u = (sigma * sigma - 5) % n
    v = 4 * sigma % n
    x0, z0 = pow(u, 3, n), pow(v, 3, n)
    den = 16 * x0 * v * z0 % n
    g = math.gcd(den, n)
    if g != 1:
        return g
    inv = pow(den, -1, n)
    a24 = pow(v - u, 3, n) * (3 * u + v) * z0 * inv % n
    x = 16 * x0 * x0 * v * inv % n
    qx, qz = _ladder(exact._stage1_multiplier(b1), x, 1, a24, n)
    g = math.gcd(qz, n)
    if g != 1:
        return g
    baby = []
    two = _xdbl(qx, qz, a24, n)
    prev, cur = (qx, qz), _ladder(3, qx, qz, a24, n)
    for j in range(1, d_step // 2, 2):
        if math.gcd(j, d_step) == 1:
            g = math.gcd(prev[1], n)
            if g != 1:
                return g
            baby.append(prev[0] * pow(prev[1], -1, n) % n)
        prev, cur = cur, _xadd(*cur, *two, *prev, n)
    m = max(1, b1 // d_step)
    step = _ladder(d_step, qx, qz, a24, n)
    r = _ladder(m * d_step, qx, qz, a24, n)
    s = _ladder((m + 1) * d_step, qx, qz, a24, n)
    acc = 1
    while m * d_step - d_step // 2 <= exact._ECM_B2_FACTOR * b1:
        g = math.gcd(r[1], n)
        if g != 1:
            return g
        xr = r[0] * pow(r[1], -1, n) % n
        for xj in baby:
            acc = acc * (xr - xj) % n
        r, s = s, _xadd(*s, *step, *r, n)
        m += 1
    return math.gcd(acc, n)


# -- numeric L-values ----------------------------------------------------------------


def lvalue_numeric(k: int, chi: DirichletCharacter, precision: int = 50):
    """L(k, chi) by Hurwitz-zeta summation over residue classes (mpmath)."""
    if k < 2 or k % 2:
        raise DomainError(f"need even k >= 2, got {k}")
    if not chi.is_even():
        raise DomainError("numeric L-values implemented for even characters only")
    with mpmath.workdps(precision):
        f = chi.modulus
        total = mpmath.mpc(0)
        for a in range(1, f + 1):
            if math.gcd(a, f) != 1:
                continue
            total += embed_numeric(chi.value(a), precision) * mpmath.zeta(
                k, mpmath.mpf(a) / f
            )
        return total / mpmath.mpf(f) ** k


def lvalue_functional_rhs(k: int, chi: DirichletCharacter, precision: int = 50):
    """-W(chi) (2 i pi)^k / ((k-1)! f^k) * B_{k,chi^(-1)} / 2k, numerically."""
    with mpmath.workdps(precision):
        f = chi.modulus
        w = embed_numeric(gauss_sum_exact(chi), precision)
        ck = (2j * mpmath.pi) ** k / mpmath.factorial(k - 1)
        b = embed_numeric(bernoulli_generalized(k, chi.inverse()), precision)
        return -w * ck / mpmath.mpf(f) ** k * b / (2 * k)


def lattice_sum_oracle(
    nu: DirichletCharacter, k: int, M_max: int, precision: int = 50, u: int = 1
):
    """Truncated double sum: over classes j mod c, then integers m with
    m = j/u (mod c) and 0 < |m| <= M_max, of nu^2(m)/m^k, scaled by nu(-u)/2.

    Converges to nu(-u) L(k, nu^2) at rate O(M_max^(1-k)); serves as a brute
    numeric oracle against the Hurwitz-zeta route and the exact formula.
    """
    if k < 4 or k % 2:
        raise DomainError("lattice oracle needs even k >= 4 (k = 2 excluded)")
    if M_max < 10 ** 3:
        raise DomainError("lattice oracle needs M_max >= 1000")
    c = nu.modulus
    if math.gcd(u, c) != 1:
        raise DomainError(f"cusp numerator {u} must be a unit mod {c}")
    nusq = nu * nu
    with mpmath.workdps(precision):
        vals = [
            embed_numeric(nusq.value(r), precision)
            if math.gcd(r, c) == 1
            else mpmath.mpc(0)
            for r in range(c)
        ]
        u_inv = pow(u, -1, c) if c > 1 else 1
        total = mpmath.mpc(0)
        for j in range(c):
            r = j * u_inv % c
            # every m in the class has nu^2(m) = vals[r]; with k even the
            # negative m contribute through |m| = -r (mod c)
            parts = []
            for sign_class in (r, (-r) % c):
                start = sign_class if sign_class > 0 else c
                for m in range(start, M_max + 1, c):
                    parts.append(mpmath.mpf(m) ** (-k))
            total += vals[r] * mpmath.fsum(parts)
        return embed_numeric(nu.value(-u), precision) * total / 2


# -- q-expansion operators -------------------------------------------------------------


def apply_Vm(f: QExpansion, m: int) -> QExpansion:
    """a_n -> coefficient at mn (i.e. tau -> m tau)."""
    if m < 1:
        raise DomainError(f"V_m needs m >= 1, got {m}")
    coeffs = [0] * (f.truncation * m + 1)
    for n, c in enumerate(f.coeffs):
        coeffs[m * n] = c
    return QExpansion(coeffs, f.weight, f.level * m)


def apply_Tr(f: QExpansion, r: int, k: int | None = None) -> QExpansion:
    """T_r for prime r not dividing the level: a_n -> a_{rn} + r^(k-1) a_{n/r}."""
    k = f.weight if k is None else k
    out_trunc = f.truncation // r
    if out_trunc < 1:
        raise TruncationError(f"T_{r} needs truncation >= {r}, have {f.truncation}")
    coeffs = []
    for n in range(out_trunc + 1):
        c = f.coeffs[r * n]
        if n % r == 0:
            c = c + r ** (k - 1) * f.coeffs[n // r]
        coeffs.append(c)
    return QExpansion(coeffs, f.weight, f.level)


def twist(f: QExpansion, psi: DirichletCharacter) -> QExpansion:
    """a_n -> a_n psi(n); level becomes lcm(level, conductor-modulus^2)."""
    coeffs = [psi.value(n) * c for n, c in enumerate(f.coeffs)]
    return QExpansion(coeffs, f.weight, math.lcm(f.level, psi.modulus ** 2))


def theta_operator(f: QExpansion) -> QExpansion:
    """q d/dq on coefficients (intended for series already reduced mod ell)."""
    return QExpansion([n * c for n, c in enumerate(f.coeffs)], f.weight, f.level)


def divisor_power_sums_reference(e: int, truncation: int) -> list[int]:
    """sigma_e(n) for 0 <= n <= truncation (entry 0 is 0): m^e added to every multiple of m."""
    sig = [0] * (truncation + 1)
    for m in range(1, truncation + 1):
        m_e = m ** e
        for j in range(m, truncation + 1, m):
            sig[j] += m_e
    return sig


def eisenstein_E2u(u: int, truncation: int) -> QExpansion:
    """E_2(tau) - u E_2(u tau): constant term (u-1)/24, a_n = sum of m | n, u not | m."""
    if u < 2:
        raise DomainError(f"E_2^(u) needs u >= 2, got {u}")
    sig = divisor_power_sums_reference(1, truncation)
    coeffs: list = [Fraction(u - 1, 24)]
    for n in range(1, truncation + 1):
        # the divisors m = u m' of n sum to u sigma_1(n/u)
        coeffs.append(Fraction(sig[n] - (u * sig[n // u] if n % u == 0 else 0)))
    return QExpansion(coeffs, 2, u)


def e2_series(truncation: int) -> QExpansion:
    """E_2 = -1/24 + sum sigma_1(n) q^n (quasi-modular; used mod ell only)."""
    sig = divisor_power_sums_reference(1, truncation)
    return QExpansion([Fraction(-1, 24)] + [Fraction(s) for s in sig[1:]], 2, 1)


def eprime_weight2_by_operators(signs, truncation: int) -> list[Fraction]:
    """[prod_i (s_i U_{p_i} - p_i Id)] E_2, coefficients 0..truncation, before reduction mod ell.

    Applies each operator to E_2 itself, built out to truncation * N with a
    Fraction per coefficient; signs = [(p, s)] with distinct p.
    """
    need = truncation * math.prod(p for p, _ in signs)
    g = list(e2_series(need).coeffs)
    for p, s in signs:  # a_n -> s a_{pn} - p a_n, for every n with pn still known
        g = [s * g[p * n] - p * g[n] for n in range((len(g) - 1) // p + 1)]
    return g[: truncation + 1]


def eprime_twisted_by_subsets(nu: DirichletCharacter, steinberg_primes, truncation: int) -> QExpansion:
    """E + sum over nonempty subsets S of {p_i}: (-1)^|S| (prod S) nu^(-1)(prod S) E(prod S tau).

    The 2^t subset expansion of E = E_2^nu, adding each term only where the
    base coefficient is nonzero; it checks the value and the `str` of every
    coefficient of `eprime_twisted`, which takes one step per prime.
    """
    primes = sorted(steinberg_primes)
    base = eisenstein_E(2, nu, truncation)
    nu_inv = nu.inverse()
    coeffs = list(base.coeffs)
    for mask in range(1, 1 << len(primes)):
        chosen = [p for i, p in enumerate(primes) if mask >> i & 1]
        u = math.prod(chosen)
        scalar = (-1) ** len(chosen) * u * nu_inv.value(u)
        for n in range(0, truncation // u + 1):
            if base.coeffs[n]:
                coeffs[n * u] = coeffs[n * u] + scalar * base.coeffs[n]
    return QExpansion(coeffs, 2, nu.modulus ** 2 * math.prod(primes))
