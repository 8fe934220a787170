"""Exact integer arithmetic: primality, factorization, divisibility plumbing.

Everything here is pure and deterministic. Values are plain Python ints
(arbitrary precision); rationals are fractions.Fraction throughout the
package. FactoredInteger pairs an integer with its certified factorization
and is the currency of every "l divides ..." clause in the bound engine.

Besides the factorization memo, the module holds one piece of state: the
table of factor hints that `factor_hints` fills for the length of one block,
read by `factorize` before the memo.
"""

from __future__ import annotations

import contextlib
import decimal
import itertools
import math
import random
from dataclasses import dataclass
from functools import lru_cache


class DomainError(ValueError):
    """Raised when an operation is called outside its mathematical domain."""


def decimal_string(n: int) -> str:
    """str(decimal.Decimal(n)) in quasi-linear time, also past the limit on str(int).

    |n| = hi 2^h + lo is split by bits down to 128-bit leaves and joined as
    lo + hi 2^h with libmpdec's fast multiplication (Brent and Zimmermann,
    Modern Computer Arithmetic, 1.7); Inexact is trapped, so no step rounds.
    """
    ctx = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                          Emin=decimal.MIN_EMIN, traps=[decimal.Inexact])
    pow2: dict[int, decimal.Decimal] = {}

    def power(h: int) -> decimal.Decimal:
        if h not in pow2:
            pow2[h] = (decimal.Decimal(1 << h) if h <= 128
                       else ctx.multiply(power(h >> 1), power(h - (h >> 1))))
        return pow2[h]

    def convert(m: int, bits: int) -> decimal.Decimal:
        if bits <= 128:
            return decimal.Decimal(m)
        h = bits >> 1
        hi = m >> h
        return ctx.add(convert(m - (hi << h), h), ctx.multiply(convert(hi, bits - h), power(h)))

    digits = str(convert(abs(n), abs(n).bit_length()))
    return "-" + digits if n < 0 else digits


# Deterministic Miller-Rabin: this base set is a proven witness set for all
# n < 3,317,044,064,679,887,385,961,981 (~3.3e24).
_MR_DETERMINISTIC_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_DETERMINISTIC_LIMIT = 3_317_044_064_679_887_385_961_981
# Above the limit, this many random bases drawn from an n-seeded RNG.
_MR_RANDOM_ROUNDS = 20

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def _miller_rabin_witness(n: int, a: int) -> bool:
    """True if a witnesses the compositeness of odd n > 2."""
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def is_prime(n: int) -> bool:
    """Primality test.

    Deterministic below ~3.3e24 (fixed Miller-Rabin base set); above that,
    probabilistic with _MR_RANDOM_ROUNDS random bases drawn from an n-seeded
    RNG so results stay reproducible.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    if n < _MR_DETERMINISTIC_LIMIT:
        bases = _MR_DETERMINISTIC_BASES
    else:
        rng = random.Random(n)
        bases = tuple(rng.randrange(2, n - 1) for _ in range(_MR_RANDOM_ROUNDS))
    return not any(_miller_rabin_witness(n, a) for a in bases)


# Trial division runs over the primes below this bound. A cofactor left with
# no prime factor below it and smaller than its square is prime.
_TRIAL_BOUND = 1 << 16

# ECM stage-1 bounds B1 and the number of curves run at each, after the
# GMP-ECM table for 15-, 20-, 25- and 30-digit factors; the last bound is
# kept once the table runs out. Stage 2 covers primes up to 100 * B1 with
# giant steps of D and baby steps j < D/2 prime to D.
_ECM_SCHEDULE = ((2_000, 25), (11_000, 90), (50_000, 300), (250_000, 700))
_ECM_B2_FACTOR = 100
_ECM_D = 2310
# Stage 2 takes this many giant steps at a time: one sieve block when the
# table of prime pairs is built, and one inversion per batch on each curve.
_ECM_BATCH = 64

# The ECM budget. A composite up to this bound (32 digits) runs the whole
# schedule: its smallest prime factor has at most 16 digits. A larger one
# runs the first row only, 25 curves, and what they do not split is kept as
# an unfactored cofactor.
_ECM_FULL_LIMIT = 10 ** 32


@lru_cache(maxsize=1)
def _trial_primes() -> tuple[int, ...]:
    return tuple(primes_up_to(_TRIAL_BOUND - 1))


def _iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 1, by Newton's method on integers."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


# -- ECM on Montgomery curves B y^2 = x^3 + A x^2 + x, x-only (X : Z) points,
# with a24 = (A + 2) / 4 (Montgomery, Math. Comp. 48 (1987)).


def _ladder(k: int, x: int, a24: int, n: int) -> tuple[int, int]:
    """k * (x : 1) for k >= 1 by the Montgomery ladder.

    (xs : zs) - (xr : zr) = (x : 1) throughout, so each differential
    addition skips the multiplication by the difference's Z.
    """
    s, d = (x + 1) ** 2 % n, (x - 1) ** 2 % n
    t = s - d
    xr, zr, xs, zs = x, 1, s * d % n, t * (d + a24 * t) % n
    for bit in bin(k)[3:]:
        a, b, c, e = xr + zr, xr - zr, xs + zs, xs - zs
        u, v = e * a % n, c * b % n
        xa, za = (u + v) ** 2 % n, x * (u - v) ** 2 % n
        if bit == "1":
            s, d = c * c % n, e * e % n
            t = s - d
            xr, zr, xs, zs = xa, za, s * d % n, t * (d + a24 * t) % n
        else:
            s, d = a * a % n, b * b % n
            t = s - d
            xr, zr, xs, zs = s * d % n, t * (d + a24 * t) % n, xa, za
    return xr, zr


def _normalize(points: list[tuple[int, int]], n: int) -> tuple[int, list[int]]:
    """(1, [X / Z mod n for each point]) with one inversion, by Montgomery's trick.

    When some Z is not a unit mod n, (gcd(Z, n), []) for the first such point.
    """
    prefix = []
    acc = 1
    for _, z in points:
        acc = acc * z % n
        prefix.append(acc)
    if math.gcd(acc, n) != 1:
        return next(g for g in (math.gcd(z, n) for _, z in points) if g != 1), []
    inv = pow(acc, -1, n)
    out = [0] * len(points)
    for i in range(len(points) - 1, 0, -1):
        x, z = points[i]
        out[i] = x * inv * prefix[i - 1] % n
        inv = inv * z % n
    out[0] = points[0][0] * inv % n
    return 1, out


@lru_cache(maxsize=8)
def _stage1_multiplier(b1: int) -> int:
    """Product of the largest prime powers p^e <= b1."""
    k = 1
    for p in primes_up_to(b1):
        q = p
        while q * p <= b1:
            q *= p
        k *= q
    return k


@lru_cache(maxsize=2)
def _stage2_rows(b1: int, b2: int) -> tuple[bytes, ...]:
    """The prime pairs of stage 2: one row for each giant step m D.

    m runs from max(1, b1 // D) while m D - D/2 <= b2. Row m holds the
    indices, among the odd j < D/2 prime to D, of those j with m D + j or
    m D - j prime. A sieve over _ECM_BATCH rows at a time finds them, so no
    sieve of b2 bytes is kept.
    """
    half = _ECM_D // 2
    js = [j for j in range(1, half, 2) if math.gcd(j, _ECM_D) == 1]
    m0, m1 = max(1, b1 // _ECM_D), (b2 + half) // _ECM_D
    small = primes_up_to(math.isqrt(m1 * _ECM_D + half))
    rows = []
    for first in range(m0, m1 + 1, _ECM_BATCH):
        last = min(first + _ECM_BATCH, m1 + 1)
        lo = first * _ECM_D - half  # seg[i] stands for lo + i
        seg = bytearray([1]) * ((last - first) * _ECM_D + 1)
        for p in small:
            start = max(p * p, -(-lo // p) * p) - lo
            seg[start::p] = bytes(len(range(start, len(seg), p)))
        for m in range(first, last):
            c = m * _ECM_D - lo
            rows.append(bytes(i for i, j in enumerate(js) if seg[c + j] or seg[c - j]))
    return tuple(rows)


def _ecm_curve(n: int, sigma: int, b1: int) -> int:
    """One ECM curve; a proper divisor of n when the curve's order mod some p | n is smooth.

    Suyama's parametrization by sigma gives the curve and a point on it.
    Stage 1 multiplies the point by every prime power up to b1, giving Q.
    Stage 2 catches one more prime q = m D +- j up to 100 * b1: q Q vanishes
    mod p exactly when m D Q and j Q have the same x-coordinate mod p. It
    multiplies the differences only over the pairs (m, j) where m D + j or
    m D - j is prime, and brings the baby and the giant steps to Z = 1 in
    batches, with one inversion each. Returns 1 or n when the curve finds
    nothing.
    """
    u = (sigma * sigma - 5) % n
    v = 4 * sigma % n
    x0, z0 = pow(u, 3, n), pow(v, 3, n)
    den = 16 * x0 * v * z0 % n
    g = math.gcd(den, n)
    if g != 1:
        return g
    inv = pow(den, -1, n)
    a24 = pow(v - u, 3, n) * (3 * u + v) * z0 * inv % n
    x = 16 * x0 * x0 * v * inv % n  # x0 / z0
    qx, qz = _ladder(_stage1_multiplier(b1), x, a24, n)
    g = math.gcd(qz, n)
    if g != 1:
        return g
    q = qx * pow(qz, -1, n) % n  # Q = (q : 1)

    # baby steps: j Q for odd j < D/2 prime to D, from (j + 2) Q = j Q + 2 Q
    s, d = (q + 1) ** 2 % n, (q - 1) ** 2 % n
    t = s - d
    x2, z2 = s * d % n, t * (d + a24 * t) % n
    p2, m2 = x2 + z2, x2 - z2
    u, v = m2 * (q + 1) % n, p2 * (q - 1) % n
    (px, pz), (cx, cz) = (q, 1), ((u + v) ** 2 % n, q * (u - v) ** 2 % n)  # j Q, (j + 2) Q
    babies = []
    for j in range(1, _ECM_D // 2, 2):
        if math.gcd(j, _ECM_D) == 1:
            babies.append((px, pz))
        u, v = (cx - cz) * p2 % n, (cx + cz) * m2 % n
        (px, pz), (cx, cz) = (cx, cz), (pz * (u + v) ** 2 % n, px * (u - v) ** 2 % n)
    g, baby = _normalize(babies, n)
    if g != 1:
        return g

    # giant steps: R = m D Q, S = R + D Q, one row of prime pairs each
    rows = _stage2_rows(b1, _ECM_B2_FACTOR * b1)
    m = max(1, b1 // _ECM_D)
    dx, dz = _ladder(_ECM_D, q, a24, n)
    dp, dm = dx + dz, dx - dz
    r, s = _ladder(m * _ECM_D, q, a24, n), _ladder((m + 1) * _ECM_D, q, a24, n)
    acc = 1
    for first in range(0, len(rows), _ECM_BATCH):
        chunk = rows[first : first + _ECM_BATCH]
        giants = []
        for _ in chunk:
            giants.append(r)
            (rx, rz), (cx, cz) = r, s
            u, v = (cx - cz) * dp % n, (cx + cz) * dm % n
            r, s = s, (rz * (u + v) ** 2 % n, rx * (u - v) ** 2 % n)
        g, xs = _normalize(giants, n)
        if g != 1:
            return g
        for row, xr in zip(chunk, xs):
            for i in row:
                acc = acc * (xr - baby[i]) % n
    return math.gcd(acc, n)


def _ecm(n: int) -> int | None:
    """Lenstra's elliptic curve method: a nontrivial factor of composite n, or None.

    Curves come from an RNG seeded with n, so repeated runs split
    identically. Up to _ECM_FULL_LIMIT, B1 grows along _ECM_SCHEDULE, whose
    last row repeats until a curve splits n. A larger n gets the first row
    only, and None when its curves find nothing.
    """
    rng = random.Random(n)
    if n <= _ECM_FULL_LIMIT:
        levels = itertools.chain(_ECM_SCHEDULE, itertools.repeat(_ECM_SCHEDULE[-1]))
    else:
        levels = _ECM_SCHEDULE[:1]
    for b1, curves in levels:
        for _ in range(curves):
            g = _ecm_curve(n, rng.randrange(6, n - 1), b1)
            if 1 < g < n:
                return g
    return None


def _split_into(n: int, out: dict[int, int]) -> int:
    """Accumulate the factorization of n > 1, which has no prime factor below _TRIAL_BOUND.

    A prime goes to `out`, a perfect power splits into its root, and any
    other composite goes to `_ecm`, with both parts of a split recursed on.
    Returns the product of the composite parts that ECM left unsplit, or 1.
    """
    if n < _TRIAL_BOUND ** 2 or is_prime(n):
        out[n] = out.get(n, 0) + 1
        return 1
    for k in range(2, n.bit_length() // 16 + 1):
        r = _iroot(n, k)
        if r ** k == n:
            return math.prod(_split_into(r, out) for _ in range(k))
    d = _ecm(n)
    if d is None:
        return n
    return _split_into(d, out) * _split_into(n // d, out)


@dataclass(frozen=True)
class FactoredInteger:
    """An integer together with its prime factorization, complete or not.

    value = sign * prod(p**e) * cofactor; factors are sorted by prime.
    cofactor is 1 when the factorization is complete, and otherwise a
    composite above _ECM_FULL_LIMIT that ECM's curve budget left unsplit.
    """

    value: int
    factors: tuple[tuple[int, int], ...]
    cofactor: int = 1

    def __post_init__(self):
        prod = 1
        for p, e in self.factors:
            if p < 2 or e < 1:
                raise DomainError(f"factor {p}^{e} needs p >= 2 and e >= 1")
            prod *= p ** e
        if self.cofactor != 1 and (self.cofactor <= _ECM_FULL_LIMIT or is_prime(self.cofactor)):
            raise DomainError("a cofactor must be 1 or a composite above 10^32")
        if prod * self.cofactor != abs(self.value):
            raise ArithmeticError(f"factorization does not re-multiply to {self.value}")
        if any(p >= q for (p, _), (q, _) in zip(self.factors, self.factors[1:])):
            raise DomainError("factor primes must be distinct and increasing")

    def primes(self) -> list[int]:
        return [p for p, _ in self.factors]

    def __str__(self) -> str:
        if not self.factors:
            return str(self.value)
        sign = "-" if self.value < 0 else ""
        parts = [f"{p}^{e}" if e > 1 else str(p) for p, e in self.factors]
        if self.cofactor != 1:
            parts.append(f"({decimal_string(self.cofactor)})")
        return sign + "*".join(parts)


def factorize(n: int, partial: bool = False) -> FactoredInteger:
    """Exact factorization of a nonzero integer (sign carried on value).

    A composite part that ECM's budget leaves unsplit (see `_ecm`) raises
    DomainError, unless `partial` is set: the result then carries it as its
    cofactor. A factor hint for |n| (see `factor_hints`) is used as it is;
    otherwise factorizations are memoised by |n| for the life of the process.
    """
    if n == 0:
        raise DomainError("factorize(0) is undefined")
    m = abs(n)
    factors, cofactor = (_hints[m], 1) if m in _hints else _factor_abs(m)
    if cofactor != 1 and not partial:
        raise DomainError(
            f"a {len(decimal_string(cofactor))}-digit composite part of a "
            f"{len(decimal_string(m))}-digit number is past the ECM budget"
        )
    return FactoredInteger(n, factors, cofactor)


@lru_cache(maxsize=1 << 12)
def _factor_abs(m: int) -> tuple[tuple[tuple[int, int], ...], int]:
    """Sorted (prime, exponent) pairs of m >= 1 and the cofactor ECM left unsplit.

    Trial division by the primes below _TRIAL_BOUND, then `_split_into`.
    """
    fac: dict[int, int] = {}
    for p in _trial_primes():
        if p * p > m:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            fac[p] = e
    cofactor = _split_into(m, fac) if m > 1 else 1
    return tuple(sorted(fac.items())), cofactor


def lcm_pow_minus_one(p: int, k: int) -> int:
    """lcm(p^k - 1, p^(k-2) - 1) for a prime p and even weight k >= 4."""
    if k < 4 or k % 2 != 0:
        raise DomainError("weight must be even and >= 4 here; weight 2 has its own clause")
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    return math.lcm(p ** k - 1, p ** (k - 2) - 1)


def primes_up_to(limit: int) -> list[int]:
    """All primes <= limit (simple sieve; limit is small in this package)."""
    if limit < 2:
        return []
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, limit + 1, i)))
    return list(itertools.compress(range(limit + 1), sieve))


_hints: dict[int, tuple[tuple[int, int], ...]] = {}


@contextlib.contextmanager
def factor_hints(table: dict[int, tuple[tuple[int, int], ...]]):
    """Let `factorize` take its factors from `table` (see `parse_factor_hints`) within the block.

    The table is emptied however the block ends, and no hint enters the memo.
    """
    _hints.update(table)
    try:
        yield
    finally:
        _hints.clear()


def parse_factor_hints(lines: list[str]) -> tuple[dict[int, tuple[tuple[int, int], ...]], list[str]]:
    """A hint table from lines "n=p^e,p^e,...", and one warning for each line that is not one.

    Nothing is taken on trust: n must be >= 1, every prime must pass
    `is_prime`, no prime may be listed twice and the factors must
    re-multiply to n. Blank lines are skipped.
    """
    table: dict[int, tuple[tuple[int, int], ...]] = {}
    warnings: list[str] = []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            n_str, rhs = line.split("=", 1)
            n = int(n_str)
            factors = []
            for part in rhs.split(",") if rhs else ():
                p_str, caret, e_str = part.partition("^")
                factors.append((int(p_str), int(e_str) if caret else 1))
            factors_t = tuple(sorted(factors))
            if n < 1 or not all(is_prime(p) for p, _ in factors_t):
                raise ValueError("bad prime")
            # re-multiplies, and rejects a prime listed twice
            FactoredInteger(n, factors_t)
        except (ValueError, ArithmeticError):
            warnings.append(f"ignoring corrupt factor hint: {line!r}")
            continue
        table[n] = factors_t
    return table, warnings
