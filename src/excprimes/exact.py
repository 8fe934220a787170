"""Exact integer arithmetic: primality, factorization, divisibility plumbing.

Everything here is pure and deterministic. Values are plain Python ints
(arbitrary precision); rationals are fractions.Fraction throughout the
package. FactoredInteger pairs an integer with its certified factorization
and is the currency of every "l divides ..." clause in the bound engine.
"""

from __future__ import annotations

import contextlib
import decimal
import itertools
import math
import os
import random
from dataclasses import dataclass
from functools import lru_cache


class DomainError(ValueError):
    """Raised when an operation is called outside its mathematical domain."""


def decimal_string(n: int) -> str:
    """Exact decimal digits of n, also past the interpreter's limit on str(int)."""
    return str(decimal.Decimal(n))


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
    RNG so results stay reproducible. Use is_proven_prime to know which regime
    applied.
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


def is_proven_prime(n: int) -> bool:
    """True when is_prime(n) ran in its deterministic regime."""
    return n < _MR_DETERMINISTIC_LIMIT


# Trial division runs over the primes below this bound. A cofactor left with
# no prime factor below it and smaller than its square is prime.
_TRIAL_BOUND = 1 << 16

# Brent rho steps before ECM takes over. Within this budget rho finds prime
# factors of up to about nine digits; larger ones are left to ECM.
_RHO_BUDGET = 1 << 16

# ECM stage-1 bounds B1 and the number of curves run at each, after the
# GMP-ECM table for 15-, 20-, 25- and 30-digit factors; the last bound is
# kept once the table runs out. Stage 2 covers primes up to 100 * B1 with
# giant steps of D and baby steps j < D/2 prime to D.
_ECM_SCHEDULE = ((2_000, 25), (11_000, 90), (50_000, 300), (250_000, 700))
_ECM_B2_FACTOR = 100
_ECM_D = 2310


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


def _pollard_brent(n: int) -> int | None:
    """Brent-cycle Pollard rho on odd composite n.

    Returns a nontrivial factor, or None when _RHO_BUDGET steps found none.
    The RNG is seeded with n so repeated runs split identically.
    """
    rng = random.Random(n)
    steps = 0
    while steps < _RHO_BUDGET:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            if steps >= _RHO_BUDGET:
                return None
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            steps += 2 * r
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
        # cycle degenerated; retry with fresh parameters
    return None


# -- ECM on Montgomery curves B y^2 = x^3 + A x^2 + x, x-only (X : Z) points,
# with a24 = (A + 2) / 4 (Montgomery, Math. Comp. 48 (1987)).


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
        # (xs : zs) - (xr : zr) = (x : z) throughout
        xa, za = _xadd(xs, zs, xr, zr, x, z, n)
        if bit == "1":
            xr, zr = xa, za
            xs, zs = _xdbl(xs, zs, a24, n)
        else:
            xs, zs = xa, za
            xr, zr = _xdbl(xr, zr, a24, n)
    return xr, zr


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


def _ecm_curve(n: int, sigma: int, b1: int) -> int:
    """One ECM curve; a proper divisor of n when the curve's order mod some p | n is smooth.

    Suyama's parametrization by sigma gives the curve and a point on it.
    Stage 1 multiplies the point by every prime power up to b1, giving Q.
    Stage 2 catches one more prime q = m D +- j up to 100 * b1: q Q vanishes
    mod p exactly when m D Q and j Q have the same x-coordinate mod p.
    Returns 1 or n when the curve finds nothing.
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
    qx, qz = _ladder(_stage1_multiplier(b1), x, 1, a24, n)
    g = math.gcd(qz, n)
    if g != 1:
        return g

    # baby steps: x(j Q) for odd j < D/2 prime to D, normalized to Z = 1
    baby = []
    two = _xdbl(qx, qz, a24, n)
    prev, cur = (qx, qz), _ladder(3, qx, qz, a24, n)  # j Q and (j + 2) Q
    for j in range(1, _ECM_D // 2, 2):
        if math.gcd(j, _ECM_D) == 1:
            g = math.gcd(prev[1], n)
            if g != 1:
                return g
            baby.append(prev[0] * pow(prev[1], -1, n) % n)
        prev, cur = cur, _xadd(*cur, *two, *prev, n)

    # giant steps: R = m D Q, from m = max(1, b1 // D) until m D - D/2 > 100 * b1
    m = max(1, b1 // _ECM_D)
    step = _ladder(_ECM_D, qx, qz, a24, n)
    r = _ladder(m * _ECM_D, qx, qz, a24, n)
    s = _ladder((m + 1) * _ECM_D, qx, qz, a24, n)
    acc = 1
    while m * _ECM_D - _ECM_D // 2 <= _ECM_B2_FACTOR * b1:
        g = math.gcd(r[1], n)
        if g != 1:
            return g
        xr = r[0] * pow(r[1], -1, n) % n
        for xj in baby:
            acc = acc * (xr - xj) % n
        r, s = s, _xadd(*s, *step, *r, n)
        m += 1
    return math.gcd(acc, n)


def _ecm(n: int) -> int:
    """Lenstra's elliptic curve method: a nontrivial factor of composite n.

    Curves come from an RNG seeded with n, so repeated runs split
    identically. B1 grows along _ECM_SCHEDULE; the number of curves is not
    limited.
    """
    rng = random.Random(n)
    levels = itertools.chain(_ECM_SCHEDULE, itertools.repeat(_ECM_SCHEDULE[-1]))
    for b1, curves in levels:
        for _ in range(curves):
            g = _ecm_curve(n, rng.randrange(6, n - 1), b1)
            if 1 < g < n:
                return g


def _split_into(n: int, out: dict[int, int]) -> None:
    """Accumulate the factorization of n > 1, which has no prime factor below _TRIAL_BOUND."""
    if n < _TRIAL_BOUND ** 2 or is_prime(n):
        out[n] = out.get(n, 0) + 1
        return
    for k in range(2, n.bit_length() // 16 + 1):
        r = _iroot(n, k)
        if r ** k == n:
            for _ in range(k):
                _split_into(r, out)
            return
    d = _pollard_brent(n) or _ecm(n)
    _split_into(d, out)
    _split_into(n // d, out)


@dataclass(frozen=True)
class FactoredInteger:
    """An integer together with its prime factorization.

    value = sign * prod(p**e); factors are sorted by prime. `proven` is False
    when some listed prime was only probabilistically tested (inputs beyond
    the deterministic Miller-Rabin range).
    """

    value: int
    factors: tuple[tuple[int, int], ...]
    proven: bool = True

    def __post_init__(self):
        prod = 1
        for p, e in self.factors:
            if p < 2 or e < 1:
                raise DomainError(f"factor {p}^{e} needs p >= 2 and e >= 1")
            prod *= p ** e
        if prod != abs(self.value):
            raise ArithmeticError(f"factorization does not re-multiply to {self.value}")
        if any(p >= q for (p, _), (q, _) in zip(self.factors, self.factors[1:])):
            raise DomainError("factor primes must be distinct and increasing")

    def primes(self) -> list[int]:
        return [p for p, _ in self.factors]

    def __int__(self) -> int:
        return self.value

    def __str__(self) -> str:
        if not self.factors:
            return str(self.value)
        sign = "-" if self.value < 0 else ""
        parts = [f"{p}^{e}" if e > 1 else str(p) for p, e in self.factors]
        return sign + "*".join(parts)


def factorize(n: int) -> FactoredInteger:
    """Exact factorization of a nonzero integer (sign carried on value).

    Factorizations are memoised by |n| for the life of the process. An
    active factor cache is read before the memo and is handed every result,
    memo hits included.
    """
    if n == 0:
        raise DomainError("factorize(0) is undefined")
    m = abs(n)
    cache = _active_cache()
    factors = cache.get(m) if cache is not None else None
    if factors is None:
        factors = _factor_abs(m)
    if cache is not None:
        cache.put(m, factors)
    return FactoredInteger(n, factors, all(is_proven_prime(p) for p, _ in factors))


@lru_cache(maxsize=1 << 12)
def _factor_abs(m: int) -> tuple[tuple[int, int], ...]:
    """Sorted (prime, exponent) pairs of m >= 1: trial division, then rho and ECM."""
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
    if m > 1:
        _split_into(m, fac)
    return tuple(sorted(fac.items()))


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
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i in range(2, limit + 1) if sieve[i]]


class FactorCache:
    """Line-oriented on-disk factorization cache: each line "n=p^e,p^e,...".

    Corrupt or inconsistent lines are ignored with a warning and recomputed;
    the cache is never trusted blindly (entries are re-multiplied and each
    prime re-tested on read).
    """

    def __init__(self, directory: str):
        self.path = os.path.join(directory, "factors.txt")
        self.warnings: list[str] = []
        self._table: dict[int, tuple[tuple[int, int], ...]] = {}
        self._dirty = False
        self._load()

    def _load(self) -> None:
        if not os.path.exists(self.path):
            return
        try:
            with open(self.path, "r", encoding="ascii") as fh:
                lines = fh.read().splitlines()
        except OSError as exc:
            self.warnings.append(f"cache unreadable ({exc}); recomputing")
            return
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                n_str, rhs = line.split("=", 1)
                n = int(n_str)
                factors = []
                if rhs:
                    for part in rhs.split(","):
                        if "^" in part:
                            p_str, e_str = part.split("^", 1)
                            p, e = int(p_str), int(e_str)
                        else:
                            p, e = int(part), 1
                        factors.append((p, e))
                factors_t = tuple(sorted(factors))
                if n < 1 or not all(is_prime(p) for p, _ in factors_t):
                    raise ValueError("bad prime")
                # re-multiplies, and rejects a prime listed twice
                FactoredInteger(n, factors_t)
            except (ValueError, IndexError, ArithmeticError):
                self.warnings.append(f"ignoring corrupt cache line: {line!r}")
                continue
            self._table[n] = factors_t

    def get(self, n: int):
        return self._table.get(n)

    def put(self, n: int, factors: tuple[tuple[int, int], ...]) -> None:
        if self._table.get(n) != factors:
            self._table[n] = factors
            self._dirty = True

    def flush(self) -> None:
        if not self._dirty:
            return
        os.makedirs(os.path.dirname(self.path), exist_ok=True)
        # write a sibling file and rename it over the old one, so a failed
        # write never leaves a truncated cache behind
        tmp = f"{self.path}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w", encoding="ascii") as fh:
                for n in sorted(self._table):
                    parts = ",".join(
                        f"{p}^{e}" if e > 1 else str(p) for p, e in self._table[n]
                    )
                    fh.write(f"{n}={parts}\n")
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, self.path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.remove(tmp)
            raise
        self._dirty = False


_cache_holder: list[FactorCache | None] = [None]


def set_factor_cache(cache: FactorCache | None) -> None:
    """Install a process-wide factorization cache (used by the CLI)."""
    _cache_holder[0] = cache


def _active_cache() -> FactorCache | None:
    return _cache_holder[0]
