"""Exact integer arithmetic: primality, factorization, divisibility plumbing.

Everything here is pure and deterministic. Values are plain Python ints
(arbitrary precision); rationals are fractions.Fraction throughout the
package. FactoredInteger pairs an integer with its certified factorization
and is the currency of every "l divides ..." clause in the bound engine.
"""

from __future__ import annotations

import decimal
import math
import os
import random
from dataclasses import dataclass, field


class DomainError(ValueError):
    """Raised when an operation is called outside its mathematical domain."""


def decimal_string(n: int) -> str:
    """Exact decimal digits of n, also past the interpreter's limit on str(int)."""
    return str(decimal.Decimal(n))


# Deterministic Miller-Rabin: this base set is a proven witness set for all
# n < 3,317,044,064,679,887,385,961,981 (~3.3e24).
_MR_DETERMINISTIC_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_DETERMINISTIC_LIMIT = 3_317_044_064_679_887_385_961_981

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


def is_prime(n: int, rounds: int = 20) -> bool:
    """Primality test.

    Deterministic below ~3.3e24 (fixed Miller-Rabin base set); above that,
    probabilistic with `rounds` random bases drawn from an n-seeded RNG so
    results stay reproducible. Use is_proven_prime to know which regime
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
        bases = tuple(rng.randrange(2, n - 1) for _ in range(rounds))
    return not any(_miller_rabin_witness(n, a) for a in bases)


def is_proven_prime(n: int) -> bool:
    """True when is_prime(n) ran in its deterministic regime."""
    return n < _MR_DETERMINISTIC_LIMIT


_TRIAL_LIMIT = 10 ** 6


def _pollard_brent(n: int) -> int:
    """Brent-cycle Pollard rho; returns a nontrivial factor of composite n.

    The RNG is seeded with n so repeated runs split identically.
    """
    if n % 2 == 0:
        return 2
    rng = random.Random(n)
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
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
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
        # cycle degenerated; retry with fresh parameters


def _factor_into(n: int, out: dict[int, int]) -> None:
    """Accumulate the factorization of n >= 1 into out (prime -> exponent)."""
    if n == 1:
        return
    if is_prime(n):
        out[n] = out.get(n, 0) + 1
        return
    d = _pollard_brent(n)
    _factor_into(d, out)
    _factor_into(n // d, out)


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
            assert p >= 2 and e >= 1
            prod *= p ** e
        assert prod == abs(self.value), "factorization does not re-multiply"
        assert list(self.factors) == sorted(self.factors)

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
    """Exact factorization of a nonzero integer (sign carried on value)."""
    if n == 0:
        raise DomainError("factorize(0) is undefined")
    cache = _active_cache()
    if cache is not None:
        hit = cache.get(abs(n))
        if hit is not None:
            return FactoredInteger(n, hit, proven=all(is_proven_prime(p) for p, _ in hit))
    m = abs(n)
    fac: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        while m % p == 0:
            fac[p] = fac.get(p, 0) + 1
            m //= p
    p = 49
    while p * p <= m and p < _TRIAL_LIMIT:
        # skip even candidates; small primes already stripped
        if m % p == 0:
            fac[p] = fac.get(p, 0) + 1
            m //= p
        else:
            p += 2
    if m > 1:
        if p * p > m:
            fac[m] = fac.get(m, 0) + 1
        else:
            _factor_into(m, fac)
    factors = tuple(sorted(fac.items()))
    proven = all(is_proven_prime(p) for p, _ in factors)
    result = FactoredInteger(n, factors, proven)
    if cache is not None:
        cache.put(abs(n), factors)
    return result


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
                prod = 1
                for p, e in factors_t:
                    if e < 1 or not is_prime(p):
                        raise ValueError("bad prime")
                    prod *= p ** e
                if prod != n or n < 1:
                    raise ValueError("does not re-multiply")
            except (ValueError, IndexError):
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
        with open(self.path, "w", encoding="ascii") as fh:
            for n in sorted(self._table):
                parts = ",".join(
                    f"{p}^{e}" if e > 1 else str(p) for p, e in self._table[n]
                )
                fh.write(f"{n}={parts}\n")
        self._dirty = False


_cache_holder: list[FactorCache | None] = [None]


def set_factor_cache(cache: FactorCache | None) -> None:
    """Install a process-wide factorization cache (used by the CLI)."""
    _cache_holder[0] = cache


def _active_cache() -> FactorCache | None:
    return _cache_holder[0]


# Inline self-checks on import (cheap, catch regressions early).
assert factorize(14640).factors == ((2, 4), (3, 1), (5, 1), (61, 1))
assert factorize(1).factors == ()
assert factorize(-12).value == -12 and factorize(-12).factors == ((2, 2), (3, 1))
assert lcm_pow_minus_one(11, 4) == 14640
assert lcm_pow_minus_one(2, 4) == 15
