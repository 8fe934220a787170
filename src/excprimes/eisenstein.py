"""Truncated exact q-expansions and the Eisenstein series used for congruences.

A read-only QExpansion holds a_0..a_truncation, and reading past it raises. a_n is
a CycloElement, an int (sigma_{k-1}(n) in E_k for trivial nu) or an int mod ell.
Both weight-2 E' series are E_2 or E_2^nu after one step per Steinberg prime.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .exact import DomainError, is_prime, primes_up_to
from .cyclotomic import CycloElement
from .characters import DirichletCharacter
from .bernoulli import bernoulli_classical


class TruncationError(ValueError):
    """Requested coefficients beyond the stored truncation."""


class QExpansion:
    """Formal series sum a_n q^n known exactly for 0 <= n <= truncation."""

    __slots__ = ("coeffs", "weight", "level")

    def __init__(self, coeffs, weight: int, level: int):
        if not coeffs:
            raise DomainError("a q-expansion needs at least the constant term")
        object.__setattr__(self, "coeffs", tuple(coeffs))
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "level", level)

    def __setattr__(self, *args):
        raise AttributeError("QExpansion is immutable")

    @property
    def truncation(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, n: int):
        if n < 0:
            raise DomainError(f"coefficient index must be nonnegative, got {n}")
        if n > self.truncation:
            raise TruncationError(
                f"coefficient {n} requested but series is truncated at {self.truncation}"
            )
        return self.coeffs[n]

    def __eq__(self, other):
        if not isinstance(other, QExpansion):
            return NotImplemented
        return (self.weight, self.coeffs) == (other.weight, other.coeffs)

    __hash__ = None

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[:6])
        return f"QExpansion(w={self.weight}, N={self.level}, [{head}, ...])"


# -- Eisenstein series ---------------------------------------------------------


def sigma_nu(k: int, nu: DirichletCharacter, n: int) -> CycloElement:
    """sum over 0 < m | n of nu(n/m) nu^(-1)(m) m^(k-1)."""
    nu_inv = nu.inverse()
    total = CycloElement(1, [Fraction(0)])
    for m in range(1, n + 1):
        if n % m == 0:
            term = nu.value(n // m) * nu_inv.value(m)
            if term:
                total = total + term * (m ** (k - 1))
    return total


def eisenstein_E(k: int, nu: DirichletCharacter, truncation: int) -> QExpansion:
    """The weight-k level-c^2 Eisenstein series attached to primitive nu mod c."""
    if k < 2 or k % 2:
        raise DomainError(f"weight must be even and >= 2, got {k}")
    if not nu.is_primitive():
        raise DomainError("eisenstein_E requires a primitive character")
    c = nu.modulus
    if k == 2 and c == 1:
        raise DomainError("(k, c) = (2, 1) is excluded: no such Eisenstein series")
    if c == 1:  # nu trivial: a_n = sigma_{k-1}(n) as ints, from one integer sieve
        coeffs = _divisor_power_sums(k - 1, truncation)
        coeffs[0] = CycloElement(1, [-bernoulli_classical(k) / (2 * k)])
        return QExpansion(coeffs, k, 1)
    return _twisted_series(k, nu, truncation)


@lru_cache(maxsize=16)
def _twisted_series(k: int, nu: DirichletCharacter, truncation: int) -> QExpansion:
    """The series of `eisenstein_E` for primitive nu of modulus c > 1, built once per key.

    Verifying a form at each candidate ell asks for the same (k, nu, truncation)
    every time, and sigma_nu is quadratic in the window, so the series is kept:
    the key is hashable and the series immutable, so a hit is shared. The
    bound holds the 10 twisted keys of the bundled fixtures' verify jobs.
    """
    coeffs = [CycloElement(1, [Fraction(0)])]
    coeffs += [sigma_nu(k, nu, n) for n in range(1, truncation + 1)]
    return QExpansion(coeffs, k, nu.modulus ** 2)


def _divisor_power_sums(e: int, truncation: int) -> list[int]:
    """sigma_e(n) for 0 <= n <= truncation (entry 0 is 0), one product or two per n.

    A smallest-prime-factor sieve gives n = p m with p the least prime of n.
    sigma_e is multiplicative, so sigma_e(n) = sigma_e(m) sigma_e(p) when p does
    not divide m; when it does, sigma_e(p^a r) = sigma_e(r) (1 + p^e + ... + p^(ae))
    gives sigma_e(n) = sigma_e(m) sigma_e(p) - p^e sigma_e(m / p).
    """
    sig = [0] * (truncation + 1)
    if truncation < 1:
        return sig
    spf = [0] * (truncation + 1)  # 0 at primes; descending p leaves the least one
    for p in reversed(primes_up_to(math.isqrt(truncation))):
        spf[p * p :: p] = [p] * ((truncation - p * p) // p + 1)
    sig[1] = 1
    for n in range(2, truncation + 1):
        p = spf[n]
        if not p:
            sig[n] = n ** e + 1
            continue
        m = n // p
        if m % p:
            sig[n] = sig[m] * sig[p]
        else:
            sig[n] = sig[m] * sig[p] - (sig[p] - 1) * sig[m // p]
    return sig


def _steinberg_primes(primes, modulus: int = 1) -> list[int]:
    """The Steinberg primes as a list, read once: distinct primes, none dividing modulus."""
    primes = list(primes)
    if len(set(primes)) != len(primes):
        raise DomainError("steinberg primes must be distinct")
    for p in primes:
        if not is_prime(p):
            raise DomainError(f"steinberg prime {p} is not prime")
        if modulus % p == 0:
            raise DomainError(f"steinberg prime {p} divides the character modulus {modulus}")
    return primes


def _stabilised(coeffs, steps, ell=None) -> list:
    """alpha g + beta V_p g for each (p, alpha, beta) in turn, reduced mod ell if given.

    n runs down to 0, so a_{n/p} is read unchanged; beta is added only where
    a_{n/p} != 0, so a zero coefficient keeps its field.
    """
    a = list(coeffs)
    for p, alpha, beta in steps:
        for n in range(len(a) - 1, -1, -1):
            b = 0 if n % p else a[n // p]
            a[n] = alpha * a[n] + beta * b if b else alpha * a[n]
    return a if ell is None else [c % ell for c in a]


def eprime_weight2_steinberg(signs, ell: int, truncation: int) -> QExpansion:
    """[prod_i (s_i U_{p_i} - p_i Id)] E_2 reduced mod ell; signs = [(p_i, s_i)], N = prod p_i.

    U_p E_2 = (1 + p) E_2 - p V_p E_2 (Diamond-Shurman 5.2), so s U_p - p is one step.
    """
    signs = list(signs)
    N = math.prod(_steinberg_primes(p for p, _ in signs))
    for _, s in signs:
        if s not in (1, -1):
            raise DomainError(f"steinberg sign must be +-1, got {s}")
    if not is_prime(ell) or (6 * N) % ell == 0:
        raise DomainError(f"ell = {ell} must be a prime not dividing 6N = {6 * N}")
    e2 = [-pow(24, -1, ell)] + _divisor_power_sums(1, truncation)[1:]
    steps = [(p, s * (1 + p) - p, -s * p) for p, s in signs]
    return QExpansion(_stabilised(e2, steps, ell), 2, N)


def eprime_twisted(nu: DirichletCharacter, steinberg_primes, truncation: int) -> QExpansion:
    """prod over the Steinberg primes p of (1 - p nu^(-1)(p) V_p), applied to E_2^nu."""
    c = nu.modulus  # eisenstein_E rejects an imprimitive nu and c = 1
    primes = _steinberg_primes(steinberg_primes, c)
    steps = [(p, 1, -p * nu.inverse().value(p)) for p in primes]
    coeffs = _stabilised(eisenstein_E(2, nu, truncation).coeffs, steps)
    return QExpansion(coeffs, 2, c * c * math.prod(primes))
