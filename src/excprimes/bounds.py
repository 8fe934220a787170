"""Finite candidate sets for primes where a residual representation can degenerate.

Three families of candidates are produced for a weight-k, level-N newform:
reducible, dihedral projective image, and exceptional projective image
(A4/S4/A5). Every listed prime carries an ASCII provenance clause naming the
inequality or norm that produced it, so reports are auditable and stable.
A composite part of a clause's number that ECM's budget leaves unsplit is
reported with that clause as unfactored: every prime in it is a candidate
too, unnamed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .exact import (
    DomainError, FactoredInteger, decimal_string, factorize, is_prime, lcm_pow_minus_one,
    primes_up_to,
)
from .cyclotomic import CycloElement
from .characters import DirichletCharacter, enumerate_characters, square_inverse_eps
from .bernoulli import VacuousClauseError, bernoulli_classical, bernoulli_norm_numerator
from .dimensions import dim_new

GATE_SMALL = "small prime gate (ell <= k+1)"
GATE_LEVEL = "divides the level"


def _chi_name(chi: DirichletCharacter) -> str:
    return f"chi({chi.modulus},{chi.index})"


def _factored_norm(value: CycloElement) -> FactoredInteger | None:
    """The factored absolute norm of a cyclotomic integer; None when the norm is 0."""
    nrm = value.norm()
    if nrm == 0:
        return None
    if nrm.denominator != 1:
        raise ArithmeticError(f"the norm {nrm} of an algebraic integer is not an integer")
    return factorize(abs(nrm.numerator), partial=True)


def _square_part_root(fac) -> int:
    """Largest c with c^2 dividing the factored integer."""
    return math.prod(p ** (e // 2) for p, e in fac.factors)


def _check_weight_level(k: int, N: int) -> None:
    """Raise DomainError unless k is even and >= 2 and N is positive."""
    if k < 2 or k % 2:
        raise DomainError(f"weight must be even and >= 2, got {k}")
    if N < 1:
        raise DomainError(f"level must be positive, got {N}")


def _reducible(k: int, N: int) -> tuple[list[tuple[int, str]], list[tuple[int, str]]]:
    """(prime, clause) pairs, and (unfactored cofactor, clause) pairs.

    Together they cover every possibly-reducible ell: a prime of a clause's
    number is either listed or divides that clause's cofactor.
    """
    _check_weight_level(k, N)
    fac = factorize(N)
    c = _square_part_root(fac)
    steinberg = [p for p, e in fac.factors if e == 1]
    pairs = {(ell, GATE_SMALL) for ell in primes_up_to(k + 1)}
    pairs.update((p, GATE_LEVEL) for p in fac.primes())
    unfactored: set[tuple[int, str]] = set()

    def add(n: int | FactoredInteger, clause: str) -> None:
        """List the primes of the clause's number n, and any cofactor that ECM left unsplit."""
        if isinstance(n, int):
            n = factorize(n, partial=True)
        pairs.update((ell, clause) for ell in n.primes())
        if n.cofactor != 1:
            unfactored.add((n.cofactor, clause))

    def add_norm(value: CycloElement, clause: str) -> None:
        nrm = _factored_norm(value)
        if nrm is None:
            raise ArithmeticError(f"a prime power minus a root of unity cannot vanish: {clause}")
        add(nrm, clause)

    def add_eps_clauses(nu: DirichletCharacter, weight: int, power: str, bernoulli: str) -> None:
        """Norms of power - eps^(-1)(p) at each p | c and of bernoulli, eps = square_inverse_eps(nu)."""
        eps = square_inverse_eps(nu)
        eps_inv, name = eps.inverse(), _chi_name(nu)
        for p, e in fac.factors:
            if e > 1:
                clause = f"norm of {power} - eps^(-1)(p) at p = {p}, nu = {name}"
                add_norm(p ** weight - eps_inv.value(p), clause)
        try:
            add(bernoulli_norm_numerator(weight, eps), f"numerator of norm of {bernoulli}, nu = {name}")
        except VacuousClauseError:
            pass

    if N == 1:
        # Swinnerton-Dyer, LNM 350: at level 1, ell > k+1 is reducible only
        # when ell divides the numerator of B_k/2k
        add((bernoulli_classical(k) / (2 * k)).numerator, "divides the numerator of B_k/2k")
    elif c == 1:
        if k > 2:
            g = math.gcd(*(lcm_pow_minus_one(p, k) for p in steinberg))
            add(g, "divides gcd over p | N of lcm(p^k - 1, p^(k-2) - 1)")
        else:
            add(math.lcm(*(p * p - 1 for p in steinberg)), "divides lcm over p | N of p^2 - 1")
    elif c * c == N:
        for p, e in fac.factors:
            if e == 2:
                add(p * p - 1, f"p = {p} with v_p(N) = 2: ell divides p^2 - 1")
        for nu in enumerate_characters(c, "primitive"):
            add_eps_clauses(nu, k, "p^k", "B_(k,eps)/2k")
    elif k == 2 and all(e == 1 for _, e in fac.factors if e % 2) and c % 4 != 2:
        # c > 1 and c % 4 != 2, so there is a primitive nu mod c
        for p in steinberg:
            add(p - 1, f"divides p - 1 for p = {p}")
        for nu in enumerate_characters(c, "primitive"):
            for p in steinberg:
                clause = f"norm of p^2 - nu^2(p) at p = {p}, nu = {_chi_name(nu)}"
                add_norm(p * p - nu.value(p) ** 2, clause)
            add_eps_clauses(nu, 2, "p^2", "B_(2,eps)/4")
    else:
        v2 = dict(fac.factors).get(2, 0)
        if v2 == 2 or (v2 >= 3 and v2 % 2 == 1):
            pairs.add((3, "2-adic valuation of the level forces ell = 3"))
        for p, e in fac.factors:
            if e % 2 == 1 and e >= 3:
                add(p * p - 1, f"p = {p} with odd v_p(N) >= 3: ell divides p^2 - 1")
        for eta in enumerate_characters(c, "even") if steinberg else ():
            for p in steinberg:
                for exp in (k, k - 2):
                    value = p ** exp - eta.value(p)
                    if value:  # p^0 = eta(p): vacuous clause, dropped
                        add_norm(value, f"norm of p^{exp} - eta(p) at p = {p}, eta = {_chi_name(eta)}")
    return sorted(pairs), sorted(unfactored)


def reducible_candidates(k: int, N: int) -> list[tuple[int, str]]:
    """(prime, provenance clause) pairs: the candidates that factoring named.

    `candidate_report` also lists the cofactors that ECM's budget left unsplit.
    """
    return _reducible(k, N)[0]


def reducible_primes(k: int, N: int) -> list[int]:
    return sorted({p for p, _ in reducible_candidates(k, N)})


@dataclass(frozen=True)
class DihedralReport:
    weight: int
    level: int
    squarefree: bool
    primes: tuple[int, ...] | None
    bound: int | None
    degree: int | None
    assumptions: tuple[str, ...]

    def to_dict(self) -> dict:
        out = {
            "weight": self.weight,
            "level": self.level,
            "squarefree": self.squarefree,
            "assumptions": list(self.assumptions),
        }
        if self.primes is not None:
            out["primes"] = list(self.primes)
        if self.bound is not None:
            out["bound"] = decimal_string(self.bound)
            out["degree"] = self.degree
        return out


def _ln_upper(num: int, den: int, prec: int) -> int:
    """An integer u with u / 2^prec >= ln(num/den), for num >= den >= 1.

    ln x = e ln 2 + 2 atanh(z), where 2^e <= x < 2^(e+1), z = (m - 1)/(m + 1)
    for m = x / 2^e, and ln 2 = 2 atanh(1/3). Both z are at most 1/3, so each
    series term is at most a ninth of the one before; every term rounds up,
    and the tail after the last term t (t <= 1 ulp) is at most (9/8) t.
    """
    e = (num // den).bit_length() - 1
    total = 0
    for count, a, b in ((e, 1, 3), (1, num - (den << e), num + (den << e))):
        t, j, s = -(-(a << prec) // b), 1, 0
        while t > 1:
            s += -(-t // j)
            t = -(-t * a * a // (b * b))
            j += 2
        total += count * 2 * (s + 2)
    return total


def _dihedral_bound(k: int, N: int, D: int) -> int:
    """An integer >= (2 q^((k-1)/2))^D with q = 4.8 k N^2 (1 + ln ln N), for N >= 3.

    Fixed point at 2^-prec, rounding up at every step: q from `_ln_upper`,
    sqrt(q) from `math.isqrt`, then a ceiling shift of B^D. The relative
    excess is about D k prec 2^-prec.
    """
    prec = 128 + (D * k).bit_length()
    one = 1 << prec
    q = -(-24 * k * N * N * (one + _ln_upper(_ln_upper(N, 1, prec), one, prec)) // 5)
    root = math.isqrt(q << prec)
    if root * root < q << prec:
        root += 1
    half = (k - 2) // 2  # k is even: q^((k-1)/2) = q^half sqrt(q)
    # -(-x >> s) is the ceiling of x / 2^s
    b = -(-2 * q ** half * root >> prec * half)
    return -(-(b ** D) >> prec * D)


def dihedral_candidates(k: int, N: int, degree: int | None = None) -> DihedralReport:
    """Square-free levels: explicit prime set. Otherwise an integer upper bound. No newform: a DomainError."""
    _check_weight_level(k, N)
    fac = factorize(N)
    squarefree = all(e == 1 for _, e in fac.factors)
    new = dim_new(k, N)
    if not new:
        raise DomainError(f"no newform to bound: dim S_{k}^new(Gamma_0({N})) = 0")
    D = new if degree is None and not squarefree else degree
    if D is not None and D < 1:
        raise DomainError(f"field degree must be >= 1, got {D}")
    if degree is not None and degree > new:  # a newform's conjugates are distinct newforms
        raise DomainError(f"field degree must be <= dim S_{k}^new(Gamma_0({N})) = {new}, got {degree}")
    assumptions = ("newform assumed non-CM",)
    if squarefree:
        primes = set(fac.primes())
        primes.update(primes_up_to(k))
        if is_prime(2 * k - 1):
            primes.add(2 * k - 1)
        return DihedralReport(k, N, True, tuple(sorted(primes)), None, None, assumptions)
    bound = _dihedral_bound(k, N, D)
    return DihedralReport(k, N, False, None, bound, D, assumptions)


def exceptional_image_candidates(k: int, N: int) -> list[int]:
    """Primes where the projective image could be A4, S4 or A5."""
    _check_weight_level(k, N)
    primes = set(factorize(N).primes())
    primes.update(primes_up_to(4 * k - 3))
    return sorted(primes)


@dataclass(frozen=True)
class CandidateReport:
    """The three candidate families; `unfactored` holds (cofactor, clause) pairs."""

    weight: int
    level: int
    reducible: tuple[tuple[int, str], ...]
    dihedral: DihedralReport
    exceptional_image: tuple[int, ...]
    assumptions: tuple[str, ...]
    unfactored: tuple[tuple[int, str], ...] = ()

    def reducible_primes(self) -> list[int]:
        """The reducible candidates that factoring named; see also `unfactored`."""
        return sorted({p for p, _ in self.reducible})

    def to_dict(self) -> dict:
        out = {
            "weight": self.weight,
            "level": self.level,
            "reducible": [{"prime": p, "clause": c} for p, c in self.reducible],
            "reducible_primes": self.reducible_primes(),
            "dihedral": self.dihedral.to_dict(),
            "exceptional_image": list(self.exceptional_image),
            "assumptions": list(self.assumptions),
        }
        if self.unfactored:
            out["unfactored"] = [
                {"cofactor": digits, "digits": len(digits), "clause": clause}
                for digits, clause in ((decimal_string(c), clause) for c, clause in self.unfactored)
            ]
        return out


def candidate_report(k: int, N: int, degree: int | None = None) -> CandidateReport:
    reducible, unfactored = _reducible(k, N)
    dihedral = dihedral_candidates(k, N, degree)
    exceptional = tuple(exceptional_image_candidates(k, N))
    return CandidateReport(
        k,
        N,
        tuple(reducible),
        dihedral,
        exceptional,
        dihedral.assumptions,
        tuple(unfactored),
    )
