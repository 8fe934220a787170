"""Congruence verification between newform fixtures and Eisenstein series.

The verifier certifies reducibility congruences a_n(f) = a_n(E) mod ell up to
the Sturm bound, through an explicit residue point (one ideal, coherent
across all n), or, where a coefficient denominator rules residue points out,
through per-n norm divisibility (weaker, labeled norm-certified). At residue
points both sides are int tuples in F_q, and each point walks n on its own
to its first mismatch. The Frobenius irreducibility scan tests
X^2 - a_p X + p^(k-1) at each point with one int test over any F_q; an
irreducible one certifies that no such congruence can exist there.
`verify_fixture` is the entry point that combines both into one verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from operator import mul

from .exact import DomainError, factorize, is_prime, primes_up_to
from .bounds import _square_part_root
from .characters import DirichletCharacter, enumerate_characters, trivial_character
from .cyclotomic import CycloElement
from .dimensions import sturm_bound
from .eisenstein import (
    QExpansion,
    eisenstein_E,
    eprime_twisted,
    eprime_weight2_steinberg,
)
from .residues import (
    DenominatorObstruction,
    NewformFixture,
    ResiduePoint,
    _fp_irreducible_quadratic,
    compositum_norm,
    find_residue_points,
    residue,
)

VERDICT_CERTIFIED = "certified"
VERDICT_NORM = "norm-certified"
VERDICT_REFUTED_STRUCTURAL = "refuted-structural"
VERDICT_REFUTED_SCAN = "refuted-by-scan"
INSUFFICIENT = "inconclusive(insufficient coefficients)"
NO_CANDIDATE = "inconclusive(no Eisenstein candidate for this level shape)"
RESIDUE = "residue-point"
NORM = "norm-divisibility"


@dataclass(frozen=True)
class VerificationResult:
    label: str
    ell: int
    mode: str  # RESIDUE | NORM
    eisenstein: str
    checked_up_to: int
    sturm: int
    verdict: str
    witnesses: tuple[str, ...] = ()
    warnings: tuple[str, ...] = ()
    scan: ScanResult | None = None
    scan_error: str | None = None
    # the index-1 residue points built for the verdict, which the scan reuses
    points: list[ResiduePoint] | None = field(default=None, compare=False, repr=False)

    @property
    def certified(self) -> bool:
        return self.verdict in (VERDICT_CERTIFIED, VERDICT_NORM)

    @property
    def refuted(self) -> bool:
        return self.verdict.startswith("refuted")

    def to_dict(self) -> dict:
        out = {
            "label": self.label,
            "ell": self.ell,
            "mode": self.mode,
            "eisenstein": self.eisenstein,
            "checked_up_to": self.checked_up_to,
            "sturm": self.sturm,
            "verdict": self.verdict,
            "witnesses": list(self.witnesses),
            "warnings": list(self.warnings),
        }
        if self.scan is not None:
            out["scan"] = self.scan.to_dict()
        if self.scan_error is not None:
            out["scan_error"] = self.scan_error
        return out


def rank(res: VerificationResult) -> int:
    """Decisiveness of a verdict, lower first.

    Certified, norm-certified, insufficient coefficients, other inconclusive,
    refuted: refuted comes last, so a refutation stands only when every
    candidate refutes.
    """
    order = (VERDICT_CERTIFIED, VERDICT_NORM, INSUFFICIENT)
    if res.verdict in order:
        return order.index(res.verdict)
    return 3 if res.verdict.startswith("inconclusive") else 4


def _divides_rational(ell: int, x: Fraction) -> bool:
    """ell | x for rational x: nonnegative valuation everywhere and >= 1 at ell."""
    if x == 0:
        return True
    if x.denominator % ell == 0:
        return False
    return x.numerator % ell == 0


def _point_name(pt: ResiduePoint) -> str:
    alpha = ",".join(map(str, pt.alpha_image))
    if pt.zeta_image is None:
        return f"(alpha=[{alpha}])"
    zeta = ",".join(map(str, pt.zeta_image))
    return f"(alpha=[{alpha}], zeta=[{zeta}])"


def _eisenstein_candidates(fixture: NewformFixture, nu, window: int):
    """(description, q-expansion, cyclotomic index) triples to test against."""
    k, N = fixture.weight, fixture.level
    fac = factorize(N)
    steinberg = sorted(p for p, e in fac.factors if e == 1)
    out = []

    def series_for(nu_: DirichletCharacter):
        c = nu_.modulus
        if k == 2:
            if c == 1:
                raise DomainError(
                    "weight 2 with trivial character has no Eisenstein series; "
                    "leaving nu unset tests the sign-twisted E' at square-free level"
                )
            desc = f"Eprime(weight 2, nu=chi({c},{nu_.index}), steinberg={steinberg})"
            return desc, eprime_twisted(nu_, steinberg, window), nu_.order
        if c == 1:
            return f"classical E_{k}", eisenstein_E(k, nu_, window), 1
        desc = f"E(k={k}, nu=chi({c},{nu_.index}))"
        return desc, eisenstein_E(k, nu_, window), nu_.order

    if nu is not None:
        out.append(series_for(nu))
        return out
    if k > 2:
        out.append(series_for(trivial_character()))
    c_max = _square_part_root(fac)
    for c in range(2, c_max + 1):
        if c_max % c == 0:
            for nu_ in enumerate_characters(c, "primitive"):
                out.append(series_for(nu_))
    return out


def _compared(fixture: NewformFixture, ell: int, window: int):
    """The compared (n, a_n(f)): n <= window <= fixture.n_max coprime to ell, and n = 0 at level 1.

    At level 1 the congruence is between f and E itself, so Sturm's bound
    counts the constant term, a_0(f) = 0 (Sturm, LNM 1240). At level N > 1
    the form congruent to f is a level-N combination of E with constant term
    0, so a_0(E) is not compared. `verify_reducible` screens out an a_0(E)
    with ell in its denominator before either comparison runs.
    """
    an = fixture.an
    if fixture.level == 1:
        yield 0, (0,) * fixture.degree()
    for n in range(1, window + 1):
        if n % ell:
            yield n, an[n]


def _point_outcomes(fixture, E: QExpansion, points, ell: int, window: int) -> list:
    """(point name, first compared n where a_n(f) and a_n(E) differ there, or None) per point.

    Each point walks the compared n on its own, up to its first mismatch.
    a_n(f) = a_n(E) at a point when, for each F_q coordinate, the dot product
    of a_n(f)'s coordinates with that row of the point's alpha-power table,
    less that coordinate of a_n(E), is 0 mod ell. Int coordinates and an int
    a_n(E) are used raw. Fraction coordinates, a Fraction a_n(E) and the
    coordinates of a CycloElement a_n(E) are reduced mod ell once per n, for
    all points. a_n(E) is an int tuple: an int or Fraction fills the first
    coordinate, and a CycloElement goes through each point's zeta-power table.
    """
    coeffs = E.coeffs
    E.coefficient(window)  # a TruncationError for a series shorter than the window
    reduce, pad = fixture.denominator_lcm > 1, (0,) * (len(points[0].rows) - 1)
    shared = {}  # n -> (a_n(f), a_n(E)) reduced mod ell, the latter an int or (coordinates, m)

    def reduced(a_n, c):
        if reduce:
            a_n = [residue(x, ell) for x in a_n]
        if isinstance(c, CycloElement):
            return a_n, ([residue(x, ell, "cyclotomic coordinate") for x in c.coeffs], c.n)
        return a_n, c if type(c) is int else residue(c, ell)

    out = []
    for pt in points:
        first, *rest = pt.rows
        mismatch = None
        for n, a_n in _compared(fixture, ell, window):
            c = coeffs[n]
            if reduce or type(c) is not int:
                a_n, c = shared[n] if n in shared else shared.setdefault(n, reduced(a_n, c))
            if type(c) is int:
                t, ts = c, pad
            else:
                t, *ts = pt.cyclo_image(*c)
            if ((sum(map(mul, a_n, first)) - t) % ell
                    or rest and any((sum(map(mul, a_n, row)) - u) % ell for row, u in zip(rest, ts))):
                mismatch = n
                break
        out.append((_point_name(pt), mismatch))
    return out


def _norm_mode_check(fixture, E: QExpansion, n_cyclo: int, ell: int, window: int):
    """Per-n divisibility ell | N(a_n(f) - a_n(E)); first failing n or None."""
    f = list(fixture.field_poly)
    for n, a_n in _compared(fixture, ell, window):
        target = E.coefficient(n)
        q_poly = list(target.embed(n_cyclo).coeffs) if isinstance(target, CycloElement) else [target]
        nrm = compositum_norm(list(a_n), q_poly, f, n_cyclo)
        if not _divides_rational(ell, nrm):
            return n
    return None


def _conclude(fixture, ell, desc, window, sturm, outcomes, warnings=()):
    """One candidate's residue-point result from (point name, first mismatch or None) pairs.

    Some point passing certifies, or leaves the verdict insufficient when the
    window stops short of the Sturm bound; otherwise the candidate is refuted
    at the latest first mismatch.
    """
    held = [name for name, n in outcomes if n is None]
    if held:
        verdict = VERDICT_CERTIFIED if window >= sturm else INSUFFICIENT
        witnesses = tuple(f"congruence holds at {name}" for name in held)
    else:
        verdict = f"refuted-at-{max(n for _, n in outcomes)}"
        witnesses = tuple(f"{name}: first mismatch at n = {n}" for name, n in outcomes)
    return VerificationResult(
        fixture.label, ell, RESIDUE, desc, window, sturm, verdict, witnesses, tuple(warnings),
    )


def verify_reducible(fixture: NewformFixture, ell: int, nu=None) -> VerificationResult:
    """Check a_n(f) = a_n(E) mod ell for n up to the Sturm bound.

    nu omitted: the classical series (weight > 2) and every primitive nu mod c
    with c^2 | N are tried; the best verdict across candidates by `rank` is
    returned. A given nu of modulus c with c^2 not dividing N is a
    DomainError. Each candidate is compared at residue points; where a
    coefficient denominator divisible by ell blocks them, per-n norm
    divisibility is checked instead.
    """
    if not is_prime(ell):
        raise DomainError(f"{ell} is not prime")
    if nu is not None and fixture.level % nu.modulus ** 2:
        raise DomainError(
            f"nu has modulus {nu.modulus}, but {nu.modulus}^2 does not divide the level "
            f"{fixture.level}: its series is not a family at this level"
        )
    warnings = []
    if fixture.level % ell == 0:
        warnings.append(
            f"ell = {ell} divides the level {fixture.level}: outside the congruence "
            "theorem's hypotheses, checking anyway"
        )
    sturm = sturm_bound(fixture.weight, fixture.level)
    window = min(fixture.n_max, sturm)
    candidates = _eisenstein_candidates(fixture, nu, window)
    if not candidates:
        return VerificationResult(
            fixture.label, ell, RESIDUE, "(none)", window, sturm,
            NO_CANDIDATE, (), tuple(warnings),
        )

    results, index1 = [], None
    for desc, E, n_cyclo in candidates:
        a0 = E.coefficient(0)
        if fixture.level == 1 and any(c.denominator % ell == 0 for c in a0.coeffs):
            # E has no ell-integral reduction, so Sturm's bound says nothing either way
            results.append(VerificationResult(
                fixture.label, ell, RESIDUE, desc, 0, sturm,
                f"inconclusive(denominator obstruction: a_0(E) = {a0} has denominator divisible by {ell})",
                (), tuple(warnings),
            ))
            continue
        try:
            points = find_residue_points(fixture, n_cyclo, ell)
        except DenominatorObstruction as exc:
            note = f"denominator obstruction ({exc}); falling back to norm mode"
            if note not in warnings:
                warnings.append(note)
            fail = _norm_mode_check(fixture, E, n_cyclo, ell, window)
            if fail is None:
                verdict = VERDICT_NORM if window >= sturm else INSUFFICIENT
                witnesses = (
                    f"ell | N(a_n - a_n(E)) for all n <= {window} coprime to {ell} "
                    "(per-n divisibility, no single-ideal coherence)",
                )
            else:
                verdict = f"refuted-at-{fail}"
                witnesses = (f"ell does not divide N(a_{fail} - a_{fail}(E))",)
            results.append(VerificationResult(
                fixture.label, ell, NORM, desc, window, sturm,
                verdict, witnesses, tuple(warnings),
            ))
            continue
        if n_cyclo == 1:
            index1 = points
        outcomes = _point_outcomes(fixture, E, points, ell, window)
        results.append(_conclude(fixture, ell, desc, window, sturm, outcomes, warnings))
    return replace(min(results, key=lambda r: (rank(r), r.eisenstein)), points=index1)


def _outside_weight2_squarefree(fixture: NewformFixture, ell: int) -> str | None:
    """Why (fixture, ell) is outside weight 2, square-free N > 1, ell not dividing 6N; None inside."""
    N = fixture.level
    if fixture.weight != 2:
        return f"weight must be 2, got {fixture.weight}"
    if N == 1:
        return "level 1 has no Steinberg primes, so no sign-twisted E2 combination"
    if any(e > 1 for _, e in factorize(N).factors):
        return f"level {N} is not square-free"
    if (6 * N) % ell == 0:
        return f"ell = {ell} divides 6N"
    return None


def verify_weight2_squarefree(fixture: NewformFixture, ell: int) -> VerificationResult:
    """Weight-2 square-free congruence against the sign-twisted E2 combination."""
    outside = _outside_weight2_squarefree(fixture, ell)
    if outside:
        raise DomainError(outside)
    N = fixture.level
    sturm = sturm_bound(2, N)
    window = min(fixture.n_max, sturm)
    level_primes = list(factorize(N).primes())
    missing = [p for p in level_primes if p not in fixture.steinberg_signs]
    if missing:
        return VerificationResult(
            fixture.label, ell, RESIDUE, "Eprime(weight 2, steinberg)",
            0, sturm, f"inconclusive(missing steinberg signs for {missing})",
        )
    signs = [(p, fixture.steinberg_signs[p]) for p in level_primes]
    desc = "Eprime(weight 2, signs={" + ",".join(f"{p}:{s:+d}" for p, s in signs) + "})"
    if all(s == -1 for _, s in signs):
        return VerificationResult(
            fixture.label, ell, RESIDUE, desc, 0, sturm,
            VERDICT_REFUTED_STRUCTURAL,
            ("all Atkin-Lehner style signs are -1: the constant-term clause "
             "makes the congruence impossible",),
        )
    E = eprime_weight2_steinberg(signs, ell, window)
    try:
        points = find_residue_points(fixture, 1, ell)
    except DenominatorObstruction as exc:
        return VerificationResult(
            fixture.label, ell, RESIDUE, desc, 0, sturm,
            f"inconclusive(denominator obstruction: {exc})",
        )
    outcomes = _point_outcomes(fixture, E, points, ell, window)
    return replace(_conclude(fixture, ell, desc, window, sturm, outcomes), points=points)


def verify_fixture(fixture: NewformFixture, ell: int, nu=None, p_max: int = 100) -> VerificationResult:
    """The final verdict on ell for a fixture, with the Frobenius scan attached.

    The Eisenstein candidates of `verify_reducible` are tried first. Where
    there is none (weight 2, nu omitted, no primitive nu mod any c with
    c^2 | N) and `verify_weight2_squarefree`'s domain holds, it answers
    instead; elsewhere, as at N = 4m or 8m, no candidate stands. A
    verdict short of certified carries `frobenius_scan` up to p_max (or the
    scan's `scan_error`) and becomes refuted-by-scan when every residue point
    has an irreducibility witness, which rules the congruence out there. The
    scan runs at the index-1 points the verdict built, where it built them.
    A p_max below 2 is rejected before any candidate runs.
    """
    if p_max < 2:
        raise DomainError(f"p_max must be >= 2, got {p_max}")
    result = verify_reducible(fixture, ell, nu=nu)
    if result.verdict == NO_CANDIDATE and not _outside_weight2_squarefree(fixture, ell):
        result = verify_weight2_squarefree(fixture, ell)
    if result.certified:
        return result
    try:
        scan = frobenius_scan(fixture, ell, p_max, result.points)
    except (DomainError, DenominatorObstruction) as exc:
        return replace(result, scan_error=str(exc))
    witnessed = scan.points and all(pt["witness"] is not None for pt in scan.points)
    verdict = VERDICT_REFUTED_SCAN if witnessed and not result.refuted else result.verdict
    return replace(result, verdict=verdict, scan=scan)


@dataclass(frozen=True)
class ScanResult:
    label: str
    ell: int
    p_max: int
    points: tuple[dict, ...]  # {"point", "tested", "witness"}
    partial: bool
    warnings: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "ell": self.ell,
            "p_max": self.p_max,
            "points": [
                {
                    "point": pt["point"],
                    "tested": {str(p): v for p, v in pt["tested"].items()},
                    "witness": pt["witness"],
                }
                for pt in self.points
            ],
            "partial": self.partial,
            "warnings": list(self.warnings),
        }


def frobenius_scan(fixture: NewformFixture, ell: int, p_max: int, points=None) -> ScanResult:
    """Irreducibility scan: is X^2 - a_p X + p^(k-1) irreducible at each point?

    Reports, per residue point, each tested prime p <= p_max with p coprime to
    ell N, and the smallest p whose characteristic polynomial is irreducible
    (a certificate that no reducibility congruence can hold at that point).
    The points are `find_residue_points(fixture, 1, ell)`, built here unless
    the caller passes them. a_p maps into F_q through the point's int table,
    and `_fp_irreducible_quadratic` decides at every ell and field degree.
    """
    if not is_prime(ell):
        raise DomainError(f"{ell} is not prime")
    if p_max < 2:
        raise DomainError(f"p_max must be >= 2, got {p_max}")
    warnings = []
    if fixture.level % ell == 0:
        warnings.append(
            f"ell = {ell} divides the level: scan restricted to p coprime to ell N"
        )
    k = fixture.weight
    if points is None:
        points = find_residue_points(fixture, 1, ell)
    partial = p_max > fixture.n_max
    if partial:
        warnings.append(
            f"p_max = {p_max} exceeds available coefficients (n_max = {fixture.n_max}): "
            "partial scan"
        )
    usable = [
        p for p in primes_up_to(min(p_max, max(fixture.an)))
        if p % ell != 0 and fixture.level % p != 0 and p in fixture.an
    ]
    constants = [(p, [pow(p, k - 1, ell)]) for p in usable]
    out = []
    for pt in points:
        modulus = list(pt.modulus)
        tested = {p: _fp_irreducible_quadratic(pt.vector_image(fixture.a(p)), c, modulus, ell) for p, c in constants}
        witness = next((p for p, irred in tested.items() if irred), None)
        out.append({"point": _point_name(pt), "tested": tested, "witness": witness})
    return ScanResult(fixture.label, ell, p_max, tuple(out), partial, tuple(warnings))
