"""Job lists, the long-window fixture generator and the known-outcome oracle.

A job is a dict with an ``id``, the CLI ``argv`` it runs and an ``expect``
entry that the oracle checks the envelope and exit code against. Everything
here is computed from the workload name and the seed alone, with integer
arithmetic written for the benchmark, so the oracle shares no code with the
package it checks.
"""

from __future__ import annotations

import json
import math
import os
import random
from fractions import Fraction

WORKLOADS = ("fixture-verify", "long-window", "bound-grid")

# A job is stopped after this many reference units (passrun.reference_kernel
# times, about 30-50 ms each on a 2-core VM) and then counts as failed and as
# taking the deadline. Each deadline sits about a factor of two or more away
# from both the slowest job the seed package completes and the fastest job
# it does not, so a job's outcome does not depend on the host's speed:
# fixture-verify completes every job within 12 units but the ell = 5 and 43
# jobs on 81.6c need over 150; long-window completes every job within 30;
# bound-grid completes every job within 52 but (22, 121) needs over 220 and
# the hang points far more.
DEADLINE_REF = {"fixture-verify": 30.0, "long-window": 90.0, "bound-grid": 105.0}

# A run makes --seconds / SECONDS_PER_PASS passes, rounded and at least one,
# so every run of a workload attempts the same jobs whatever the host's
# speed. fixture-verify makes one pass, as its work is mostly fixed deadline
# hits; long-window, the most compute-bound, makes two.
SECONDS_PER_PASS = {"fixture-verify": 20.0, "long-window": 10.0, "bound-grid": 30.0}

# The second seed is never used while the benchmark or a change is tuned; a
# speed claim is checked on it once at the end.
CLAIM_CHECK_SEED = 1000003

# verify on each bundled fixture at every prime of its candidate_report
# reducible set: (fixture, ell, exit code, verdict). The verdicts and exit
# codes are the ones the tier-1 tests pin.
FIXTURE_VERIFY = [
    ("11-2a", 2, 1, "refuted-by-scan"),
    ("11-2a", 3, 1, "refuted-by-scan"),
    ("11-2a", 5, 0, "certified"),
    ("11-2a", 11, 1, "refuted-by-scan"),
    ("11-4a", 2, 1, "refuted-at-3"),
    ("11-4a", 3, 1, "refuted-at-2"),
    ("11-4a", 5, 1, "refuted-at-2"),
    ("11-4a", 11, 1, "refuted-at-2"),
    ("11-4a", 61, 0, "certified"),
    ("81-6c", 2, 0, "norm-certified"),
    ("81-6c", 3, 0, "certified"),
    ("81-6c", 5, 1, "refuted-at-2"),
    ("81-6c", 7, 0, "certified"),
    ("81-6c", 43, 0, "certified"),
    ("81-6c", 1171, 0, "certified"),
    ("81-6c-printed", 2, 3, "inconclusive(insufficient coefficients)"),
    ("81-6c-printed", 3, 3, "inconclusive(insufficient coefficients)"),
    ("81-6c-printed", 5, 1, "refuted-at-2"),
    ("81-6c-printed", 7, 3, "inconclusive(insufficient coefficients)"),
    ("81-6c-printed", 43, 3, "inconclusive(insufficient coefficients)"),
    ("81-6c-printed", 1171, 3, "inconclusive(insufficient coefficients)"),
]

BOUND_WEIGHTS = (2, 4, 6, 8, 12, 16, 20, 22)
BOUND_LEVELS = (11, 37, 81, 121, 210, 225, 441, 1089, 2310)
LEVEL_ONE_WEIGHTS = (12, 16, 18, 20, 22)
# Points where candidate_report is known to run for more than a minute.
HANG_POINTS = ((16, 29 * 29), (24, 2025), (30, 4225))
# Reducible sets pinned by the tier-1 tests.
PINNED_BOUNDS = {(4, 11): [2, 3, 5, 11, 61], (6, 81): [2, 3, 5, 7, 43, 1171]}

LONG_WINDOW_RANGE = (400, 1400)
LONG_WINDOW_WEIGHTS = (12, 16, 18, 20, 22)

# Failures the unmodified package is known to have, with their kind. A run is
# still correct when one of these jobs fails in the listed way or passes; any
# other failure makes it incorrect.
_FV_SLOW = "deadline"  # brute-force root finding in F_{5^D} and F_{43^3}
_BG_DIGITS = "exception"  # ValueError: str() of a dihedral bound over 4300 digits
_BG_LEVEL_ONE = "wrong-output"  # level-1 report misses the primes of num(B_k/2k)
_BG_HANG = "deadline"  # Pollard rho on Bernoulli norm numerators
KNOWN_DEFECTS = {
    "fixture-verify": {
        "verify:81-6c:5": _FV_SLOW,
        "verify:81-6c:43": _FV_SLOW,
        "verify:81-6c-printed:5": _FV_SLOW,
        "verify:81-6c-printed:43": _FV_SLOW,
    },
    "long-window": {},
    "bound-grid": {
        **{f"bound:{k}:{n}": _BG_DIGITS for k, n in (
            (6, 1089), (8, 1089), (12, 441), (12, 1089), (16, 121),
            (16, 225), (16, 441), (16, 1089), (20, 81), (20, 121),
            (20, 225), (20, 441), (20, 1089), (22, 225), (22, 441),
        )},
        **{f"bound:{k}:1": _BG_LEVEL_ONE for k in LEVEL_ONE_WEIGHTS},
        **{f"bound:{k}:{n}": _BG_HANG for k, n in (
            (22, 81), (22, 121), (22, 1089), *HANG_POINTS,
        )},
    },
}


# -- exact helpers written for the benchmark -----------------------------------


def primes_up_to(n: int) -> list[int]:
    sieve = bytearray([1]) * (n + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytearray(len(range(i * i, n + 1, i)))
    return [i for i, flag in enumerate(sieve) if flag]


def prime_divisors(n: int) -> list[int]:
    """Trial division; the benchmark only factors numbers below 10^12."""
    n = abs(n)
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def bernoulli(m: int) -> Fraction:
    """B_m with B_1 = -1/2, from the recurrence sum_j C(m+1, j) B_j = 0."""
    b = [Fraction(1)]
    for n in range(1, m + 1):
        b.append(-sum(math.comb(n + 1, j) * b[j] for j in range(n)) / (n + 1))
    return b[m]


def eisenstein_primes(k: int) -> list[int]:
    """Primes dividing the numerator of B_k / 2k."""
    return prime_divisors((bernoulli(k) / (2 * k)).numerator)


def sturm_bound_prime_level(k: int, p: int) -> int:
    return -(-k * (p + 1) // 12)


def divisor_power_sums(e: int, limit: int) -> list[int]:
    """sigma_e(n) for 0 <= n <= limit (index 0 unused)."""
    sig = [0] * (limit + 1)
    for m in range(1, limit + 1):
        me = m ** e
        for j in range(m, limit + 1, m):
            sig[j] += me
    return sig


# -- fixed job lists ------------------------------------------------------------


def fixture_verify_jobs() -> list[dict]:
    return [
        {
            "id": f"verify:{name}:{ell}",
            "argv": ["verify", "--form", f"fixtures/{name}.json", "--ell", str(ell)],
            "expect": {"command": "verify", "code": code, "verdict": verdict},
        }
        for name, ell, code, verdict in FIXTURE_VERIFY
    ]


def bound_grid_jobs() -> list[dict]:
    points = [(k, n) for k in BOUND_WEIGHTS for n in BOUND_LEVELS]
    points += [(k, 1) for k in LEVEL_ONE_WEIGHTS]
    points += list(HANG_POINTS)
    jobs = []
    for k, n in points:
        required = set(primes_up_to(k + 1)) | set(prime_divisors(n))
        if n == 1:
            required |= set(eisenstein_primes(k))
        expect = {"command": "bound", "code": 0, "contains": sorted(required)}
        if (k, n) in PINNED_BOUNDS:
            expect["equals"] = PINNED_BOUNDS[(k, n)]
        jobs.append({
            "id": f"bound:{k}:{n}",
            "argv": ["bound", "--weight", str(k), "--level", str(n)],
            "expect": expect,
        })
    return jobs


# -- long-window generator --------------------------------------------------------


def long_window_triples(window=LONG_WINDOW_RANGE) -> list[tuple[int, int, int, int]]:
    """(k, p, ell, Sturm window) with ell | num(B_k/2k), p^k or p^(k-2) = 1 mod ell.

    The congruence condition puts ell into the bound engine's candidate set
    for the prime level p, so the certified verdicts are consistent with it.
    """
    lo, hi = window
    out = []
    level_primes = primes_up_to(12 * hi // min(LONG_WINDOW_WEIGHTS) + 1)
    for k in LONG_WINDOW_WEIGHTS:
        for ell in eisenstein_primes(k):
            if ell <= k + 1:
                continue
            for p in level_primes:
                b = sturm_bound_prime_level(k, p)
                if p != ell and lo <= b <= hi and (
                    pow(p, k, ell) == 1 or pow(p, k - 2, ell) == 1
                ):
                    out.append((k, p, ell, b))
    return sorted(out, key=lambda t: (t[3], t))


def _is_squarefree(d: int) -> bool:
    return all(d % (q * q) for q in range(2, math.isqrt(d) + 1))


def _sqrt_mod(d: int, ell: int) -> list[int]:
    return [x for x in range(ell) if (x * x - d) % ell == 0]


def _first_mismatches(an, sig, d: int, ell: int) -> list[int]:
    """Per root r of x^2 = d mod ell: first n with a_n(r) != sigma(n) mod ell."""
    out = []
    for r in _sqrt_mod(d, ell):
        first = None
        for n in range(1, len(an) + 1):
            if n % ell == 0:
                continue
            c0, c1 = an[n - 1]
            if (c0 + c1 * r - sig[n]) % ell:
                first = n
                break
        out.append(first)
    return out


def generate_long_window(seed: int, out_dir: str, window=LONG_WINDOW_RANGE):
    """Write one fixture per triple into out_dir; return (jobs, meta).

    Fixture a_n = sigma_{k-1}(n) + ell*u_n + (alpha - s)*v_n in Q(alpha),
    alpha^2 = d, s^2 = d mod ell, so it is congruent to E_k at the point
    alpha -> s above its own ell and differs at the conjugate point. Each
    fixture is also checked at another workload ell, where it is refuted;
    d is drawn so that both primes split.

    A refuted job's time depends on its ell, so the refuting ell of each
    fixture is fixed, the workload's other ells taken in turn, and the seed
    draws only d, s and the coefficients.
    """
    rng = random.Random(f"long-window:{seed}")
    triples = long_window_triples(window)
    ells = sorted({t[2] for t in triples})
    os.makedirs(out_dir, exist_ok=True)
    jobs, chosen = [], []
    for i, (k, p, ell, b) in enumerate(triples):
        candidates = [x for x in ells if x != ell]
        other = candidates[i % len(candidates)]
        while True:
            d = rng.randrange(2, 1000)
            if _is_squarefree(d) and all(
                d % q and pow(d, (q - 1) // 2, q) == 1 for q in (ell, other)
            ):
                break
        s = rng.choice(_sqrt_mod(d, ell))
        sig = divisor_power_sums(k - 1, b)
        while True:
            an = [(1, 0)]
            for n in range(2, b + 1):
                u = rng.randint(-5, 5)
                v = rng.randint(1, 5) * rng.choice((-1, 1))
                an.append((sig[n] + ell * u - s * v, v))
            fails = _first_mismatches(an, sig, d, other)
            if None not in fails:
                break
        label = f"lw.k{k}.p{p}.l{ell}"
        data = {
            "label": label,
            "weight": k,
            "level": p,
            "field_poly": [-d, 0, 1],
            "an": {str(n + 1): [str(c0), str(c1)] for n, (c0, c1) in enumerate(an)},
            "non_cm": True,
        }
        path = os.path.join(out_dir, label + ".json")
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(data, fh, sort_keys=True)
        os.replace(tmp, path)
        rel = os.path.relpath(path)
        for at, code, verdict in (
            (ell, 0, "certified"),
            (other, 1, f"refuted-at-{max(fails)}"),
        ):
            jobs.append({
                "id": f"verify:{label}:{at}",
                "argv": ["verify", "--form", rel, "--ell", str(at)],
                "expect": {"command": "verify", "code": code, "verdict": verdict,
                           "checked_up_to": b},
            })
        chosen.append({"k": k, "p": p, "ell": ell, "window": b, "d": d, "refuted_at_ell": other})
    meta = {"seed": seed, "claim_check_seed": CLAIM_CHECK_SEED, "triples": chosen}
    return jobs, meta


def workload_jobs(name: str, seed: int, work_dir: str):
    """(jobs, meta) for a workload; long-window writes its fixtures to work_dir."""
    if name == "fixture-verify":
        return fixture_verify_jobs(), {}
    if name == "bound-grid":
        return bound_grid_jobs(), {}
    if name == "long-window":
        return generate_long_window(seed, os.path.join(work_dir, f"long-window-seed{seed}"))
    raise ValueError(f"unknown workload {name!r}")


# -- oracle -----------------------------------------------------------------------


def check(job: dict, code, stdout: str) -> str | None:
    """None when the job's exit code and envelope match its expected outcome."""
    exp = job["expect"]
    if code != exp["code"]:
        return f"exit code {code}, expected {exp['code']}"
    try:
        env = json.loads(stdout)
        out = env["outputs"]
    except (ValueError, KeyError, TypeError):
        return "no JSON envelope on stdout"
    if env.get("command") != exp["command"]:
        return f"envelope command {env.get('command')!r}, expected {exp['command']!r}"
    if exp["command"] == "verify":
        if out.get("verdict") != exp["verdict"]:
            return f"verdict {out.get('verdict')!r}, expected {exp['verdict']!r}"
        if "checked_up_to" in exp and out.get("checked_up_to") != exp["checked_up_to"]:
            return f"checked_up_to {out.get('checked_up_to')}, expected {exp['checked_up_to']}"
        return None
    primes = out.get("reducible_primes")
    if not isinstance(primes, list):
        return "report has no reducible_primes"
    missing = sorted(set(exp["contains"]) - set(primes))
    if missing:
        return f"reducible set misses {missing}"
    if "equals" in exp and primes != exp["equals"]:
        return f"reducible set {primes}, expected {exp['equals']}"
    return None


def failure_kind(status: str | None, reason: str | None) -> str | None:
    """'deadline', 'exception' or 'wrong-output' for a failed job, else None."""
    if status is None:
        return "wrong-output" if reason else None
    if status.startswith("exception"):
        return "exception"
    return "deadline"  # a deadline hit, or skipped once the run's budget was spent
