#!/usr/bin/env python3
"""Digests of the CLI's output on a fixed set of 441 runs, to keep the envelopes byte-identical.

tests/envelope_digests.jsonl holds this script's output, and
tests/test_envelope_digests.py reruns every argv, in reverse order, and
requires each line to be byte-equal. So a change of any envelope, or an
envelope that depends on what ran before it, fails the Tier-1 suite. A change
that alters an envelope on purpose rewrites the file with this script and
lists each changed argv in CHANGES.md. The runs:
  * the 21 fixture-verify jobs of bench/workloads.py, as JSON and again
    with --format text;
  * the 26 long-window jobs of bench/workloads.py at seeds 1000003 and 7;
  * the 77 bound-grid jobs of bench/workloads.py that are not in its
    HANG_POINTS, as JSON and again with --format text;
  * `scan` on each bundled fixture at ell in {2, 3, 5, 7, 13, 43}, with
    --pmax 100 and 20, and at --pmax 20 again with --format text;
  * `verify --form fixtures/11-2a.json` at ell in {7, 13, 17, 19, 23}, which
    reach the weight-2 Steinberg series E' beside the one certified
    fixture-verify job that does;
  * `verify --form fixtures/81-6c.json --ell 7` with each primitive
    character nu mod 3 and 9 given by --char-modulus and --char-index,
    chi(3,1), chi(9,1), chi(9,2), chi(9,4) and chi(9,5), the explicit-nu
    path that no fixture-verify job takes;
  * `eisenstein --weight 6` for those five characters, the ones the
    fixture-verify jobs build, at --terms 5 and 54, and `eisenstein
    --weight 12` for the trivial character at --terms 60;
  * `characters --modulus m` for m in {1, 8, 9, 16, 32, 45, 64, 81, 100,
    125, 243}, whose tables print each character's conductor;
  * `dims --weight 12 --level N` for N in {4, 9, 13, 36, 49, 91, 1105} and
    every level of bench/workloads.py's bound grid, whose reports print the
    elliptic point counts nu2 and nu3;
  * `bound` at the five levels with no newform, (k, N) in {(2, 1), (4, 1),
    (2, 2), (2, 4), (4, 4)}, square-free or not, and `bound --weight 6
    --level 81` with --degree 0, 1, 18 and 19, where 18 is
    dim S_6^new(Gamma_0(81)), which pin the domain of `bound` byte for byte;
  * `scan --form fixtures/11-4a.json --ell 5 --pmax 30000000`, whose pmax is
    far past the fixture's last coefficient, where the scan stops sieving;
  * `bound --weight 22 --level 81 --factors factors.txt`, as JSON and again
    with --format text, where README's factor hint completes the 44-digit
    cofactor that the unhinted (22, 81) runs above report. The gate replays
    in reverse, so these runs come before those, which shows that a hint
    does not outlive its command;
  * `verify --form delta.json` at ell in {2, 3, 11, 13, 691}, the one
    level-1 newform Delta, with tau(1..100) from q prod (1 - q^n)^24 and
    field polynomial x. No other run reaches level-1 `verify`: it reads
    inconclusive (a denominator obstruction of a_0(E_12)) at 2 and 3,
    refuted-at-0 at 11, refuted-by-scan at 13 and certified at 691;
  * `verify --form fixtures/45-2a.json` at ell in {2, 3, 5, 7}, the one
    bundled weight-2 newform whose level 45 = 3^2 * 5 takes the twisted
    series E' of nu = chi(3,1): certified at 2 and refuted at 3, 5 and 7;
  * `verify --form fixtures/50-2a.json` at ell in {2, 3, 5, 7}, whose level
    50 = 2 * 5^2 takes the twisted series E' of characters mod 5 of order 4,
    with values in Q(zeta_4); Phi_4 is irreducible mod 3 and 7, so those
    points lie in F_9 and F_49;
  * `verify` and `scan --pmax 100` on fixtures/81-6c.json at ell in {11,
    17, 19}, where the field polynomial splits as (1)(1)(2) mod 11 and as
    (2)(2) mod 17 and 19, so residue fields of degree 2 hold two distinct
    quadratic factors' roots;
  * `verify --form fixtures/81-6c.json` at ell in {13, 23}, where the field
    polynomial is inert, so the residue field is F_{ell^4}, and at 23 Phi_3
    is inert too: the fields of degree 4 whose modulus no other run picks.

Every run goes through `excprimes.cli.main` in this one interpreter, in the
order above, from a temporary directory holding a copy of fixtures/, the
generated long-window fixtures, the hint file and Delta, so the paths in the
envelopes do not depend on where that directory is. bench/workloads.py is
imported and only read.
One JSON line per run: the argv, the exit code and the sha256 of stdout and
of stderr.

Run:  PYTHONPATH=src python scripts/envelope_digests.py > tests/envelope_digests.jsonl
"""

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
if BENCH not in sys.path:
    sys.path.insert(0, BENCH)

SEEDS = (1000003, 7)
SCAN_ELLS = (2, 3, 5, 7, 13, 43)
SCAN_PMAX = (100, 20)
TEXT_SCAN_PMAX = 20
TEXT = ["--format", "text"]
WEIGHT2_ELLS = (7, 13, 17, 19, 23)
NU_CHARS = ((3, 1), (9, 1), (9, 2), (9, 4), (9, 5))  # the primitive characters mod 3 and 9
NU_ELL = 7
EISENSTEIN_TERMS = (5, 54)
CHARACTER_MODULI = (1, 8, 9, 16, 32, 45, 64, 81, 100, 125, 243)
DIMS_LEVELS = (4, 9, 13, 36, 49, 91, 1105)
NO_NEWFORM = ((2, 1), (4, 1), (2, 2), (2, 4), (4, 4))  # dim S_k^new(Gamma_0(N)) = 0
DEGREES_81 = (0, 1, 18, 19)  # around dim S_6^new(Gamma_0(81)) = 18
FAR_PMAX_SCAN = ["scan", "--form", "fixtures/11-4a.json", "--ell", "5", "--pmax", "30000000"]
HINTS = "factors.txt"
HINT_LINE = ("6402103229047855566623041627192831804155994231"
             "=157,16640620490166841687,2450493213137653603679509")  # README's (22, 81) example
HINTED_BOUND = ["bound", "--weight", "22", "--level", "81", "--factors", HINTS]
DELTA = "delta.json"
DELTA_TERMS = 100
DELTA_ELLS = (2, 3, 11, 13, 691)
TWISTED_ELLS = (2, 3, 5, 7)
QUARTIC_ELLS = (11, 17, 19)  # 81.6c's field polynomial is (1)(1)(2) mod 11 and (2)(2) mod 17 and 19
INERT_ELLS = (13, 23)  # 81.6c's field polynomial is inert mod 13 and 23, so D = 4
PROG_NAME = "python -m excprimes.cli"  # the name that usage and error messages print


def argvs() -> list[list[str]]:
    """The argv of every run, with paths relative to the working directory.

    Writes the long-window fixtures, the hint file and Delta into the
    working directory, which must hold a copy of fixtures/.
    """
    import workloads

    verify = [job["argv"] for job in workloads.fixture_verify_jobs()]
    out = verify + [argv + TEXT for argv in verify]
    for seed in SEEDS:
        jobs, _ = workloads.generate_long_window(seed, f"long-window-seed{seed}")
        out += [job["argv"] for job in jobs]
    hangs = [["bound", "--weight", str(k), "--level", str(n)] for k, n in workloads.HANG_POINTS]
    bound = [job["argv"] for job in workloads.bound_grid_jobs() if job["argv"] not in hangs]
    out += bound + [argv + TEXT for argv in bound]
    names = sorted(f[:-len(".json")] for f in os.listdir(os.path.join(ROOT, "fixtures"))
                   if f.endswith(".json"))
    for name in names:
        for ell in SCAN_ELLS:
            for pmax in SCAN_PMAX:
                argv = ["scan", "--form", f"fixtures/{name}.json", "--ell", str(ell), "--pmax", str(pmax)]
                out += [argv, argv + TEXT] if pmax == TEXT_SCAN_PMAX else [argv]
    out += [["verify", "--form", "fixtures/11-2a.json", "--ell", str(ell)] for ell in WEIGHT2_ELLS]
    out += [["verify", "--form", "fixtures/81-6c.json", "--ell", str(NU_ELL),
             "--char-modulus", str(modulus), "--char-index", str(index)] for modulus, index in NU_CHARS]
    for modulus, index in NU_CHARS:
        for terms in EISENSTEIN_TERMS:
            out.append(["eisenstein", "--weight", "6", "--char-modulus", str(modulus),
                        "--char-index", str(index), "--terms", str(terms)])
    out.append(["eisenstein", "--weight", "12", "--char-modulus", "1", "--char-index", "0", "--terms", "60"])
    out += [["characters", "--modulus", str(m)] for m in CHARACTER_MODULI]
    grid_levels = {int(job["argv"][4]) for job in workloads.bound_grid_jobs()}
    out += [["dims", "--weight", "12", "--level", str(n)] for n in sorted(grid_levels.union(DIMS_LEVELS))]
    out += [["bound", "--weight", str(k), "--level", str(n)] for k, n in NO_NEWFORM]
    out += [["bound", "--weight", "6", "--level", "81", "--degree", str(d)] for d in DEGREES_81]
    out.append(FAR_PMAX_SCAN)
    with open(HINTS, "w", encoding="ascii") as fh:
        fh.write(HINT_LINE + "\n")
    out += [HINTED_BOUND, HINTED_BOUND + TEXT]
    with open(DELTA, "w", encoding="ascii") as fh:
        json.dump({"label": "delta", "weight": 12, "level": 1, "field_poly": [0, 1],
                   "an": {str(n): [str(tau)] for n, tau in enumerate(_tau(DELTA_TERMS), 1)}}, fh)
    out += [["verify", "--form", DELTA, "--ell", str(ell)] for ell in DELTA_ELLS]
    out += [["verify", "--form", "fixtures/45-2a.json", "--ell", str(ell)] for ell in TWISTED_ELLS]
    out += [["verify", "--form", "fixtures/50-2a.json", "--ell", str(ell)] for ell in TWISTED_ELLS]
    for ell in QUARTIC_ELLS:
        out += [["verify", "--form", "fixtures/81-6c.json", "--ell", str(ell)],
                ["scan", "--form", "fixtures/81-6c.json", "--ell", str(ell), "--pmax", "100"]]
    out += [["verify", "--form", "fixtures/81-6c.json", "--ell", str(ell)] for ell in INERT_ELLS]
    return out


def _tau(terms: int) -> list[int]:
    """tau(1), ..., tau(terms): the coefficients of q prod_{n >= 1} (1 - q^n)^24."""
    series = [1] + [0] * (terms - 1)  # prod (1 - q^n)^24 up to q^(terms - 1)
    for n in range(1, terms):
        for _ in range(24):
            for i in range(terms - 1, n - 1, -1):
                series[i] -= series[i - n]
    return series


def run(argv: list[str]) -> str:
    """The digest line of one run of `excprimes.cli.main` in this interpreter."""
    from excprimes.cli import main

    out, err = io.StringIO(), io.StringIO()
    code = 0
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            main(args=list(argv), prog_name=PROG_NAME)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    return json.dumps({
        "argv": argv,
        "code": code,
        "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        "stderr_sha256": hashlib.sha256(err.getvalue().encode()).hexdigest(),
    }, sort_keys=True)


def main():
    if sys.argv[1:]:
        sys.exit(f"usage: {sys.argv[0]} > tests/envelope_digests.jsonl (it takes no options)")
    sys.dont_write_bytecode = True
    with tempfile.TemporaryDirectory() as work:
        shutil.copytree(os.path.join(ROOT, "fixtures"), os.path.join(work, "fixtures"))
        os.chdir(work)
        for argv in argvs():
            print(run(argv))


if __name__ == "__main__":
    main()
