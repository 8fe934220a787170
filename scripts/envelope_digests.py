#!/usr/bin/env python3
"""Digests of the CLI's output on a fixed set of 375 runs, to check byte identity.

Two checkouts print the same lines exactly when every run gives the same
exit code, stdout and stderr, so a change that must keep the envelopes
byte-identical is checked by comparing the output at its parent and at the
change. The runs:
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
  * `eisenstein --weight 6` for the primitive characters mod 3 and 9 that
    the fixture-verify jobs build, chi(3,1), chi(9,1), chi(9,2), chi(9,4)
    and chi(9,5), at --terms 5 and 54;
  * `characters --modulus m` for m in {1, 8, 9, 16, 32, 45, 64, 81, 100,
    125, 243}, whose tables print each character's conductor;
  * `dims --weight 12 --level N` for N in {4, 9, 13, 36, 49, 91, 1105} and
    every level of bench/workloads.py's bound grid, whose reports print the
    elliptic point counts nu2 and nu3;
  * `bound` at the five levels with no newform, (k, N) in {(2, 1), (4, 1),
    (2, 2), (2, 4), (4, 4)}, square-free or not, and `bound --weight 6
    --level 81` with --degree 0, 1, 18 and 19, where 18 is
    dim S_6^new(Gamma_0(81)), which pin the domain of `bound` byte for byte.

By default each run is a subprocess `python -m excprimes.cli ...` that
imports the package from the checkout's src/. With --in-process every run
goes through `excprimes.cli.main` in this one interpreter, so whatever the
package keeps between calls is shared by the runs: the list runs forward,
then reversed, the forward lines are printed, and the exit status is 1 when
some run's digests differ between the two orders. Both modes print the same
lines when no run depends on what ran before it.

All runs work in one temporary directory, holding a copy of the checkout's
fixtures/ and the generated long-window fixtures, so the paths in the
envelopes do not depend on where that directory is. bench/workloads.py is
imported from this script's checkout and only read. One JSON line per run:
the argv, the exit code and the sha256 of stdout and of stderr.

Run:  python3 scripts/envelope_digests.py [--checkout DIR] [--in-process] > digests.jsonl
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (1000003, 7)
SCAN_ELLS = (2, 3, 5, 7, 13, 43)
SCAN_PMAX = (100, 20)
TEXT_SCAN_PMAX = 20
TEXT = ["--format", "text"]
WEIGHT2_ELLS = (7, 13, 17, 19, 23)
EISENSTEIN_CHARS = ((3, 1), (9, 1), (9, 2), (9, 4), (9, 5))
EISENSTEIN_TERMS = (5, 54)
CHARACTER_MODULI = (1, 8, 9, 16, 32, 45, 64, 81, 100, 125, 243)
DIMS_LEVELS = (4, 9, 13, 36, 49, 91, 1105)
NO_NEWFORM = ((2, 1), (4, 1), (2, 2), (2, 4), (4, 4))  # dim S_k^new(Gamma_0(N)) = 0
DEGREES_81 = (0, 1, 18, 19)  # around dim S_6^new(Gamma_0(81)) = 18
PROG_NAME = "python -m excprimes.cli"  # what click names the subprocess runs


def argvs(checkout: str) -> list[list[str]]:
    """The argv of every run, with paths relative to the working directory."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    import workloads

    verify = [job["argv"] for job in workloads.fixture_verify_jobs()]
    out = verify + [argv + TEXT for argv in verify]
    for seed in SEEDS:
        jobs, _ = workloads.generate_long_window(seed, f"long-window-seed{seed}")
        out += [job["argv"] for job in jobs]
    hangs = [["bound", "--weight", str(k), "--level", str(n)] for k, n in workloads.HANG_POINTS]
    bound = [job["argv"] for job in workloads.bound_grid_jobs() if job["argv"] not in hangs]
    out += bound + [argv + TEXT for argv in bound]
    names = sorted(f[:-len(".json")] for f in os.listdir(os.path.join(checkout, "fixtures"))
                   if f.endswith(".json"))
    for name in names:
        for ell in SCAN_ELLS:
            for pmax in SCAN_PMAX:
                argv = ["scan", "--form", f"fixtures/{name}.json", "--ell", str(ell), "--pmax", str(pmax)]
                out += [argv, argv + TEXT] if pmax == TEXT_SCAN_PMAX else [argv]
    out += [["verify", "--form", "fixtures/11-2a.json", "--ell", str(ell)] for ell in WEIGHT2_ELLS]
    for modulus, index in EISENSTEIN_CHARS:
        for terms in EISENSTEIN_TERMS:
            out.append(["eisenstein", "--weight", "6", "--char-modulus", str(modulus),
                        "--char-index", str(index), "--terms", str(terms)])
    out += [["characters", "--modulus", str(m)] for m in CHARACTER_MODULI]
    grid_levels = {int(job["argv"][4]) for job in workloads.bound_grid_jobs()}
    out += [["dims", "--weight", "12", "--level", str(n)] for n in sorted(grid_levels.union(DIMS_LEVELS))]
    out += [["bound", "--weight", str(k), "--level", str(n)] for k, n in NO_NEWFORM]
    out += [["bound", "--weight", "6", "--level", "81", "--degree", str(d)] for d in DEGREES_81]
    return out


def digest(argv, code, stdout: bytes, stderr: bytes) -> str:
    return json.dumps({
        "argv": argv,
        "code": code,
        "stdout_sha256": hashlib.sha256(stdout).hexdigest(),
        "stderr_sha256": hashlib.sha256(stderr).hexdigest(),
    }, sort_keys=True)


def run_subprocess(checkout: str, argv: list[str]) -> str:
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-m", "excprimes.cli", *argv],
                          capture_output=True, env=env)
    return digest(argv, proc.returncode, proc.stdout, proc.stderr)


def run_in_process(main, argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    code = 0
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            main(args=list(argv), prog_name=PROG_NAME)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    return digest(argv, code, out.getvalue().encode(), err.getvalue().encode())


def import_cli(checkout: str):
    """The click group of the checkout's src/, imported into this interpreter."""
    src = os.path.join(checkout, "src")
    sys.path.insert(0, src)
    import excprimes.cli

    if not os.path.abspath(excprimes.cli.__file__).startswith(src + os.sep):
        sys.exit(f"error: excprimes imported from {excprimes.cli.__file__}, not {src}")
    return excprimes.cli.main


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--checkout", default=ROOT,
                    help="root of the checkout whose src/ and fixtures/ are run (default: this one)")
    ap.add_argument("--in-process", action="store_true",
                    help="run every argv through excprimes.cli.main in this interpreter, "
                         "forward and then reversed")
    args = ap.parse_args()
    checkout = os.path.abspath(args.checkout)
    with tempfile.TemporaryDirectory() as work:
        shutil.copytree(os.path.join(checkout, "fixtures"), os.path.join(work, "fixtures"))
        os.chdir(work)
        runs = argvs(checkout)
        if not args.in_process:
            for argv in runs:
                print(run_subprocess(checkout, argv), flush=True)
            return 0
        cli_main = import_cli(checkout)
        forward = [run_in_process(cli_main, argv) for argv in runs]
        backward = [run_in_process(cli_main, argv) for argv in reversed(runs)][::-1]
    for line in forward:
        print(line)
    moved = [argv for argv, a, b in zip(runs, forward, backward) if a != b]
    for argv in moved:
        print(f"error: digests depend on the run order: {' '.join(argv)}", file=sys.stderr)
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
