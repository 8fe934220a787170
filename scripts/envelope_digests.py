#!/usr/bin/env python3
"""Digests of the CLI's output on a fixed set of 121 runs, to check byte identity.

Two checkouts print the same lines exactly when every run gives the same
exit code, stdout and stderr, so a change that must keep the envelopes
byte-identical is checked by comparing the output at its parent and at the
change. The runs:
  * the 21 fixture-verify jobs of bench/workloads.py;
  * the 26 long-window jobs of bench/workloads.py at seeds 1000003 and 7;
  * `scan` on each bundled fixture at ell in {2, 3, 5, 7, 13, 43}, with
    --pmax 100 and 20.

Each run is a subprocess `python -m excprimes.cli ...` that imports the
package from the checkout's src/. All runs work in one temporary directory,
holding a copy of the checkout's fixtures/ and the generated long-window
fixtures, so the paths in the envelopes do not depend on where that
directory is. bench/workloads.py is imported from this script's checkout and
only read. One JSON line per run: the argv, the exit code and the sha256 of
stdout and of stderr.

Run:  python3 scripts/envelope_digests.py [--checkout DIR] > digests.jsonl
"""

import argparse
import hashlib
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


def argvs(checkout: str) -> list[list[str]]:
    """The argv of every run, with paths relative to the working directory."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    import workloads

    out = [job["argv"] for job in workloads.fixture_verify_jobs()]
    for seed in SEEDS:
        jobs, _ = workloads.generate_long_window(seed, f"long-window-seed{seed}")
        out += [job["argv"] for job in jobs]
    names = sorted(f[:-len(".json")] for f in os.listdir(os.path.join(checkout, "fixtures"))
                   if f.endswith(".json"))
    for name in names:
        for ell in SCAN_ELLS:
            for pmax in SCAN_PMAX:
                out.append(["scan", "--form", f"fixtures/{name}.json", "--ell", str(ell),
                            "--pmax", str(pmax)])
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--checkout", default=ROOT,
                    help="root of the checkout whose src/ and fixtures/ are run (default: this one)")
    args = ap.parse_args()
    checkout = os.path.abspath(args.checkout)
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"), PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryDirectory() as work:
        shutil.copytree(os.path.join(checkout, "fixtures"), os.path.join(work, "fixtures"))
        os.chdir(work)
        for argv in argvs(checkout):
            proc = subprocess.run([sys.executable, "-m", "excprimes.cli", *argv],
                                  capture_output=True, env=env)
            print(json.dumps({
                "argv": argv,
                "code": proc.returncode,
                "stdout_sha256": hashlib.sha256(proc.stdout).hexdigest(),
                "stderr_sha256": hashlib.sha256(proc.stderr).hexdigest(),
            }, sort_keys=True), flush=True)


if __name__ == "__main__":
    main()
