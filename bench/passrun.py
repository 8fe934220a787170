"""One benchmark pass in this (fresh) process.

Reads a spec from stdin, imports ``excprimes.cli`` from the checkout's
``src``, runs every job through the click entry point with the job's
deadline, checks each envelope against the oracle and prints one JSON result
on stdout. ``--import-only`` just times the import, for the set-up metric.

Before every job the pass times a fixed pure-Python reference kernel. The
mean kernel time of the pass, ``ref_s``, is the unit in which the run
reports job and pass times, and deadlines are set in that unit, so that a
host whose CPU speed drifts with other tenants' load moves the unit and the
job times together.

    python3 bench/passrun.py < spec.json
    python3 bench/passrun.py --import-only
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import signal
import statistics
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import spans  # noqa: E402
import workloads  # noqa: E402


class DeadlineExceeded(BaseException):
    """Raised by SIGALRM; a BaseException so `except Exception` in the CLI cannot swallow it."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


def import_cli():
    """Import the package from this checkout's src and return the click group."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "excprimes", "cli.py")):
        raise SystemExit(f"error: no excprimes package under {src}")
    sys.path.insert(0, src)
    import excprimes.cli

    if not os.path.abspath(excprimes.cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"error: excprimes imported from {excprimes.cli.__file__}, not {src}")
    return excprimes.cli.main


REF_SAMPLES_AT_START = 5


def reference_kernel(n: int = 60_000) -> int:
    """Fixed work of the kind the package does: 127-bit modular squaring, list appends.

    The list is emptied every 1000 items, so that the kernel does not raise
    the pass's peak memory.
    """
    m = (1 << 127) - 1
    x, total, acc = 12345, 0, []
    for i in range(n):
        x = (x * x + i) % m
        acc.append(x & 0xFFFF)
        if len(acc) == 1000:
            total += sum(acc)
            acc.clear()
    return total + sum(acc)


def time_reference() -> float:
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start


def run_job(main, job, deadline_s):
    """(exit code, status, stdout, seconds); status is None, 'deadline' or 'exception: ...'."""
    out, err = io.StringIO(), io.StringIO()
    code, status = None, None
    start = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, deadline_s)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                main(args=list(job["argv"]), prog_name="excprimes")
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception as exc:  # an uncaught error in the CLI is a job failure
            status = f"exception: {type(exc).__name__}: {exc}"[:300]
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except DeadlineExceeded:
        status = "deadline"
    return code, status, out.getvalue(), time.perf_counter() - start


def run_pass(main, jobs, deadline_ref, budget_s, tracer=None):
    """Run jobs in order; return the pass record (per-job results, pass_s, ref_s, ...).

    A job's deadline is ``deadline_ref`` times the mean reference-kernel
    time measured so far in the pass; a job that hits it counts as taking
    ``deadline_ref`` times the pass's mean. ``pass_s`` is the sum of the job
    times so counted and ``wall_s`` the sum as measured, both without the
    kernel samples and the oracle checks.
    """
    old = signal.signal(signal.SIGALRM, _on_alarm)
    results = []
    ref_samples = [time_reference() for _ in range(REF_SAMPLES_AT_START)]
    pass_start = time.perf_counter()
    try:
        for job in jobs:
            ref_samples.append(time_reference())
            deadline_s = deadline_ref * statistics.fmean(ref_samples)
            if time.perf_counter() - pass_start > budget_s:
                # The run's time budget is spent: the job counts as a deadline hit.
                results.append({"id": job["id"], "code": None, "status": "skipped",
                                "reason": "pass budget exhausted", "seconds": None, "wall_s": 0.0,
                                "sha256": None})
                continue
            call = main
            if tracer is not None:
                tracer.start_job(job["id"])
                call = tracer.wrap(spans.ROOT_SPAN, main)
            code, status, stdout, seconds = run_job(call, job, deadline_s)
            if tracer is not None:
                tracer.end_job(time.perf_counter())
            reason = status or workloads.check(job, code, stdout)
            results.append({"id": job["id"], "code": code, "status": status,
                            "reason": reason, "seconds": seconds, "wall_s": seconds,
                            "sha256": hashlib.sha256(stdout.encode()).hexdigest()})
    finally:
        signal.signal(signal.SIGALRM, old)
    ref_s = statistics.fmean(ref_samples)
    for res in results:
        if res["status"] in ("deadline", "skipped"):
            # Counted at the deadline in the pass's unit: the alarm itself can
            # land late, after a long call into C (a big-integer operation).
            res["seconds"] = deadline_ref * ref_s
    return {
        "pass_s": sum(j["seconds"] for j in results),
        "wall_s": sum(j["wall_s"] for j in results),
        "ref_s": ref_s,
        "jobs": results,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv) -> int:
    if argv[1:] == ["--import-only"]:
        start = time.perf_counter()
        import_cli()
        print(json.dumps({"import_s": time.perf_counter() - start}))
        return 0
    spec = json.load(sys.stdin)
    cli_main = import_cli()
    tracer = None
    if spec["trace"]:
        tracer = spans.Tracer()
        tracer.install()
    try:
        record = run_pass(cli_main, spec["jobs"], spec["deadline_ref"], spec["budget_s"], tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        record["layers"] = spans.layer_metrics(tracer.spans)
        if spec.get("spans_out"):
            with open(spec["spans_out"], "w", encoding="utf-8") as fh:
                for rec in tracer.spans:
                    fh.write(json.dumps(rec) + "\n")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
