"""End-to-end and per-layer benchmark of the excprimes CLI.

    python3 bench/run.py --workload fixture-verify --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all

Each pass runs one workload's job list through ``excprimes.cli.main`` in a
fresh child process (cold caches), one job at a time in a closed loop. A run
makes a fixed number of passes: ``--seconds`` divided by a per-workload
figure (``workloads.SECONDS_PER_PASS``). Times are reported in reference
units (see ``passrun.py``): a pass's job times divided by the mean time of a
fixed kernel timed in the same process between its jobs. With ``--trace 1``
every untraced pass is followed by a traced one; the traced pass gives the
per-layer metrics and the pair gives the tracing overhead. The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORK_DIR = os.path.join(BENCH_DIR, ".work")
sys.path.insert(0, BENCH_DIR)

import spans  # noqa: E402
import workloads  # noqa: E402

# Import timings per run, half before the passes and half after them, so
# that they span the run and not just its first seconds.
SETUP_SAMPLES = 12
# A whole run must end well inside 180 s; the passes share what is left of this.
RUN_BUDGET_S = 140.0
CHILD_GRACE_S = 30.0

END_TO_END = (
    ("pass_ref", "ref"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


def _child(args, stdin=None, timeout=60.0) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "passrun.py"), *args],
        input=stdin, capture_output=True, text=True, timeout=timeout, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"pass process failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def time_imports(n) -> list[float]:
    """Seconds to import excprimes.cli in each of n fresh processes."""
    return [_child(["--import-only"])["import_s"] for _ in range(n)]


def run_pass(jobs, seed, index, trace, deadline_ref, budget_s, spans_out=None) -> dict:
    order = list(jobs)
    random.Random(f"order:{seed}:{index}").shuffle(order)
    spec = {
        "jobs": order,
        "deadline_ref": deadline_ref,
        "budget_s": budget_s,
        "trace": trace,
        "spans_out": spans_out,
    }
    start = time.perf_counter()
    try:
        return _child([], stdin=json.dumps(spec), timeout=budget_s + CHILD_GRACE_S)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        # A crashed or stuck pass process fails every job of the pass, each
        # counted at the deadline.
        reason = f"exception: pass process: {exc}"[:300]
        seconds = (time.perf_counter() - start) / len(order)
        return {
            "pass_s": seconds * len(order),
            "wall_s": seconds * len(order),
            "ref_s": seconds / deadline_ref,
            "peak_rss_mb": 0.0,
            "jobs": [{"id": j["id"], "code": None, "status": reason, "reason": reason,
                      "seconds": seconds, "sha256": None} for j in order],
            "layers": spans.layer_metrics([]),
        }


def _quantile(values, q):
    values = sorted(values)
    return values[min(len(values) - 1, int(q * len(values)))]


def run_workload(name, seed, seconds, trace):
    """Run one workload; return (report lines, result dict for the JSON line)."""
    run_start = time.perf_counter()
    jobs, meta = workloads.workload_jobs(name, seed, WORK_DIR)
    _child(["--import-only"])  # writes the bytecode cache, as any first use does
    import_times = time_imports(SETUP_SAMPLES // 2)
    known = workloads.KNOWN_DEFECTS[name]

    deadline_ref = workloads.DEADLINE_REF[name]
    n_passes = max(1, round(seconds / workloads.SECONDS_PER_PASS[name]))
    spans_out = os.path.join(WORK_DIR, f"spans-{name}-seed{seed}.jsonl")

    def budget(passes_to_come):
        # What is left of the run's budget, shared evenly among the passes to come.
        left = RUN_BUDGET_S - (time.perf_counter() - run_start)
        return max(left / passes_to_come, 1.0)

    passes, traced = [], []
    for index in range(n_passes):
        to_come = (n_passes - index) * (2 if trace else 1)
        passes.append(run_pass(jobs, seed, index, False, deadline_ref, budget(to_come)))
        if trace:
            traced.append(run_pass(jobs, seed, index, True, deadline_ref, budget(to_come - 1),
                                   spans_out))
    import_times += time_imports(SETUP_SAMPLES - len(import_times))
    setup_s = statistics.median(import_times)

    lines = [f"== workload {name}, seed {seed}: {len(jobs)} jobs, "
             f"{len(passes)} untraced + {len(traced)} traced passes, "
             f"deadline {deadline_ref:g} ref per job"]
    if meta:
        lines.append("generator: " + json.dumps(meta, sort_keys=True))

    attempted = failed = 0
    unexpected = []
    failures = {}
    for rec in passes + traced:
        for job in rec["jobs"]:
            attempted += 1
            if job["reason"] is None:
                continue
            failed += 1
            kind = workloads.failure_kind(job["status"], job["reason"])
            failures[job["id"]] = (kind, job["reason"])
            if known.get(job["id"]) != kind:
                unexpected.append(job["id"])
    envelope_mismatch = []
    for plain, tr in zip(passes, traced):
        by_id = {j["id"]: j for j in plain["jobs"]}
        for j in tr["jobs"]:
            p = by_id[j["id"]]
            if p["status"] is None and j["status"] is None and p["sha256"] != j["sha256"]:
                envelope_mismatch.append(j["id"])

    pass_times = [p["wall_s"] for p in passes]
    pass_refs = [p["pass_s"] / p["ref_s"] for p in passes]
    job_refs = [j["seconds"] / p["ref_s"] for p in passes for j in p["jobs"]]
    slowest, slowest_ref = max(((j, j["seconds"] / p["ref_s"]) for p in passes for j in p["jobs"]),
                               key=lambda t: t[1])
    job_max_refs = [max(j["seconds"] for j in p["jobs"]) / p["ref_s"] for p in passes]
    e2e = {
        "pass_ref": statistics.median(pass_refs),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "setup_s": setup_s,
    }
    refs_ms = [p["ref_s"] * 1e3 for p in passes]
    lines.append(f"reference unit: median over passes {statistics.median(refs_ms):.3f} ms, "
                 f"per pass {' '.join(f'{r:.3f}' for r in refs_ms)} ms")
    lines.append(f"pass: median {e2e['pass_ref']:.1f} ref, "
                 f"p90 {_quantile(pass_refs, 0.9):.1f} ref; "
                 f"wall median {statistics.median(pass_times):.4f} s, "
                 f"p90 {_quantile(pass_times, 0.9):.4f} s over {len(pass_times)} passes")
    lines.append(f"job latency: median {statistics.median(job_refs):.2f} ref, "
                 f"p90 {_quantile(job_refs, 0.9):.2f} ref, max {slowest_ref:.2f} ref "
                 f"({slowest['seconds']:.4f} s, {slowest['id']}) over {len(job_refs)} jobs")
    lines.append(f"job_max (slowest job of a pass, median over passes, not bounded): "
                 f"{statistics.median(job_max_refs):.2f} ref")
    for metric, unit in END_TO_END:
        lines.append(f"{metric}: {e2e[metric]:.6g} {unit}")
    lines.append(f"failed_frac: {failed}/{attempted} = {failed / attempted:.4f}")
    for job_id in sorted(failures):
        kind, reason = failures[job_id]
        tag = "known defect" if known.get(job_id) == kind else "UNEXPECTED"
        lines.append(f"  failed {job_id} [{kind}, {tag}]: {reason}")
    fixed = sorted(set(known) - set(failures))
    if fixed:
        lines.append(f"known-defect jobs that now pass: {', '.join(fixed)}")

    if trace:
        layer = {m: statistics.median(t["layers"][m] for t in traced) for m in traced[0]["layers"]}
        layer["trace.pass_s"] = statistics.median(t["wall_s"] for t in traced)
        # The untraced pass's time at the traced pass's CPU speed (reference unit).
        layer["trace.overhead_s"] = statistics.median(
            t["wall_s"] - p["wall_s"] * t["ref_s"] / p["ref_s"] for p, t in zip(passes, traced))
        self_total = sum(layer[m] for m in spans.SELF_TIME_METRIC.values())
        layer["trace.unexplained_s"] = layer["trace.pass_s"] - self_total
        for m in spans.SELF_TIME_METRIC.values():
            layer[spans.share_metric(m)] = 100.0 * layer[m] / layer["trace.pass_s"]
        top = max(spans.SELF_TIME_METRIC.values(), key=lambda m: layer[m])
        lines.append(f"per-layer (median of {len(traced)} traced passes; "
                     f"spans in {os.path.relpath(spans_out, ROOT)}):")
        for m in spans.SELF_TIME_METRIC.values():
            lines.append(f"  {m}: {layer[m]:.6g} s ({spans.share_metric(m)} "
                         f"{layer[spans.share_metric(m)]:.4g} %)")
        for m, unit, _ in spans.COUNT_METRICS + spans.TRACE_METRICS:
            lines.append(f"  {m}: {layer[m]:.6g} {unit}")
        lines.append(f"largest self time: {top} = {layer[top]:.4f} s "
                     f"({layer[spans.share_metric(top)]:.1f} % of traced pass_s)")
        lines.append(f"layer self times + cli.self_s = {self_total:.4f} s of traced pass_s "
                     f"{layer['trace.pass_s']:.4f} s; unexplained {layer['trace.unexplained_s']:.4f} s")
        lines.append(f"traced envelopes identical to untraced: "
                     f"{'yes' if not envelope_mismatch else 'NO: ' + ', '.join(envelope_mismatch)}")
        metrics = {m: {"value": layer[m], "unit": u} for m, u, _ in spans.LAYER_METRICS}
    else:
        units = dict(END_TO_END)
        metrics = {m: {"value": e2e[m], "unit": units[m]} for m, _ in END_TO_END}
    correct = not unexpected and not envelope_mismatch
    lines.append(f"correct: {correct}")
    return lines, {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "excprimes", "cli.py")) or not os.path.isdir(
        os.path.join(ROOT, "fixtures")
    ):
        print(f"error: {ROOT} holds no excprimes checkout (src/excprimes, fixtures)", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    os.makedirs(WORK_DIR, exist_ok=True)

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        lines, results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print("\n".join(lines), flush=True)
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
