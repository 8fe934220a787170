"""Self-tests of the benchmark at tiny sizes.

    PYTHONPATH=src python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import os
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import passrun  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

TINY_WINDOW = (20, 120)  # three triples, windows 90-114


@pytest.fixture()
def cli_main(monkeypatch):
    monkeypatch.chdir(ROOT)
    return passrun.import_cli()


def _job(jobs, job_id):
    return next(j for j in jobs if j["id"] == job_id)


def _files(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


def test_generator_is_deterministic_per_seed(tmp_path):
    runs = {}
    for tag, seed in (("a", 3), ("b", 3), ("c", 4)):
        jobs, meta = workloads.generate_long_window(seed, str(tmp_path / tag), TINY_WINDOW)
        runs[tag] = (meta, _files(tmp_path / tag), [j["expect"] for j in jobs])
    assert runs["a"] == runs["b"]
    assert runs["a"][1] != runs["c"][1]
    meta = runs["a"][0]
    assert meta["seed"] == 3 and meta["claim_check_seed"] == workloads.CLAIM_CHECK_SEED
    assert [(t["k"], t["p"], t["ell"]) for t in meta["triples"]] == [
        (12, 89, 691), (22, 53, 131), (22, 61, 131)]


def test_generated_fixtures_verify_as_constructed(tmp_path, cli_main):
    jobs, _ = workloads.generate_long_window(5, str(tmp_path), TINY_WINDOW)
    record = passrun.run_pass(cli_main, jobs, deadline_ref=2000.0, budget_s=60.0)
    assert [j["reason"] for j in record["jobs"]] == [None] * len(jobs)
    assert sorted(j["expect"]["code"] for j in jobs) == [0, 0, 0, 1, 1, 1]


def test_oracle_flags_a_flipped_verdict():
    job = _job(workloads.fixture_verify_jobs(), "verify:11-4a:61")
    envelope = {"command": "verify", "outputs": {"verdict": "certified"}}
    assert workloads.check(job, 0, json.dumps(envelope)) is None
    envelope["outputs"]["verdict"] = "refuted-at-2"
    assert "verdict" in workloads.check(job, 0, json.dumps(envelope))
    assert "exit code" in workloads.check(job, 1, json.dumps(envelope))
    bound = _job(workloads.bound_grid_jobs(), "bound:12:1")
    report = {"command": "bound", "outputs": {"reducible_primes": [2, 3, 5, 7, 11, 13]}}
    assert "691" in workloads.check(bound, 0, json.dumps(report))


def test_deadline_hit_counts_as_failed(cli_main):
    job = _job(workloads.fixture_verify_jobs(), "verify:81-6c:43")
    record = passrun.run_pass(cli_main, [job], deadline_ref=10.0, budget_s=60.0)
    (res,) = record["jobs"]
    assert res["status"] == "deadline" and res["reason"] == "deadline"
    assert workloads.failure_kind(res["status"], res["reason"]) == "deadline"
    assert res["seconds"] == pytest.approx(10.0 * record["ref_s"])
    assert record["pass_s"] == res["seconds"]


def test_tracing_leaves_envelopes_unchanged_and_restores(cli_main):
    import excprimes.eisenstein
    import excprimes.residues
    import excprimes.verify

    wanted = ("verify:11-2a:5", "verify:11-4a:61", "verify:11-4a:2", "bound:6:81")
    jobs = [j for j in workloads.fixture_verify_jobs() + workloads.bound_grid_jobs()
            if j["id"] in wanted]
    plain = passrun.run_pass(cli_main, jobs, deadline_ref=2000.0, budget_s=60.0)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert hasattr(excprimes.verify.eisenstein_E, "__wrapped__")
        traced = passrun.run_pass(cli_main, jobs, deadline_ref=2000.0, budget_s=60.0, tracer=tracer)
    finally:
        tracer.uninstall()
    assert [j["sha256"] for j in traced["jobs"]] == [j["sha256"] for j in plain["jobs"]]
    assert all(j["reason"] is None for j in plain["jobs"] + traced["jobs"])
    assert excprimes.verify.eisenstein_E is excprimes.eisenstein.eisenstein_E
    assert not hasattr(excprimes.eisenstein.eisenstein_E, "__wrapped__")
    assert not hasattr(excprimes.residues.NewformFixture.from_json_file, "__wrapped__")
    layers = spans.layer_metrics(tracer.spans)
    assert layers["eisenstein.series_calls"] >= 2 and layers["verify.coeffs_checked"] > 0
    assert layers["bounds.self_s"] > 0 and layers["residues.fixture_load_s"] > 0
    assert {rec[4] for rec in tracer.spans} == set(wanted)


def test_benchmark_json_lists_the_reported_metrics():
    import run

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in spans.LAYER_METRICS]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
