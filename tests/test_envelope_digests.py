"""The byte-identity gate: every CLI run of scripts/envelope_digests.py matches its committed digest.

`envelope_digests.jsonl` holds the script's output, made forward in a fresh
interpreter. Here the runs go in reverse order, in the warm test process, so
one test catches both a changed envelope and an envelope that depends on what
ran before it. When a change alters an envelope on purpose, regenerate the
file and list each changed argv in CHANGES.md.
"""

import importlib.util
import json
import os
import shutil

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DIGESTS = os.path.join(ROOT, "tests", "envelope_digests.jsonl")
REGENERATE = "PYTHONPATH=src python scripts/envelope_digests.py > tests/envelope_digests.jsonl"


def _envelope_digests():
    """scripts/envelope_digests.py, loaded read-only."""
    spec = importlib.util.spec_from_file_location(
        "_envelope_digests", os.path.join(ROOT, "scripts", "envelope_digests.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_envelope_matches_its_committed_digest(tmp_path, monkeypatch):
    script = _envelope_digests()
    with open(DIGESTS, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    shutil.copytree(os.path.join(ROOT, "fixtures"), tmp_path / "fixtures")
    monkeypatch.chdir(tmp_path)
    runs = script.argvs()
    if [json.loads(line)["argv"] for line in lines] != runs:
        pytest.fail(f"tests/envelope_digests.jsonl is stale: its argvs are not the script's {len(runs)} runs; "
                    f"regenerate it with {REGENERATE}")
    got = [script.run(argv) for argv in reversed(runs)][::-1]
    changed = [" ".join(argv) for argv, line, want in zip(runs, got, lines) if line != want]
    assert not changed, "\n".join([f"{len(changed)} runs differ from their committed digest:", *changed])
