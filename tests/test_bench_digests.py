"""Smoke test of the benchmark's correctness gate.

Each workload runs briefly on seed 0, whose output digest and work counts
``benchmarks/digests.json`` records; ``benchmarks/run.py`` exits 1 and
prints ``"correct": false`` when a pass differs from them, so a change that
moves one generated or simulated byte fails here.  The three runs take
about 5 s together on a shared 2-vCPU machine.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["paper_tables", "property_suites", "long_traces"])
def test_recorded_seed_reproduces_its_digest(workload):
    run = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "0.1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stdout + run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
