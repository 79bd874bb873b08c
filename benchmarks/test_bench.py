"""Self-tests of the benchmark, kept out of the tier-1 run.

    python3 -m pytest -q benchmarks/test_bench.py
"""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

from run import ROOT, import_workloads

workloads = import_workloads()
from mcsched import (  # noqa: E402
    ExperimentSpec, check_lemma2_optimality, mode_switch_instant, simulate)
from mcsched.experiments import random_feasible_scenario, run_table3_dynamic  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402

TINY = {
    "paper_tables": lambda: workloads.PaperTables(trials=3),
    "property_suites": lambda: workloads.PropertySuites(
        scenarios=24, replay_every=4, vectors=8, mapping_every=12),
    "long_traces": lambda: workloads.LongTraces(rungs=(16, 32)),
}


def one_pass(name, seed, tracer=None):
    workload = TINY[name]()
    setup = workloads.Pass(NullTracer())
    inputs = workload.setup(seed, setup)
    p = workloads.Pass(tracer or NullTracer())
    workload.run(inputs, p)
    return workload, inputs, p


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_is_clean_and_traced(name):
    _, _, p = one_pass(name, 1, Tracer())
    assert p.problems == [] and p.failed_units == 0
    assert p.unit_s and p.wall_s > 0
    busy = p.tracer.self_times()
    for key, calls in p.counts.items():
        if key.endswith(".calls"):
            assert busy[key[:-len(".calls")]] > 0
            assert calls == sum(1 for s in p.tracer.spans if s[0] == key[:-len(".calls")])


def test_paper_tables_rows_equal_run_table3_dynamic(tmp_path):
    _, _, p = one_pass("paper_tables", 7)
    rows = run_table3_dynamic(ExperimentSpec(name="table3_dynamic", out_dir=str(tmp_path),
                                             seed=7, trials=3))
    assert p.kept["table3"] == rows


def test_lemma2_verdicts_equal_check_lemma2_optimality():
    _, plan, p = one_pass("property_suites", 3)
    replays = [item for item in plan if item[3]]
    assert len(replays) == len(p.kept["lemma2"]) > 0
    switched = 0
    for (seed, i, switchy, _replay, mapping), (vectors, ok) in zip(replays, p.kept["lemma2"]):
        sc = random_feasible_scenario(np.random.SeedSequence((seed, 40, i)),
                                      switchy=switchy, fine_demands=mapping)
        assert ok == check_lemma2_optimality(sc.ts, sc.beta_star, sc.jobs, vectors, x=sc.x)
        switched += mode_switch_instant(
            simulate(sc.ts, sc.config(), sc.jobs, stop_after_switch=True)) is not None
    assert switched > 0  # the fixed runs have a switch instant to beat


@pytest.mark.parametrize("name", sorted(TINY))
def test_digest_repeats_for_a_seed_and_moves_with_it(name):
    _, _, a = one_pass(name, 1)
    _, _, b = one_pass(name, 1, Tracer())
    _, _, c = one_pass(name, 2)
    assert (a.digest, a.counts) == (b.digest, b.counts)
    assert a.digest != c.digest


def test_cli_prints_result_line():
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "long_traces",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 8
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    # Eight rungs per pass: the tail is the slowest rung, above the median.
    assert metrics["unit_ms_tail"] > metrics["unit_ms_p50"] > 0
    assert "digest:" in proc.stdout and "matches the recorded digest" in proc.stdout


def test_cli_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "paper_tables",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
