"""The package's public names, pinned.

``mcsched.__all__`` is every name ``mcsched/__init__.py`` binds that does
not start with an underscore, submodules included.  Adding or removing one
changes this list, one name per line, so the change shows up as a
one-line diff here.  ``GenParams``' fields and each ``mcsched``
subcommand's options are pinned the same way.
"""

import argparse
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import mcsched
from mcsched.cli import build_parser

PUBLIC_NAMES = [
    "BANDS",
    "BUILTIN_DISTRIBUTIONS",
    "BudgetExceedsWcet",
    "BudgetOverrun",
    "BudgetSumViolation",
    "ConstantDemand",
    "Criticality",
    "EXPERIMENTS",
    "EdfUvdMeba",
    "EdfVdStatic",
    "EventKind",
    "ExecDistribution",
    "ExperimentSpec",
    "FixedBudget",
    "GenParams",
    "GenerationTimeout",
    "GridDemand",
    "GridOverflow",
    "Infeasible",
    "InputError",
    "InvalidFraction",
    "InvalidJobSequence",
    "Job",
    "McSchedError",
    "McTask",
    "MebaState",
    "Mode",
    "NoLcTasks",
    "Scenario",
    "SchedVerdict",
    "ScheduleTrace",
    "SimConfig",
    "TaskSet",
    "TaskSetParseError",
    "Time",
    "TraceEvent",
    "UniformDemand",
    "Violation",
    "WrongMode",
    "alpha_star_from_per_task",
    "analysis",
    "as_fraction",
    "beta_star_from_lc_estimates",
    "check_lemma2_optimality",
    "check_mapping_equivalence",
    "default_x",
    "distribute_hc_budget_equal",
    "edf_dispatch_violations",
    "errors",
    "experiments",
    "gen_job_sequence",
    "gen_task",
    "gen_taskset",
    "generator",
    "load_distribution",
    "load_taskset",
    "make_jobs",
    "map_jobs_to_static",
    "map_to_static",
    "max_alpha_given_beta",
    "max_beta_given_alpha",
    "meba",
    "mode_switch_instant",
    "optimal_beta_for_su",
    "p_noswitch_dynamic",
    "p_noswitch_static",
    "parse_demand_model",
    "parse_distribution",
    "parse_taskset",
    "pool_utilization_violations",
    "probability",
    "random_feasible_scenario",
    "run_experiment",
    "save_taskset",
    "simulate",
    "simulator",
    "static_model_su",
    "static_split",
    "su_levels",
    "taskmodel",
    "theorem1_test",
    "threshold_m",
    "total_system_utilization",
    "utilizations",
    "validate_jobs",
    "verify_mc_schedulable",
]


def test_public_names_are_pinned():
    assert sorted(mcsched.__all__) == PUBLIC_NAMES


def test_gen_params_fields_are_pinned():
    assert [f.name for f in dataclasses.fields(mcsched.GenParams)] == [
        "band", "rc", "seed", "inflate_lc"]


def test_cli_options_are_pinned():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    options = {name: sorted(s for a in p._actions for s in a.option_strings)
               for name, p in sub.choices.items()}
    assert options == {
        "analyze": ["--alpha-star", "--beta-star", "--help", "--out", "--sweep",
                    "--taskset", "--u-h", "--u-l", "--w", "-h"],
        "simulate": ["--alpha-star", "--beta-star", "--budgets", "--demand-model",
                     "--help", "--horizon", "--jobs-csv", "--policy", "--seed",
                     "--taskset", "--trace", "--verify", "--x", "-h"],
        "gen": ["--band", "--count", "--help", "--inflate-lc", "--out", "--rc",
                "--seed", "-h"],
        "prob": ["--beta-star", "--dist", "--help", "--model", "--n", "--out", "--u",
                 "-h"],
        "experiment": ["--help", "--jobs", "--out", "--seed", "--trials", "-h"],
    }


def run_with_package(*args: str) -> subprocess.CompletedProcess:
    """Run this Python on ``args`` with the tested package importable."""
    src = str(Path(mcsched.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def test_import_leaves_process_pools_out():
    # only `experiment table3_dynamic --jobs N` with N > 1 needs a process
    # pool; importing one pulls in multiprocessing, socket and subprocess
    out = run_with_package(
        "-c", "import sys, mcsched; print(sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('concurrent', 'multiprocessing')))")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_python_m_mcsched_runs_the_cli():
    out = run_with_package("-m", "mcsched", "--version")
    assert (out.returncode, out.stdout) == (0, "mcsched 0.1.0\n")
    out = run_with_package("-m", "mcsched", "gen", "--band", "0.55", "--seed", "-1")
    assert out.returncode == 2
    assert out.stderr.startswith("error: gen: ") and out.stderr.count("\n") == 1, out.stderr
