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
import re
import shlex
import subprocess
import sys
from pathlib import Path

import mcsched
from mcsched.cli import build_parser, main

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


def subcommand_options(parser: argparse.ArgumentParser, prefix: str = "") -> dict:
    """Each (nested) subcommand's sorted option strings, keyed by its words."""
    options = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                options[prefix + name] = sorted(
                    s for a in sub._actions for s in a.option_strings)
                options.update(subcommand_options(sub, f"{prefix}{name} "))
    return options


def test_cli_options_are_pinned():
    figure = ["--help", "--out", "-h"]
    suite = ["--help", "--out", "--seed", "--trials", "-h"]
    assert subcommand_options(build_parser()) == {
        "analyze": ["--alpha-star", "--beta-star", "--help", "--out", "--sweep",
                    "--taskset", "--u-h", "--u-l", "--w", "-h"],
        "simulate": ["--alpha-star", "--beta-star", "--budgets", "--demand-model",
                     "--help", "--horizon", "--jobs-csv", "--policy", "--seed",
                     "--taskset", "--trace", "--verify", "--x", "-h"],
        "gen": ["--band", "--count", "--help", "--inflate-lc", "--out", "--rc",
                "--seed", "-h"],
        "prob": ["--beta-star", "--dist", "--help", "--model", "--n", "--out", "--u",
                 "-h"],
        "experiment": ["--help", "-h"],
        "experiment table3_dynamic": ["--help", "--jobs", "--out", "--seed", "--trials", "-h"],
        "experiment figure2": figure,
        "experiment figure3": figure,
        "experiment figure4": figure,
        "experiment lemma2_fuzz": suite,
        "experiment mapping_fuzz": suite,
        "experiment e2e_verify": suite,
    }


def readme_block() -> str:
    """The README's Command line block."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    return section.split("```sh\n", 1)[1].split("```", 1)[0]


def readme_commands() -> list[list[str]]:
    """The ``mcsched`` commands in the README's Command line block."""
    return [shlex.split(line, comments=True)
            for line in readme_block().replace("\\\n", " ").splitlines()
            if line.startswith("mcsched ")]


def test_readme_commands_parse(tmp_path, monkeypatch, capsys):
    commands = readme_commands()
    assert len(commands) == 10
    for argv in commands:
        build_parser().parse_args(argv[1:])  # a bad option raises InputError
    # The block runs as written in an empty directory, from the file its
    # heredoc writes; the studies are left to the experiment tests.
    name, text = re.search(r"cat > (\S+) <<'EOF'\n(.*?\n)EOF\n", readme_block(),
                           re.DOTALL).groups()
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("MCSCHED_OUT", raising=False)
    (tmp_path / name).write_text(text)
    for argv in commands:
        if argv[1] != "experiment":
            assert main(argv[1:]) == 0, argv
    out = capsys.readouterr().out
    assert "jobs=30 events=70 t_star=2\n" in out and "verify: ok\n" in out


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
