import hashlib
from dataclasses import replace
from fractions import Fraction as F

import numpy as np
import pytest

from mcsched import (
    BUILTIN_DISTRIBUTIONS,
    EXPERIMENTS,
    Criticality,
    ExperimentSpec,
    McTask,
    TaskSet,
    load_taskset,
    make_jobs,
    p_noswitch_dynamic,
    p_noswitch_static,
    run_experiment,
    save_taskset,
    simulate,
    theorem1_test,
    utilizations,
    validate_jobs,
)
from mcsched.cli import main
from mcsched.experiments import (
    max_alpha_for_generated_set,
    random_budget_vectors,
    random_feasible_scenario,
    run_e2e_verify,
    run_figure2,
    run_figure3,
    run_figure4,
    run_table3_dynamic,
    switch_inducing_scenario,
    taskset_with_utilizations,
)
from mcsched.simulator import mode_switch_instant, save_jobs_csv


def spec_for(tmp_path, name, **kw):
    return ExperimentSpec(name=name, out_dir=str(tmp_path), **kw)


# ---- canned studies ----

def test_figure2_grid_and_determinism(tmp_path):
    rows = run_figure2(spec_for(tmp_path, "figure2"))
    assert len(rows) == 300  # 6 LC utilizations x 50 weights
    assert all(0.0 <= b <= 1.0 for _, _, b in rows)
    assert {r[0] for r in rows} == {0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
    for sub in ("a", "b"):
        assert run_experiment(spec_for(tmp_path / sub, "figure2")) == 0
    assert ((tmp_path / "a" / "figure2.csv").read_bytes()
            == (tmp_path / "b" / "figure2.csv").read_bytes())


def test_figure3_rows_match_direct_probabilities(tmp_path):
    rows = run_figure3(spec_for(tmp_path, "figure3"))
    assert len(rows) == 64  # n 1..8 x four pool levels x two models
    dist = BUILTIN_DISTRIBUTIONS["table4"]
    for n, beta, model, p in rows:
        frac = F(beta).limit_denominator(100)
        if model == "s":
            assert p == p_noswitch_static(dist, n, frac)
        else:
            assert p == p_noswitch_dynamic(dist, [F(1, 10)] * n, frac)


def test_figure4_dynamic_never_loses(tmp_path):
    rows = run_figure4(spec_for(tmp_path, "figure4"))
    assert len(rows) == 250
    for u_l, w, su_dyn, su_stat, ratio in rows:
        assert su_dyn >= su_stat - 1e-9
        assert ratio >= 1 - 1e-9


def test_table3_small_run_is_deterministic(tmp_path):
    rows = run_table3_dynamic(spec_for(tmp_path, "table3_dynamic", trials=2))
    assert len(rows) == 15  # 5 bands x 3 inflation bounds
    assert [r[1] for r in rows] == [3] * 5 + [4] * 5 + [5] * 5
    assert all(0.0 <= r[2] <= 1.0 for r in rows)
    for sub in ("a", "b"):
        assert run_experiment(spec_for(tmp_path / sub, "table3_dynamic", trials=2)) == 0
    assert ((tmp_path / "a" / "table3_dynamic.csv").read_bytes()
            == (tmp_path / "b" / "table3_dynamic.csv").read_bytes())


def test_table3_worker_processes_write_the_same_bytes(tmp_path):
    for sub, jobs in (("serial", 1), ("pool", 2)):
        run_experiment(spec_for(tmp_path / sub, "table3_dynamic", trials=2, jobs=jobs))
    assert ((tmp_path / "serial" / "table3_dynamic.csv").read_bytes()
            == (tmp_path / "pool" / "table3_dynamic.csv").read_bytes())


# SHA-256 over ``name + "\n" + CSV bytes`` of every experiment, in EXPERIMENTS
# order, at seed 5 and 4 trials.
EXPERIMENT_CSVS_DIGEST = "8d1d63de5d444efe4555dbd29f62847fa57c990480bbdddeb634e16b49935062"


def test_every_experiment_csv_is_pinned(tmp_path):
    digest = hashlib.sha256()
    for name in EXPERIMENTS:
        run_experiment(spec_for(tmp_path, name, seed=5, trials=4))
        digest.update(name.encode() + b"\n" + (tmp_path / f"{name}.csv").read_bytes())
    assert digest.hexdigest() == EXPERIMENT_CSVS_DIGEST


def test_max_alpha_for_generated_style_sets():
    # (1-beta)(1-alpha) >= M with beta = U_CL/U_H fixed by the estimates
    ts = TaskSet((
        McTask(1, F(1), F(3, 5), Criticality.LC),
        McTask(2, F(1), F(1, 2), Criticality.HC, lc_estimate=F(1, 10)),
    ))
    # M = 1/3, beta = 1/5: alpha_max = 1 - (1/3)/(4/5) = 7/12
    assert max_alpha_for_generated_set(ts) == pytest.approx(7 / 12)
    assert max_alpha_for_generated_set(
        taskset_with_utilizations(F(0), F(3, 4))) == 1.0
    assert max_alpha_for_generated_set(
        taskset_with_utilizations(F(3, 4), F(0))) == 1.0
    # estimates equal to the WCETs leave beta = 1 and no LC service
    full = TaskSet((
        McTask(1, F(1), F(3, 5), Criticality.LC),
        McTask(2, F(1), F(1, 2), Criticality.HC, lc_estimate=F(1, 2)),
    ))
    assert max_alpha_for_generated_set(full) == 0.0


# ---- randomized scenario factory ----

def test_scenario_factory_is_deterministic_and_admissible():
    a = random_feasible_scenario(np.random.SeedSequence((7, 0, 1)))
    b = random_feasible_scenario(np.random.SeedSequence((7, 0, 1)))
    assert (a.ts, a.alpha_star, a.beta_star, a.x, a.jobs) == \
        (b.ts, b.alpha_star, b.beta_star, b.x, b.jobs)
    validate_jobs(a.ts, a.jobs)
    verdict = theorem1_test(a.ts, a.alpha_star, a.beta_star)
    assert verdict.schedulable
    assert verdict.x_lo <= a.x <= verdict.x_hi


def test_switchy_scenarios_actually_switch():
    sc, t_star = switch_inducing_scenario(13, 0)
    trace = simulate(sc.ts, sc.config(), sc.jobs)
    assert mode_switch_instant(trace) == t_star


def test_random_budget_vectors_respect_the_pool():
    sc = random_feasible_scenario(np.random.SeedSequence((5, 1)))
    _, u_h = utilizations(sc.ts)
    pool = sc.beta_star * u_h
    seed_vec = {t.id: F(0) for t in sc.ts.hc_tasks}
    vecs = random_budget_vectors(sc.ts, sc.beta_star,
                                 np.random.SeedSequence(2), 12, [seed_vec])
    assert vecs[0] == seed_vec and len(vecs) == 12
    periods = {t.id: t.period for t in sc.ts.tasks}
    for vec in vecs:
        assert set(vec) == set(seed_vec)
        assert sum(b / periods[tid] for tid, b in vec.items()) <= pool


@pytest.mark.parametrize("name,trials", [
    ("e2e_verify", 25), ("lemma2_fuzz", 5), ("mapping_fuzz", 5)])
def test_property_suites_small_runs_are_clean(tmp_path, name, trials):
    violations = run_experiment(spec_for(tmp_path, name, trials=trials))
    assert violations == 0
    lines = (tmp_path / f"{name}.csv").read_text().splitlines()
    assert lines[1] == "trial,t_star,ok"
    assert len(lines) == trials + 2


def test_unknown_experiment_name(tmp_path):
    with pytest.raises(ValueError):
        run_experiment(spec_for(tmp_path, "nonesuch"))


# ---- command line ----

def taskset_file(tmp_path, ts):
    path = tmp_path / "set.txt"
    save_taskset(ts, path)
    return str(path)


def test_cli_analyze_synthetic(capsys):
    rc = main(["analyze", "--u-l", "1/2", "--u-h", "4/5",
               "--alpha-star", "0", "--beta-star", "1/4"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "U_L=1/2 U_H=4/5 M=3/4" in out
    assert "schedulable=yes" in out and "x=2/5" in out


def test_cli_analyze_rejects_bad_pair(capsys):
    rc = main(["analyze", "--u-l", "1/2", "--u-h", "4/5",
               "--alpha-star", "1/2", "--beta-star", "1/2"])
    assert rc == 1
    assert "schedulable=no" in capsys.readouterr().out


def test_cli_analyze_sweep(tmp_path, capsys):
    rc = main(["analyze", "--u-l", "7/10", "--u-h", "4/5", "--w", "0.5",
               "--sweep", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "beta_opt=" in out
    lines = (tmp_path / "analyze_sweep.csv").read_text().splitlines()
    assert lines[1] == "w,beta_opt,su_dynamic,su_static,ratio"
    assert len(lines) == 52


def test_cli_simulate_with_verify(tmp_path, capsys, half_four_fifths_set):
    path = taskset_file(tmp_path, half_four_fifths_set)
    trace_path = str(tmp_path / "trace.csv")
    rc = main(["simulate", "--taskset", path, "--beta-star", "1/4",
               "--alpha-star", "0", "--horizon", "10",
               "--demand-model", "constant:1", "--verify",
               "--trace", trace_path])
    out = capsys.readouterr().out
    assert rc == 0
    assert "t_star=2" in out and "verify: ok" in out
    assert (tmp_path / "trace.csv").exists()


def test_cli_simulate_from_jobs_csv(tmp_path, capsys, half_four_fifths_set):
    path = taskset_file(tmp_path, half_four_fifths_set)
    jobs = make_jobs([(1, F(0), F(5)), (2, F(0), F(105, 100)),
                      (3, F(0), F(95, 100))])
    jobs_path = tmp_path / "jobs.csv"
    save_jobs_csv(jobs, jobs_path)
    rc = main(["simulate", "--taskset", path, "--beta-star", "1/4",
               "--x", "2/5", "--jobs-csv", str(jobs_path), "--verify"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "t_star=none" in out


def test_cli_simulate_static_policy(tmp_path, capsys, half_four_fifths_set):
    path = taskset_file(tmp_path, half_four_fifths_set)
    rc = main(["simulate", "--taskset", path, "--policy", "vd",
               "--x", "2/5", "--horizon", "10",
               "--demand-model", "constant:1/2", "--verify"])
    assert rc == 0


def test_cli_static_policy_needs_estimates(tmp_path, capsys, half_four_fifths_set):
    ts = TaskSet(tuple(replace(t, lc_estimate=None) for t in half_four_fifths_set.tasks))
    path = taskset_file(tmp_path, ts)
    rc = main(["simulate", "--taskset", path, "--policy", "vd",
               "--x", "2/5", "--horizon", "10"])
    assert rc == 2
    assert_one_error_line(capsys)


def test_cli_gen_writes_loadable_sets(tmp_path, capsys):
    rc = main(["gen", "--band", "0.70", "--count", "2", "--seed", "3",
               "--out", str(tmp_path)])
    assert rc == 0
    files = sorted(tmp_path.glob("taskset_0.70_rc3_*.txt"))
    assert len(files) == 2
    for f in files:
        ts = load_taskset(f)
        assert len(ts.tasks) >= 1
    rc = main(["gen", "--band", "1/10:2/10", "--out", str(tmp_path)])
    assert rc == 0
    assert main(["gen", "--band", "nonsense", "--out", str(tmp_path)]) == 2


def test_cli_prob_matches_oracles(tmp_path, capsys):
    rc = main(["prob", "--n", "2", "--beta-star", "1/2", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "n=2 beta=0.5 model=s p=0.640000" in out
    assert "n=2 beta=0.5 model=d p=0.763300" in out
    assert (tmp_path / "prob.csv").exists()


def test_cli_experiment_subcommand(tmp_path, capsys):
    rc = main(["experiment", "figure2", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "figure2.csv").exists()
    rc = main(["experiment", "e2e_verify", "--trials", "5",
               "--out", str(tmp_path)])
    assert rc == 0
    assert "violations=0" in capsys.readouterr().out


@pytest.mark.parametrize("audit, finding", [
    ("verify_mc_schedulable", (False, [])),
    ("pool_utilization_violations", ["pool"]),
    ("edf_dispatch_violations", ["edf"]),
])
def test_e2e_verify_fails_a_trial_on_any_audit(monkeypatch, audit, finding):
    monkeypatch.setattr(f"mcsched.experiments.{audit}", lambda *args: finding)
    rows = run_e2e_verify(ExperimentSpec("e2e_verify", trials=2))
    assert [ok for _, _, ok in rows] == [0, 0]


def test_cli_table3_worker_processes_write_the_same_bytes(tmp_path, capsys):
    for jobs in ("1", "2"):
        assert main(["experiment", "table3_dynamic", "--trials", "2", "--jobs", jobs,
                     "--out", str(tmp_path / jobs)]) == 0
    assert ((tmp_path / "1" / "table3_dynamic.csv").read_bytes()
            == (tmp_path / "2" / "table3_dynamic.csv").read_bytes())


def test_cli_out_dir_env_fallback(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("MCSCHED_OUT", str(tmp_path / "envout"))
    rc = main(["prob", "--n", "1", "--beta-star", "1/2"])
    assert rc == 0
    assert (tmp_path / "envout" / "prob.csv").exists()


def test_cli_missing_file_exit_code(capsys):
    assert main(["analyze", "--taskset", "/no/such/file.txt"]) == 2
    assert "error:" in capsys.readouterr().err


def assert_one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


def test_cli_unknown_demand_model_is_a_usage_error(tmp_path, capsys,
                                                   half_four_fifths_set):
    path = taskset_file(tmp_path, half_four_fifths_set)
    rc = main(["simulate", "--taskset", path, "--beta-star", "1/4",
               "--x", "2/5", "--horizon", "10", "--demand-model", "foo"])
    assert rc == 2
    assert_one_error_line(capsys)


def test_cli_jobs_csv_without_release_column(tmp_path, capsys,
                                             half_four_fifths_set):
    path = taskset_file(tmp_path, half_four_fifths_set)
    jobs_path = tmp_path / "jobs.csv"
    jobs_path.write_text("task,demand\n1,5\n")
    rc = main(["simulate", "--taskset", path, "--beta-star", "1/4",
               "--x", "2/5", "--jobs-csv", str(jobs_path)])
    assert rc == 2
    assert_one_error_line(capsys)


def test_cli_malformed_taskset_exit_code(tmp_path, capsys):
    path = tmp_path / "set.txt"
    path.write_text("taskset v1\n1 10 5\n")
    assert main(["analyze", "--taskset", str(path)]) == 2
    assert_one_error_line(capsys)


SEEDED_STUDIES = ("table3_dynamic", "lemma2_fuzz", "mapping_fuzz", "e2e_verify")


@pytest.mark.parametrize("argv, message", [
    (["gen", "--band", "nonsense"], "unknown band 'nonsense'"),
    (["simulate", "--taskset", "{set}", "--x", "1/2"], "needs --beta-star"),
    (["simulate", "--taskset", "{set}", "--policy", "fixed", "--x", "1/2"],
     "needs --budgets"),
    (["simulate", "--taskset", "{set}", "--policy", "vd"], "need --x"),
    (["simulate", "--taskset", "{set}", "--policy", "vd", "--x", "1/2"],
     "needs --horizon"),
    (["analyze", "--u-l", "1/2"], "need --taskset"),
    (["prob", "--n", "2", "--u", "1/10"], "got 1 utilizations for n=2"),
    (["analyze", "--u-l", "3/2", "--u-h", "1/2"], "wcet must satisfy"),
    (["prob", "--beta-star", "abc"], "--beta-star 'abc'"),
    (["prob", "--u", "1/10,x", "--n", "2"], "--u '1/10,x'"),
    (["simulate", "--taskset", "{set}", "--policy", "fixed", "--budgets",
      "2=1", "--x", "1/2"], "--budgets '2=1'"),
    (["prob", "--beta-star", "3/2"], "--beta-star must lie in [0, 1], got 3/2"),
    (["analyze", "--taskset", "{set}", "--alpha-star", "2", "--beta-star", "1/2"],
     "alpha_star must lie in [0, 1], got 2"),
    (["analyze", "--taskset", "{set}", "--w", "2"], "w must lie in [0, 1], got 2.0"),
    (["analyze", "--taskset", "{set}", "--w", "nan"], "w must lie in [0, 1], got nan"),
    (["prob", "--u", "0,1/10", "--n", "2"], "utilizations must be positive"),
    (["simulate", "--taskset", "{set}", "--policy", "vd", "--x", "3/2",
      "--horizon", "10"], "x must lie in (0, 1], got 3/2"),
    (["simulate", "--taskset", "{set}", "--policy", "fixed", "--budgets",
      "9:1", "--x", "1/2", "--horizon", "10"], "task 9, which is not an HC task"),
    (["simulate", "--taskset", "{set}", "--policy", "fixed", "--budgets",
      "2:-1", "--x", "1/2", "--horizon", "10"], "budget must be non-negative"),
    (["prob", "--u", "1/10,1/5,1/4", "--n", "2"], "got 3 utilizations for n=2"),
    (["simulate", "--taskset", "{set}", "--policy", "vd", "--x", "1/2",
      "--jobs-csv", "{dir}/unknown_task.csv"], "job references unknown task 9"),
    (["simulate", "--taskset", "{set}", "--policy", "vd", "--x", "1/2",
      "--jobs-csv", "{dir}/zero_demand.csv"], "task 1 job 0: demand 0 outside (0, 5]"),
    (["simulate", "--taskset", "{set}", "--policy", "vd", "--x", "1/2",
      "--jobs-csv", "{dir}/long_demand.csv"], "task 2 job 0: demand 9/2 outside (0, 4]"),
    (["simulate", "--taskset", "{set}", "--policy", "vd", "--x", "1/2",
      "--jobs-csv", "{dir}/negative_release.csv"], "task 1 job 0: negative release"),
    (["simulate", "--taskset", "{set}", "--policy", "vd", "--x", "1/2",
      "--jobs-csv", "{dir}/too_close.csv"], "task 1: releases 0 and 5 closer than T=10"),
    (["simulate", "--taskset", "{set}", "--policy", "vd", "--x", "1/2",
      "--horizon", "0"], "--horizon must be positive, got 0"),
    (["simulate", "--taskset", "{set}", "--policy", "vd", "--x", "1/2",
      "--horizon=-5/2"], "--horizon must be positive, got -5/2"),
    (["prob", "--dist", "{dir}/short_cdf.txt"],
     "prob: {dir}/short_cdf.txt: cdf must reach exactly 1"),
    (["prob", "--dist", "{dir}/word.txt"],
     "prob: {dir}/word.txt: line 2: expected 'scale cdf', got 'abc'"),
    (["prob", "--dist", "{dir}/ragged.txt"],
     "prob: {dir}/ragged.txt: line 1: bad rational in '1/2 x'"),
    (["prob", "--dist", "{dir}/cdf_above_one.txt"],
     "prob: {dir}/cdf_above_one.txt: cdf value must lie in [0, 1], got 2"),
    (["prob", "--dist", "{dir}/latin1.txt"],
     "prob: {dir}/latin1.txt: not UTF-8 text"),
    (["prob", "--dist", "{dir}/subdir"], "Is a directory: '{dir}/subdir'"),
    (["analyze", "--taskset", "{dir}/latin1.txt"],
     "error: analyze: {dir}/latin1.txt: not UTF-8 text"),
    (["analyze", "--taskset", "{dir}/subdir"], "Is a directory: '{dir}/subdir'"),
    (["simulate", "--taskset", "{set}", "--policy", "vd", "--x", "1/2",
      "--jobs-csv", "{dir}/latin1.txt"],
     "simulate: {dir}/latin1.txt: not UTF-8 text"),
    (["simulate", "--taskset", "{set}", "--policy", "vd", "--x", "1/2",
      "--jobs-csv", "{dir}/subdir"], "Is a directory: '{dir}/subdir'"),
    (["simulate", "--taskset", "{set}", "--policy", "vd", "--x", "1/2",
      "--horizon", "10", "--trace", "{dir}/subdir"], "Is a directory: '{dir}/subdir'"),
    (["prob", "--n", "1", "--out", "{dir}/word.txt"], "File exists: '{dir}/word.txt'"),
    (["experiment", "figure2", "--out", "{dir}/word.txt"],
     "File exists: '{dir}/word.txt'"),
    (["simulate", "--taskset", "{dir}/latin1.txt", "--policy", "vd", "--x", "1/2"],
     "error: simulate: {dir}/latin1.txt: not UTF-8 text"),
    (["analyze", "--taskset", "{dir}/short_line.txt"],
     "error: analyze: {dir}/short_line.txt: line 2: expected 4-6 fields, got 3"),
    (["simulate", "--taskset", "{set}", "--policy", "vd", "--x", "1/2",
      "--horizon", "1e9"], "--horizon 1000000000 would release 300000000 jobs"),
    (["gen", "--band", "0.55", "--rc", "21"], "error: gen: rc must lie in [1, 20], got 21"),
    (["gen", "--band", "0.55", "--seed", "-1"],
     "error: gen: argument --seed: must be a non-negative integer, got -1"),
    *((argv + ["--seed", "-1"], "argument --seed: must be a non-negative integer, got -1")
      for argv in (["simulate", "--taskset", "{set}", "--policy", "vd", "--x", "2/5",
                    "--horizon", "10"],
                   *(["experiment", name, "--trials", "1"] for name in SEEDED_STUDIES))),
    *((["experiment", name, option, value],
       f"error: experiment: unrecognized arguments: {option} {value}")
      for name, option, value in (("figure2", "--seed", "3"), ("figure3", "--trials", "2"),
                                  ("figure4", "--jobs", "2"))),
    *((["simulate", "--taskset", "{set}", "--policy", "vd", "--x", "2/5",
        "--jobs-csv", "{dir}/one_job.csv", option, value],
      f"error: simulate: {option} is for generated jobs, not --jobs-csv")
      for option, value in (("--seed", "5"), ("--demand-model", "grid"))),
    *((["analyze", "--u-l", "1/2", "--u-h", "4/5", option, value],
      "error: analyze: need --alpha-star with --beta-star")
      for option, value in (("--alpha-star", "2"), ("--beta-star", "1/2"))),
    *((["gen", "--band", band], f"error: gen: --band '{band}': lo and hi must be "
      "rational numbers; use lo:hi or one of 0.55,0.60,0.65,0.70,0.75")
      for band in ("1/0:1", ":", "1/2:x")),
    (["gen", "--band", "1/1000:1/500"], "error: gen: band must reach 1/400, the least "
     "average utilization of any task set, got lo=1/1000, hi=1/500"),
    *((["simulate", "--taskset", "{set}", "--policy", "vd", "--x", "1/2",
        "--jobs-csv", f"{{dir}}/{name}.csv"],
       f"error: simulate: {{dir}}/{name}.csv: line {line}\n")
      for name, line in (("bad_field", "2: bad job row '2,x,1'"),
                         ("short_row", "3: expected 3 fields, got '1,0'"),
                         ("long_row", "2: expected 3 fields, got '1,0,5,9'"))),
])
def test_cli_usage_errors_exit_2(tmp_path, capsys, half_four_fifths_set,
                                 argv, message):
    path = taskset_file(tmp_path, half_four_fifths_set)
    for name, row in (("unknown_task", "9,0,1"), ("zero_demand", "1,0,0"),
                      ("long_demand", "2,0,9/2"), ("negative_release", "1,-1,1"),
                      ("too_close", "1,0,1\n1,5,1"), ("one_job", "2,0,1"),
                      ("bad_field", "2,x,1"), ("short_row", "# a comment\n1,0"),
                      ("long_row", "1,0,5,9")):
        (tmp_path / f"{name}.csv").write_text(f"task,release,demand\n{row}\n")
    for name, text in (("short_cdf", "1/2 1/2\n1 9/10\n"), ("word", "1 1\nabc\n"),
                       ("ragged", "1/2 x\n"), ("cdf_above_one", "1 2\n")):
        (tmp_path / f"{name}.txt").write_text(text)
    (tmp_path / "short_line.txt").write_text("taskset v1\n1 10 5\n")
    (tmp_path / "latin1.txt").write_bytes("taskset v1\n# \u00e9t\u00e9\n".encode("latin-1"))
    (tmp_path / "subdir").mkdir()
    argv = [arg.format(set=path, dir=tmp_path) for arg in argv]
    if argv[0] in ("gen", "prob", "experiment") and "--out" not in argv:
        argv += ["--out", str(tmp_path)]
    message = message.format(dir=tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert message in err


@pytest.mark.parametrize("argv, status, line", [
    (["analyze", "--u-l", "1/2", "--u-h", "2/5", "--alpha-star", "2", "--beta-star", "0"],
     2, "analyze: alpha_star must lie in [0, 1], got 2"),
    (["simulate", "--taskset", "{dir}/no_such.txt", "--x", "1/2", "--horizon", "10"],
     2, "simulate: [Errno 2] No such file or directory: '{dir}/no_such.txt'"),
    (["simulate", "--taskset", "{set}", "--beta-star", "1/4", "--x", "2/5",
      "--horizon", "10", "--demand-model", ""],
     2, "simulate: unknown demand model ''; use grid, uniform:LO:HI or constant:S"),
    (["prob", "--dist", "{dir}/no_such"],
     2, "prob: [Errno 2] No such file or directory: '{dir}/no_such'"),
    (["experiment", "figure2", "--out", "{set}"], 2, "experiment: [Errno 17] File exists: '{set}'"),
    (["analyze", "--taskset", "{hc_only}", "--w", "0.5"],
     1, "analyze: static baseline utilization needs LC tasks"),
    (["gen", "--band", "2:1"], 2, "gen: band must satisfy 0 < lo < hi, got lo=2, hi=1"),
    (["gen", "--band", "0:1/2"], 2, "gen: band must satisfy 0 < lo < hi, got lo=0, hi=1/2"),
    (["analyze", "--u-l", "1/2", "--u-h", "1/2", "--seed", "3"],
     2, "analyze: unrecognized arguments: --seed 3"),
    (["experiment", "e2e_verify", "--jobs", "2"], 2, "experiment: unrecognized arguments: --jobs 2"),
    (["analyze", "--u-l", "1/2", "--u-h", "2/5", "--w", "nan"],
     2, "analyze: w must lie in [0, 1], got nan"),
    (["simulate", "--taskset", "{set}", "--policy", "uvd", "--beta-star", "1/4", "--x", "1/2",
      "--budgets", "2:1"], 2, "simulate: --budgets is for --policy fixed, not --policy uvd"),
    (["simulate", "--taskset", "{set}", "--policy", "vd", "--budgets", "2:1", "--x", "1/2",
      "--horizon", "10"], 2, "simulate: --budgets is for --policy fixed, not --policy vd"),
    (["simulate", "--taskset", "{set}", "--policy", "vd", "--beta-star", "1/4",
      "--alpha-star", "0", "--x", "1/2"], 2, "simulate: --alpha-star is for deriving x, not with --x"),
    (["simulate", "--taskset", "{set}", "--beta-star", "1/4", "--alpha-star", "0", "--x", "2/5",
      "--horizon", "10"], 2, "simulate: --alpha-star is for deriving x, not with --x"),
    *((["simulate", "--taskset", "{set}", "--policy", policy, *budgets, "--beta-star", "1/4",
        "--x", "1/2", "--horizon", "10"],
       2, f"simulate: --beta-star is for deriving x or --policy uvd, not --policy {policy} with --x")
      for policy, budgets in (("vd", []), ("fixed", ["--budgets", "2:1,3:1"]))),
    (["analyze", "--u-l", "1/2", "--u-h", "1/2", "--out", "{dir}/never"],
     2, "analyze: --out is for --sweep"),
])
def test_cli_errors_name_their_subcommand(tmp_path, capsys, half_four_fifths_set,
                                          argv, status, line):
    path = taskset_file(tmp_path, half_four_fifths_set)
    hc_only = tmp_path / "hc_only.txt"
    save_taskset(TaskSet((McTask(1, F(10), F(4), Criticality.HC, lc_estimate=F(2)),)),
                 hc_only)
    argv = [arg.format(set=path, dir=tmp_path, hc_only=hc_only) for arg in argv]
    if argv[0] in ("gen", "prob"):
        argv += ["--out", str(tmp_path)]
    assert main(argv) == status
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {line.format(set=path, dir=tmp_path)}\n")


@pytest.mark.parametrize("argv, message", [
    (["prob", "--n", "0"], "argument --n: must be a positive integer, got 0"),
    (["prob", "--n", "-1"], "argument --n: must be a positive integer, got -1"),
    (["gen", "--band", "0.55", "--count", "0"], "argument --count: must be"),
    (["experiment", "e2e_verify", "--trials", "0"], "argument --trials: must be"),
    (["experiment", "table3_dynamic", "--trials", "-3"], "argument --trials: must be"),
    (["experiment", "table3_dynamic", "--jobs", "0"], "argument --jobs: must be"),
    (["experiment", "table3_dynamic", "--jobs", "two"], "argument --jobs: invalid"),
    (["prob", "--trials", "5"], "unrecognized arguments: --trials 5"),
    (["analyze", "--u-l", "1/2", "--u-h", "1/2", "--jobs", "2"],
     "unrecognized arguments: --jobs 2"),
    (["analyze", "--u-l", "1/2", "--u-h", "1/2", "--seed", "1"],
     "unrecognized arguments: --seed 1"),
    (["prob", "--n", "1", "--seed", "1"], "unrecognized arguments: --seed 1"),
    (["simulate", "--taskset", "set.txt"], "unrecognized arguments: --out"),
])
def test_cli_counts_are_positive_and_only_on_experiment(tmp_path, capsys, argv, message):
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert message in assert_one_error_line(capsys)


def test_cli_prob_u_sets_n(tmp_path, capsys):
    outs = []
    for n in ([], ["--n", "2"]):
        assert main(["prob", "--u", "1/10,1/5", *n, "--out", str(tmp_path)]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] and "n=2 beta=0.45 model=d" in outs[0]


def test_cli_prob_defaults_are_figure3(tmp_path, capsys):
    assert main(["prob", "--out", str(tmp_path)]) == 0
    run_experiment(spec_for(tmp_path / "figure", "figure3"))
    prob = (tmp_path / "prob.csv").read_text().splitlines()
    figure3 = (tmp_path / "figure" / "figure3.csv").read_text().splitlines()
    assert prob[0].endswith(" name=prob") and prob[1:] == figure3[1:]


def test_cli_gen_rejects_an_inverted_band(tmp_path, capsys):
    rc = main(["gen", "--band", "0.6:0.5", "--out", str(tmp_path)])
    assert rc == 2
    assert_one_error_line(capsys)


def test_cli_requires_a_subcommand(capsys):
    assert main([]) == 2
    assert_one_error_line(capsys)
