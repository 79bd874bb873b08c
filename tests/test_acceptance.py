"""End-to-end acceptance checks.

Every test prints exactly one ``criterion N: PASS/FAIL - detail`` line on
the real stdout so batch runs keep a per-criterion record even under
output capture.
"""

import time
from fractions import Fraction as F

import numpy as np
import pytest

import audit_oracles as oracle
from mcsched import (
    BUILTIN_DISTRIBUTIONS,
    Criticality,
    EdfUvdMeba,
    EdfVdStatic,
    ExperimentSpec,
    McTask,
    SimConfig,
    TaskSet,
    make_jobs,
    optimal_beta_for_su,
    p_noswitch_dynamic,
    p_noswitch_static,
    pool_utilization_violations,
    simulate,
    theorem1_test,
    verify_mc_schedulable,
)
from mcsched.experiments import (
    figure2_grid,
    random_feasible_scenario,
    run_figure4,
    run_lemma2_fuzz,
    run_mapping_fuzz,
    run_table3_dynamic,
    taskset_with_utilizations,
)
from mcsched.simulator import mode_switch_instant

SEED = 1
N_MASS = 10_000          # shared corpus size for criteria 3 and 6
N_SEQUENCES = 1_000      # criterion 4: job sequences
N_VECTORS = 100          # criterion 4: budget vectors per sequence
N_MAPPINGS = 100         # criterion 5: switch-inducing scenarios


def report(capsys, n: int, ok: bool, detail: str) -> None:
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}"
    emit(capsys, line)
    assert ok, line


def emit(capsys, line: str) -> None:
    with capsys.disabled():
        print(line, flush=True)


# Published mean best-service values, rc-major over the five bands.
REFERENCE_MEANS = {
    3: (0.985, 0.931, 0.832, 0.566, 0.235),
    4: (0.988, 0.950, 0.831, 0.643, 0.321),
    5: (0.978, 0.912, 0.648, 0.295, 0.089),
}


@pytest.fixture(scope="module")
def mass_run():
    """One randomized corpus drives both the pool audit and the verifier."""
    pool_bad = verify_bad = switched = 0
    for trial in range(N_MASS):
        sc = random_feasible_scenario(
            np.random.SeedSequence((SEED, 40, trial)), switchy=bool(trial % 2))
        cfg = sc.config()
        trace = simulate(sc.ts, cfg, sc.jobs)
        if pool_utilization_violations(sc.ts, sc.beta_star, trace):
            pool_bad += 1
        ok, _ = verify_mc_schedulable(sc.ts, cfg, trace)
        if not ok:
            verify_bad += 1
        if mode_switch_instant(trace) is not None:
            switched += 1
    return {"pool_bad": pool_bad, "verify_bad": verify_bad,
            "switched": switched}


def test_criterion_01_service_pair_threshold(capsys):
    ts = taskset_with_utilizations(F(1, 2), F(4, 5))
    elapsed = min(
        _timed_verdicts(ts) for _ in range(5))
    accept = theorem1_test(ts, F(0), F(1, 4))
    exact = (accept.schedulable and accept.M == F(3, 4)
             and accept.x_lo == accept.x_hi == F(2, 5))
    mismatches = 0
    for a in range(21):
        for b in range(21):
            alpha, beta = F(a, 20), F(b, 20)
            verdict = theorem1_test(ts, alpha, beta)
            if verdict.schedulable != ((1 - alpha) * (1 - beta) >= F(3, 4)):
                mismatches += 1
    ok = exact and mismatches == 0 and elapsed < 1e-3
    report(capsys, 1, ok, f"equality pair accepted exactly, {mismatches} mismatches "
                  f"on a 21x21 grid, verdict pair in {elapsed * 1e6:.0f} us")


def _timed_verdicts(ts):
    t0 = time.perf_counter()
    theorem1_test(ts, F(0), F(1, 4))
    theorem1_test(ts, F(1, 2), F(1, 2))
    return time.perf_counter() - t0


def test_criterion_02_mean_service_table(tmp_path, capsys):
    spec = ExperimentSpec(name="table3_dynamic", out_dir=str(tmp_path),
                          seed=SEED, trials=1000)
    t0 = time.perf_counter()
    rows = run_table3_dynamic(spec)
    elapsed = time.perf_counter() - t0
    misses = []
    for band, rc, mean, std, inflated in rows:
        expect = REFERENCE_MEANS[rc][
            ("0.55", "0.60", "0.65", "0.70", "0.75").index(band)]
        if abs(mean - expect) > 0.04:
            misses.append((band, rc, mean, std, inflated, expect))
    for band, rc, mean, std, inflated, expect in misses:
        emit(capsys, f"  cell band={band} rc={rc}: published={expect:.3f} "
             f"plain-LC={mean:.3f} (sd {std:.3f}) inflated-LC={inflated:.3f}")
    ok = not misses and elapsed < 120
    report(capsys, 2, ok, f"{15 - len(misses)}/15 cells within 0.04 "
                  f"({elapsed:.0f}s for 1000 sets per cell)")


def test_criterion_03_pool_accounting_invariants(mass_run, capsys):
    ok = mass_run["pool_bad"] == 0
    report(capsys, 3, ok, f"{mass_run['pool_bad']} accounting violations over "
                  f"{N_MASS} simulations ({mass_run['switched']} degraded)")


def test_criterion_04_dynamic_budgets_last_longest(tmp_path, capsys):
    spec = ExperimentSpec(name="lemma2_fuzz", out_dir=str(tmp_path),
                          seed=SEED, trials=N_SEQUENCES)
    rows = run_lemma2_fuzz(spec, vectors_per_sequence=N_VECTORS)
    bad = sum(1 for row in rows if not row[-1])
    report(capsys, 4, bad == 0, f"{bad} early switches over {N_SEQUENCES} sequences "
                        f"x {N_VECTORS} fixed-budget vectors")


def test_criterion_05_static_replay_equivalence(tmp_path, capsys):
    spec = ExperimentSpec(name="mapping_fuzz", out_dir=str(tmp_path),
                          seed=SEED, trials=N_MAPPINGS)
    rows = run_mapping_fuzz(spec)
    bad = sum(1 for row in rows if not row[-1])
    report(capsys, 5, bad == 0, f"{bad} trace diffs over {N_MAPPINGS} "
                        "switch-inducing scenarios")


def test_criterion_06_guarantees_hold_end_to_end(mass_run, capsys):
    ok = mass_run["verify_bad"] == 0
    report(capsys, 6, ok, f"{mass_run['verify_bad']} service violations over "
                  f"{N_MASS} admissible scenarios")


def test_criterion_07_closed_form_beta_matches_grid_search(capsys):
    u_l_grid, w_grid = figure2_grid()
    u_sum = 1.5
    worst = 0.0
    endpoints = cells = 0
    for u_l in u_l_grid:
        ts = taskset_with_utilizations(u_l, F(3, 2) - u_l)
        ul, uh = float(u_l), u_sum - float(u_l)
        m = (ul + uh - 1.0) / (ul * uh)
        cap = max(0.0, 1.0 - m)
        betas = np.append(np.arange(0.0, cap, 1e-4), cap)
        for w in w_grid:
            su = (uh * (1.0 - w) + ul + uh * w * betas
                  - ul * (1.0 - w) * m / (1.0 - betas))
            best = float(betas[int(np.argmax(su))])
            got = optimal_beta_for_su(ts, w)
            worst = max(worst, abs(got - best))
            cells += 1
            if got <= 1e-9 or got >= cap - 1e-9:
                endpoints += 1
    frac = endpoints / cells
    ok = worst <= 1e-3 and frac >= 0.9
    report(capsys, 7, ok, f"max |closed-form - grid argmax| = {worst:.2e} over "
                  f"{cells} cells, endpoint fraction {frac:.3f}")


def test_criterion_08_survival_probability_shape(capsys):
    dist = BUILTIN_DISTRIBUTIONS["table4"]
    betas = (F(45, 100), F(55, 100), F(65, 100), F(75, 100))
    problems = []
    max_gap = 0.0
    for beta in betas:
        prev_s = None
        base_d = None
        for n in range(1, 9):
            us = [F(1, 10)] * n
            p_s = p_noswitch_static(dist, n, beta)
            p_d = p_noswitch_dynamic(dist, us, beta)
            if p_d < p_s:
                problems.append(f"p_d < p_s at n={n} beta={beta}")
            if prev_s is not None and p_s >= prev_s:
                problems.append(f"p_s not decreasing at n={n} beta={beta}")
            prev_s = p_s
            if beta == F(75, 100):
                base_d = base_d if base_d is not None else p_d
                if p_d < 0.9 * base_d:
                    problems.append(f"p_d unstable at n={n}")
            gap = abs(p_noswitch_dynamic(dist, us, beta, method="enumerate")
                      - p_noswitch_dynamic(dist, us, beta, method="convolve"))
            max_gap = max(max_gap, gap)
    if max_gap > 1e-12:
        problems.append(f"enumeration vs convolution gap {max_gap:.2e}")
    report(capsys, 8, not problems,
           f"{len(problems)} shape violations; algorithm agreement "
           f"within {max_gap:.1e}" + ("; " + "; ".join(problems[:3])
                                      if problems else ""))


def test_criterion_09_dynamic_design_never_loses(tmp_path, capsys):
    spec = ExperimentSpec(name="figure4", out_dir=str(tmp_path), seed=SEED)
    rows = run_figure4(spec)
    below = equal_misses = 0
    for u_l, w, su_dyn, su_stat, ratio in rows:
        u_h = 1.3 - u_l
        m = (u_l + u_h - 1.0) / (u_l * u_h)
        w_threshold = u_l / (u_l + m * u_h)
        if ratio < 1 - 1e-9:
            below += 1
        if w >= w_threshold and abs(ratio - 1.0) > 1e-9:
            equal_misses += 1
    ok = below == 0 and equal_misses == 0
    report(capsys, 9, ok, f"{below} cells below parity, {equal_misses} cells past "
                  f"the saturation weight not at parity ({len(rows)} cells)")


def test_criterion_10_displacement_regression(capsys):
    ts = TaskSet((
        McTask(1, F(8), F(12, 5), Criticality.LC, alpha=F(1, 2)),
        McTask(2, F(10), F(2), Criticality.LC, alpha=F(1, 2)),
        McTask(3, F(5), F(3), Criticality.HC, lc_estimate=F(1)),
    ))
    jobs = make_jobs([(1, F(0), F(12, 5)), (2, F(0), F(2)), (3, F(3), F(3))])

    dyn_cfg = SimConfig(EdfUvdMeba(F(1, 3)), F(3, 5))
    dyn = simulate(ts, dyn_cfg, jobs)
    dyn_shape = [(str(ev.time), ev.kind.value, ev.task) for ev in dyn.events]
    dyn_expected = [
        ("0", "dispatch", 1), ("6/5", "deadline_change", 1),
        ("6/5", "preempt", 1), ("6/5", "dispatch", 2),
        ("11/5", "deadline_change", 2), ("11/5", "preempt", 2),
        ("11/5", "dispatch", 1), ("3", "preempt", 1), ("3", "dispatch", 3),
        ("4", "mode_switch", 3), ("4", "drop", 1), ("4", "drop", 2),
        ("6", "complete", 3), ("6", "idle", None),
    ]
    dyn_ok, dyn_violations = verify_mc_schedulable(ts, dyn_cfg, dyn)
    segs = dyn.service_segments()
    caps_served = (oracle.served_by(segs[(1, 0)], F(8)) >= F(6, 5)
                   and oracle.served_by(segs[(2, 0)], F(10)) >= F(1))

    stat_cfg = SimConfig(EdfVdStatic(), F(3, 5))
    stat = simulate(ts, stat_cfg, jobs)
    stat_shape = [(str(ev.time), ev.kind.value, ev.task) for ev in stat.events]
    stat_expected = [
        ("0", "dispatch", 1), ("12/5", "complete", 1), ("12/5", "dispatch", 2),
        ("3", "preempt", 2), ("3", "dispatch", 3), ("4", "mode_switch", 3),
        ("4", "drop", 2), ("6", "complete", 3), ("6", "idle", None),
    ]
    stat_ok, stat_violations = verify_mc_schedulable(ts, stat_cfg, stat)
    miss = (not stat_ok and len(stat_violations) == 1
            and stat_violations[0].task == 2
            and stat_violations[0].required == F(1)
            and stat_violations[0].received == F(3, 5)
            and stat_violations[0].deadline == F(10))

    ok = (dyn_shape == dyn_expected and dyn_ok and not dyn_violations
          and caps_served and stat_shape == stat_expected and miss)
    report(capsys, 10, ok, "deadline-switching run serves both degraded shares; "
                   "the fixed-deadline baseline misses at t=10 "
                   "(served 3/5 of 1)")
