from fractions import Fraction as F

import pytest

import audit_oracles as oracle
from mcsched import (
    BudgetSumViolation,
    Criticality,
    EdfUvdMeba,
    EdfVdStatic,
    EventKind,
    FixedBudget,
    InvalidJobSequence,
    Job,
    McTask,
    ScheduleTrace,
    SimConfig,
    TaskSet,
    TraceEvent,
    check_lemma2_optimality,
    check_mapping_equivalence,
    edf_dispatch_violations,
    make_jobs,
    map_jobs_to_static,
    mode_switch_instant,
    pool_utilization_violations,
    simulate,
    validate_jobs,
    verify_mc_schedulable,
)
from mcsched.simulator import load_jobs_csv, save_jobs_csv, save_trace_csv


def shape(trace):
    return [(str(ev.time), ev.kind.value, ev.task) for ev in trace.events]


def uvd_cfg(beta=F(1, 4), x=F(2, 5), horizon=None):
    return SimConfig(EdfUvdMeba(beta), x, horizon=horizon)


# ---- worked scenario: 0.2 pool, demands straddling the last grant ----

def test_under_budget_demands_avoid_the_switch(half_four_fifths_set):
    jobs = make_jobs([(1, F(0), F(5)), (2, F(0), F(105, 100)),
                      (3, F(0), F(95, 100))])
    trace = simulate(half_four_fifths_set, uvd_cfg(), jobs)
    assert mode_switch_instant(trace) is None
    assert shape(trace) == [
        ("0", "dispatch", 2),
        ("21/20", "complete", 2),
        ("21/20", "dispatch", 3),  # granted exactly 19/20, just enough
        ("2", "complete", 3),
        ("2", "dispatch", 1),
        ("7", "complete", 1),
        ("7", "idle", None),
    ]


def test_one_hundredth_more_demand_switches_at_two(half_four_fifths_set):
    jobs = make_jobs([(1, F(0), F(5)), (2, F(0), F(105, 100)),
                      (3, F(0), F(96, 100))])
    trace = simulate(half_four_fifths_set, uvd_cfg(), jobs)
    assert mode_switch_instant(trace) == F(2)
    assert shape(trace) == [
        ("0", "dispatch", 2),
        ("21/20", "complete", 2),
        ("21/20", "dispatch", 3),
        ("2", "mode_switch", 3),
        ("2", "drop", 1),  # alpha=0: nothing guaranteed once degraded
        ("201/100", "complete", 3),
        ("201/100", "idle", None),
    ]
    switch = trace.events[3]
    assert switch.detail == "trigger=3"
    assert switch.snapshot == ((2, F(21, 20)), (3, F(19, 20)))
    ok, violations = verify_mc_schedulable(half_four_fifths_set, uvd_cfg(), trace)
    assert ok and not violations
    assert pool_utilization_violations(half_four_fifths_set, F(1, 4), trace) == []
    assert edf_dispatch_violations(half_four_fifths_set, uvd_cfg(), trace) == []


def test_static_budgets_absorb_the_same_demands(half_four_fifths_set):
    # per-job nominal budgets are 2 here, so neither demand exhausts them
    jobs = make_jobs([(1, F(0), F(5)), (2, F(0), F(105, 100)),
                      (3, F(0), F(96, 100))])
    trace = simulate(half_four_fifths_set, SimConfig(EdfVdStatic(), F(2, 5)), jobs)
    assert mode_switch_instant(trace) is None
    assert [e for e in shape(trace) if e[1] == "mode_switch"] == []


def test_fixed_unit_budgets_switch_at_one(half_four_fifths_set):
    jobs = make_jobs([(1, F(0), F(5)), (2, F(0), F(105, 100)),
                      (3, F(0), F(95, 100))])
    cfg = SimConfig(FixedBudget({2: F(1), 3: F(1)}), F(2, 5))
    trace = simulate(half_four_fifths_set, cfg, jobs)
    assert mode_switch_instant(trace) == F(1)


def test_fixed_budgets_must_be_non_negative(half_four_fifths_set):
    with pytest.raises(ValueError, match="non-negative"):
        FixedBudget({2: F(-1)}).hc_budgets(half_four_fifths_set)
    assert FixedBudget({2: F(0)}).hc_budgets(half_four_fifths_set) == {2: F(0)}


def test_fixed_budgets_must_name_hc_tasks(half_four_fifths_set):
    jobs = make_jobs([(2, F(0), F(1))])
    for budgets in ({1: F(1)}, {9: F(1)}):  # an LC task, a missing task
        cfg = SimConfig(FixedBudget(budgets), F(2, 5))
        with pytest.raises(ValueError, match="not an HC task"):
            simulate(half_four_fifths_set, cfg, jobs)


def test_simulation_is_deterministic(half_four_fifths_set):
    jobs = make_jobs([(1, F(0), F(5)), (2, F(0), F(105, 100)),
                      (3, F(0), F(96, 100))])
    a = simulate(half_four_fifths_set, uvd_cfg(), jobs)
    b = simulate(half_four_fifths_set, uvd_cfg(), jobs)
    assert a.events == b.events


# ---- displacement contrast: dynamic deadline switching vs the baseline ----

def contrast_jobs():
    return make_jobs([(1, F(0), F(12, 5)), (2, F(0), F(2)), (3, F(3), F(3))])


def test_uvd_banks_both_degraded_caps(contrast_set):
    cfg = SimConfig(EdfUvdMeba(F(1, 3)), F(3, 5))
    trace = simulate(contrast_set, cfg, contrast_jobs())
    assert shape(trace) == [
        ("0", "dispatch", 1),
        ("6/5", "deadline_change", 1),   # tau1 crossed alpha*C = 6/5
        ("6/5", "preempt", 1),
        ("6/5", "dispatch", 2),
        ("11/5", "deadline_change", 2),  # tau2 crossed alpha*C = 1
        ("11/5", "preempt", 2),
        ("11/5", "dispatch", 1),
        ("3", "preempt", 1),
        ("3", "dispatch", 3),
        ("4", "mode_switch", 3),
        ("4", "drop", 1),  # served 2 >= cap 6/5
        ("4", "drop", 2),  # served 1 >= cap 1
        ("6", "complete", 3),
        ("6", "idle", None),
    ]
    ok, violations = verify_mc_schedulable(contrast_set, cfg, trace)
    assert ok and not violations
    assert edf_dispatch_violations(contrast_set, cfg, trace) == []


def test_baseline_hoards_and_misses(contrast_set):
    cfg = SimConfig(EdfVdStatic(), F(3, 5))
    trace = simulate(contrast_set, cfg, contrast_jobs())
    assert shape(trace) == [
        ("0", "dispatch", 1),
        ("12/5", "complete", 1),  # tau1 hoards its whole demand
        ("12/5", "dispatch", 2),
        ("3", "preempt", 2),
        ("3", "dispatch", 3),
        ("4", "mode_switch", 3),
        ("4", "drop", 2),  # served only 3/5 of the 1-unit cap
        ("6", "complete", 3),
        ("6", "idle", None),
    ]
    ok, violations = verify_mc_schedulable(contrast_set, cfg, trace)
    assert not ok
    v = violations[0]
    assert (v.task, v.required, v.received) == (2, F(1), F(3, 5))


# ---- degraded-mode service semantics ----

def test_carryover_below_cap_finishes_its_allowance():
    ts = TaskSet((McTask(1, F(12), F(2), Criticality.LC, alpha=F(1, 2)),
                  McTask(2, F(10), F(4), Criticality.HC)))
    jobs = make_jobs([(1, F(0), F(2)), (2, F(0), F(4))])
    cfg = SimConfig(EdfUvdMeba(F(1, 4)), F(1, 2))
    trace = simulate(ts, cfg, jobs)
    assert mode_switch_instant(trace) == F(1)
    assert shape(trace) == [
        ("0", "dispatch", 2),
        ("1", "mode_switch", 2),
        ("4", "complete", 2),      # HC job finishes its full demand
        ("4", "dispatch", 1),
        ("5", "drop", 1),          # stops exactly at the 1-unit allowance
        ("5", "idle", None),
    ]
    ok, violations = verify_mc_schedulable(ts, cfg, trace)
    assert ok and not violations


def test_degraded_mode_admission_caps_and_drops():
    ts = TaskSet((McTask(1, F(10), F(4), Criticality.HC),
                  McTask(2, F(10), F(2), Criticality.LC, alpha=F(1, 2)),
                  McTask(3, F(10), F(2), Criticality.LC, alpha=F(0))))
    jobs = make_jobs([(1, F(0), F(4)), (2, F(2), F(2)), (3, F(3), F(2))])
    cfg = SimConfig(EdfUvdMeba(F(1, 4)), F(1, 2))
    trace = simulate(ts, cfg, jobs)
    assert mode_switch_instant(trace) == F(1)
    assert shape(trace) == [
        ("0", "dispatch", 1),
        ("1", "mode_switch", 1),
        ("3", "drop", 3),          # zero degraded share, dropped on release
        ("4", "complete", 1),
        ("4", "dispatch", 2),
        ("5", "drop", 2),          # admitted with the 1-unit cap
        ("5", "idle", None),
    ]
    drop3 = next(ev for ev in trace.events if ev.kind is EventKind.DROP
                 and ev.task == 3)
    assert drop3.detail == "served=0"
    ok, violations = verify_mc_schedulable(ts, cfg, trace)
    assert ok and not violations


def events(trace):
    return [(str(ev.time), ev.kind.value, ev.task, ev.job, ev.detail)
            for ev in trace.events]


def test_one_instant_order_puts_the_idle_after_the_admissions():
    # Today's order at one instant: the finished step's events, then the
    # admissions, then IDLE, then PREEMPT and DISPATCH, then a switch for a
    # grant at or below the consumption.  (a) reaches both LC cuts: the
    # switch at 1/3 cuts a ready job, the release at 2 is cut on admission
    # before the idle.  (b) dispatches 3/0 on a zero grant at 2.
    ts = TaskSet((McTask(1, F(2), F(1), Criticality.LC, alpha=F(0)),
                  McTask(2, F(2), F(1), Criticality.HC),
                  McTask(3, F(3), F(1), Criticality.HC)))
    jobs = make_jobs([(1, 0, F(1, 2)), (2, 0, F(1, 2)), (3, 1, 1), (1, 2, F(1, 2))])
    trace = simulate(ts, SimConfig(EdfUvdMeba(F(1, 5)), F(1, 3)), jobs)
    assert events(trace) == [
        ("0", "dispatch", 2, 0, ""),
        ("1/3", "mode_switch", 2, 0, "trigger=2"),
        ("1/3", "drop", 1, 0, "served=0"),
        ("1/2", "complete", 2, 0, ""),
        ("1/2", "idle", None, None, ""),
        ("1", "dispatch", 3, 0, ""),
        ("3/2", "mode_switch", 3, 0, "trigger=3"),
        ("2", "complete", 3, 0, ""),
        ("2", "drop", 1, 1, "served=0"),
        ("2", "idle", None, None, ""),
    ]
    ts = TaskSet((McTask(1, F(3), F(1), Criticality.LC, alpha=F(0)),
                  McTask(2, F(2), F(1), Criticality.HC),
                  McTask(3, F(4), F(1), Criticality.HC)))
    jobs = make_jobs([(1, 0, 1), (2, 0, 1), (3, 0, F(1, 2)), (2, 2, F(1, 2))])
    trace = simulate(ts, SimConfig(EdfUvdMeba(F(2, 3)), F(3, 4)), jobs)
    assert events(trace) == [
        ("0", "dispatch", 2, 0, ""),
        ("1", "complete", 2, 0, ""),
        ("1", "dispatch", 1, 0, ""),
        ("2", "complete", 1, 0, ""),
        ("2", "dispatch", 3, 0, ""),
        ("2", "mode_switch", 3, 0, "trigger=3"),
        ("2", "preempt", 3, 0, ""),
        ("2", "dispatch", 2, 1, ""),
        ("5/2", "complete", 2, 1, ""),
        ("5/2", "dispatch", 3, 0, ""),
        ("3", "complete", 3, 0, ""),
        ("3", "idle", None, None, ""),
    ]
    # (c) 1/0's budget 2 runs out as 2/0 (virtual deadline 4 < 5) is
    # released: the switch comes first, and 2/0 is admitted against its
    # real deadline 6.
    ts = TaskSet((McTask(1, F(10), F(4), Criticality.HC),
                  McTask(2, F(4), F(1), Criticality.HC)))
    trace = simulate(ts, SimConfig(FixedBudget({1: 2, 2: 1}), F(1, 2)),
                     make_jobs([(1, 0, 3), (2, 2, 1)]))
    assert events(trace) == [
        ("0", "dispatch", 1, 0, ""),
        ("2", "mode_switch", 1, 0, "trigger=1"),
        ("2", "preempt", 1, 0, ""),
        ("2", "dispatch", 2, 0, ""),
        ("3", "complete", 2, 0, ""),
        ("3", "dispatch", 1, 0, ""),
        ("4", "complete", 1, 0, ""),
        ("4", "idle", None, None, ""),
    ]
    # (d) 1/0 reaches its cap 2 as 2/0 (virtual deadline 4 < 5) is released:
    # the deadline change comes first, then the admission preempts 1/0.
    ts = TaskSet((McTask(1, F(10), F(4), Criticality.LC, alpha=F(1, 2)),
                  McTask(2, F(4), F(1), Criticality.LC, alpha=F(1))))
    trace = simulate(ts, SimConfig(FixedBudget({}), F(1, 2)),
                     make_jobs([(1, 0, 4), (2, 2, 1)]))
    assert events(trace) == [
        ("0", "dispatch", 1, 0, ""),
        ("2", "deadline_change", 1, 0, "deadline=10"),
        ("2", "preempt", 1, 0, ""),
        ("2", "dispatch", 2, 0, ""),
        ("3", "complete", 2, 0, ""),
        ("3", "dispatch", 1, 0, ""),
        ("5", "complete", 1, 0, ""),
        ("5", "idle", None, None, ""),
    ]
    # (e) a demand equal to the grant completes, and nothing switches.
    ts = TaskSet((McTask(1, F(10), F(4), Criticality.HC),))
    trace = simulate(ts, SimConfig(FixedBudget({1: 2}), F(1, 2)), make_jobs([(1, 0, 2)]))
    assert events(trace) == [
        ("0", "dispatch", 1, 0, ""),
        ("2", "complete", 1, 0, ""),
        ("2", "idle", None, None, ""),
    ]


def test_zero_pool_degrades_at_first_dispatch():
    ts = TaskSet((McTask(1, F(10), F(4), Criticality.HC),))
    jobs = make_jobs([(1, F(0), F(1))])
    trace = simulate(ts, uvd_cfg(beta=F(0)), jobs)
    assert mode_switch_instant(trace) == F(0)
    assert shape(trace)[-2:] == [("1", "complete", 1), ("1", "idle", None)]


def test_baseline_rejects_lc_releases_while_degraded(half_four_fifths_set):
    jobs = make_jobs([(2, F(0), F(4)), (1, F(3), F(5))])
    cfg = SimConfig(EdfVdStatic(), F(2, 5))
    trace = simulate(half_four_fifths_set, cfg, jobs)
    # nominal budget 2 < demand 4: switch at 2, LC release at 3 is refused
    assert mode_switch_instant(trace) == F(2)
    drops = [ev for ev in trace.events if ev.kind is EventKind.DROP]
    assert [(ev.time, ev.task, ev.detail) for ev in drops] == [(F(3), 1, "served=0")]


def test_idle_reopens_the_nominal_mode(half_four_fifths_set):
    jobs = make_jobs([(2, F(0), F(4)),
                      (2, F(10), F(1)), (3, F(10), F(1)), (1, F(10), F(5))])
    trace = simulate(half_four_fifths_set, uvd_cfg(), jobs)
    switches = [ev.time for ev in trace.events
                if ev.kind is EventKind.MODE_SWITCH]
    assert switches == [F(2)]  # the second busy interval never degrades
    ok, violations = verify_mc_schedulable(half_four_fifths_set, uvd_cfg(), trace)
    assert ok and not violations


def test_forced_overload_reports_hc_miss():
    ts = TaskSet((McTask(1, F(10), F(8), Criticality.LC, alpha=F(1, 2)),
                  McTask(2, F(10), F(8), Criticality.HC)))
    jobs = make_jobs([(1, F(0), F(8)), (2, F(0), F(8))])
    cfg = uvd_cfg()
    trace = simulate(ts, cfg, jobs)
    ok, violations = verify_mc_schedulable(ts, cfg, trace)
    assert not ok
    assert any(v.task == 2 and v.reason == "hc_full_service" for v in violations)


def test_verify_counts_a_switch_at_the_deadline_as_degrading():
    # the HC job exhausts its budget of 6 at t=6, the LC job's deadline; the
    # LC job (cap 0, so demoted to deadline 6 behind the HC job's virtual
    # deadline 5) is owed nothing then
    ts = TaskSet((McTask(1, F(5), F(2), Criticality.LC, alpha=F(0)),
                  McTask(2, F(10), F(8), Criticality.HC)))
    jobs = make_jobs([(1, F(1), F(2)), (2, F(0), F(8))])
    cfg = SimConfig(FixedBudget({2: F(6)}), F(1, 2))
    trace = simulate(ts, cfg, jobs)
    assert mode_switch_instant(trace) == F(6)
    assert verify_mc_schedulable(ts, cfg, trace) == (True, [])


def test_verify_is_vacuous_on_empty_trace(half_four_fifths_set):
    empty = ScheduleTrace(events=(), jobs=())
    ok, violations = verify_mc_schedulable(half_four_fifths_set, uvd_cfg(), empty)
    assert ok and violations == []


def test_verify_horizon_filters_late_deadlines():
    ts = TaskSet((McTask(1, F(10), F(8), Criticality.LC, alpha=F(1, 2)),
                  McTask(2, F(10), F(8), Criticality.HC)))
    jobs = make_jobs([(1, F(0), F(8)), (2, F(0), F(8))])
    cfg = uvd_cfg(horizon=F(9))
    trace = simulate(ts, cfg, jobs)
    ok, _ = verify_mc_schedulable(ts, cfg, trace)
    assert ok  # both deadlines sit at 10, beyond the verification horizon


# ---- job sequence validation ----

def test_make_jobs_assigns_sequence_numbers(half_four_fifths_set):
    jobs = make_jobs([(2, F(0), F(1)), (2, F(10), F(1)), (3, F(4), F(1))])
    # release-time order, per-task sequence numbering
    assert [(j.task, j.seq) for j in jobs] == [(2, 0), (3, 0), (2, 1)]


def test_validate_jobs_rejects_bad_sequences(half_four_fifths_set):
    ts = half_four_fifths_set
    with pytest.raises(InvalidJobSequence):
        validate_jobs(ts, make_jobs([(9, F(0), F(1))]))  # unknown task
    with pytest.raises(InvalidJobSequence):
        validate_jobs(ts, make_jobs([(2, F(0), F(5))]))  # demand > C
    with pytest.raises(InvalidJobSequence):
        validate_jobs(ts, make_jobs([(2, F(0), F(0))]))  # demand must be positive
    with pytest.raises(InvalidJobSequence):
        validate_jobs(ts, make_jobs([(2, F(-1), F(1))]))  # negative release
    with pytest.raises(InvalidJobSequence):
        validate_jobs(ts, make_jobs([(2, F(0), F(1)), (2, F(4), F(1))]))  # < T apart
    with pytest.raises(InvalidJobSequence):
        validate_jobs(ts, (Job(2, F(0), F(1), seq=5),))  # seqs must count from 0
    with pytest.raises(InvalidJobSequence, match="sequence numbers"):
        validate_jobs(ts, (Job(2, F(0), F(1), 0), Job(2, F(10), F(1), 2)))  # skips 1
    # two faults: the first in release order is reported
    with pytest.raises(InvalidJobSequence, match="sequence numbers"):
        validate_jobs(ts, (Job(2, F(0), F(1), 1), Job(3, F(0), F(1), 0),
                           Job(3, F(4), F(1), 1)))
    validate_jobs(ts, make_jobs([(2, F(0), F(1)), (2, F(10), F(1))]))


def test_static_policy_requires_nominal_budgets():
    ts = TaskSet((McTask(1, F(10), F(4), Criticality.HC),))
    with pytest.raises(ValueError):
        simulate(ts, SimConfig(EdfVdStatic(), F(1, 2)),
                 make_jobs([(1, F(0), F(1))]))


# ---- trace utilities ----

def test_service_segments_and_served_by(half_four_fifths_set):
    jobs = make_jobs([(1, F(0), F(5)), (2, F(0), F(105, 100)),
                      (3, F(0), F(96, 100))])
    trace = simulate(half_four_fifths_set, uvd_cfg(), jobs)
    segs = trace.service_segments()
    assert segs[(2, 0)] == [(F(0), F(21, 20))]
    assert oracle.served_by(segs[(3, 0)], F(2)) == F(19, 20)
    assert oracle.served_by(segs[(3, 0)], F(10)) == F(96, 100)


def test_jobs_csv_round_trip(tmp_path, half_four_fifths_set):
    jobs = make_jobs([(1, F(0), F(5)), (2, F(0), F(21, 20))])
    path = tmp_path / "jobs.csv"
    save_jobs_csv(jobs, path)
    loaded = load_jobs_csv(path)
    assert loaded == jobs
    validate_jobs(half_four_fifths_set, loaded)


def test_trace_csv_contains_snapshot(tmp_path, half_four_fifths_set):
    jobs = make_jobs([(1, F(0), F(5)), (2, F(0), F(105, 100)),
                      (3, F(0), F(96, 100))])
    trace = simulate(half_four_fifths_set, uvd_cfg(), jobs)
    path = tmp_path / "trace.csv"
    save_trace_csv(trace, path)
    text = path.read_text()
    assert text.splitlines()[0] == "time,event,task,job,detail"
    assert "e_m=2:21/20,3:19/20" in text


def test_stop_after_switch_truncates(half_four_fifths_set):
    jobs = make_jobs([(1, F(0), F(5)), (2, F(0), F(105, 100)),
                      (3, F(0), F(96, 100))])
    trace = simulate(half_four_fifths_set, uvd_cfg(), jobs,
                     stop_after_switch=True)
    kinds = [ev.kind for ev in trace.events]
    assert EventKind.MODE_SWITCH in kinds
    assert EventKind.COMPLETE not in kinds[kinds.index(EventKind.MODE_SWITCH):]
    assert max(ev.time for ev in trace.events) == F(2)
    assert mode_switch_instant(trace) == F(2)


# ---- independent trace audits ----

def test_edf_auditor_flags_wrong_dispatch_order():
    ts = TaskSet((McTask(1, F(10), F(2), Criticality.LC, alpha=F(1)),
                  McTask(2, F(5), F(2), Criticality.HC)))
    jobs = make_jobs([(1, F(0), F(1)), (2, F(0), F(1))])
    # forged trace runs the later-deadline job first
    events = (
        TraceEvent(F(0), EventKind.DISPATCH, 1, 0),
        TraceEvent(F(1), EventKind.COMPLETE, 1, 0),
        TraceEvent(F(1), EventKind.DISPATCH, 2, 0),
        TraceEvent(F(2), EventKind.COMPLETE, 2, 0),
        TraceEvent(F(2), EventKind.IDLE, None, None),
    )
    forged = ScheduleTrace(events=events, jobs=jobs)
    problems = edf_dispatch_violations(ts, uvd_cfg(x=F(1, 2)), forged)
    assert problems and problems[0].startswith("t=0")


def test_audits_report_a_dispatch_of_a_job_not_in_the_sequence(half_four_fifths_set):
    # job (2, 5) is not in the one-job sequence; the verifier skips its
    # events instead of failing, and the EDF audit names the stray dispatch
    jobs = make_jobs([(2, F(0), F(1))])
    forged = ScheduleTrace(events=(
        TraceEvent(F(0), EventKind.DISPATCH, 2, 5),
        TraceEvent(F(1), EventKind.COMPLETE, 2, 5),
    ), jobs=jobs)
    cfg = uvd_cfg()
    ok, violations = verify_mc_schedulable(half_four_fifths_set, cfg, forged)
    assert not ok
    assert [(v.task, v.seq, v.received) for v in violations] == [(2, 0, F(0))]
    assert edf_dispatch_violations(half_four_fifths_set, cfg, forged) == [
        "t=0: dispatched job not in sequence"]


def test_pool_auditor_flags_over_pool_budgets(half_four_fifths_set):
    jobs = make_jobs([(2, F(0), F(3)), (3, F(0), F(3))])
    cfg = SimConfig(FixedBudget({2: F(3), 3: F(3)}), F(2, 5))
    trace = simulate(half_four_fifths_set, cfg, jobs)
    # replaying against the 0.2 pool must flag the 0.3-utilization maxima
    assert pool_utilization_violations(half_four_fifths_set, F(1, 4), trace)


def test_pool_auditor_counts_the_segment_open_at_a_stop(half_four_fifths_set):
    # task 2 gets the whole 1/5 pool (budget 2) and exhausts it at t=2; the
    # stopped trace ends with its segment still open
    jobs = make_jobs([(2, F(0), F(4)), (3, F(0), F(4))])
    trace = simulate(half_four_fifths_set, uvd_cfg(), jobs, stop_after_switch=True)
    assert shape(trace) == [("0", "dispatch", 2), ("2", "mode_switch", 2)]
    assert pool_utilization_violations(half_four_fifths_set, F(1, 4), trace) == []
    # against a smaller pool the open segment is what overshoots it
    assert pool_utilization_violations(half_four_fifths_set, F(1, 5), trace) == [
        "t*=2: maxima utilization 1/5 != pool 4/25"]
    # a forged stop whose trigger has already run its whole demand of 2
    forged = ScheduleTrace(events=trace.events, jobs=make_jobs([(2, F(0), F(2))]))
    assert pool_utilization_violations(half_four_fifths_set, F(1, 4), forged) == [
        "t*=2: triggering job already complete"]


def test_pool_auditor_reports_a_broken_trace_contract(half_four_fifths_set):
    backwards = ScheduleTrace(events=(
        TraceEvent(F(1), EventKind.DISPATCH, 2, 0),
        TraceEvent(F(1, 2), EventKind.COMPLETE, 2, 0),
    ), jobs=make_jobs([(2, F(0), F(1))]))
    assert pool_utilization_violations(half_four_fifths_set, F(1, 4), backwards) == [
        "t=1/2: event time decreases after t=1; pool audit stopped"]
    overlapping = ScheduleTrace(events=(
        TraceEvent(F(0), EventKind.DISPATCH, 2, 0),
        TraceEvent(F(1), EventKind.DISPATCH, 3, 0),
        TraceEvent(F(2), EventKind.COMPLETE, 3, 0),
    ), jobs=make_jobs([(2, F(0), F(1)), (3, F(0), F(1))]))
    assert pool_utilization_violations(half_four_fifths_set, F(1, 4), overlapping) == [
        "t=1: task 3 job 0 dispatched while task 2 job 0 still runs; pool audit stopped"]


# ---- fixed-budget comparisons ----

def test_snapshot_budgets_reproduce_the_switch_instant(half_four_fifths_set):
    jobs = make_jobs([(1, F(0), F(5)), (2, F(0), F(105, 100)),
                      (3, F(0), F(96, 100))])
    cfg = SimConfig(FixedBudget({2: F(21, 20), 3: F(19, 20)}), F(2, 5))
    trace = simulate(half_four_fifths_set, cfg, jobs)
    assert mode_switch_instant(trace) == F(2)  # equality case of the bound


def test_lemma2_holds_on_the_worked_sequence(half_four_fifths_set):
    jobs = make_jobs([(1, F(0), F(5)), (2, F(0), F(105, 100)),
                      (3, F(0), F(96, 100))])
    vectors = [
        {2: F(21, 20), 3: F(19, 20)},  # the dynamic run's own maxima
        {2: F(0), 3: F(0)},            # degenerate: switches immediately
        {2: F(1), 3: F(1)},
        {2: F(2), 3: F(0)},
    ]
    assert check_lemma2_optimality(half_four_fifths_set, F(1, 4), jobs,
                                   vectors, x=F(2, 5))


def test_lemma2_with_no_dynamic_switch_is_vacuous(half_four_fifths_set):
    jobs = make_jobs([(2, F(0), F(1))])
    assert check_lemma2_optimality(half_four_fifths_set, F(1, 4), jobs,
                                   [{2: F(0), 3: F(0)}], x=F(2, 5))


def test_lemma2_rejects_inadmissible_vectors(half_four_fifths_set):
    jobs = make_jobs([(2, F(0), F(1))])
    with pytest.raises(BudgetSumViolation):
        check_lemma2_optimality(half_four_fifths_set, F(1, 4), jobs,
                                [{2: F(3), 3: F(3)}], x=F(2, 5))
    with pytest.raises(BudgetSumViolation):
        check_lemma2_optimality(half_four_fifths_set, F(1, 4), jobs,
                                [{1: F(1)}], x=F(2, 5))


# ---- dynamic-to-static replay ----

def test_job_mapping_splits_lc_jobs(contrast_set):
    jobs = contrast_jobs()
    mapped = map_jobs_to_static(contrast_set, jobs, F(4))
    got = sorted((j.task, str(j.release), str(j.demand)) for j in mapped)
    assert got == [
        (2, "0", "6/5"),   # tau1 head: min(12/5, cap 6/5)
        (3, "0", "6/5"),   # tau1 remainder
        (4, "0", "1"),     # tau2 head
        (5, "0", "1"),     # tau2 remainder
        (6, "3", "3"),     # the HC job, unchanged
    ]


def test_post_switch_lc_jobs_keep_only_the_head(contrast_set):
    jobs = make_jobs([(3, F(0), F(3)), (2, F(5), F(2))])
    mapped = map_jobs_to_static(contrast_set, jobs, F(1))
    tasks = sorted(j.task for j in mapped)
    assert tasks == [4, 6]  # no remainder part for the post-switch release


def test_mapping_equivalence_on_the_contrast_scenario(contrast_set):
    alphas = {t.id: t.alpha for t in contrast_set.lc_tasks}
    assert check_mapping_equivalence(contrast_set, alphas, F(3, 5),
                                     contrast_jobs(), beta_star=F(1, 3))


def test_mapping_equivalence_without_a_switch(contrast_set):
    alphas = {t.id: t.alpha for t in contrast_set.lc_tasks}
    jobs = make_jobs([(3, F(0), F(1, 2))])
    assert check_mapping_equivalence(contrast_set, alphas, F(3, 5), jobs,
                                     beta_star=F(1, 3))
