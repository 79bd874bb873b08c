"""The tick audits and their mode lookup against the oracles.

``tests/audit_oracles.py`` keeps the straightforward versions, in exact
``Fraction``s: the pool audit that re-sums every HC job's segments at
every event, the verifier and mode lookup that scan the switch and idle
instants linearly, and the EDF audit that rescans every job at every
dispatch.  Over traces of the dynamic pool, fixed budget vectors and the
static EDF-VD baseline, both must return the same lists, message for
message.  Fixed traces are audited against the pool and against half of
it, static traces keep their LC tasks' degraded shares, and the EDF audit
also reads every trace under perturbed deadline factors (and the static
traces under the pool policy's rules), so many of the compared lists are
non-empty.  The same holds on traces forged to test the tick scale: event
times off the job lattice, an empty trace, stopped runs and, for the
verifier, a time that decreases.
"""

from dataclasses import replace
from fractions import Fraction as F

import numpy as np
from hypothesis import given, settings, strategies as st

import audit_oracles as oracle
from mcsched import (
    Criticality,
    EdfUvdMeba,
    EdfVdStatic,
    EventKind,
    FixedBudget,
    McTask,
    ScheduleTrace,
    SimConfig,
    TaskSet,
    TraceEvent,
    edf_dispatch_violations,
    make_jobs,
    mode_switch_instant,
    pool_utilization_violations,
    simulate,
    verify_mc_schedulable,
)
from mcsched.experiments import random_budget_vectors, random_feasible_scenario
from mcsched.meba import Mode
from mcsched.simulator import _time_base

CORPUS = 300
POLICIES = ("pool", "fixed", "static")


def scenario_run(seed, i, policy, *, switchy, fine):
    """Simulate one drawn system; returns (task set, config, betas, trace)."""
    sc = random_feasible_scenario(np.random.SeedSequence((seed, i)),
                                  switchy=switchy, fine_demands=fine)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, i, 1))))
    ts, betas = sc.ts, [sc.beta_star]
    if policy == "pool":
        chosen = EdfUvdMeba(sc.beta_star)
    elif policy == "fixed":
        chosen = FixedBudget(random_budget_vectors(ts, sc.beta_star, rng, 1)[0])
        betas.append(sc.beta_star / 2)
    else:
        ts = TaskSet(tuple(
            replace(t, lc_estimate=t.wcet * F(int(rng.integers(20, 100, endpoint=True)), 100))
            if t.is_hc else t for t in ts.tasks))
        chosen = EdfVdStatic()
    cfg = SimConfig(chosen, sc.x, horizon=sc.horizon)
    return ts, cfg, betas, simulate(ts, cfg, sc.jobs)


def probe_times(trace: ScheduleTrace):
    times = sorted({ev.time for ev in trace.events} | {j.release for j in trace.jobs})
    return times + [(a + b) / 2 for a, b in zip(times, times[1:])] + [F(-1)]


def edf_configs(cfg, betas):
    """The trace's own config, ``x`` moved both ways, and the pool's rules
    for a static trace (its LC tasks then keep their degraded share)."""
    x = cfg.x
    configs = [cfg, replace(cfg, x=x / 2), replace(cfg, x=(1 + x) / 2)]
    if isinstance(cfg.policy, EdfVdStatic):
        configs.append(replace(cfg, policy=EdfUvdMeba(betas[0])))
    return configs


def assert_modes_agree(ts, trace):
    """The audits' tick mode lookup against the oracle's linear lookup at
    every probe time."""
    scale, _, _, _, degraded_at = _time_base(ts, trace)
    linear = oracle.mode_timeline(trace)
    for t in probe_times(trace):
        assert (Mode.HC if degraded_at(t * scale) else Mode.LC) is oracle.mode_at(linear, t)


def closed_at_stop(trace: ScheduleTrace) -> ScheduleTrace:
    """The trace with a segment still open at its end (a stopped run)
    closed there by a PREEMPT.  The pool oracle counts closed segments
    only; the audit counts the open one itself."""
    running = None
    for ev in trace.events:
        if ev.kind is EventKind.DISPATCH:
            running = ev
        elif running is not None and (ev.task, ev.job) == (running.task, running.job) \
                and ev.kind in (EventKind.PREEMPT, EventKind.COMPLETE, EventKind.DROP):
            running = None
    if running is None:
        return trace
    close = TraceEvent(trace.events[-1].time, EventKind.PREEMPT, running.task, running.job)
    return replace(trace, events=trace.events + (close,))


def assert_audits_agree(ts, cfg, betas, trace) -> tuple[int, int, int]:
    """Compare every audit with its oracle; returns the non-empty list counts."""
    pool_found = 0
    for beta in betas:
        found = pool_utilization_violations(ts, beta, trace)
        assert found == oracle.pool_utilization_violations(ts, beta, closed_at_stop(trace))
        pool_found += bool(found)
    verdict = verify_mc_schedulable(ts, cfg, trace)
    assert verdict == oracle.verify_mc_schedulable(ts, cfg, trace)
    assert_modes_agree(ts, trace)
    edf_found = 0
    for edf_cfg in edf_configs(cfg, betas):
        found = edf_dispatch_violations(ts, edf_cfg, trace)
        assert found == oracle.edf_dispatch_violations(ts, edf_cfg, trace)
        edf_found += bool(found)
    return pool_found, bool(verdict[1]), edf_found


def test_audits_match_the_oracles_on_a_fixed_corpus():
    pool_found = verify_found = edf_found = switched = 0
    for i in range(CORPUS):
        ts, cfg, betas, trace = scenario_run(17, i, POLICIES[i % 3],
                                             switchy=i % 2 == 0, fine=i % 5 == 0)
        switched += mode_switch_instant(trace) is not None
        found = assert_audits_agree(ts, cfg, betas, trace)
        pool_found += found[0]
        verify_found += found[1]
        edf_found += found[2]
    # the comparison covers failing audits, not only clean ones
    assert switched > CORPUS // 2
    assert pool_found > CORPUS // 2
    assert verify_found > CORPUS // 5
    assert edf_found > CORPUS // 3


@settings(max_examples=60, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), policy=st.sampled_from(POLICIES),
       switchy=st.booleans(), fine=st.booleans())
def test_audits_match_the_oracles(seed, policy, switchy, fine):
    ts, cfg, betas, trace = scenario_run(seed, 0, policy, switchy=switchy, fine=fine)
    assert_audits_agree(ts, cfg, betas, trace)
    # a stopped run is a prefix of the full one, so the pool audit of the
    # prefix reports the first of the full run's problems
    stopped = simulate(ts, cfg, trace.jobs, stop_after_switch=True)
    assert stopped.events == trace.events[:len(stopped.events)]
    assert_audits_agree(ts, cfg, betas, stopped)
    for beta in betas:
        found = pool_utilization_violations(ts, beta, stopped)
        assert found == oracle.pool_utilization_violations(ts, beta, trace)[:len(found)]
        if policy == "pool":
            assert found == []


def forge_decreasing_time(seed, policy, where):
    """A drawn trace with one event moved 1/7 before its predecessor;
    returns (task set, config, betas, forged trace, earlier, predecessor)."""
    ts, cfg, betas, trace = scenario_run(seed, 0, policy, switchy=True, fine=False)
    events = trace.events
    k = 1 + int(where * (len(events) - 2))
    earlier = events[k - 1].time - F(1, 7)
    forged = ScheduleTrace(events[:k] + (replace(events[k], time=earlier),)
                           + events[k + 1:], trace.jobs)
    return ts, cfg, betas, forged, earlier, events[k - 1].time


def assert_audit_stops_at_a_decreasing_time(audit, name, seed, policy, where):
    """``audit`` must end a forged trace with the contract line at its
    decreasing time and report no other decrease."""
    ts, cfg, betas, forged, earlier, before = forge_decreasing_time(seed, policy, where)
    found = audit(ts, cfg, betas, forged)
    assert found[-1] == (f"t={earlier}: event time decreases after "
                         f"t={before}; {name} audit stopped")
    assert all("decreases" not in line for line in found[:-1])


@settings(max_examples=40, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), policy=st.sampled_from(POLICIES),
       where=st.floats(0, 1))
def test_pool_audit_stops_at_a_decreasing_time(seed, policy, where):
    assert_audit_stops_at_a_decreasing_time(
        lambda ts, _cfg, betas, trace: pool_utilization_violations(ts, betas[0], trace),
        "pool", seed, policy, where)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), policy=st.sampled_from(POLICIES),
       where=st.floats(0, 1))
def test_edf_audit_stops_at_a_decreasing_time(seed, policy, where):
    assert_audit_stops_at_a_decreasing_time(
        lambda ts, cfg, _betas, trace: edf_dispatch_violations(ts, cfg, trace),
        "EDF", seed, policy, where)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), policy=st.sampled_from(POLICIES),
       where=st.floats(0, 1), back=st.floats(0, 1))
def test_verify_matches_its_oracle_at_a_decreasing_time(seed, policy, where, back):
    # The verifier has no trace contract: it reads a forged trace as the
    # oracle does.  Besides the 1/7 step back, one switch or idle instant
    # moves far back, so switches and changes come out of time order.
    ts, cfg, _betas, forged, _, _ = forge_decreasing_time(seed, policy, where)
    changes = [k for k, ev in enumerate(forged.events)
               if ev.kind in (EventKind.MODE_SWITCH, EventKind.IDLE)]
    k = changes[int(where * (len(changes) - 1))]
    moved = forged.events[k]
    far = replace(forged, events=forged.events[:k] + (
        replace(moved, time=moved.time * F(round(back * 100), 100)),) + forged.events[k + 1:])
    for trace in (forged, far):
        assert verify_mc_schedulable(ts, cfg, trace) == oracle.verify_mc_schedulable(ts, cfg, trace)
        assert_modes_agree(ts, trace)


def test_verify_stops_a_job_count_at_its_first_late_segment_as_its_oracle():
    # as the oracle's served_by reads it, a job's service stops at its
    # first segment that starts at or after the deadline, even when a later
    # event of a forged trace adds an earlier segment
    ts = TaskSet((McTask(1, F(10), F(2), Criticality.LC, alpha=F(1, 2)),))
    cfg = SimConfig(EdfUvdMeba(F(1, 2)), F(1, 2))
    d, p, c = EventKind.DISPATCH, EventKind.PREEMPT, EventKind.COMPLETE
    forged = ScheduleTrace(tuple(TraceEvent(F(t), kind, 1, 0) for t, kind in
                                 ((12, d), (13, p), (2, d), (3, c))), make_jobs([(1, 0, 1)]))
    expected = oracle.verify_mc_schedulable(ts, cfg, forged)
    assert expected[1][0].received == 0
    assert verify_mc_schedulable(ts, cfg, forged) == expected


@settings(max_examples=40, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), policy=st.sampled_from(POLICIES),
       where=st.floats(0, 1), shift=st.sampled_from([F(1, 9973), F(1, 7), F(5, 3)]))
def test_audits_match_the_oracles_off_the_job_lattice(seed, policy, where, shift):
    # every event from the k-th on is shifted off the lattice of releases,
    # demands and periods, so the tick scale must take the trace's own
    # denominators
    ts, cfg, betas, trace = scenario_run(seed, 0, policy, switchy=True, fine=False)
    events = trace.events
    k = int(where * len(events))
    forged = replace(trace, events=events[:k] + tuple(
        replace(ev, time=ev.time + shift) for ev in events[k:]))
    assert_audits_agree(ts, cfg, betas, forged)


def test_audits_match_the_oracles_on_an_empty_trace():
    unserved = 0
    for i in range(12):
        ts, cfg, betas, trace = scenario_run(43, i, POLICIES[i % 3],
                                             switchy=i % 2 == 0, fine=i % 4 == 0)
        empty = replace(trace, events=())
        assert pool_utilization_violations(ts, betas[0], empty) == []
        assert edf_dispatch_violations(ts, cfg, empty) == []
        assert_audits_agree(ts, cfg, betas, empty)
        unserved += len(verify_mc_schedulable(ts, cfg, empty)[1])
    assert unserved > 0


def test_audits_match_the_oracles_on_an_overloaded_backlog():
    # HC utilization 3/4 + 3/5 = 27/20, so released jobs pile up: the drawn
    # systems keep at most 6 jobs live at a dispatch, this one up to 32
    ts = TaskSet((McTask(1, F(6), F(2), Criticality.LC, alpha=F(1, 2)),
                  McTask(2, F(4), F(3), Criticality.HC, lc_estimate=F(2)),
                  McTask(3, F(5), F(3), Criticality.HC, lc_estimate=F(1))))
    jobs = make_jobs((t.id, k * t.period, t.wcet) for t in ts.tasks
                     for k in range(120 // int(t.period)))
    assert len(jobs) == 74
    most_live = 0
    for policy in (EdfUvdMeba(F(1, 2)), FixedBudget({2: 3, 3: 3}), EdfVdStatic()):
        cfg = SimConfig(policy, F(3, 5), horizon=F(120))
        trace = simulate(ts, cfg, jobs)
        assert_audits_agree(ts, cfg, [F(1, 2), F(1, 4)], trace)
        whole = replace(cfg, x=F(1))
        assert edf_dispatch_violations(ts, whole, trace) == \
            oracle.edf_dispatch_violations(ts, whole, trace)
        closed = {(ev.task, ev.job): ev.time for ev in trace.events
                  if ev.kind in (EventKind.COMPLETE, EventKind.DROP)}
        most_live = max(most_live, *(
            sum(j.release <= ev.time < closed.get((j.task, j.seq), ev.time + 1)
                for j in trace.jobs)
            for ev in trace.events if ev.kind is EventKind.DISPATCH))
        if isinstance(policy, FixedBudget):
            # the budgets are the WCETs, so the run never switches, and its
            # backlog breaks EDF order under each other deadline factor
            assert mode_switch_instant(trace) is None
            for x in (F(3, 10), F(4, 5), F(1)):
                assert edf_dispatch_violations(ts, replace(cfg, x=x), trace)
    assert most_live >= 20


def test_pool_audit_text_at_a_large_denominator():
    # one HC task, T = 10 and U_H = 1/2: its only job exhausts its grant
    # 10 * beta * U_H at t* = 1196103/1000000; audited against half the pool
    ts = TaskSet((McTask(1, F(10), F(5), Criticality.HC),))
    beta = F(1196103, 5000000)
    cfg = SimConfig(EdfUvdMeba(beta), F(1, 2))
    trace = simulate(ts, cfg, make_jobs([(1, 0, 5)]))
    assert pool_utilization_violations(ts, beta, trace) == []
    expected = ["t*=1196103/1000000: maxima utilization 1196103/10000000 "
                "!= pool 1196103/20000000"]
    assert pool_utilization_violations(ts, beta / 2, trace) == expected
    assert oracle.pool_utilization_violations(ts, beta / 2, trace) == expected
