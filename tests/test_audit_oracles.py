"""The sweep audits and the bisected mode lookups against the oracles.

``tests/audit_oracles.py`` keeps the straightforward versions: the pool
audit that re-sums every HC job's segments at every event, the verifier
and mode lookup that scan the switch and idle instants linearly, and the
EDF audit that rescans every job at every dispatch.  Over traces of the
dynamic pool, fixed budget vectors and the static EDF-VD baseline, both
must return the same lists, message for message.  Fixed traces are audited
against the pool and against half of it, static traces keep their LC
tasks' degraded shares, and the EDF audit also reads every trace under
perturbed deadline factors (and the static traces under the pool policy's
rules), so many of the compared lists are non-empty.
"""

from dataclasses import replace
from fractions import Fraction as F

import numpy as np
from hypothesis import given, settings, strategies as st

import audit_oracles as oracle
from mcsched import (
    EdfUvdMeba,
    EdfVdStatic,
    FixedBudget,
    ScheduleTrace,
    SimConfig,
    TaskSet,
    edf_dispatch_violations,
    mode_switch_instant,
    pool_utilization_violations,
    simulate,
    verify_mc_schedulable,
)
from mcsched.experiments import random_budget_vectors, random_feasible_scenario
from mcsched.simulator import _mode_at, _mode_timeline

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


def assert_audits_agree(ts, cfg, betas, trace) -> tuple[int, int, int]:
    """Compare every audit with its oracle; returns the non-empty list counts."""
    pool_found = 0
    for beta in betas:
        found = pool_utilization_violations(ts, beta, trace)
        assert found == oracle.pool_utilization_violations(ts, beta, trace)
        pool_found += bool(found)
    verdict = verify_mc_schedulable(ts, cfg, trace)
    assert verdict == oracle.verify_mc_schedulable(ts, cfg, trace)
    timeline, linear = _mode_timeline(trace), oracle.mode_timeline(trace)
    for t in probe_times(trace):
        assert _mode_at(timeline, t) is oracle.mode_at(linear, t)
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
    # prefix reports the first of the full run's problems (the oracle
    # misses the segment open at the stop, so it audits the full run)
    stopped = simulate(ts, cfg, trace.jobs, stop_after_switch=True)
    assert stopped.events == trace.events[:len(stopped.events)]
    for beta in betas:
        found = pool_utilization_violations(ts, beta, stopped)
        assert found == oracle.pool_utilization_violations(ts, beta, trace)[:len(found)]
        if policy == "pool":
            assert found == []


def assert_audit_stops_at_a_decreasing_time(audit, name, seed, policy, where):
    """Move one event of a drawn trace before its predecessor; ``audit``
    must end with the contract line there and report no other decrease."""
    ts, cfg, betas, trace = scenario_run(seed, 0, policy, switchy=True, fine=False)
    events = trace.events
    k = 1 + int(where * (len(events) - 2))
    earlier = events[k - 1].time - F(1, 7)
    forged = ScheduleTrace(events[:k] + (replace(events[k], time=earlier),)
                           + events[k + 1:], trace.jobs)
    found = audit(ts, cfg, betas, forged)
    assert found[-1] == (f"t={earlier}: event time decreases after "
                         f"t={events[k - 1].time}; {name} audit stopped")
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
