"""Fault injection for the trace audits.

Each row swaps one rule of the scheduler or of the budget pool for a faulty
one through ``monkeypatch`` (the package has no hook for it), simulates,
and checks that the named audit reports the fault.  Every row runs against
the tick audit in the package (``sweep``) and its test-only oracle, and
first checks that both are silent on the same runs without the fault.
"""

from fractions import Fraction as F

import pytest

import audit_oracles as oracle
from mcsched import (
    Criticality,
    EdfUvdMeba,
    McTask,
    SimConfig,
    TaskSet,
    edf_dispatch_violations,
    make_jobs,
    pool_utilization_violations,
    simulate,
    simulator,
    verify_mc_schedulable,
)
from mcsched.meba import MebaState
from test_audit_oracles import POLICIES, closed_at_stop, scenario_run

AUDITS = {"sweep": edf_dispatch_violations, "oracle": oracle.edf_dispatch_violations}
POOL_AUDITS = {"sweep": pool_utilization_violations,
               "oracle": oracle.pool_utilization_violations}
VERIFIERS = {"sweep": verify_mc_schedulable, "oracle": oracle.verify_mc_schedulable}
RUNS = 60


def ignores_virtual_deadlines(run):
    return (run.deadline, run.task.id, run.job.seq)


def reversed_ties(run):
    return (run.eff, -run.task.id, -run.job.seq)


def grants_the_whole_pool(self, task_id):
    """``MebaState.on_dispatch`` that ignores the other tasks' maxima."""
    grant = self._periods[task_id] * self.beta_budget
    self.b[task_id] = grant
    return grant


def pool_runs(seed, *, switchy):
    return [scenario_run(seed, i, "pool", switchy=switchy, fine=False)
            for i in range(RUNS)]


@pytest.mark.parametrize("audit", AUDITS)
def test_audit_catches_a_scheduler_that_ignores_virtual_deadlines(audit, monkeypatch):
    audit = AUDITS[audit]
    runs = [scenario_run(29, i, POLICIES[i % 3], switchy=i % 2 == 0, fine=False)
            for i in range(RUNS)]
    assert all(audit(ts, cfg, trace) == [] for ts, cfg, _betas, trace in runs)
    monkeypatch.setattr(simulator, "_prio", ignores_virtual_deadlines)
    caught = sum(bool(audit(ts, cfg, simulate(ts, cfg, trace.jobs)))
                 for ts, cfg, _betas, trace in runs)
    # the fault shows only where a virtual deadline reorders ready jobs
    assert caught > RUNS // 6


@pytest.mark.parametrize("audit", AUDITS)
def test_audit_catches_a_reversed_tie_break(audit, monkeypatch):
    # drawn periods never tie, so two LC tasks with equal periods are
    # released together: their virtual deadlines tie at t=0
    audit = AUDITS[audit]
    lc, hc = Criticality.LC, Criticality.HC
    ts = TaskSet((McTask(1, F(10), F(2), lc, alpha=F(1, 2)),
                  McTask(2, F(10), F(2), lc, alpha=F(1, 2)),
                  McTask(3, F(20), F(2), hc)))
    cfg = SimConfig(EdfUvdMeba(F(1, 2)), F(1, 2))
    jobs = make_jobs([(1, 0, 1), (2, 0, 1), (3, 0, 1)])
    assert audit(ts, cfg, simulate(ts, cfg, jobs)) == []
    monkeypatch.setattr(simulator, "_prio", reversed_ties)
    assert audit(ts, cfg, simulate(ts, cfg, jobs)) == [
        "t=0: dispatched (Fraction(5, 1), 2, 0) but (Fraction(5, 1), 1, 0) was ready"]


@pytest.mark.parametrize("audit", POOL_AUDITS)
def test_pool_audit_catches_an_over_grant(audit, monkeypatch):
    audit = POOL_AUDITS[audit]
    runs = pool_runs(31, switchy=True)
    assert all(audit(ts, betas[0], trace) == [] for ts, _cfg, betas, trace in runs)
    monkeypatch.setattr(MebaState, "on_dispatch", grants_the_whole_pool)
    caught = 0
    for ts, cfg, betas, trace in runs:
        found = audit(ts, betas[0], simulate(ts, cfg, trace.jobs))
        caught += any(" > pool " in line for line in found)
    # the fault shows only where two HC tasks' maxima meet in one interval
    assert caught > RUNS // 10


@pytest.mark.parametrize("audit", POOL_AUDITS)
def test_pool_audit_catches_maxima_kept_across_idle(audit, monkeypatch):
    # Drawn runs almost always degrade in their first busy interval, before
    # anything can leak (1 of 60 non-switchy draws showed it), so two HC
    # tasks share a pool of 1/2: task 1 runs 4 of its 10 before an idle,
    # and task 2's job at t=10 must then get the whole grant of 5.  With a
    # no-op on_idle the pool stays degraded after a switch and a later HC
    # dispatch raises WrongMode, so the runs stop at the switch; the oracle
    # counts closed segments only, so it reads them closed there.
    if audit == "oracle":
        def audit(ts, beta, trace):
            return oracle.pool_utilization_violations(ts, beta, closed_at_stop(trace))
    else:
        audit = POOL_AUDITS[audit]
    hc = Criticality.HC
    ts = TaskSet((McTask(1, F(10), F(5), hc), McTask(2, F(10), F(5), hc)))
    cfg = SimConfig(EdfUvdMeba(F(1, 2)), F(1, 2))
    jobs = make_jobs([(1, 0, 4), (2, 10, 3)])
    assert audit(ts, F(1, 2), simulate(ts, cfg, jobs, stop_after_switch=True)) == []
    monkeypatch.setattr(MebaState, "on_idle", lambda self: None)
    # task 1's leaked maximum leaves task 2 a grant of 1
    assert audit(ts, F(1, 2), simulate(ts, cfg, jobs, stop_after_switch=True)) == [
        "t*=11: maxima utilization 1/10 != pool 1/2"]


@pytest.mark.parametrize("verify", VERIFIERS)
def test_verifier_catches_a_zero_lc_cap(verify, monkeypatch):
    verify = VERIFIERS[verify]
    runs = pool_runs(41, switchy=True)
    assert all(verify(ts, cfg, trace) == (True, []) for ts, cfg, _betas, trace in runs)
    monkeypatch.setattr(EdfUvdMeba, "lc_cap", lambda self, task: F(0))
    caught = 0
    for ts, cfg, _betas, trace in runs:
        _, violations = verify(ts, cfg, simulate(ts, cfg, trace.jobs))
        caught += any(v.reason == "lc_degraded_service" for v in violations)
    assert caught > RUNS // 2
