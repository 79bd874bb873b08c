"""Fault injection for the EDF dispatch audit.

Each row swaps the scheduler's priority key, ``mcsched.simulator._prio``,
for a faulty one through ``monkeypatch`` (the package has no hook for it),
simulates, and checks that the audit reports the faulty dispatches.  Every
row runs against the sweep in the package and the test-only oracle.
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
    simulate,
    simulator,
)
from test_audit_oracles import POLICIES, scenario_run

AUDITS = {"sweep": edf_dispatch_violations, "oracle": oracle.edf_dispatch_violations}
RUNS = 60


def ignores_virtual_deadlines(run):
    return (run.deadline, run.task.id, run.job.seq)


def reversed_ties(run):
    return (run.eff, -run.task.id, -run.job.seq)


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
