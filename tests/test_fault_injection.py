"""Fault injection for the trace audits and the property checks.

Each row swaps one rule of the scheduler, of the budget pool or of the
static reduction for a faulty one through ``monkeypatch`` (the package has
no hook for it), simulates, and checks that the named check reports the
fault.  Every audit row runs against the tick audit in the package
(``sweep``) and its test-only oracle.  Every row first checks that the
check is silent on the same runs without the fault.
"""

from fractions import Fraction as F

import numpy as np
import pytest

import audit_oracles as oracle
from mcsched import (
    Criticality,
    EdfUvdMeba,
    McTask,
    SimConfig,
    TaskSet,
    analysis,
    check_lemma2_optimality,
    check_mapping_equivalence,
    edf_dispatch_violations,
    make_jobs,
    mode_switch_instant,
    pool_utilization_violations,
    simulate,
    simulator,
    verify_mc_schedulable,
)
from mcsched.experiments import (
    random_budget_vectors,
    random_feasible_scenario,
    switch_inducing_scenario,
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


def shifted_jobs(ts, jobs, seed_material):
    """``jobs`` with each task's releases moved later by a seeded fraction
    of its period, so drawn tasks stop releasing together at t=0 and busy
    intervals end in an idle more often before the first degradation."""
    rng = np.random.default_rng(seed_material)
    offset = {t.id: t.period * F(int(rng.integers(0, 100)), 100) for t in ts.tasks}
    return make_jobs((j.task, j.release + offset[j.task], j.demand) for j in jobs)


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


@pytest.mark.parametrize("audit", POOL_AUDITS)
def test_pool_audit_catches_maxima_kept_across_idle_on_drawn_runs(audit, monkeypatch):
    # The drawn version of the row above: with shifted releases, drawn runs
    # go idle before their first degradation often enough for the leak to
    # show.  The runs stop at the switch, as above.
    if audit == "oracle":
        def audit(ts, beta, trace):
            return oracle.pool_utilization_violations(ts, beta, closed_at_stop(trace))
    else:
        audit = POOL_AUDITS[audit]
    runs = []
    for i in range(RUNS):
        sc = random_feasible_scenario(np.random.SeedSequence((37, i)))
        runs.append((sc, shifted_jobs(sc.ts, sc.jobs, np.random.SeedSequence((37, i, 2)))))
    assert all(audit(sc.ts, sc.beta_star,
                     simulate(sc.ts, sc.config(), jobs, stop_after_switch=True)) == []
               for sc, jobs in runs)
    monkeypatch.setattr(MebaState, "on_idle", lambda self: None)
    caught = 0
    for sc, jobs in runs:
        found = audit(sc.ts, sc.beta_star,
                      simulate(sc.ts, sc.config(), jobs, stop_after_switch=True))
        caught += any(" != pool " in line for line in found)
    assert caught > 4


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


def test_lemma2_check_catches_halved_grants(monkeypatch):
    # seeded as the lemma2_fuzz experiment seeds its scenarios and vectors,
    # the zero vector and the pool's switch snapshot included
    cases = []
    for i in range(30):
        sc = random_feasible_scenario(np.random.SeedSequence((53, 2, i)), switchy=True)
        trace = simulate(sc.ts, sc.config(), sc.jobs, stop_after_switch=True)
        include = [{t.id: F(0) for t in sc.ts.hc_tasks}]
        include += [dict(ev.snapshot) for ev in trace.events if ev.snapshot is not None]
        cases.append((sc, random_budget_vectors(
            sc.ts, sc.beta_star, np.random.SeedSequence((53, 3, i)), 20, include)))

    def lemma2_holds(sc, vectors):
        return check_lemma2_optimality(sc.ts, sc.beta_star, sc.jobs, vectors, x=sc.x)

    assert all(lemma2_holds(sc, vectors) for sc, vectors in cases)
    grant = MebaState.on_dispatch

    def halved_grant(self, task_id):
        half = grant(self, task_id) / 2
        self.b[task_id] = half
        return half

    monkeypatch.setattr(MebaState, "on_dispatch", halved_grant)
    caught = sum(not lemma2_holds(sc, vectors) for sc, vectors in cases)
    assert caught > len(cases) // 2


def mapping_scenarios(switching):
    """Ten mapping_fuzz scenarios, or the first ten drawn systems that never
    degrade and give some LC task a degraded share."""
    if switching:
        return [switch_inducing_scenario(59, i, fine_demands=True)[0] for i in range(10)]
    found = []
    for i in range(200):
        sc = random_feasible_scenario(np.random.SeedSequence((61, i)))
        if (any(t.alpha > 0 for t in sc.ts.lc_tasks)
                and mode_switch_instant(simulate(sc.ts, sc.config(), sc.jobs)) is None):
            found.append(sc)
            if len(found) == 10:
                return found
    raise AssertionError("too few non-switching draws")


@pytest.mark.parametrize("switching", [True, False], ids=["switching", "non_switching"])
def test_mapping_check_catches_a_shifted_static_split(switching, monkeypatch):
    scenarios = mapping_scenarios(switching)

    def equivalent(sc):
        return check_mapping_equivalence(sc.ts, None, sc.x, sc.jobs, beta_star=sc.beta_star)

    assert all(equivalent(sc) for sc in scenarios)
    split = analysis.static_split

    def shifted_split(task, amount):
        """Moves 1/1000 of an LC task's alpha * C from the head to the tail."""
        (head_id, head), (rest_id, rest) = split(task, amount)
        if task.is_lc:
            moved = min(head, task.degraded_service / 1000)
            head, rest = head - moved, rest + moved
        return (head_id, head), (rest_id, rest)

    # map_to_static reads it from analysis, map_jobs_to_static from simulator
    monkeypatch.setattr(analysis, "static_split", shifted_split)
    monkeypatch.setattr(simulator, "static_split", shifted_split)
    caught = sum(not equivalent(sc) for sc in scenarios)
    assert caught > len(scenarios) // 4
