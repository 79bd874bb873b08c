"""Golden trace digest over a fixed scenario corpus, for every policy.

The digest covers the CSV bytes of each trace (switch snapshots included)
over seeded admissible systems run under the dynamic pool, two fixed
budget vectors and the static EDF-VD baseline, plus the dispatch-order
audit of every run on every fourth system.  Any change to how a policy
admits, budgets, degrades or drops jobs changes the digest.
"""

import hashlib
from dataclasses import replace
from fractions import Fraction as F

import numpy as np

from mcsched import (
    EdfUvdMeba,
    EdfVdStatic,
    EventKind,
    FixedBudget,
    SimConfig,
    TaskSet,
    edf_dispatch_violations,
    simulate,
)
from mcsched.experiments import random_budget_vectors, random_feasible_scenario
from mcsched.simulator import save_trace_csv

SCENARIOS = 200
AUDIT_EVERY = 4
GOLDEN_SHA256 = "05bd486ba25378dda4f602065f11da890f6a57be507911668071c0a5049aeb49"


def with_estimates(ts, rng) -> TaskSet:
    """HC tasks get an optimistic estimate drawn on [C/5, C]."""
    tasks = []
    for t in ts.tasks:
        if t.is_hc:
            t = replace(t, lc_estimate=t.wcet * F(int(rng.integers(20, 100, endpoint=True)), 100))
        tasks.append(t)
    return TaskSet(tuple(tasks))


def corpus():
    """Yield (scenario, label, task set, config, jobs) for every run."""
    for i in range(SCENARIOS):
        sc = random_feasible_scenario(np.random.SeedSequence((11, i)),
                                      switchy=i % 2 == 0, fine_demands=i % 5 == 0)
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((11, i, 1))))
        ts = with_estimates(sc.ts, rng)
        first = ts.hc_tasks[0]
        shares = random_budget_vectors(ts, sc.beta_star, rng, 1)[0]
        policies = [
            ("pool", EdfUvdMeba(sc.beta_star)),
            ("shares", FixedBudget(shares)),
            ("partial", FixedBudget({first.id: first.lc_estimate})),
            ("static", EdfVdStatic()),
        ]
        for label, policy in policies:
            yield i, label, ts, SimConfig(policy, sc.x, horizon=sc.horizon), sc.jobs


def lc_releases_dropped_while_degraded(ts, trace) -> int:
    releases = {(j.task, j.seq): j.release for j in trace.jobs}
    switched_at = None
    count = 0
    for ev in trace.events:
        if ev.kind is EventKind.MODE_SWITCH:
            switched_at = ev.time
        elif ev.kind is EventKind.IDLE:
            switched_at = None
        elif (ev.kind is EventKind.DROP and ts.task(ev.task).is_lc
              and switched_at is not None
              and releases[(ev.task, ev.job)] > switched_at):
            count += 1
    return count


def test_traces_match_the_golden_digest(tmp_path):
    digest = hashlib.sha256()
    path = tmp_path / "trace.csv"
    static_lc_alphas = set()
    static_switches = static_lc_release_drops = 0
    for i, label, ts, cfg, jobs in corpus():
        trace = simulate(ts, cfg, jobs)
        save_trace_csv(trace, path)
        digest.update(f"{i}:{label}\n".encode() + path.read_bytes())
        if i % AUDIT_EVERY == 0:
            digest.update("\n".join(edf_dispatch_violations(ts, cfg, trace)).encode())
        if label == "static":
            static_lc_alphas.update(t.alpha for t in ts.lc_tasks)
            static_switches += trace.mode_switches() != ()
            static_lc_release_drops += lc_releases_dropped_while_degraded(ts, trace)
    # the static runs exercise LC tasks with a degraded share and LC
    # releases while degraded, so a change to either rule shows
    assert any(a > 0 for a in static_lc_alphas)
    assert static_switches > SCENARIOS // 2
    assert static_lc_release_drops > 0
    assert digest.hexdigest() == GOLDEN_SHA256
