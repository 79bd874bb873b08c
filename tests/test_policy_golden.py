"""Golden trace digests over fixed scenario corpora.

The first digest covers the CSV bytes of each trace (switch snapshots
included) over seeded admissible systems run under the dynamic pool, two
fixed budget vectors and the static EDF-VD baseline, plus the
dispatch-order audit of every run on every fourth system.  Any change to
how a policy admits, budgets, degrades or drops jobs changes the digest.

The second covers the static replay of the dynamic-to-static reduction:
the derived task set, the split job sequence and the static EDF-VD trace,
over systems that degrade and systems that stay nominal.  Any change to
how the reduction splits tasks or jobs changes it.
"""

import hashlib
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import numpy as np

from mcsched import (
    EdfUvdMeba,
    EdfVdStatic,
    EventKind,
    FixedBudget,
    SimConfig,
    TaskSet,
    edf_dispatch_violations,
    map_jobs_to_static,
    map_to_static,
    mode_switch_instant,
    simulate,
)
from mcsched.experiments import (
    random_budget_vectors,
    random_feasible_scenario,
    switch_inducing_scenario,
)
from mcsched.simulator import save_jobs_csv, save_trace_csv
from mcsched.taskmodel import format_taskset

SCENARIOS = 200
AUDIT_EVERY = 4
GOLDEN_SHA256 = "05bd486ba25378dda4f602065f11da890f6a57be507911668071c0a5049aeb49"
# Recorded with the reduction that built its static tasks as a separate
# task type and split jobs with their own copy of the rule.
STATIC_REPLAY_SWITCHING = 100
STATIC_REPLAY_NOMINAL = 30
STATIC_REPLAY_SHA256 = "b99b54b021d8c32203960d411fae853b472780936531a8e8a46058799cfb4fce"


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
            static_switches += mode_switch_instant(trace) is not None
            static_lc_release_drops += lc_releases_dropped_while_degraded(ts, trace)
    # the static runs exercise LC tasks with a degraded share and LC
    # releases while degraded, so a change to either rule shows
    assert any(a > 0 for a in static_lc_alphas)
    assert static_switches > SCENARIOS // 2
    assert static_lc_release_drops > 0
    assert digest.hexdigest() == GOLDEN_SHA256


def static_replay_corpus():
    """Yield (index, scenario): switching systems first, then nominal draws."""
    for i in range(STATIC_REPLAY_SWITCHING):
        sc, _ = switch_inducing_scenario(23, i, fine_demands=True)
        yield i, sc
    for i in range(STATIC_REPLAY_NOMINAL):
        yield (STATIC_REPLAY_SWITCHING + i,
               random_feasible_scenario(np.random.SeedSequence((23, 1, i))))


def execution_maxima(ts, trace) -> dict:
    """The switch snapshot, or each HC task's largest job execution."""
    for ev in trace.events:
        if ev.snapshot is not None:
            return dict(ev.snapshot)
    e_m = {t.id: F(0) for t in ts.hc_tasks}
    for (tid, _), segs in trace.service_segments().items():
        if tid in e_m:
            e_m[tid] = max(e_m[tid], sum((e - s for s, e in segs), F(0)))
    return e_m


def test_static_replay_matches_the_golden_digest(tmp_path: Path):
    digest = hashlib.sha256()
    nominal = 0
    for i, sc in static_replay_corpus():
        trace_dyn = simulate(sc.ts, SimConfig(EdfUvdMeba(sc.beta_star), sc.x), sc.jobs)
        t_star = mode_switch_instant(trace_dyn)
        nominal += t_star is None
        ts_static = map_to_static(sc.ts, execution_maxima(sc.ts, trace_dyn))
        jobs = map_jobs_to_static(sc.ts, trace_dyn.jobs, t_star)
        trace = simulate(ts_static, SimConfig(EdfVdStatic(), sc.x), jobs)
        save_jobs_csv(jobs, tmp_path / "jobs.csv")
        save_trace_csv(trace, tmp_path / "trace.csv")
        digest.update(f"{i}\n{format_taskset(ts_static)}".encode()
                      + (tmp_path / "jobs.csv").read_bytes()
                      + (tmp_path / "trace.csv").read_bytes())
    assert nominal > 0
    assert digest.hexdigest() == STATIC_REPLAY_SHA256
