"""Test-only oracles: the straightforward audits the sweep versions replace.

``pool_utilization_violations`` re-sums every HC job's closed service
segments at every event, so it costs O(events x segments);
``verify_mc_schedulable`` and ``mode_at`` scan the switch and idle
instants linearly; ``edf_dispatch_violations`` rebuilds the effective
deadline of every released, unclosed job at every dispatch, so it costs
O(dispatches x jobs), on those linear mode lookups.  All of them compute
in exact ``Fraction``s, and ``served_by`` counts a job's service before
an instant the way the verifier does.  They are kept here, outside the
package, as the reference the integer-tick audits in
:mod:`mcsched.simulator` must agree with message for message.  One known difference: ``service_segments``
drops a segment that is still open at the end of the trace, so on
``stop_after_switch`` traces this pool oracle misses the trigger's final
segment and reports ``!= pool``; the tests hand it such traces with that
segment closed at the stop (``test_audit_oracles.closed_at_stop``).
"""

from __future__ import annotations

from fractions import Fraction

from mcsched.meba import Mode
from mcsched.simulator import EventKind, Job, ScheduleTrace, SimConfig, Violation
from mcsched.taskmodel import TaskSet, Time, as_fraction, utilizations


def served_by(segments, t: Time) -> Time:
    """Service from ``segments`` before ``t``; the first segment that starts
    at or after ``t`` ends the count."""
    total = Fraction(0)
    for s, e in segments:
        if s >= t:
            break
        total += min(e, t) - s
    return total


def mode_timeline(trace: ScheduleTrace) -> list[tuple[Time, Mode]]:
    timeline = []
    for ev in trace.events:
        if ev.kind is EventKind.MODE_SWITCH:
            timeline.append((ev.time, Mode.HC))
        elif ev.kind is EventKind.IDLE:
            timeline.append((ev.time, Mode.LC))
    return timeline


def mode_at(timeline, t: Time) -> Mode:
    mode = Mode.LC
    for when, m in timeline:
        if when <= t:
            mode = m
        else:
            break
    return mode


def verify_mc_schedulable(ts: TaskSet, cfg: SimConfig, trace: ScheduleTrace
                          ) -> tuple[bool, list[Violation]]:
    tasks = {t.id: t for t in ts.tasks}
    segs = trace.service_segments()
    timeline = mode_timeline(trace)
    switch_times = [ev.time for ev in trace.events
                    if ev.kind is EventKind.MODE_SWITCH]
    horizon = cfg.horizon
    violations: list[Violation] = []
    for job in trace.jobs:
        task = tasks[job.task]
        deadline = job.release + task.period
        if horizon is not None and deadline > horizon:
            continue
        served = served_by(segs[(job.task, job.seq)], deadline)
        degraded = (any(job.release <= t <= deadline for t in switch_times)
                    or mode_at(timeline, job.release) is Mode.HC)
        if task.is_hc:
            required = job.demand
            reason = "hc_full_service"
        elif not degraded:
            required = job.demand
            reason = "lc_nominal_service"
        else:
            required = min(job.demand, task.alpha * task.wcet)
            reason = "lc_degraded_service"
        if served < required:
            violations.append(Violation(job.task, job.seq, deadline,
                                        required, served, reason))
    return (not violations), violations


def pool_utilization_violations(ts: TaskSet, beta_star, trace: ScheduleTrace
                                ) -> list[str]:
    beta = as_fraction(beta_star, "beta_star")
    _, u_h = utilizations(ts)
    pool = beta * u_h
    tasks = {t.id: t for t in ts.tasks}
    segs = trace.service_segments()
    demands = {(j.task, j.seq): j.demand for j in trace.jobs}
    problems: list[str] = []

    def maxima_utilization(start: Time, t: Time) -> Fraction:
        per_task: dict[int, Fraction] = {}
        for (task_id, _seq), job_segs in segs.items():
            if not tasks[task_id].is_hc:
                continue
            consumed = Fraction(0)
            for s, e in job_segs:
                if s < start or s >= t:
                    continue
                consumed += min(e, t) - s
            if consumed > per_task.get(task_id, Fraction(0)):
                per_task[task_id] = consumed
        return sum((v / tasks[tid].period for tid, v in per_task.items()), Fraction(0))

    interval_start = Fraction(0)
    switched = False
    for ev in trace.events:
        if ev.kind is EventKind.IDLE:
            interval_start = ev.time
            switched = False
            continue
        if switched:
            continue
        total = maxima_utilization(interval_start, ev.time)
        if ev.kind is EventKind.MODE_SWITCH:
            if total != pool:
                problems.append(
                    f"t*={ev.time}: maxima utilization {total} != pool {pool}")
            key = (ev.task, ev.job)
            if key in demands and served_by(segs[key], ev.time) >= demands[key]:
                problems.append(f"t*={ev.time}: triggering job already complete")
            switched = True
        elif total > pool:
            problems.append(
                f"t={ev.time}: maxima utilization {total} > pool {pool}")
    return problems


def edf_dispatch_violations(ts: TaskSet, cfg: SimConfig, trace: ScheduleTrace
                            ) -> list[str]:
    """Check that every dispatch picked a minimal effective deadline.

    Effective deadlines are reconstructed from the trace alone (admission
    rules, deadline-change events and the degradation instant), so this is
    an independent audit of the scheduler's priority order.
    """
    tasks = {t.id: t for t in ts.tasks}
    # read from the policy's declared rule, never from scheduler state
    zero_cap = {t.id for t in ts.lc_tasks if cfg.policy.lc_cap(t) == 0}
    timeline = mode_timeline(trace)

    closed_at: dict[tuple[int, int], Time] = {}
    demote_at: dict[tuple[int, int], Time] = {}
    for ev in trace.events:
        if ev.task is None:
            continue
        key = (ev.task, ev.job)
        if ev.kind in (EventKind.COMPLETE, EventKind.DROP):
            closed_at[key] = ev.time
        elif ev.kind is EventKind.DEADLINE_CHANGE:
            demote_at[key] = ev.time

    def eff_at(job: Job, t: Time) -> Fraction:
        task = tasks[job.task]
        deadline = job.release + task.period
        release_mode = mode_at(timeline, job.release)
        virtual = job.release + cfg.x * task.period
        if job.task in zero_cap or release_mode is Mode.HC:
            base = deadline
        else:
            base = virtual
        key = (job.task, job.seq)
        if key in demote_at and t >= demote_at[key]:
            base = deadline
        if mode_at(timeline, t) is Mode.HC:
            base = deadline
        return base

    problems = []
    for ev in trace.events:
        if ev.kind is not EventKind.DISPATCH:
            continue
        t = ev.time
        chosen = None
        candidates = []
        for job in trace.jobs:
            key = (job.task, job.seq)
            if job.release > t:
                continue
            if key in closed_at and closed_at[key] <= t and key != (ev.task, ev.job):
                continue
            candidates.append((eff_at(job, t), job.task, job.seq))
            if key == (ev.task, ev.job):
                chosen = (eff_at(job, t), job.task, job.seq)
        if chosen is None:
            problems.append(f"t={t}: dispatched job not in sequence")
            continue
        best = min(candidates)
        if chosen > best:
            problems.append(
                f"t={t}: dispatched {chosen} but {best} was ready")
    return problems
