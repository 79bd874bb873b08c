"""Deterministic discrete-event simulation of dual-criticality EDF policies.

Every policy runs in one preemptive uniprocessor event loop and states two
rules, nothing else:

* ``hc_budgets(ts)``: ``None`` takes HC budgets from a shared pool
  (:mod:`mcsched.meba`), otherwise a fixed ``{task id: budget}`` dict.
* ``lc_cap(task)``: the execution an LC job keeps once the system degrades.

In the nominal mode a task runs against the virtual deadline ``r + x * T``
unless its LC cap is 0, and an LC job falls back to its original deadline
once it has executed its cap.  Each nominal-mode dispatch grants an HC job
its budget (a missing id gets 0); a job that exhausts it, at once if the
grant is no more than it has run, degrades the system until the processor
idles: pending jobs fall back to their original deadlines and LC jobs are
cut to their caps, so a zero cap drops them and refuses their releases.
``EdfUvdMeba`` (pool budgets, caps ``alpha_i * C_i``) is the design under
study; ``FixedBudget`` swaps the pool for a constant vector to isolate the
allocation policy's effect on the degradation instant; ``EdfVdStatic`` is
the EDF-VD baseline (Baruah et al., ECRTS 2012) with ``lc_estimate``
budgets and zero caps.

Ties between equal effective deadlines are broken by (task id, job sequence
number).  A processor idle instant ends the busy interval and returns the
system to the nominal mode in every policy.  All event times are exact
rationals, so traces are reproducible bit for bit.
"""

from __future__ import annotations

import csv
import enum
import io
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import lcm
from typing import Callable, Iterable, Mapping, Sequence, Union

from .errors import BudgetSumViolation, InputError, InvalidFraction, InvalidJobSequence
from .meba import MebaState, Mode
from .taskmodel import (
    McTask,
    TaskSet,
    Time,
    as_fraction,
    read_text,
    utilizations,
)
from .analysis import map_to_static, static_split


class EventKind(enum.Enum):
    DISPATCH = "dispatch"
    PREEMPT = "preempt"
    COMPLETE = "complete"
    DEADLINE_CHANGE = "deadline_change"
    MODE_SWITCH = "mode_switch"
    IDLE = "idle"
    DROP = "drop"


_CLOSES = (EventKind.PREEMPT, EventKind.COMPLETE, EventKind.DROP)


@dataclass(frozen=True)
class Job:
    """One released job: task id, release instant, execution demand, index."""

    task: int
    release: Time
    demand: Time
    seq: int


def make_jobs(entries: Iterable[tuple]) -> tuple[Job, ...]:
    """Build a job tuple from (task, release, demand) triples.

    Sequence numbers are assigned per task in release order.
    """
    counters: dict[int, int] = {}
    jobs = []
    for task, release, demand in sorted(
        ((t, as_fraction(r, "release"), as_fraction(d, "demand")) for t, r, d in entries),
        key=lambda e: (e[1], e[0]),
    ):
        seq = counters.get(task, 0)
        counters[task] = seq + 1
        jobs.append(Job(task, release, demand, seq))
    return tuple(jobs)


@dataclass(frozen=True)
class TraceEvent:
    """One scheduling event; ``snapshot`` carries execution maxima at a switch."""

    time: Time
    kind: EventKind
    task: int | None = None
    job: int | None = None
    detail: str = ""
    snapshot: tuple[tuple[int, Time], ...] | None = None


@dataclass(frozen=True)
class EdfUvdMeba:
    """HC budgets from a pool of ``beta_star * U_H``; LC caps ``alpha * C``."""

    beta_star: Fraction

    def __post_init__(self):
        object.__setattr__(self, "beta_star", as_fraction(self.beta_star, "beta_star"))

    def hc_budgets(self, ts: TaskSet) -> None:
        return None

    def lc_cap(self, task: McTask) -> Time:
        return task.degraded_service


@dataclass(frozen=True)
class EdfVdStatic:
    """EDF-VD: HC budgets are the ``lc_estimate`` values; no degraded LC service."""

    def hc_budgets(self, ts: TaskSet) -> dict[int, Time]:
        for t in ts.hc_tasks:
            if t.lc_estimate is None:
                raise ValueError(f"static policy needs lc_estimate on HC task {t.id}")
        return {t.id: t.lc_estimate for t in ts.hc_tasks}

    def lc_cap(self, task: McTask) -> Time:
        return Fraction(0)


@dataclass(frozen=True)
class FixedBudget:
    """A constant per-job HC budget vector (non-negative, HC ids only); LC caps ``alpha * C``."""

    budgets: tuple[tuple[int, Time], ...]

    def __init__(self, budgets):
        if isinstance(budgets, Mapping):
            budgets = budgets.items()
        items = tuple(sorted((int(k), as_fraction(v, "budget")) for k, v in budgets))
        object.__setattr__(self, "budgets", items)

    def hc_budgets(self, ts: TaskSet) -> dict[int, Time]:
        hc_ids = {t.id for t in ts.hc_tasks}
        for tid, budget in self.budgets:
            if tid not in hc_ids:
                raise ValueError(f"budget names task {tid}, which is not an HC task")
            if budget < 0:
                raise ValueError(f"task {tid}: budget must be non-negative, got {budget}")
        return dict(self.budgets)

    def lc_cap(self, task: McTask) -> Time:
        return task.degraded_service


Policy = Union[EdfUvdMeba, EdfVdStatic, FixedBudget]


@dataclass(frozen=True)
class SimConfig:
    """Simulation parameters.

    ``x`` is the virtual deadline factor; for the dynamic policy it should
    lie inside the admissible window reported by the analysis for the
    guarantee to hold (not enforced here so that counterexamples can be
    simulated too).  ``horizon`` bounds verification, not the run itself.
    """

    policy: Policy
    x: Fraction
    horizon: Time | None = None

    def __post_init__(self):
        x = as_fraction(self.x, "x")
        if not 0 < x <= 1:
            raise InvalidFraction(f"x must lie in (0, 1], got {x}")
        object.__setattr__(self, "x", x)
        if self.horizon is not None:
            object.__setattr__(self, "horizon", as_fraction(self.horizon, "horizon"))


@dataclass(frozen=True)
class ScheduleTrace:
    """Event list plus the job sequence it was produced from."""

    events: tuple[TraceEvent, ...]
    jobs: tuple[Job, ...]

    def service_segments(self) -> dict[tuple[int, int], list[tuple[Time, Time]]]:
        """Per-job execution segments [(start, end), ...], zero-length removed.

        Events naming a job that is not in ``jobs`` are skipped; the EDF
        audit reports their dispatches.
        """
        open_at: dict[tuple[int, int], Time] = {}
        segs: dict[tuple[int, int], list[tuple[Time, Time]]] = {
            (j.task, j.seq): [] for j in self.jobs
        }
        for ev in self.events:
            key = (ev.task, ev.job)
            if key not in segs:
                continue
            if ev.kind is EventKind.DISPATCH:
                open_at[key] = ev.time
            elif ev.kind in _CLOSES:
                start = open_at.pop(key, None)
                if start is not None and ev.time > start:
                    segs[key].append((start, ev.time))
        return segs


def mode_switch_instant(trace: ScheduleTrace) -> Time | None:
    """Time of the first degradation in the trace, or None."""
    for ev in trace.events:
        if ev.kind is EventKind.MODE_SWITCH:
            return ev.time
    return None


def validate_jobs(ts: TaskSet, jobs: Sequence[Job]) -> None:
    """Check sporadic separation and demand bounds.

    Raises:
        InvalidJobSequence: on unknown task ids, non-positive or excessive
            demands, or consecutive releases closer than the task period.
    """
    tasks = {t.id: t for t in ts.tasks}
    last: dict[int, Job] = {}
    for job in sorted(jobs, key=lambda j: (j.release, j.task, j.seq)):
        task = tasks.get(job.task)
        if task is None:
            raise InvalidJobSequence(f"job references unknown task {job.task}")
        if not 0 < job.demand <= task.wcet:
            raise InvalidJobSequence(
                f"task {job.task} job {job.seq}: demand {job.demand} outside (0, {task.wcet}]")
        if job.release < 0:
            raise InvalidJobSequence(f"task {job.task} job {job.seq}: negative release")
        prev = last.get(job.task)
        if prev is not None and job.release - prev.release < task.period:
            raise InvalidJobSequence(f"task {job.task}: releases {prev.release} and "
                                     f"{job.release} closer than T={task.period}")
        if job.seq != (0 if prev is None else prev.seq + 1):
            raise InvalidJobSequence("job sequence numbers must count releases from 0")
        last[job.task] = job


class _Run:
    """Mutable per-job execution state inside the simulator."""

    __slots__ = ("job", "task", "deadline", "eff", "consumed", "limit", "cap", "until")

    def __init__(self, job: Job, task: McTask, cap: Time | None):
        self.job = job
        self.task = task
        self.deadline = job.release + task.period
        self.eff = self.deadline
        self.consumed = Fraction(0)
        self.limit = job.demand
        self.cap = cap
        self.until: Time | None = None  # the consumption that fires a nominal rule


def _prio(run: _Run) -> tuple:
    return (run.eff, run.task.id, run.job.seq)


def simulate(ts: TaskSet, cfg: SimConfig, jobs: Sequence[Job], *,
             stop_after_switch: bool = False) -> ScheduleTrace:
    """Run one policy over a job sequence and return the event trace.

    The run always executes every job to its service limit (there is no
    horizon cutoff), so traces from overloaded scenarios terminate too.

    Events at one instant come in this order: the finished step's
    ``COMPLETE`` or ``DROP``, or its ``MODE_SWITCH`` followed by the
    ``DROP``s of the LC jobs it cuts, or its ``DEADLINE_CHANGE``; then the
    admissions at that instant in (release, task, seq) order, with a
    ``DROP`` for an LC release with a zero cap while degraded; then
    ``IDLE`` if nothing is ready; then ``PREEMPT`` and ``DISPATCH``; and
    last, for a grant at or below the job's consumption, a ``MODE_SWITCH``
    at the same instant.  A job's nominal-mode threshold (an HC job's
    grant, which degrades the system, or an LC job's cap below its demand,
    which moves it to its real deadline) fires before a release at the
    same instant, and not at all if the job completes there.

    Args:
        ts: Task set; the policy derives the LC caps and HC budgets from it.
        cfg: Policy, deadline factor and optional verification horizon.
        jobs: Released jobs; validated for sporadic separation first.
        stop_after_switch: Stop right after the first degradation (used by
            callers that only need the switch instant).

    Raises:
        InvalidJobSequence: from :func:`validate_jobs`.
        ValueError: if the static policy misses an ``lc_estimate``.
    """
    ordered = tuple(sorted(jobs, key=lambda j: (j.release, j.task, j.seq)))
    validate_jobs(ts, ordered)
    tasks = {t.id: t for t in ts.tasks}
    policy = cfg.policy
    x = cfg.x
    caps = {t.id: policy.lc_cap(t) for t in ts.lc_tasks}
    budgets = policy.hc_budgets(ts)
    meba = MebaState.for_taskset(ts, policy.beta_star) if budgets is None else None

    events: list[TraceEvent] = []
    mode = Mode.LC
    ready: list[_Run] = []
    running: _Run | None = None
    busy = False
    i = 0
    now = ordered[0].release if ordered else Fraction(0)

    def emit(kind, t, run: _Run | None = None, detail: str = "", snapshot=None):
        events.append(TraceEvent(
            t, kind,
            run.task.id if run is not None else None,
            run.job.seq if run is not None else None,
            detail, snapshot))

    def cut(run: _Run) -> bool:
        """The degraded LC rule: drop a job that has had its cap, else cap it."""
        if run.consumed >= run.cap:
            emit(EventKind.DROP, now, run, detail=f"served={run.consumed}")
            return False
        run.limit = min(run.limit, run.cap)
        return True

    def admit(job: Job):
        task = tasks[job.task]
        run = _Run(job, task, caps.get(task.id))
        if mode is Mode.HC:
            if task.is_lc and not cut(run):
                return
        elif task.is_hc or run.cap > 0:
            run.eff = job.release + x * task.period
            if task.is_lc and run.cap < job.demand:
                run.until = run.cap
        ready.append(run)

    def degrade(trigger: _Run):
        nonlocal mode
        snapshot = None if meba is None else meba.on_budget_exhausted(trigger.task.id)
        emit(EventKind.MODE_SWITCH, now, trigger,
             detail=f"trigger={trigger.task.id}", snapshot=snapshot)
        mode = Mode.HC
        for run in list(ready):
            run.eff = run.deadline
            if run.task.is_lc and not cut(run):
                ready.remove(run)

    while True:
        while i < len(ordered) and ordered[i].release == now:
            admit(ordered[i])
            i += 1
        if stop_after_switch and mode is Mode.HC:
            break
        nxt = min(ready, key=_prio) if ready else None
        if nxt is None:
            if busy:
                emit(EventKind.IDLE, now)
                busy = False
                if meba is not None:
                    meba.on_idle()
                mode = Mode.LC
            if i >= len(ordered):
                break
            now = ordered[i].release
            continue
        busy = True
        if nxt is not running:
            if running is not None:
                emit(EventKind.PREEMPT, now, running)
                if meba is not None and mode is Mode.LC and running.task.is_hc:
                    meba.on_preempt_or_complete(running.task.id, running.consumed)
            running = nxt
            emit(EventKind.DISPATCH, now, running)
            if mode is Mode.LC and running.task.is_hc:
                grant = (budgets.get(running.task.id, Fraction(0)) if meba is None
                         else meba.on_dispatch(running.task.id))
                # A grant at or below the consumption degrades at ``now`` below.
                running.until = max(grant, running.consumed)

        rem = running.limit - running.consumed
        t_next = now + rem
        action = "finish"
        if mode is Mode.LC and running.until is not None:
            t_until = now + (running.until - running.consumed)
            if t_until < t_next:
                t_next, action = t_until, "degrade" if running.task.is_hc else "demote"
        if i < len(ordered) and ordered[i].release < t_next:
            t_next, action = ordered[i].release, "release"

        running.consumed += t_next - now
        now = t_next
        if action == "finish":
            if running.consumed == running.job.demand:
                emit(EventKind.COMPLETE, now, running)
            else:
                emit(EventKind.DROP, now, running, detail=f"served={running.consumed}")
            if meba is not None and mode is Mode.LC and running.task.is_hc:
                meba.on_preempt_or_complete(running.task.id, running.consumed)
            ready.remove(running)
            running = None
        elif action == "degrade":
            degrade(running)
        elif action == "demote":
            running.until = None
            running.eff = running.deadline
            emit(EventKind.DEADLINE_CHANGE, now, running,
                 detail=f"deadline={running.deadline}")
        # "release" falls through; the loop head admits it.

    return ScheduleTrace(tuple(events), ordered)


@dataclass(frozen=True)
class Violation:
    task: int
    seq: int
    deadline: Time
    required: Time
    received: Time
    reason: str


def _time_base(ts: TaskSet, trace: ScheduleTrace, extra: Iterable[Time] = ()
               ) -> tuple[int, Callable[[Time], int], list[int], list[int],
                          Callable[[int], bool]]:
    """One audit's exact integer time base, derived from its own inputs.

    The scale ``S`` is the lcm of the denominators of every event time, job
    release and demand, task period and ``extra`` value, so each of them is
    exactly ``t.numerator * (S // t.denominator)`` ticks.  Returns ``S``,
    that conversion, the event times in ticks, the sorted switch instants
    in ticks, and ``degraded_at(tick)``: whether the last mode change (a
    switch to HC, an idle back to LC) at or before ``tick`` is a switch.
    It bisects running maxima of the change times, so it finds the changes
    that a scan from the start of the trace finds, even where times
    decrease.
    """
    events = trace.events
    stamps = [ev.time.as_integer_ratio() for ev in events]
    dens = {d for _, d in stamps}
    dens.update(j.release.denominator for j in trace.jobs)
    dens.update(j.demand.denominator for j in trace.jobs)
    dens.update(t.period.denominator for t in ts.tasks)
    dens.update(v.denominator for v in extra)
    scale = lcm(*dens)
    per_tick = {d: scale // d for d in dens}

    def ticks(t: Time) -> int:
        n, d = t.as_integer_ratio()
        return n * per_tick[d]

    times = [n * per_tick[d] for n, d in stamps]
    switch, idle = EventKind.MODE_SWITCH, EventKind.IDLE
    changes = [(t, ev.kind is switch) for t, ev in zip(times, events)
               if ev.kind is switch or ev.kind is idle]
    change_at = list(accumulate((t for t, _ in changes), max))

    def degraded_at(tick: int) -> bool:
        k = bisect_right(change_at, tick)
        return k > 0 and changes[k - 1][1]

    return scale, ticks, times, sorted(t for t, to_hc in changes if to_hc), degraded_at


def verify_mc_schedulable(ts: TaskSet, cfg: SimConfig, trace: ScheduleTrace
                          ) -> tuple[bool, list[Violation]]:
    """Check the dual-criticality service obligations against a trace.

    For every job with a deadline inside the horizon:

    * HC jobs must receive their full demand by the deadline.
    * LC jobs untouched by degradation must receive their full demand by
      the deadline.
    * LC jobs hit by a degradation (one fires inside their release-to-
      deadline window, or they are released while the system is already
      degraded) owe only ``min(demand, alpha_i * C_i)``.

    The audit runs on integer ticks (:func:`_time_base`): its scale covers
    the trace, the jobs, the periods, each LC task's ``alpha_i * C_i`` and
    the horizon.  One pass over the events sums each job's service up to
    its deadline; both degradation tests bisect the switch and idle
    instants, so the audit costs O(events + jobs log events).  Each
    reported deadline, requirement and service is rebuilt as the exact
    ``Fraction(ticks, S)``.  An empty trace is vacuously schedulable.
    Returns (ok, violations).
    """
    tasks = {t.id: t for t in ts.tasks}
    caps = {t.id: t.alpha * t.wcet for t in ts.lc_tasks}
    horizon = cfg.horizon
    extra = [*caps.values(), *(() if horizon is None else (horizon,))]
    scale, ticks, times, switches, degraded_at = _time_base(ts, trace, extra)
    periods = {t.id: ticks(t.period) for t in ts.tasks}
    deadlines = {(j.task, j.seq): ticks(j.release) + periods[j.task] for j in trace.jobs}

    # Service by the deadline in trace order; as in served_by of the test
    # oracles, a job's first segment starting at or after it ends the count.
    served = dict.fromkeys(deadlines, 0)
    counted_out: set[tuple[int, int]] = set()
    open_at: dict[tuple[int, int], int] = {}
    for t, ev in zip(times, trace.events):
        key = (ev.task, ev.job)
        if key not in served:
            continue
        if ev.kind is EventKind.DISPATCH:
            open_at[key] = t
        elif ev.kind in _CLOSES:
            start = open_at.pop(key, None)
            if start is None or t <= start or key in counted_out:
                continue
            deadline = deadlines[key]
            if start >= deadline:
                counted_out.add(key)
            else:
                served[key] += min(t, deadline) - start

    limit = None if horizon is None else ticks(horizon)
    violations: list[Violation] = []
    for job in trace.jobs:
        task = tasks[job.task]
        key = (job.task, job.seq)
        deadline = deadlines[key]
        if limit is not None and deadline > limit:
            continue
        required = ticks(job.demand)
        if task.is_hc:
            reason = "hc_full_service"
        else:
            release = ticks(job.release)
            k = bisect_left(switches, release)
            if (k < len(switches) and switches[k] <= deadline) or degraded_at(release):
                required = min(required, ticks(caps[job.task]))
                reason = "lc_degraded_service"
            else:
                reason = "lc_nominal_service"
        got = served[key]
        if got < required:
            violations.append(Violation(
                job.task, job.seq, Fraction(deadline, scale),
                Fraction(required, scale), Fraction(got, scale), reason))
    return (not violations), violations


def pool_utilization_violations(ts: TaskSet, beta_star, trace: ScheduleTrace
                                ) -> list[str]:
    """Replay a dynamic-policy trace and audit the budget pool accounting.

    Independent of :class:`MebaState`: per-task execution maxima are
    rebuilt from the trace's dispatch and close events alone.  Within each
    busy interval, at every event instant up to a degradation the maxima
    utilization must stay at or below ``beta_star * U_H``; at the
    degradation instant it must equal the pool exactly and the triggering
    job must be incomplete.

    One forward pass, O(events), on integer ticks (:func:`_time_base`, a
    scale over the trace, the jobs and the periods).  It keeps each job's
    service in the current busy interval, each HC task's maximum over
    closed segments, and the one open segment, which counts ``consumed +
    (t - start)`` for its job at an event at time ``t``.  The maxima
    utilization, the sum of ``max / T``, is one integer over ``L``, the
    lcm of the HC periods in ticks, and is compared with the pool by
    cross-multiplying.  An IDLE event resets all of it.  A segment still
    open when the trace ends (a ``stop_after_switch`` run) therefore
    counts too.  A reported utilization is rebuilt as the exact
    ``Fraction(total, L)``.

    Trace contract, as :func:`simulate` emits it: event times never
    decrease, and a job is dispatched only while no other job's segment is
    open.  A trace that breaks either gets one problem line saying so, and
    the audit stops there.

    Returns a list of human-readable discrepancies (empty = clean).
    """
    beta = as_fraction(beta_star, "beta_star")
    _, u_h = utilizations(ts)
    pool = beta * u_h
    scale, ticks, times, _, _ = _time_base(ts, trace)
    periods = {t.id: ticks(t.period) for t in ts.hc_tasks}
    scale_l = lcm(*periods.values())
    weights = {tid: scale_l // p for tid, p in periods.items()}
    # total / L > pool  <=>  total * pool.denominator > pool.numerator * L
    pool_den, pool_num = pool.denominator, pool.numerator * scale_l
    demands = {(j.task, j.seq): j.demand for j in trace.jobs}
    problems: list[str] = []
    served: dict[tuple[int, int], int] = {}
    maxima: dict[int, int] = {}
    maxima_sum = 0
    open_key: tuple[int, int] | None = None
    open_start = 0
    switched = False
    last = times[0] if times else 0
    for t, ev in zip(times, trace.events):
        if t < last:
            problems.append(f"t={ev.time}: event time decreases after "
                            f"t={Fraction(last, scale)}; pool audit stopped")
            return problems
        last = t
        kind = ev.kind
        if kind is EventKind.IDLE:
            served.clear()
            maxima.clear()
            maxima_sum = 0
            open_key = None
            switched = False
            continue
        key = (ev.task, ev.job)
        if kind is EventKind.DISPATCH:
            if open_key is not None and open_key != key:
                problems.append(
                    f"t={ev.time}: task {ev.task} job {ev.job} dispatched while task "
                    f"{open_key[0]} job {open_key[1]} still runs; pool audit stopped")
                return problems
            open_key, open_start = key, t
        elif kind in _CLOSES and key == open_key:
            done = served.get(key, 0) + (t - open_start)
            served[key] = done
            open_key = None
            weight = weights.get(ev.task)
            if weight is not None:
                old = maxima.get(ev.task, 0)
                if done > old:
                    maxima[ev.task] = done
                    maxima_sum += (done - old) * weight
        if switched:
            continue
        total = maxima_sum
        if open_key is not None and open_key[0] in weights:
            tid = open_key[0]
            running = served.get(open_key, 0) + (t - open_start)
            old = maxima.get(tid, 0)
            if running > old:
                total += (running - old) * weights[tid]
        if kind is EventKind.MODE_SWITCH:
            if total * pool_den != pool_num:
                problems.append(f"t*={ev.time}: maxima utilization "
                                f"{Fraction(total, scale_l)} != pool {pool}")
            if key in demands:
                done = served.get(key, 0)
                if key == open_key:
                    done += t - open_start
                if done >= ticks(demands[key]):
                    problems.append(f"t*={ev.time}: triggering job already complete")
            switched = True
        elif total * pool_den > pool_num:
            problems.append(f"t={ev.time}: maxima utilization "
                            f"{Fraction(total, scale_l)} > pool {pool}")
    return problems


def edf_dispatch_violations(ts: TaskSet, cfg: SimConfig, trace: ScheduleTrace
                            ) -> list[str]:
    """Check that every dispatch picked a minimal effective deadline.

    Effective deadlines are reconstructed from the trace alone (admission
    rules, deadline-change events and the degradation instant), so this is
    an independent audit of the scheduler's priority order.

    The audit runs on integer ticks (:func:`_time_base`): its scale covers
    the trace, the jobs, the periods and each ``x * T``.  A pre-scan
    records each job's close (complete or drop) and deadline change; a
    close listed after a dispatch at the same instant still counts as
    closed there.  Then one forward pass admits each job at its release
    with its real deadline and its nominal-mode key (the virtual deadline,
    or the real one for a zero LC cap or a release while degraded), and
    keeps the released, unclosed jobs in a list.  Each dispatch drops the
    jobs closed by then and compares the chosen job's ``(effective
    deadline, task, seq)`` with the least such key among the live jobs.
    The effective deadline is the real one while degraded or once the
    job's deadline change has passed, and the nominal key otherwise.  The
    audit costs O(events + dispatches * live jobs), the factor
    :func:`simulate` pays per step.  The deadlines in a reported key are
    rebuilt as exact ``Fraction(ticks, S)``s.

    Trace contract, as :func:`simulate` emits it: event times never
    decrease.  A trace that breaks it gets one problem line saying so, and
    the audit stops there.
    """
    # read from the policy's declared rule, never from scheduler state
    zero_cap = {t.id for t in ts.lc_tasks if cfg.policy.lc_cap(t) == 0}
    x_periods = {t.id: cfg.x * t.period for t in ts.tasks}
    scale, ticks, times, _, degraded_at = _time_base(ts, trace, x_periods.values())
    periods = {t.id: ticks(t.period) for t in ts.tasks}
    virtual = {tid: ticks(v) for tid, v in x_periods.items()}
    closed_at: dict[tuple[int, int], int] = {}
    demote_at: dict[tuple[int, int], int] = {}
    for t, ev in zip(times, trace.events):
        if ev.task is None:
            continue
        kind = ev.kind
        if kind is EventKind.COMPLETE or kind is EventKind.DROP:
            closed_at[(ev.task, ev.job)] = t
        elif kind is EventKind.DEADLINE_CHANGE:
            demote_at[(ev.task, ev.job)] = t

    pending = sorted((ticks(j.release), j.task, j.seq) for j in trace.jobs)
    keys: dict[tuple[int, int], tuple[tuple, tuple]] = {}  # (real, nominal)
    live: list[tuple[int, int]] = []
    admitted = 0
    problems = []
    last = times[0] if times else 0
    for t, ev in zip(times, trace.events):
        if t < last:
            problems.append(f"t={ev.time}: event time decreases after "
                            f"t={Fraction(last, scale)}; EDF audit stopped")
            return problems
        last = t
        if ev.kind is not EventKind.DISPATCH:
            continue
        while admitted < len(pending) and pending[admitted][0] <= t:
            release, tid, seq = pending[admitted]
            admitted += 1
            real = (release + periods[tid], tid, seq)
            if tid in zero_cap or degraded_at(release):
                keys[(tid, seq)] = (real, real)
            else:
                keys[(tid, seq)] = (real, (release + virtual[tid], tid, seq))
            live.append((tid, seq))
        key = (ev.task, ev.job)
        if key not in keys:
            problems.append(f"t={ev.time}: dispatched job not in sequence")
            continue
        degraded = degraded_at(t)
        later = t + 1
        real, chosen = keys[key]
        if degraded or demote_at.get(key, later) <= t:
            chosen = real
        live = [k for k in live if closed_at.get(k, later) > t]
        best = None
        for k in live:
            real, entry = keys[k]
            if degraded or demote_at.get(k, later) <= t:
                entry = real
            if best is None or entry < best:
                best = entry
        if best is not None and chosen > best:
            problems.append(
                f"t={ev.time}: dispatched {(Fraction(chosen[0], scale),) + key} "
                f"but {(Fraction(best[0], scale),) + best[1:]} was ready")
    return problems


def check_lemma2_optimality(ts: TaskSet, beta_star, jobs: Sequence[Job],
                            budget_vectors: Sequence[Mapping[int, Time]], *,
                            x: Fraction) -> bool:
    """Compare the dynamic allocation against fixed feasible budget vectors.

    Every vector must reserve at most the pool: sum(B_i / T_i) <= beta_star
    * U_H.  For each one, the fixed-budget run must degrade no later than
    the dynamic run does (treating "never" as +infinity).

    Returns:
        True iff the dynamic policy's degradation instant is maximal.

    Raises:
        BudgetSumViolation: if a vector over-reserves the pool.
    """
    beta = as_fraction(beta_star, "beta_star")
    _, u_h = utilizations(ts)
    pool = beta * u_h
    hc_ids = {t.id for t in ts.hc_tasks}
    for vec in budget_vectors:
        total = Fraction(0)
        for tid, b in vec.items():
            if tid not in hc_ids:
                raise BudgetSumViolation(f"budget names non-HC task {tid}")
            total += as_fraction(b, "budget") / ts.task(tid).period
        if total > pool:
            raise BudgetSumViolation(f"vector utilization {total} > pool {pool}")

    cfg = SimConfig(EdfUvdMeba(beta), x)
    t_dyn = mode_switch_instant(simulate(ts, cfg, jobs, stop_after_switch=True))
    for vec in budget_vectors:
        fixed_cfg = SimConfig(FixedBudget(vec), x)
        t_fix = mode_switch_instant(simulate(ts, fixed_cfg, jobs, stop_after_switch=True))
        if t_dyn is None:
            continue  # +infinity dominates everything
        if t_fix is None or t_fix > t_dyn:
            return False
    return True


def _occupancy(trace: ScheduleTrace, until: Time | None, origin: Callable[[int], int]
               ) -> dict[int, tuple[tuple[Time, Time], ...]]:
    """Merged busy segments per ``origin(task id)``, truncated at ``until``."""
    per_task: dict[int, list[tuple[Time, Time]]] = {}
    for (task_id, _seq), segments in trace.service_segments().items():
        for s, e in segments:
            if until is not None:
                if s >= until:
                    continue
                e = min(e, until)
            if e > s:
                per_task.setdefault(origin(task_id), []).append((s, e))
    merged: dict[int, tuple[tuple[Time, Time], ...]] = {}
    for key, segments in per_task.items():
        segments.sort()
        out = [segments[0]]
        for s, e in segments[1:]:
            ls, le = out[-1]
            if s <= le:
                out[-1] = (ls, max(le, e))
            else:
                out.append((s, e))
        merged[key] = tuple(out)
    return merged


def map_jobs_to_static(ts: TaskSet, jobs: Sequence[Job], t_star: Time | None
                       ) -> tuple[Job, ...]:
    """Split a job sequence along the static task derivation.

    Each job's demand is split by :func:`mcsched.analysis.static_split`:
    the head goes to the derived task ``2 * task`` and the remainder to
    ``2 * task + 1``.  A job released at or after the degradation only
    keeps its head.  Zero-demand parts are omitted and sequence numbers are
    renumbered per derived task, as :func:`make_jobs` numbers them.
    """
    tasks = {t.id: t for t in ts.tasks}
    entries: list[tuple[int, Time, Time]] = []
    for job in jobs:
        parts = static_split(tasks[job.task], job.demand)
        if t_star is not None and job.release >= t_star:
            parts = parts[:1]
        entries.extend((tid, job.release, amount) for tid, amount in parts if amount > 0)
    return make_jobs(entries)


def check_mapping_equivalence(ts: TaskSet, alphas, x, jobs: Sequence[Job], *,
                              beta_star) -> bool:
    """Validate the reduction of the dynamic system to a static one.

    Runs the dynamic policy with the LC fractions ``alphas`` (None keeps the
    set's own), snapshots the execution maxima at its first degradation,
    derives the static task set via :func:`mcsched.analysis.map_to_static`,
    splits each job along the derivation and replays the identical scenario
    under the static policy.  Equivalence requires the same degradation
    instant and identical per-original-task busy segments (static task
    ``k`` belongs to task ``k // 2``) up to the end of the busy interval
    containing the switch (the static budgets are a snapshot of that
    interval, so later intervals are allowed to diverge).  Runs without a
    degradation are compared over the whole trace, with each HC task's
    largest job demand as its budget.
    """
    ts_dyn = ts.with_alphas(dict(alphas)) if alphas is not None else ts
    trace_dyn = simulate(ts_dyn, SimConfig(EdfUvdMeba(beta_star), x), jobs)
    switch_ev = next((ev for ev in trace_dyn.events
                      if ev.kind is EventKind.MODE_SWITCH), None)
    if switch_ev is not None:
        t_star = switch_ev.time
        e_m = dict(switch_ev.snapshot)
    else:
        # Every job completed, so each HC task's largest demand is a sound budget.
        t_star = None
        e_m = {t.id: max((j.demand for j in trace_dyn.jobs if j.task == t.id),
                         default=Fraction(0)) for t in ts_dyn.hc_tasks}

    mapped_jobs = map_jobs_to_static(ts_dyn, trace_dyn.jobs, t_star)
    trace_static = simulate(map_to_static(ts_dyn, e_m), SimConfig(EdfVdStatic(), x),
                            mapped_jobs)
    if mode_switch_instant(trace_static) != t_star:
        return False

    until = None
    if t_star is not None:
        until = next((ev.time for ev in trace_dyn.events
                      if ev.kind is EventKind.IDLE and ev.time >= t_star), None)
    return (_occupancy(trace_dyn, until, lambda tid: tid)
            == _occupancy(trace_static, until, lambda tid: tid // 2))


def load_jobs_csv(path) -> tuple[Job, ...]:
    """Read jobs from CSV columns ``task,release,demand``.

    Blank lines and lines starting with ``#`` are skipped; an error names
    its line as numbered in the file, comments included.

    Raises:
        InputError: if a column is missing, or a row does not parse or has
            another number of fields than the header.
    """
    lines = enumerate(io.StringIO(read_text(path), newline=""), start=1)
    rows = [(no, raw.rstrip("\r\n"), row) for no, raw in lines
            if not raw.startswith("#") for row in csv.reader([raw]) if row]
    header = rows[0][2] if rows else []
    missing = [c for c in ("task", "release", "demand") if c not in header]
    if missing:
        raise InputError(f"missing column(s) {', '.join(missing)}")
    entries = []
    for no, text, row in rows[1:]:
        if len(row) != len(header):
            raise InputError(f"line {no}: expected {len(header)} fields, got {text!r}")
        fields = dict(zip(header, row))
        try:
            entries.append((int(fields["task"]), Fraction(fields["release"]),
                            Fraction(fields["demand"])))
        except (ValueError, ZeroDivisionError):
            raise InputError(f"line {no}: bad job row {text!r}") from None
    return make_jobs(entries)


def save_jobs_csv(jobs: Sequence[Job], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["task", "release", "demand"])
        for job in jobs:
            writer.writerow([job.task, str(job.release), str(job.demand)])


def save_trace_csv(trace: ScheduleTrace, path) -> None:
    """Write events to CSV columns ``time,event,task,job,detail``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "event", "task", "job", "detail"])
        for ev in trace.events:
            detail = ev.detail
            if ev.snapshot is not None:
                packed = ",".join(f"{tid}:{val}" for tid, val in ev.snapshot)
                detail = f"{detail};e_m={packed}" if detail else f"e_m={packed}"
            writer.writerow([
                str(ev.time), ev.kind.value,
                "" if ev.task is None else ev.task,
                "" if ev.job is None else ev.job,
                detail,
            ])
