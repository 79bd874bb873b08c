"""Runtime budget allocation for HC tasks in the nominal mode.

A single bandwidth pool ``beta_star * U_H`` is reserved for all HC tasks
while the system is nominal.  Instead of fixing per-task shares offline, the
pool is redistributed at every HC dispatch using the largest execution any
job of each HC task has exhibited in the current busy interval: tasks that
historically needed little leave more headroom for the job about to run.  A
job that exhausts its budget without completing forces the degraded mode; an
idle instant resets the bookkeeping and returns the system to nominal.
"""

from __future__ import annotations

import enum
from fractions import Fraction

from .errors import BudgetOverrun, WrongMode
from .taskmodel import TaskSet, Time, unit_fraction, utilizations


class Mode(enum.Enum):
    LC = "LC"
    HC = "HC"


class MebaState:
    """Mutable budget state for one busy interval.

    Attributes:
        mode: Current system mode.
        beta_budget: The reserved bandwidth pool beta_star * U_H.
        e_m: Per-HC-task execution maxima observed in this busy interval.
        b: Budget granted to each HC task at its latest dispatch.
    """

    __slots__ = ("mode", "beta_budget", "e_m", "b", "_periods")

    def __init__(self, periods: dict[int, Time], beta_budget: Fraction):
        self.mode = Mode.LC
        self.beta_budget = beta_budget
        self._periods = dict(periods)
        self.e_m: dict[int, Time] = {tid: Fraction(0) for tid in periods}
        self.b: dict[int, Time] = {tid: Fraction(0) for tid in periods}

    @classmethod
    def for_taskset(cls, ts: TaskSet, beta_star) -> "MebaState":
        beta = unit_fraction(beta_star, "beta_star")
        _, u_h = utilizations(ts)
        periods = {t.id: t.period for t in ts.hc_tasks}
        return cls(periods, beta * u_h)

    def utilization_of_maxima(self) -> Fraction:
        """sum(e_m[i] / T_i); stays at or below ``beta_budget`` while nominal."""
        return sum((self.e_m[tid] / self._periods[tid] for tid in self.e_m), Fraction(0))

    def on_dispatch(self, task_id: int) -> Time:
        """Grant the dispatched HC task everything the others have not claimed.

        b_i = T_i * (beta_budget - sum over j != i of e_m[j] / T_j), floored
        at zero.  The grant is at least e_m[i] whenever the maxima fit the
        pool, so a job never sees less budget than the longest execution its
        task already exhibited.

        Raises:
            WrongMode: if invoked while the system is degraded.
        """
        if self.mode is not Mode.LC:
            raise WrongMode("budgets are only granted in the nominal mode")
        others = sum(
            (self.e_m[tid] / self._periods[tid] for tid in self.e_m if tid != task_id),
            Fraction(0),
        )
        grant = self._periods[task_id] * (self.beta_budget - others)
        if grant < 0:
            # Inconsistent caller setup; degrade-leaning choice is a zero grant.
            grant = Fraction(0)
        self.b[task_id] = grant
        return grant

    def on_budget_exhausted(self, task_id: int) -> tuple[tuple[int, Time], ...]:
        """Degrade the system; returns the ``(task id, maximum)`` pairs by id.

        The triggering job has consumed exactly ``b[task_id]`` without
        completing; folding that amount into ``e_m`` makes the maxima exhaust
        the pool exactly at the switch instant.

        Raises:
            WrongMode: if the system is already degraded.
        """
        if self.mode is not Mode.LC:
            raise WrongMode("cannot degrade twice in one busy interval")
        self.e_m[task_id] = max(self.e_m[task_id], self.b[task_id])
        self.mode = Mode.HC
        return tuple(sorted(self.e_m.items()))

    def on_preempt_or_complete(self, task_id: int, e_consumed: Time) -> None:
        """Fold a job's cumulative consumption into its task's maximum.

        Args:
            e_consumed: Total execution the job has received so far; must not
                exceed the task's current budget.

        Raises:
            BudgetOverrun: if the job consumed past its budget without the
                exhaustion hook having fired.
        """
        if e_consumed > self.b[task_id]:
            raise BudgetOverrun(
                f"task {task_id} consumed {e_consumed} > budget {self.b[task_id]}")
        if e_consumed > self.e_m[task_id]:
            self.e_m[task_id] = e_consumed

    def on_idle(self) -> None:
        """Close the busy interval: forget maxima and return to nominal.

        Idempotent; calling it in either mode leaves a fresh nominal state.
        """
        self.mode = Mode.LC
        for tid in self.e_m:
            self.e_m[tid] = Fraction(0)
            self.b[tid] = Fraction(0)
