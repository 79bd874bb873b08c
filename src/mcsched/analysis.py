"""Offline schedulability analysis and service-level optimization.

The dual-criticality system accepts a pair of service levels: ``alpha_star``
(the utilization-weighted LC service fraction honoured in the degraded mode)
and ``beta_star`` (the share of HC utilization bankrolled while the system is
still nominal).  A pair is admissible when

    (1 - alpha_star) * (1 - beta_star) >= M,   M = (U_H + U_L - 1) / (U_L * U_H)

and the virtual deadline factor ``x`` can be chosen inside a closed interval
derived from the two classic virtual-deadline feasibility conditions.  All
predicates are evaluated in exact rational arithmetic; only the weighted
system-utilization objective is a float.

The degraded dynamic system reduces to a static one: :func:`static_split`
splits a task's WCET here and a job's demand in the simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .errors import BudgetExceedsWcet, Infeasible, InvalidFraction, NoLcTasks
from .taskmodel import (
    Criticality,
    McTask,
    TaskSet,
    Time,
    as_fraction,
    unit_fraction,
    utilizations,
)

# Reported lower bound of the x window is floored at this value so that a
# schedulable verdict always carries a usable x > 0 even when the exact lower
# bound degenerates to zero.
X_EPSILON = Fraction(1, 10**9)

# Weighted-utilization comparisons tolerate this much float noise.
SU_SLACK = 1e-9


@dataclass(frozen=True)
class SchedVerdict:
    """Outcome of the service-level schedulability test.

    Attributes:
        schedulable: True when the pair of service levels is admissible.
        x_lo: Smallest admissible virtual deadline factor (already floored
            at ``X_EPSILON``); 0 marks an empty window.
        x_hi: Largest admissible factor, clamped to 1; 0 marks an empty window.
        M: The criticality trade-off threshold, or None when one criticality
            class is empty and the threshold is undefined.
    """

    schedulable: bool
    x_lo: Fraction
    x_hi: Fraction
    M: Fraction | None


def threshold_m(ts: TaskSet) -> Fraction | None:
    """Return M = (U_H + U_L - 1)/(U_L * U_H), or None if a class is empty."""
    u_l, u_h = utilizations(ts)
    if u_l == 0 or u_h == 0:
        return None
    # with U_L = a/b and U_H = c/d, M = (cb + ad - bd) / (ac), one Fraction
    a, b, c, d = u_l.numerator, u_l.denominator, u_h.numerator, u_h.denominator
    return Fraction(c * b + a * d - b * d, a * c)


def theorem1_test(ts: TaskSet, alpha_star, beta_star) -> SchedVerdict:
    """Decide whether a service-level pair is admissible and report the x window.

    Args:
        ts: The task set under analysis.
        alpha_star: System LC service level in [0, 1].
        beta_star: Nominal-mode HC bandwidth scale in [0, 1].

    Returns:
        A :class:`SchedVerdict`.  When ``schedulable`` the window satisfies
        0 < x_lo <= x_hi <= 1 and any x inside it gives zero deadline misses
        under the dynamic policy.

    Raises:
        InvalidFraction: if either level lies outside [0, 1].
    """
    a = unit_fraction(alpha_star, "alpha_star")
    b = unit_fraction(beta_star, "beta_star")
    u_l, u_h = utilizations(ts)
    m = threshold_m(ts)
    if m is None:
        # Single-class system: plain EDF feasibility, x unconstrained.
        ok = u_l + u_h <= 1
        if ok:
            return SchedVerdict(True, X_EPSILON, Fraction(1), None)
        return SchedVerdict(False, Fraction(0), Fraction(0), None)

    trade_ok = (1 - a) * (1 - b) >= m

    d_lo = 1 - u_l * (1 - a)
    if d_lo <= 0:
        # The full-service LC share alone saturates the nominal mode.
        return SchedVerdict(False, Fraction(0), Fraction(0), m)
    lower = (b * u_h + a * u_l) / d_lo

    d_hi = (1 - a) * u_l
    if d_hi == 0:
        # alpha_star = 1 leaves no LC work behind original deadlines in the
        # degraded mode; the upper bound is vacuous when that mode fits.
        upper = Fraction(1) if u_h + a * u_l <= 1 else Fraction(0)
    else:
        upper = (1 - u_h - a * u_l) / d_hi

    x_lo = max(lower, X_EPSILON)
    x_hi = min(upper, Fraction(1))
    ok = trade_ok and x_lo <= x_hi
    if not ok:
        return SchedVerdict(False, x_lo if x_lo <= x_hi else Fraction(0),
                            x_hi if x_lo <= x_hi else Fraction(0), m)
    return SchedVerdict(True, x_lo, x_hi, m)


def default_x(verdict: SchedVerdict) -> Fraction:
    """The canonical deadline factor for a schedulable verdict: its x_lo."""
    if not verdict.schedulable:
        raise Infeasible("no admissible x for an unschedulable verdict")
    return verdict.x_lo


def _max_level(ts: TaskSet, other, name: str) -> Fraction:
    """Largest admissible service level when the other is fixed at ``other``.

    The trade-off (1 - alpha_star) * (1 - beta_star) >= M is symmetric: 1
    when M <= 0 (slack), otherwise clamp(1 - M / (1 - other), 0, 1).

    Raises:
        Infeasible: when M > 0 and ``other`` is 1 (no slack left).
    """
    level = unit_fraction(other, name)
    m = threshold_m(ts)
    if m is None:
        u_l, u_h = utilizations(ts)
        return Fraction(1) if u_l + u_h <= 1 else Fraction(0)
    if m <= 0:
        return Fraction(1)
    if level == 1:
        raise Infeasible(f"{name} = 1 leaves no slack when M > 0")
    return min(Fraction(1), max(Fraction(0), 1 - m / (1 - level)))


def max_alpha_given_beta(ts: TaskSet, beta_star) -> Fraction:
    """Largest admissible alpha_star for a fixed beta_star (see :func:`_max_level`)."""
    return _max_level(ts, beta_star, "beta_star")


def max_beta_given_alpha(ts: TaskSet, alpha_star) -> Fraction:
    """Largest admissible beta_star for a fixed alpha_star (see :func:`_max_level`)."""
    return _max_level(ts, alpha_star, "alpha_star")


def su_levels(ts: TaskSet, alpha_star, beta_star) -> tuple[Fraction, Fraction]:
    """Per-mode system utilizations delivered by a service-level pair.

    Returns:
        (SU_L, SU_H) where SU_L = beta_star * U_H + U_L is the nominal-mode
        utilization and SU_H = alpha_star * U_L + U_H the degraded-mode one.
    """
    a = unit_fraction(alpha_star, "alpha_star")
    b = unit_fraction(beta_star, "beta_star")
    u_l, u_h = utilizations(ts)
    return b * u_h + u_l, a * u_l + u_h


def total_system_utilization(ts: TaskSet, w: float, beta_star) -> float:
    """Weighted system utilization w * SU_L + (1 - w) * SU_H for a beta choice.

    The LC service level is set to the largest value admissible at the
    exact ``beta_star``.  ``w`` expresses how much the nominal mode is worth
    relative to the degraded mode and may be any float in [0, 1].

    Raises:
        Infeasible: when M > 0 and beta_star exceeds 1 - M (no admissible
            alpha_star exists).
    """
    if not 0.0 <= w <= 1.0:
        raise InvalidFraction(f"w must lie in [0, 1], got {w}")
    b = unit_fraction(beta_star, "beta_star")
    u_l, u_h = utilizations(ts)
    m = threshold_m(ts)
    if m is None or m <= 0:
        # alpha_star saturates at 1 regardless of beta.
        return w * float(b * u_h + u_l) + (1.0 - w) * float(u_l + u_h)
    if float(b) > float(1 - m) + SU_SLACK:
        raise Infeasible(f"beta_star {b} exceeds 1 - M = {1 - m}")
    return (
        float(u_h) * (1.0 - w)
        + float(u_l)
        + float(u_h) * w * float(b)
        - float(u_l) * (1.0 - w) * float(m) / (1.0 - float(b))
    )


def optimal_beta_for_su(ts: TaskSet, w: float) -> float:
    """The beta_star that maximizes the weighted system utilization.

    Closed form: for M > 0 and 0 < w < 1 the objective is concave in beta
    with the interior optimum 1 - sqrt(M * (1 - w) * U_L / (w * U_H)),
    clamped into [0, 1 - M].  For w = 0 any beta spends bandwidth the
    objective never rewards, so 0; for w = 1 the degraded mode has no weight
    and the cap 1 - M is optimal.  When M <= 0 the trade-off is slack and
    beta = 1 dominates.
    """
    if not 0.0 <= w <= 1.0:
        raise InvalidFraction(f"w must lie in [0, 1], got {w}")
    u_l, u_h = utilizations(ts)
    m = threshold_m(ts)
    if m is None or m <= 0:
        return 1.0
    cap = float(1 - m)
    if cap <= 0.0:
        return 0.0
    if w == 0.0:
        return 0.0
    if w == 1.0:
        return cap
    inner = 1.0 - math.sqrt(float(m) * (1.0 - w) * float(u_l) / (w * float(u_h)))
    return max(0.0, min(cap, inner))


def static_model_su(ts: TaskSet, w: float) -> float:
    """Weighted system utilization of the static baseline design.

    The baseline fixes nominal HC budgets offline at the largest uniform
    scale the classic virtual-deadline test still admits at full LC service,
    which evaluates to

        SU(w) = w * U_L + w * (1 - U_L) * (1 - U_H) / U_L + (1 - w) * U_H.

    Raises:
        NoLcTasks: if the set has no LC tasks (the baseline divides by U_L).
    """
    if not 0.0 <= w <= 1.0:
        raise InvalidFraction(f"w must lie in [0, 1], got {w}")
    u_l, u_h = utilizations(ts)
    if u_l == 0:
        raise NoLcTasks("static baseline utilization needs LC tasks")
    return (
        w * float(u_l)
        + w * float((1 - u_l) * (1 - u_h)) / float(u_l)
        + (1.0 - w) * float(u_h)
    )


def static_split(task: McTask, amount: Time) -> tuple[tuple[int, Time], tuple[int, Time]]:
    """Split ``amount`` of a task's execution along the static reduction.

    The head ``min(amount, degraded_service)`` belongs to the derived HC
    task ``2 * id`` and the rest to the derived LC task ``2 * id + 1``, so
    an HC task keeps all of it on ``2 * id`` and an LC task keeps at most
    ``alpha * C`` there.  The derived ids preserve the tie-break order.
    """
    head = min(amount, task.degraded_service)
    return (2 * task.id, head), (2 * task.id + 1, amount - head)


def map_to_static(ts: TaskSet, e_m: Mapping[int, Time]) -> TaskSet:
    """Re-express the dynamic system as a static dual-criticality task set.

    Each task's WCET is split by :func:`static_split`.  An LC task's head
    becomes an HC task whose optimistic budget equals its WCET, and its
    remainder an LC task; an HC task keeps its WCET and adopts its recorded
    execution maximum ``e_m[id]`` (missing = 0) as the optimistic budget.
    Parts with zero execution are omitted.

    Raises:
        BudgetExceedsWcet: if some e_m[i] exceeds the task's WCET.
    """
    out: list[McTask] = []
    for t in ts.tasks:
        (head_id, head), (rest_id, rest) = static_split(t, t.wcet)
        estimate = head if t.is_lc else as_fraction(e_m.get(t.id, Fraction(0)), "e_m")
        if estimate > t.wcet:
            raise BudgetExceedsWcet(
                f"task {t.id}: execution maximum {estimate} exceeds wcet {t.wcet}")
        if head > 0:
            out.append(McTask(head_id, t.period, head, Criticality.HC, lc_estimate=estimate))
        if rest > 0:
            out.append(McTask(rest_id, t.period, rest, Criticality.LC))
    return TaskSet(tuple(out))
