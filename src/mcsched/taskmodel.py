"""Task model for dual-criticality sporadic task systems on one processor.

Every task is an implicit-deadline sporadic task and carries a criticality
level: high-criticality (HC) tasks must always receive their full execution
demand, while low-criticality (LC) tasks are guaranteed full service only in
the nominal mode and a per-task fraction ``alpha`` of their WCET once the
system degrades.

All times and utilizations are exact :class:`fractions.Fraction` values so
that deadline comparisons and budget arithmetic stay decidable.  Floating
point is reserved for probabilities and weighted-utilization objectives in
the analysis layer.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping

from .errors import InputError, InvalidFraction, NoLcTasks, TaskSetParseError

Time = Fraction

TASKSET_HEADER = "taskset v1"


def as_fraction(value, what: str = "value") -> Fraction:
    """Coerce ``value`` to an exact Fraction.

    Accepts int, Fraction, Decimal and numeric strings such as ``"3/4"`` or
    ``"0.25"``.  Floats are rejected: binary floats silently misrepresent
    decimal literals, and exactness is load-bearing for every scheduling
    comparison in this package.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool) or isinstance(value, float):
        raise TypeError(f"{what} must be exact (int, Fraction or string), got {value!r}")
    try:
        return Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise TypeError(f"{what} is not a rational number: {value!r}") from exc


def unit_fraction(value, what: str = "value") -> Fraction:
    """Coerce to a Fraction and require it to lie in [0, 1]."""
    frac = as_fraction(value, what)
    if not 0 <= frac.numerator <= frac.denominator:
        raise InvalidFraction(f"{what} must lie in [0, 1], got {frac}")
    return frac


class Criticality(enum.Enum):
    LC = "LC"
    HC = "HC"


@dataclass(frozen=True)
class McTask:
    """One sporadic task.

    Attributes:
        id: Integer identifier, unique within a task set.  Ties in the
            scheduler are broken by this id, so it doubles as a priority
            fingerprint for otherwise equal deadlines.
        period: Minimum inter-release separation T; also the relative deadline.
        wcet: Worst-case execution time C (full-service demand bound).
        criticality: ``Criticality.LC`` or ``Criticality.HC``.
        alpha: For LC tasks, the fraction of ``wcet`` still guaranteed after
            the system leaves the nominal mode.  Ignored for HC tasks.
        lc_estimate: Optional optimistic execution estimate (at most ``wcet``)
            used by the static baseline policy and by task-set generators.
    """

    id: int
    period: Time
    wcet: Time
    criticality: Criticality
    alpha: Fraction = Fraction(0)
    lc_estimate: Time | None = None

    def __post_init__(self):
        period = as_fraction(self.period, "period")
        wcet = as_fraction(self.wcet, "wcet")
        object.__setattr__(self, "period", period)
        object.__setattr__(self, "wcet", wcet)
        object.__setattr__(self, "alpha", unit_fraction(self.alpha, "alpha"))
        est = self.lc_estimate
        if est is not None:
            est = as_fraction(est, "lc_estimate")
            object.__setattr__(self, "lc_estimate", est)
        # cross-multiplied: every denominator is positive
        if period.numerator <= 0:
            raise ValueError(f"task {self.id}: period must be positive, got {period}")
        if not 0 < wcet.numerator * period.denominator <= period.numerator * wcet.denominator:
            raise ValueError(
                f"task {self.id}: wcet must satisfy 0 < C <= T, got C={wcet} T={period}"
            )
        if est is not None and not (
                0 <= est.numerator * wcet.denominator <= wcet.numerator * est.denominator):
            raise ValueError(
                f"task {self.id}: lc_estimate must satisfy 0 <= CL <= C, got {est}"
            )

    @property
    def utilization(self) -> Fraction:
        return self.wcet / self.period

    @property
    def is_hc(self) -> bool:
        return self.criticality is Criticality.HC

    @property
    def is_lc(self) -> bool:
        return self.criticality is Criticality.LC

    @property
    def degraded_service(self) -> Time:
        """Execution guaranteed per job once the system degrades.

        HC tasks keep their full WCET; LC tasks fall back to ``alpha * wcet``.
        """
        if self.is_hc:
            return self.wcet
        return self.alpha * self.wcet

    def with_alpha(self, alpha) -> "McTask":
        # only alpha changes, so only alpha is checked
        return self._from_valid(
            id=self.id, period=self.period, wcet=self.wcet, criticality=self.criticality,
            alpha=unit_fraction(alpha, "alpha"), lc_estimate=self.lc_estimate)

    @classmethod
    def _from_valid(cls, **fields) -> "McTask":
        """A task on fields that already are what ``__post_init__`` makes
        and checks (Fractions in range); it runs no check."""
        task = object.__new__(cls)
        # set as the dataclass __init__ sets them: a task whose __dict__ was
        # touched reads its attributes about 10% slower
        for name, value in fields.items():
            object.__setattr__(task, name, value)
        return task


@dataclass(frozen=True)
class TaskSet:
    """An immutable collection of tasks with unique ids."""

    tasks: tuple[McTask, ...]

    def __post_init__(self):
        object.__setattr__(self, "tasks", tuple(self.tasks))
        seen = set()
        for t in self.tasks:
            if t.id in seen:
                raise ValueError(f"duplicate task id {t.id}")
            seen.add(t.id)

    def task(self, task_id: int) -> McTask:
        for t in self.tasks:
            if t.id == task_id:
                return t
        raise KeyError(f"no task with id {task_id}")

    @cached_property
    def _utilizations(self) -> tuple[Fraction, Fraction]:
        # a set never changes, so each of its class sums is computed once
        return (_ratio_sum((t.wcet, t.period) for t in self.tasks if t.is_lc),
                _ratio_sum((t.wcet, t.period) for t in self.tasks if t.is_hc))

    @property
    def lc_tasks(self) -> tuple[McTask, ...]:
        return tuple(t for t in self.tasks if t.is_lc)

    @property
    def hc_tasks(self) -> tuple[McTask, ...]:
        return tuple(t for t in self.tasks if t.is_hc)

    def with_alphas(self, alphas: Mapping[int, Fraction]) -> "TaskSet":
        """Return a copy with ``alpha`` replaced on every LC task listed."""
        out = []
        for t in self.tasks:
            if t.is_lc and t.id in alphas:
                out.append(t.with_alpha(alphas[t.id]))
            else:
                out.append(t)
        copy = TaskSet(tuple(out))
        # alphas change neither class sum
        copy.__dict__["_utilizations"] = self._utilizations
        return copy


def _ratio_sum(terms: Iterable[tuple[Fraction, Fraction]]) -> Fraction:
    """Exact sum of the quotients ``a / b`` (all ``b > 0``) as one Fraction.

    The sum is kept as an integer ratio over the running lcm of the
    denominators, so only the result is normalized into a Fraction.
    """
    num, den = 0, 1
    for a, b in terms:
        n, d = a.numerator * b.denominator, a.denominator * b.numerator
        g = gcd(den, d)
        num = num * (d // g) + n * (den // g)
        den = den // g * d
    return Fraction(num, den)


def utilizations(ts: TaskSet) -> tuple[Fraction, Fraction]:
    """Return (U_L, U_H), the per-class utilization sums."""
    return ts._utilizations


def alpha_star_from_per_task(ts: TaskSet) -> Fraction:
    """Aggregate per-task LC service fractions into the system level.

    alpha_star = sum(alpha_i * u_i) / U_L over LC tasks.

    Raises:
        NoLcTasks: if the set has no LC tasks (U_L = 0).
    """
    lc = ts.lc_tasks
    if not lc:
        raise NoLcTasks("alpha_star is undefined without LC tasks")
    u_l = sum((t.utilization for t in lc), Fraction(0))
    weighted = sum((t.alpha * t.utilization for t in lc), Fraction(0))
    return weighted / u_l


def beta_star_from_lc_estimates(ts: TaskSet) -> Fraction:
    """Derive beta_star from optimistic HC execution estimates.

    beta_star = (sum of lc_estimate_i / T_i over HC tasks) / U_H, i.e. the
    fraction of the HC utilization that the optimistic estimates occupy.

    Raises:
        ValueError: if the set has no HC tasks or an HC task lacks an estimate.
    """
    hc = ts.hc_tasks
    if not hc:
        raise ValueError("beta_star from estimates needs HC tasks")
    for t in hc:
        if t.lc_estimate is None:
            raise ValueError(f"task {t.id} has no lc_estimate")
    _, u_h = utilizations(ts)
    return _ratio_sum((t.lc_estimate, t.period) for t in hc) / u_h


def distribute_hc_budget_equal(ts: TaskSet, alpha_star) -> dict[int, Fraction]:
    """Split the degraded-mode LC bandwidth equally across LC tasks.

    Each LC task nominally receives the same bandwidth share
    ``alpha_star * U_L / n``, which translates into a per-task fraction
    ``alpha_i = share / u_i``.  Shares that would push ``alpha_i`` above 1 are
    clamped to 1 and the slack is redistributed among the remaining tasks
    until a fixpoint, so the aggregate ``sum(alpha_i * u_i)`` equals
    ``alpha_star * U_L`` exactly.

    Returns:
        dict mapping LC task id to its alpha_i.

    Raises:
        NoLcTasks: if the set has no LC tasks.
        InvalidFraction: if alpha_star lies outside [0, 1].
    """
    a_star = unit_fraction(alpha_star, "alpha_star")
    lc = ts.lc_tasks
    if not lc:
        raise NoLcTasks("cannot distribute LC service without LC tasks")
    open_tasks = {t.id: t.utilization for t in lc}
    remaining = a_star * utilizations(ts)[0]
    result: dict[int, Fraction] = {}
    while open_tasks:
        share = remaining / len(open_tasks)
        clamped = [tid for tid, u in open_tasks.items() if share > u]
        if not clamped:
            for tid, u in open_tasks.items():
                result[tid] = share / u
            break
        for tid in clamped:
            result[tid] = Fraction(1)
            remaining -= open_tasks.pop(tid)
    return result


def format_taskset(ts: TaskSet) -> str:
    """Serialize a task set to the line-oriented ``taskset v1`` format.

    Each task occupies one line: ``id T C crit [alpha] [CL]``.  Rationals are
    written as ``p/q`` (or a bare integer).  The alpha column is always
    emitted when a CL column is present, to keep the fields positional.
    """
    lines = [TASKSET_HEADER]
    for t in ts.tasks:
        fields = [str(t.id), str(t.period), str(t.wcet), t.criticality.value]
        if t.lc_estimate is not None:
            fields.append(str(t.alpha))
            fields.append(str(t.lc_estimate))
        elif t.alpha != 0:
            fields.append(str(t.alpha))
        lines.append(" ".join(fields))
    return "\n".join(lines) + "\n"


def parse_taskset(text: str) -> TaskSet:
    """Parse the ``taskset v1`` format produced by :func:`format_taskset`.

    Raises:
        TaskSetParseError: with the 1-based line number of the first
            malformed line.
    """
    lines = text.splitlines()
    if not lines or lines[0].strip() != TASKSET_HEADER:
        raise TaskSetParseError(1, f"expected header {TASKSET_HEADER!r}")
    tasks = []
    for no, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if not 4 <= len(fields) <= 6:
            raise TaskSetParseError(no, f"expected 4-6 fields, got {len(fields)}")
        try:
            tid = int(fields[0])
        except ValueError:
            raise TaskSetParseError(no, f"bad task id {fields[0]!r}") from None
        try:
            period = Fraction(fields[1])
            wcet = Fraction(fields[2])
        except (ValueError, ZeroDivisionError):
            raise TaskSetParseError(no, "bad rational in T or C column") from None
        crit_txt = fields[3].upper()
        if crit_txt not in ("LC", "HC"):
            raise TaskSetParseError(no, f"criticality must be LC or HC, got {fields[3]!r}")
        alpha = Fraction(0)
        estimate = None
        try:
            if len(fields) >= 5:
                alpha = Fraction(fields[4])
            if len(fields) == 6:
                estimate = Fraction(fields[5])
        except (ValueError, ZeroDivisionError):
            raise TaskSetParseError(no, "bad rational in alpha or CL column") from None
        try:
            tasks.append(
                McTask(tid, period, wcet, Criticality(crit_txt), alpha, estimate)
            )
        except (ValueError, InvalidFraction) as exc:
            raise TaskSetParseError(no, str(exc)) from None
    try:
        return TaskSet(tuple(tasks))
    except ValueError as exc:
        raise TaskSetParseError(len(lines), str(exc)) from None


def read_text(path) -> str:
    """A UTF-8 input file's text; undecodable bytes are an :class:`InputError`
    (which, like the parse errors, leaves naming the file to the caller)."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise InputError(f"not UTF-8 text ({exc.reason})") from None


def load_taskset(path) -> TaskSet:
    return parse_taskset(read_text(path))


def save_taskset(ts: TaskSet, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_taskset(ts))
