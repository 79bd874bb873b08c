"""Random task-set and job-sequence generation.

Task sets are grown one task at a time until the average utilization
(U_L + U_H + sum of optimistic HC bandwidths) / 2 lands inside a target
band; overshooting discards the attempt and restarts.  Draws are realized
as integer ticks on a fixed resolution so that every period, WCET and
demand is an exact rational.

Reproducibility contract: the same ``GenParams`` (including seed) always
produce the same task set, and each restart attempt uses its own child
stream, so the draws of earlier attempts never leak into later ones.
``gen_taskset`` owns those attempt streams and discards them after the
attempt, so it reads their raw 64-bit PCG64 words in batches and decodes
them word by word exactly as ``numpy.random.Generator`` does: a set drawn
by ``gen_taskset`` is the one ``Generator`` calls on the same stream would
give.  ``tests/test_generator.py::test_draws_decode_like_generator`` pins
the decoder to the installed numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Union

import numpy as np

from .errors import GenerationTimeout, InputError
from .probability import BUILTIN_DISTRIBUTIONS, ExecDistribution
from .simulator import Job
from .taskmodel import Criticality, McTask, TaskSet, as_fraction

# Average-utilization bands used by the bundled experiments, keyed by their
# upper edge at width 0.01.
BANDS: tuple[tuple[Fraction, Fraction], ...] = tuple(
    (Fraction(hi, 100) - Fraction(1, 100), Fraction(hi, 100))
    for hi in (55, 60, 65, 70, 75)
)


def band_label(band: tuple[Fraction, Fraction]) -> str:
    return f"{float(band[1]):.2f}"


@dataclass(frozen=True)
class GenParams:
    """Knobs for task-set generation.

    Attributes:
        band: Target (lo, hi) range for the average utilization
            ``(U_L + U_H + sum over HC tasks of C_L / T) / 2``.  It bounds
            that average only, not U_L or U_H on its own.
        rc: WCET inflation bound; HC full budgets draw from
            [C_L, rc * C_L].
        ph: Probability that a task is high-criticality.
        cl_range: Range (inclusive) for the optimistic execution draw.
        t_max: Upper bound (inclusive) of the period draw; at least the
            largest WCET draw, since a period is never shorter than its WCET.
        seed: Root seed; every restart attempt derives its own stream.
        resolution: Ticks per time unit for all draws.
        max_restarts: Attempt budget before GenerationTimeout.
        inflate_lc: Also inflate LC WCETs by rc (sensitivity variant; the
            primary design keeps LC WCET equal to its optimistic draw).
    """

    band: tuple[Fraction, Fraction]
    rc: int = 3
    ph: float = 0.5
    cl_range: tuple[int, int] = (1, 10)
    t_max: int = 200
    seed: int = 0
    resolution: int = 100
    max_restarts: int = 10**6
    inflate_lc: bool = False

    def __post_init__(self):
        lo = as_fraction(self.band[0], "band lo")
        hi = as_fraction(self.band[1], "band hi")
        if not 0 < lo < hi:
            raise ValueError(f"band must satisfy 0 < lo < hi, got {self.band}")
        object.__setattr__(self, "band", (lo, hi))
        if self.rc < 1:
            raise ValueError(f"rc must be at least 1, got {self.rc}")
        if not 1 <= self.cl_range[0] <= self.cl_range[1]:
            raise ValueError(
                f"cl_range must satisfy 1 <= lo <= hi, got {self.cl_range}")
        if self.resolution < 1:
            raise ValueError(
                f"resolution must be at least 1, got {self.resolution}")
        inflated = self.ph > 0 or self.inflate_lc
        max_wcet = self.cl_range[1] * (self.rc if inflated else 1)
        if self.t_max < max_wcet:
            raise ValueError(
                f"t_max must be at least the largest WCET draw {max_wcet}, "
                f"got {self.t_max}")


RngLike = Union[int, np.random.SeedSequence, np.random.Generator]


_WORDS_PER_BATCH = 32
_U32 = 0xFFFFFFFF
_U64 = 0xFFFFFFFFFFFFFFFF


class _Draws:
    """``Generator.random`` and ``Generator.integers`` on a private PCG64.

    Raw words are read ahead in batches, so the bit generator is left past
    the draws made; only a stream that is discarded afterwards may be
    wrapped.  Decoding follows numpy's ``Generator``: a double is the top 53
    bits of a word; a bounded integer is Lemire's multiply-and-reject draw,
    on 32-bit halves (low half first, the high half kept for the next
    32-bit draw, as PCG64's ``next_uint32``) when the range fits in 32
    bits, and on whole words otherwise.
    """

    __slots__ = ("_bitgen", "_next", "_half")

    def __init__(self, bitgen: np.random.BitGenerator):
        self._bitgen = bitgen
        self._next = iter(()).__next__
        self._half: int | None = None

    def _word(self) -> int:
        try:
            return self._next()
        except StopIteration:
            batch = self._bitgen.random_raw(_WORDS_PER_BATCH).tolist()
            self._next = iter(batch).__next__
            return self._next()

    def _uint32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        word = self._word()
        self._half = word >> 32
        return word & _U32

    def random(self) -> float:
        return (self._word() >> 11) * (1.0 / 9007199254740992.0)

    def integers(self, low: int, high: int, endpoint: bool = False) -> int:
        # numpy's special cases for spans of 2**32 - 1 and 2**64 - 1 avoid
        # fixed-width overflow; on Python ints Lemire's draw gives the same
        span = high - low if endpoint else high - low - 1
        if 0 < span <= _U32:
            size = span + 1
            # _uint32 inlined: a generated task makes up to three such draws
            half = self._half
            if half is None:
                word = self._word()
                self._half = word >> 32
                m = (word & _U32) * size
            else:
                self._half = None
                m = half * size
            if m & _U32 < size:
                threshold = (_U32 + 1 - size) % size
                while m & _U32 < threshold:
                    m = self._uint32() * size
            return low + (m >> 32)
        if span > _U32:
            size = span + 1
            m = self._word() * size
            if m & _U64 < size:
                threshold = (_U64 + 1 - size) % size
                while m & _U64 < threshold:
                    m = self._word() * size
            return low + (m >> 64)
        if span < 0:
            raise ValueError("low > high")
        return low


def _draw_ticks(params: GenParams, rng: np.random.Generator | _Draws
                ) -> tuple[bool, int, int, int]:
    """One task's draws as ``(is_hc, C_L, C, T)`` in integer ticks."""
    res = params.resolution
    is_hc = bool(rng.random() < params.ph)
    cl = int(rng.integers(params.cl_range[0] * res, params.cl_range[1] * res,
                          endpoint=True))
    if is_hc or params.inflate_lc:
        c = int(rng.integers(cl, params.rc * cl, endpoint=True))
    else:
        c = cl
    t = int(rng.integers(c, params.t_max * res, endpoint=True))
    return is_hc, cl, c, t


def _task_of(params: GenParams, ticks: tuple[bool, int, int, int],
             task_id: int) -> McTask:
    is_hc, cl, c, t = ticks
    res = params.resolution
    return McTask(
        id=task_id,
        period=Fraction(t, res),
        wcet=Fraction(c, res),
        criticality=Criticality.HC if is_hc else Criticality.LC,
        alpha=Fraction(0),
        lc_estimate=Fraction(cl, res),
    )


def gen_task(params: GenParams, rng: RngLike, task_id: int = 1) -> McTask:
    """Draw one task: criticality, optimistic budget, WCET, period.

    The optimistic execution C_L is uniform on ``cl_range``; HC WCETs are
    uniform on [C_L, rc * C_L]; periods are uniform on [C, t_max].  All
    uniforms are discretized to ``resolution`` ticks.
    """
    return _task_of(params, _draw_ticks(params, np.random.default_rng(rng)), task_id)


def gen_taskset(params: GenParams,
                rng: int | np.random.SeedSequence | None = None) -> TaskSet:
    """Grow task sets until the average utilization lands in the band.

    Adding a task strictly increases the average utilization, so each
    attempt terminates; attempts that overshoot the band restart with a
    fresh child stream: a PCG64 on the seed sequence's spawn key extended
    by the attempt number, or on a ``(root, attempt)`` seed sequence for an
    int root (``None`` reads ``params.seed``).  The running sum is
    kept as an exact integer ratio of ticks, and tasks are built only for
    the attempt that lands.

    Raises:
        GenerationTimeout: after ``max_restarts`` failed attempts.
    """
    lo, hi = params.band
    # 2*lo <= num/den <= 2*hi, cross-multiplied
    lo_n, lo_d = 2 * lo.numerator, lo.denominator
    hi_n, hi_d = 2 * hi.numerator, hi.denominator
    for attempt in range(params.max_restarts):
        if isinstance(rng, np.random.SeedSequence):
            bitgen = np.random.PCG64(np.random.SeedSequence(
                entropy=rng.entropy, spawn_key=rng.spawn_key + (attempt,)))
        else:
            root = params.seed if rng is None else rng
            bitgen = np.random.PCG64(np.random.SeedSequence((root, attempt)))
        stream = _Draws(bitgen)
        drawn: list[tuple[bool, int, int, int]] = []
        # U_L + U_H + sum of optimistic HC bandwidths, as num / den
        num, den = 0, 1
        while True:
            ticks = _draw_ticks(params, stream)
            drawn.append(ticks)
            is_hc, cl, c, t = ticks
            num = num * t + (c + cl if is_hc else c) * den
            den *= t
            g = gcd(num, den)
            num //= g
            den //= g
            if num * hi_d > hi_n * den:
                break
            if num * lo_d >= lo_n * den:
                return TaskSet(tuple(_task_of(params, d, i)
                                     for i, d in enumerate(drawn, start=1)))
    raise GenerationTimeout(
        f"no task set hit band {params.band} in {params.max_restarts} attempts")


@dataclass(frozen=True)
class GridDemand:
    """HC demands are ``s * C_i`` with the scale drawn from a grid CDF."""

    dist: ExecDistribution = BUILTIN_DISTRIBUTIONS["table4"]


@dataclass(frozen=True)
class UniformDemand:
    """HC demand scales are uniform on [lo, hi], discretized to thousandths."""

    lo: Fraction = Fraction(1, 10)
    hi: Fraction = Fraction(1)

    def __post_init__(self):
        lo = as_fraction(self.lo, "lo")
        hi = as_fraction(self.hi, "hi")
        if not 0 < lo <= hi <= 1:
            raise ValueError(f"scale range must satisfy 0 < lo <= hi <= 1, got {lo}, {hi}")
        if (lo * 1000).denominator != 1 or (hi * 1000).denominator != 1:
            raise ValueError("lo and hi must be multiples of 1/1000")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)


@dataclass(frozen=True)
class ConstantDemand:
    """Every HC job demands exactly ``scale * C_i``."""

    scale: Fraction = Fraction(1)

    def __post_init__(self):
        s = as_fraction(self.scale, "scale")
        if not 0 < s <= 1:
            raise ValueError(f"scale must lie in (0, 1], got {s}")
        object.__setattr__(self, "scale", s)


DemandModel = Union[GridDemand, UniformDemand, ConstantDemand]


def _draw_scale(model: DemandModel, rng: np.random.Generator) -> Fraction:
    if isinstance(model, ConstantDemand):
        return model.scale
    if isinstance(model, UniformDemand):
        lo, hi = int(model.lo * 1000), int(model.hi * 1000)
        return Fraction(int(rng.integers(lo, hi, endpoint=True)), 1000)
    u = float(rng.random())
    for g, c in zip(model.dist.grid, model.dist.cdf):
        if u <= float(c):
            return g
    return model.dist.grid[-1]


def parse_demand_model(text: str) -> DemandModel:
    """Parse CLI syntax: ``grid``, ``uniform:LO:HI`` or ``constant:S``.

    Raises:
        InputError: for an unknown model or an out-of-range parameter.
    """
    parts = text.split(":")
    try:
        if parts[0] == "grid" and len(parts) == 1:
            return GridDemand()
        if parts[0] == "uniform" and len(parts) == 3:
            return UniformDemand(Fraction(parts[1]), Fraction(parts[2]))
        if parts[0] == "constant" and len(parts) == 2:
            return ConstantDemand(Fraction(parts[1]))
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"demand model {text!r}: {exc}") from None
    raise InputError(f"unknown demand model {text!r}; use grid, "
                     "uniform:LO:HI or constant:S")


def gen_job_sequence(ts: TaskSet, horizon, demand_model: DemandModel,
                     rng: RngLike) -> tuple[Job, ...]:
    """Release jobs for every task over [0, horizon).

    Releases start at 0 and step by the period.  LC jobs demand their full
    WCET; HC jobs demand a scaled WCET according to ``demand_model``.
    Tasks are processed in task-set order, so one stream yields a
    deterministic sequence.
    """
    horizon = as_fraction(horizon, "horizon")
    rng = np.random.default_rng(rng)
    jobs: list[Job] = []
    for task in ts.tasks:
        release = Fraction(0)
        seq = 0
        while release < horizon:
            if task.is_hc:
                demand = _draw_scale(demand_model, rng) * task.wcet
            else:
                demand = task.wcet
            jobs.append(Job(task.id, release, demand, seq))
            seq += 1
            release += task.period
    jobs.sort(key=lambda j: (j.release, j.task, j.seq))
    return tuple(jobs)
