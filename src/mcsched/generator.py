"""Random task-set and job-sequence generation.

Task sets are grown one task at a time until the average utilization
(U_L + U_H + sum of optimistic HC bandwidths) / 2 lands inside a target
band; overshooting discards the attempt and restarts.  Draws are realized
as integer ticks on a fixed resolution so that every period, WCET and
demand is an exact rational.

Reproducibility contract: the same ``GenParams`` (including seed) always
produce the same task set, and each restart attempt uses its own child
stream, so the draws of earlier attempts never leak into later ones.  A set
drawn by ``gen_taskset`` is the one ``numpy.random.Generator`` calls on the
attempts' ``SeedSequence`` streams would give, though ``gen_taskset`` mixes
attempt numbers into the root's pool and decodes the raw words itself, in one
integer loop; ``tests/test_generator.py`` pins both to the installed numpy.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat
from math import lcm
from typing import Sequence, Union

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

_PH = 0.5  # the probability that a task is HC
_CL_RANGE = (1, 10)  # the inclusive range of the optimistic execution C_L
_T_MAX = 200  # the inclusive upper bound of the period draw
_RESOLUTION = 100  # ticks per time unit
_MAX_RESTARTS = 10**6  # gen_taskset's attempt budget
_RC_MAX = _T_MAX // _CL_RANGE[1]  # the largest rc whose WCET draws fit a period of _T_MAX


def band_label(band: tuple[Fraction, Fraction]) -> str:
    return f"{float(band[1]):.2f}"


@dataclass(frozen=True)
class GenParams:
    """Knobs for task-set generation.

    The rest of the procedure is fixed by the module constants ``_PH``,
    ``_CL_RANGE``, ``_T_MAX``, ``_RESOLUTION`` and ``_MAX_RESTARTS``.

    Attributes:
        band: Target (lo, hi) range for the average utilization
            ``(U_L + U_H + sum over HC tasks of C_L / T) / 2``.  It bounds
            that average only, not U_L or U_H on its own.  hi must reach
            1/400, the average of one LC task with C = 1 and T = 200.
        rc: WCET inflation bound, an int in [1, 20]; HC full budgets draw
            from [C_L, rc * C_L], which a period of 200 always fits.
        seed: Root seed, a non-negative int; every restart attempt derives
            its own stream.
        inflate_lc: Also inflate LC WCETs by rc (sensitivity variant; the
            primary design keeps LC WCET equal to its optimistic draw).
    """

    band: tuple[Fraction, Fraction]
    rc: int = 3
    seed: int = 0
    inflate_lc: bool = False

    def __post_init__(self):
        lo = as_fraction(self.band[0], "band lo")
        hi = as_fraction(self.band[1], "band hi")
        if not 0 < lo < hi:
            raise ValueError(f"band must satisfy 0 < lo < hi, got lo={lo}, hi={hi}")
        least = Fraction(_CL_RANGE[0], 2 * _T_MAX)
        if hi < least:
            raise ValueError(f"band must reach {least}, the least average utilization "
                             f"of any task set, got lo={lo}, hi={hi}")
        object.__setattr__(self, "band", (lo, hi))
        if type(self.rc) is not int:
            raise TypeError(f"rc must be an int, got {self.rc!r}")
        if not 1 <= self.rc <= _RC_MAX:
            raise ValueError(f"rc must lie in [1, {_RC_MAX}], got {self.rc}")
        if not isinstance(self.seed, (int, np.integer)) or isinstance(self.seed, bool):
            raise TypeError(f"seed must be a non-negative int, got {self.seed!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative int, got {self.seed}")


RngLike = Union[int, np.random.SeedSequence, np.random.Generator]


_WORDS_PER_BATCH = 32
_TASK_WORDS = 4  # the most words one task's inline draws read
_DOUBLE_UNIT = 1.0 / 9007199254740992.0  # 2**-53
_U32 = 0xFFFFFFFF
_SPAN32 = 1 << 32  # the widest span a 32-bit Lemire draw covers
_U128 = (1 << 128) - 1
_ZERO = Fraction(0)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's 128-bit LCG multiplier
# numpy SeedSequence's pool size and hash constants
_POOL = 4
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _uint32_words(value) -> list[int]:
    """An int, or a nested sequence of ints, as SeedSequence's uint32 words."""
    if isinstance(value, (int, np.integer)):
        n = int(value)
        return [n >> s & _U32 for s in range(0, max(n.bit_length(), 1), 32)]
    return [w for v in value for w in _uint32_words(v)]


def _hash_keys(h: int, mult: int, n: int) -> list[tuple[int, int]]:
    """SeedSequence's next ``n`` hashes from hash constant ``h``, as their
    (xor key, multiplier) pairs."""
    hs = list(accumulate(repeat(mult, n), lambda h, m: h * m & _U32, initial=h))
    return list(zip(hs, hs[1:]))


# generate_state(4, uint64)'s eight hashes, each of one pool word
_STATE_KEYS = [(j % _POOL, key, mul) for j, (key, mul)
               in enumerate(_hash_keys(_INIT_B, _MULT_B, 2 * _POOL))]


def _bounded(size: int, m: int, words: list[int], i: int, half: int,
             bitgen: np.random.BitGenerator) -> tuple[int, int, int]:
    """Finish, as ``Generator.integers`` would, a 32-bit Lemire draw of
    ``size`` values: ``m`` is the half word taken times ``size``, ``i`` and
    ``half`` the word position and kept half after it.  A span of 1 gives
    the half back.  Returns the accepted product (the draw is its bits from
    32 up), ``i`` and ``half``."""
    if size == 1:
        # untake the half: the kept one (m, now spent), or a new word's low one
        return (0, i, m) if half < 0 else (0, i - 1, -1)
    while m & _U32 < (_SPAN32 - size) % size:
        if len(words) - i <= _TASK_WORDS:
            words += bitgen.random_raw(_WORDS_PER_BATCH).tolist()
        if half < 0:
            half, m = words[i] >> 32, (words[i] & _U32) * size
            i += 1
        else:
            half, m = -1, half * size
    return m, i, half


def _draw_ticks(params: GenParams, rng: np.random.Generator
                ) -> tuple[bool, int, int, int]:
    """One task's draws as ``(is_hc, C_L, C, T)`` in integer ticks."""
    is_hc = bool(rng.random() < _PH)
    cl = int(rng.integers(_CL_RANGE[0] * _RESOLUTION, _CL_RANGE[1] * _RESOLUTION,
                          endpoint=True))
    if is_hc or params.inflate_lc:
        c = int(rng.integers(cl, params.rc * cl, endpoint=True))
    else:
        c = cl
    t = int(rng.integers(c, _T_MAX * _RESOLUTION, endpoint=True))
    return is_hc, cl, c, t


def _task_of(ticks: tuple[bool, int, int, int], task_id: int) -> McTask:
    # the draws keep 0 < C_L <= C <= T
    is_hc, cl, c, t = ticks
    return McTask._from_valid(
        id=task_id,
        period=Fraction(t, _RESOLUTION),
        wcet=Fraction(c, _RESOLUTION),
        criticality=Criticality.HC if is_hc else Criticality.LC,
        alpha=_ZERO,
        lc_estimate=Fraction(cl, _RESOLUTION),
    )


def gen_task(params: GenParams, rng: RngLike, task_id: int = 1) -> McTask:
    """Draw one task: criticality, optimistic budget, WCET, period.

    A task is HC with probability ``_PH`` (1/2), C_L is uniform on
    ``_CL_RANGE`` ([1, 10]), an HC WCET (any WCET under ``inflate_lc``) on
    [C_L, rc * C_L], and a period on [C, ``_T_MAX``] ([C, 200]), all on
    ``_RESOLUTION`` (100) ticks per time unit.
    """
    return _task_of(_draw_ticks(params, np.random.default_rng(rng)), task_id)


def gen_taskset(params: GenParams,
                rng: int | np.random.SeedSequence | None = None) -> TaskSet:
    """Grow task sets until the average utilization lands in the band.

    Adding a task strictly increases the average utilization, so each
    attempt terminates; attempts that overshoot the band restart with a
    fresh child stream: a PCG64 on the seed sequence's spawn key extended
    by the attempt number, or on a ``(root, attempt)`` seed sequence for an
    int root (``None`` reads ``params.seed``).  Each task makes
    ``gen_task``'s ``Generator`` draws on that stream.  The running sum is
    kept as an exact integer ratio of ticks over the product of the
    periods, and tasks are built only for the attempt that lands.

    Raises:
        GenerationTimeout: after ``_MAX_RESTARTS`` (10**6) failed attempts.
    """
    return _grow(params, rng, range(_MAX_RESTARTS))


def _grow(params: GenParams, rng, attempts: Sequence[int]) -> TaskSet:
    """The set of the first of ``attempts`` that lands in the band.

    One loop runs each attempt: it seeds the call's PCG64 through its
    state, hashing the attempt number as SeedSequence would into the root's
    pool, mixed once by numpy, decodes each task's draws inline from raw
    words read ahead in batches, as ``Generator`` does (a double is a word's
    top 53 bits, a bounded draw Lemire's multiply-and-reject on 32-bit
    halves, low first and the high one kept), and runs the band test.
    """
    if isinstance(rng, np.random.SeedSequence):
        # a spawn key pads the run entropy to the pool size
        n = max(len(_uint32_words(rng.entropy)), _POOL) + len(_uint32_words(rng.spawn_key))
        if rng.pool_size != _POOL:  # attempts mix on pools of the default size
            rng = np.random.SeedSequence(rng.entropy, spawn_key=rng.spawn_key)
    else:  # numpy raises for a root it rejects
        root = params.seed if rng is None else rng
        rng, n = np.random.SeedSequence(root), len(_uint32_words(root))
    mixers = None
    if n >= _POOL:  # the n prefix words fill the pool; attempts mix in after
        # hashmix ran 4 times to fill the pool, 12 to cross-mix it, 4 per later word
        h = _INIT_A * pow(_MULT_A, 4 * n, _SPAN32) & _U32
        mixers = [(_MIX_L * b, key, mul)
                  for b, (key, mul) in zip(rng.pool.tolist(), _hash_keys(h, _MULT_A, _POOL))]
    # one PCG64 for every attempt, each setting its whole state
    bitgen = np.random.PCG64(0)
    state = bitgen.state
    pcg = state["state"]
    ph, rc, inflate = _PH, params.rc, params.inflate_lc
    cl_lo, cl_size = _CL_RANGE[0] * _RESOLUTION, (_CL_RANGE[1] - _CL_RANGE[0]) * _RESOLUTION + 1
    t_hi = _T_MAX * _RESOLUTION
    # 2*lo <= num/den <= 2*hi, cross-multiplied
    (lo_n, lo_d), (hi_n, hi_d) = ((2 * b.numerator, b.denominator) for b in params.band)
    for attempt in attempts:
        if mixers:
            pool = []
            for b, key, mul in mixers:
                v = (attempt ^ key) * mul & _U32
                r = (b - _MIX_R * (v ^ v >> 16)) & _U32
                pool.append(r ^ r >> 16)
        else:  # an int root of fewer than _POOL words
            pool = np.random.SeedSequence((root, attempt)).pool.tolist()
        # generate_state(4, uint64), then PCG64's seeding on its four words
        w = []
        for j, key, mul in _STATE_KEYS:
            v = (pool[j] ^ key) * mul & _U32
            w.append(v ^ v >> 16)
        inc = (w[4] << 65 | w[5] << 97 | w[6] << 1 | w[7] << 33 | 1) & _U128
        seed = w[0] << 64 | w[1] << 96 | w[2] | w[3] << 32
        pcg["state"], pcg["inc"] = (seed + inc) * _PCG_MULT + inc & _U128, inc
        bitgen.state = state
        words = bitgen.random_raw(_WORDS_PER_BATCH).tolist()
        i, half = 0, -1  # half < 0: no kept 32-bit half word
        # the tasks drawn, and U_L + U_H + sum of optimistic HC bandwidths as num / den
        drawn, num, den = [], 0, 1
        while True:
            if len(words) - i < _TASK_WORDS:
                words += bitgen.random_raw(_WORDS_PER_BATCH).tolist()
            is_hc = (words[i] >> 11) * _DOUBLE_UNIT < ph
            i += 1
            # C_L on cl_size ticks from cl_lo, C on [C_L, rc * C_L], T on [C, t_hi]
            if half < 0:
                half, m = words[i] >> 32, (words[i] & _U32) * cl_size
                i += 1
            else:
                half, m = -1, half * cl_size
            if m & _U32 < cl_size:
                m, i, half = _bounded(cl_size, m, words, i, half, bitgen)
            c = cl = cl_lo + (m >> 32)
            if is_hc or inflate:
                size = (rc - 1) * cl + 1
                if half < 0:
                    half, m = words[i] >> 32, (words[i] & _U32) * size
                    i += 1
                else:
                    half, m = -1, half * size
                if m & _U32 < size or size == 1:
                    m, i, half = _bounded(size, m, words, i, half, bitgen)
                c += m >> 32
            size = t_hi - c + 1
            if half < 0:
                half, m = words[i] >> 32, (words[i] & _U32) * size
                i += 1
            else:
                half, m = -1, half * size
            if m & _U32 < size or size == 1:
                m, i, half = _bounded(size, m, words, i, half, bitgen)
            t = c + (m >> 32)
            drawn.append((is_hc, cl, c, t))
            num = num * t + (c + cl if is_hc else c) * den
            den *= t
            if num * hi_d > hi_n * den:
                break
            if num * lo_d >= lo_n * den:
                return TaskSet(tuple(_task_of(d, n)
                                     for n, d in enumerate(drawn, start=1)))
    lo, hi = params.band
    raise GenerationTimeout(f"no task set hit band lo={lo}, hi={hi} in {len(attempts)} attempts")


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


def _release_ticks(ts: TaskSet, horizon: Fraction) -> tuple[int, list[tuple[int, int]]]:
    """Releases over ``[0, horizon)`` on one integer scale.

    Returns the scale ``D``, the lcm of the horizon's and the periods'
    denominators, and for each task in task-set order its period in ticks
    ``T * D`` and its release count ``ceil(H / T)`` (0 when ``H <= 0``).
    """
    scale = lcm(horizon.denominator, *(t.period.denominator for t in ts.tasks))
    h = horizon.numerator * (scale // horizon.denominator)
    out = []
    for t in ts.tasks:
        step = t.period.numerator * (scale // t.period.denominator)
        out.append((step, max(0, -(-h // step))))
    return scale, out


def gen_job_sequence(ts: TaskSet, horizon, demand_model: DemandModel,
                     rng: RngLike) -> tuple[Job, ...]:
    """Release synchronous, strictly periodic jobs for every task over
    ``[0, horizon)``.

    Task ``i`` releases ``ceil(horizon / T_i)`` jobs, at ``0, T_i, 2 T_i,
    ...``.  LC jobs demand their full WCET; HC jobs demand a scaled WCET
    according to ``demand_model``.  The HC tasks draw their scales in
    task-set order, one batch per task (``rng.random(n)`` for a grid,
    ``rng.integers(..., size=n)`` for a uniform model, nothing for a
    constant one), and each batch uses the stream exactly as ``n`` scalar
    draws would, so one stream yields a deterministic sequence.  Releases
    are computed in integer ticks on the lcm of the denominators.
    """
    horizon = as_fraction(horizon, "horizon")
    rng = np.random.default_rng(rng)
    scale, releases = _release_ticks(ts, horizon)
    # a grid scale is the first grid point whose CDF is at least u
    cdf = ([float(c) for c in demand_model.dist.cdf]
           if isinstance(demand_model, GridDemand) else None)
    keyed = []
    for task, (step, n) in zip(ts.tasks, releases):
        wcet = task.wcet
        if not task.is_hc:
            demands = [wcet] * n
        elif isinstance(demand_model, ConstantDemand):
            demands = [demand_model.scale * wcet] * n
        elif isinstance(demand_model, UniformDemand):
            num, den = wcet.numerator, 1000 * wcet.denominator
            ks = rng.integers(int(demand_model.lo * 1000), int(demand_model.hi * 1000),
                              size=n, endpoint=True)
            demands = [Fraction(k * num, den) for k in ks.tolist()]
        else:
            table = [g * wcet for g in demand_model.dist.grid]
            table.append(table[-1])  # u above every CDF value takes grid[-1]
            demands = [table[bisect_left(cdf, u)] for u in rng.random(n).tolist()]
        keyed.extend(zip(range(0, n * step, step), repeat(task.id), range(n), demands))
    # (ticks, task id, seq) is unique, so the sort never compares demands
    keyed.sort()
    jobs = []
    last, release = -1, None  # jobs released together share one Fraction
    for ticks, tid, seq, demand in keyed:
        if ticks != last:
            last, release = ticks, Fraction(ticks, scale)
        jobs.append(Job(tid, release, demand, seq))
    return tuple(jobs)
