"""Test-only oracles for :func:`mcsched.generator.gen_taskset`.

Two references the fused restart loop must agree with, set for set:

* numpy itself: restart attempt ``k`` draws through
  ``Generator(PCG64(SeedSequence(entropy, spawn_key=spawn_key + (k,))))``
  (``SeedSequence((root, k))`` for an int root) with ``_draw_ticks``, and
  the band test runs on ``Fraction`` sums;
* the loop ``gen_taskset`` replaced: a ``PCG64`` built per attempt on a
  state hashed in Python (``attempt_streams``), and a generator function
  that decodes each task's draws from batches of raw words
  (``decode_ticks``).

They live here, outside the package, as the audits' old versions do.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from mcsched.errors import GenerationTimeout
from mcsched.generator import (
    _CL_RANGE,
    _INIT_B,
    _MAX_RESTARTS,
    _MULT_B,
    _PH,
    _POOL,
    _RESOLUTION,
    _T_MAX,
    _U32,
    _draw_ticks,
    _uint32_words,
)
from mcsched.taskmodel import Criticality, McTask, TaskSet


def attempt_seed_sequence(rng, seed: int, attempt: int) -> np.random.SeedSequence:
    """The seed sequence restart attempt ``attempt`` draws from."""
    if isinstance(rng, np.random.SeedSequence):
        return np.random.SeedSequence(rng.entropy, spawn_key=rng.spawn_key + (attempt,))
    return np.random.SeedSequence((seed if rng is None else rng, attempt))


def numpy_draws(params, rng, attempt: int):
    """Attempt ``attempt``'s task draws, through ``numpy.random.Generator``."""
    gen = np.random.Generator(np.random.PCG64(
        attempt_seed_sequence(rng, params.seed, attempt)))
    while True:
        yield _draw_ticks(params, gen)


def average_utilization(ticks) -> Fraction:
    """(U_L + U_H + sum of optimistic HC bandwidths) / 2 of drawn tasks."""
    return sum((Fraction(c + cl if is_hc else c, t) for is_hc, cl, c, t in ticks),
               Fraction(0)) / 2


def task_of(ticks, task_id: int) -> McTask:
    """Task ``task_id`` from its draws, through every ``McTask`` check."""
    is_hc, cl, c, t = ticks
    res = _RESOLUTION
    return McTask(task_id, Fraction(t, res), Fraction(c, res),
                  Criticality.HC if is_hc else Criticality.LC,
                  lc_estimate=Fraction(cl, res))


def landing(params, draws) -> TaskSet | None:
    """The set ``draws`` grow into the band, or None when they overshoot it."""
    lo, hi = params.band
    drawn, u = [], Fraction(0)
    for ticks in draws:
        drawn.append(ticks)
        u += average_utilization([ticks])
        if u > hi:
            return None
        if u >= lo:
            return TaskSet(tuple(task_of(d, i)
                                 for i, d in enumerate(drawn, start=1)))
    raise AssertionError("draws ran out")


def gen_taskset(params, rng=None, attempts=None) -> TaskSet:
    """``gen_taskset`` on numpy's own seeding and draws."""
    for attempt in range(_MAX_RESTARTS) if attempts is None else attempts:
        ts = landing(params, numpy_draws(params, rng, attempt))
        if ts is not None:
            return ts
    raise GenerationTimeout("no attempt landed")


# -- the replaced loop -------------------------------------------------------

_WORDS_PER_BATCH = 32


class _PcgSeed(np.random.bit_generator.ISeedSequence):
    """Hands PCG64 what ``generate_state(4, uint64)`` gives for ``pool``."""

    __slots__ = ("_state",)

    def __init__(self, pool: list[int]):
        h, half = _INIT_B, []
        for i in range(2 * _POOL):
            v, h = pool[i % _POOL] ^ h, h * _MULT_B & _U32
            v = v * h & _U32
            half.append(v ^ v >> 16)
        self._state = [lo | hi << 32 for lo, hi in zip(half[::2], half[1::2])]

    def generate_state(self, n_words, dtype=np.uint32):
        return np.array(self._state, dtype=np.uint64)


def attempt_streams(rng, seed: int):
    """Restart attempt ``k``'s PCG64, seeded from numpy's pool of the words
    ``prefix + words(k)``, whole, hashed by ``generate_state``'s rules."""
    if isinstance(rng, np.random.SeedSequence):
        # a spawn key pads the run entropy to the pool size
        prefix = _uint32_words(rng.entropy)
        prefix += [0] * (_POOL - len(prefix)) + _uint32_words(rng.spawn_key)
    else:
        prefix = _uint32_words(seed if rng is None else rng)

    def stream(attempt: int) -> np.random.PCG64:
        pool = np.random.SeedSequence(prefix + _uint32_words(attempt)).pool
        return np.random.PCG64(_PcgSeed(pool.tolist()))

    return stream


def _raw_words(bitgen: np.random.BitGenerator):
    while True:
        yield from bitgen.random_raw(_WORDS_PER_BATCH).tolist()


def integer(low: int, high: int, word, half: int | None) -> tuple[int, int | None]:
    """``Generator.integers(low, high, endpoint=True)`` for a span of at
    most 2**32: Lemire's draw on 32-bit halves of the words ``word()``
    returns, low half first, with ``half`` the high one kept from an
    earlier draw (None for none).  Returns the draw and the kept half."""
    size = high - low + 1
    if size == 1:
        return low, half
    while True:
        if half is None:
            w = word()
            half, m = w >> 32, (w & _U32) * size
        else:
            half, m = None, half * size
        if m & _U32 >= size or m & _U32 >= (_U32 + 1 - size) % size:
            return low + (m >> 32), half


def decode_ticks(params, bitgen: np.random.BitGenerator):
    """``_draw_ticks`` on ``Generator(bitgen)``, task after task, from raw
    words read ahead in batches (so ``bitgen`` must be discarded after)."""
    res, rc, inflate = _RESOLUTION, params.rc, params.inflate_lc
    cl_lo, cl_hi = _CL_RANGE[0] * res, _CL_RANGE[1] * res
    t_hi = _T_MAX * res
    word = _raw_words(bitgen).__next__
    half = None
    while True:
        is_hc = (word() >> 11) * (1.0 / 9007199254740992.0) < _PH
        cl, half = integer(cl_lo, cl_hi, word, half)
        c = cl
        if is_hc or inflate:
            c, half = integer(cl, rc * cl, word, half)
        t, half = integer(c, t_hi, word, half)
        yield is_hc, cl, c, t


def old_gen_taskset(params, rng=None) -> TaskSet:
    """``gen_taskset`` as it was: one PCG64 and one decoder per attempt."""
    stream = attempt_streams(rng, params.seed)
    for attempt in range(_MAX_RESTARTS):
        ts = landing(params, decode_ticks(params, stream(attempt)))
        if ts is not None:
            return ts
    raise GenerationTimeout("no attempt landed")
