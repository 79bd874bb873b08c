"""Test-only oracle: the straightforward job-sequence loop that
:func:`mcsched.generator.gen_job_sequence` replaces.

It steps each task's releases by ``Fraction`` addition, draws one demand
scale per HC job with a scalar ``Generator`` call, and sorts the jobs on
``Fraction`` keys.  It is kept here, outside the package, as the reference
the integer-tick version must agree with job for job, and in the state it
leaves the stream.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from mcsched.generator import ConstantDemand, UniformDemand
from mcsched.simulator import Job
from mcsched.taskmodel import TaskSet, as_fraction


def draw_scale(model, rng: np.random.Generator) -> Fraction:
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


def gen_job_sequence(ts: TaskSet, horizon, demand_model, rng) -> tuple[Job, ...]:
    horizon = as_fraction(horizon, "horizon")
    rng = np.random.default_rng(rng)
    jobs: list[Job] = []
    for task in ts.tasks:
        release = Fraction(0)
        seq = 0
        while release < horizon:
            if task.is_hc:
                demand = draw_scale(demand_model, rng) * task.wcet
            else:
                demand = task.wcet
            jobs.append(Job(task.id, release, demand, seq))
            seq += 1
            release += task.period
    jobs.sort(key=lambda j: (j.release, j.task, j.seq))
    return tuple(jobs)
