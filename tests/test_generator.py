from dataclasses import replace
from fractions import Fraction as F
from itertools import islice

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mcsched import (
    BANDS,
    BUILTIN_DISTRIBUTIONS,
    ConstantDemand,
    Criticality,
    ExecDistribution,
    GenParams,
    GenerationTimeout,
    GridDemand,
    McTask,
    TaskSet,
    UniformDemand,
    gen_job_sequence,
    gen_task,
    gen_taskset,
    parse_demand_model,
    random_feasible_scenario,
    validate_jobs,
)
from mcsched.generator import _grow, _release_ticks, band_label
from mcsched.taskmodel import format_taskset

import job_sequence_oracle as oracle
import taskset_oracle


def avg_utilization(ts):
    lo = sum(t.lc_estimate / t.period for t in ts.tasks)
    hi = sum(t.wcet / t.period for t in ts.hc_tasks)
    return (lo + hi) / 2


def test_band_table():
    assert BANDS == tuple((F(hi, 100) - F(1, 100), F(hi, 100))
                          for hi in (55, 60, 65, 70, 75))
    assert band_label(BANDS[3]) == "0.70"


def test_optimistic_budget_mean():
    params = GenParams(band=BANDS[0], seed=11)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(11)))
    total = F(0)
    n = 100_000
    for _ in range(n):
        total += gen_task(params, rng).lc_estimate
    mean = total / n
    assert F(545, 100) <= mean <= F(555, 100)  # uniform on [1, 10]


def test_task_draw_bounds():
    params = GenParams(band=BANDS[2], rc=4, seed=3)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(3)))
    saw = {Criticality.LC: 0, Criticality.HC: 0}
    for i in range(2000):
        t = gen_task(params, rng, i + 1)
        saw[t.criticality] += 1
        assert F(1) <= t.lc_estimate <= F(10)
        assert t.wcet <= t.period <= F(200)
        if t.is_hc:
            assert t.lc_estimate <= t.wcet <= 4 * t.lc_estimate
        else:
            assert t.wcet == t.lc_estimate
    assert saw[Criticality.LC] > 0 and saw[Criticality.HC] > 0


def test_inflated_variant_stretches_lc_too():
    params = GenParams(band=BANDS[2], rc=4, seed=3, inflate_lc=True)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(3)))
    stretched = 0
    for i in range(500):
        t = gen_task(params, rng, i + 1)
        assert t.lc_estimate <= t.wcet <= 4 * t.lc_estimate
        if not t.is_hc and t.wcet > t.lc_estimate:
            stretched += 1
    assert stretched > 0


def test_sets_land_in_the_requested_band():
    for trial in range(1000):
        band = BANDS[trial % len(BANDS)]
        ts = gen_taskset(GenParams(band=band),
                         np.random.SeedSequence((41, trial)))
        assert band[0] <= avg_utilization(ts) <= band[1]
        assert [t.id for t in ts.tasks] == list(range(1, len(ts.tasks) + 1))


def test_generation_is_deterministic():
    params = GenParams(band=BANDS[1], rc=2)
    a = gen_taskset(params, np.random.SeedSequence(99))
    b = gen_taskset(params, np.random.SeedSequence(99))
    assert a == b
    c = gen_taskset(params, np.random.SeedSequence(100))
    assert a != c


# SHA-256 over the text form of every set below, one digest per kind of rng
# argument.  Any change to the draws, their order or the band test moves it.
GOLDEN_SHA256 = {
    "int": "dedbfcc50948077246bb14807b745004e0ea7fc72832cd1700fb2d3abe57c5df",
    "seedseq": "bc952661421c732a98eea9645affc1ba09bde3aacfbc71008acc2765d8d75ef2",
}


def golden_sets_text(kind: str) -> str:
    texts = []
    for band_idx, band in enumerate(BANDS):
        for rc in (3, 4, 5):
            for inflate in (False, True):
                params = GenParams(band=band, rc=rc, seed=band_idx,
                                   inflate_lc=inflate)
                for trial in range(3):
                    if kind == "seedseq":
                        rng = np.random.SeedSequence(
                            (band_idx, rc, trial, int(inflate)))
                    else:
                        rng = 1000 * band_idx + 100 * rc + 10 * trial + int(inflate)
                    texts.append(format_taskset(gen_taskset(params, rng)))
    return "".join(texts)


@pytest.mark.parametrize("kind", sorted(GOLDEN_SHA256))
def test_generated_sets_match_the_golden_digest(kind):
    text = golden_sets_text(kind)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_SHA256[kind]


def grows_numpy_draws(params, rng, attempt, n=40):
    """``_grow`` on restart attempt ``attempt`` alone draws the tasks that
    ``Generator`` calls on that attempt's ``SeedSequence`` stream give.

    The band is put where the first ``n`` of those draws land (the average
    utilization only grows), so ``_grow`` must return exactly those tasks.
    """
    draws = list(islice(taskset_oracle.numpy_draws(params, rng, attempt), n))
    u = taskset_oracle.average_utilization(draws)
    params = replace(params, band=(u, u + 1))
    ts = _grow(params, rng, [attempt])
    expect = taskset_oracle.landing(params, iter(draws))
    assert ts == expect and format_taskset(ts) == format_taskset(expect)


ATTEMPTS = (*range(21), 10**5, 2**32 + 3)
ENTROPIES = (7, (3, 1, 4, 1, 5), 0, 2**32 + 9, (np.int64(2**40), np.int64(5)),
             None)


@pytest.mark.parametrize("entropy", ENTROPIES)
@pytest.mark.parametrize("spawn_key", [(), (6,), (2**33, 0)])
def test_attempt_seeds_match_seed_sequence(entropy, spawn_key):
    ss = np.random.SeedSequence(entropy, spawn_key=spawn_key)
    params = GenParams(band=BANDS[0])
    for root in (ss, *ss.spawn(2)):
        for attempt in ATTEMPTS:
            grows_numpy_draws(params, root, attempt)


@pytest.mark.parametrize("root", [0, 2**32, 2**70, 2**100, np.int64(12), None])
def test_attempt_seeds_match_int_roots(root):
    # up to three root words the attempt number joins the pool itself; a
    # fourth (2**100) fills the pool, so attempts mix in after it
    params = GenParams(band=BANDS[0], seed=77)
    for attempt in ATTEMPTS:
        grows_numpy_draws(params, root, attempt)


@pytest.mark.parametrize("root, error", [
    (-1, ValueError), (1.5, TypeError),
    (np.random.default_rng(0), TypeError)])
def test_attempt_seeds_reject_what_numpy_rejects(root, error):
    with pytest.raises(error):
        np.random.SeedSequence((root, 0))
    with pytest.raises(error):
        gen_taskset(GenParams(band=BANDS[0]), root)


# Parameter corners of the decoder: no word for a zero-width C_L span, rc = 1
# (zero-width C span), the inflated variant, all-LC and all-HC sets, a
# period span of 2**31 + 1 (32-bit Lemire rejecting about half its first
# draws, so rejections chain past the kept half word), one of 2**32 - 1
# (numpy's plain 32-bit word) and spans of 2**32 and above (the 64-bit
# branch; one of 2**62 rejects about a quarter of its first draws).
DECODE_CORNERS = [
    GenParams(band=BANDS[0], cl_range=(3, 3)),
    GenParams(band=BANDS[0], rc=1),
    GenParams(band=BANDS[0], rc=4, inflate_lc=True),
    GenParams(band=BANDS[0], ph=0.0),
    GenParams(band=BANDS[0], ph=1.0),
    GenParams(band=BANDS[0], ph=0.0, cl_range=(1, 1), resolution=1,
              t_max=2**31 + 2),
    GenParams(band=BANDS[0], ph=0.0, cl_range=(1, 1), resolution=1,
              t_max=2**32),
    GenParams(band=BANDS[0], ph=0.0, cl_range=(1, 1), resolution=1,
              t_max=2**32 + 1),
    GenParams(band=BANDS[0], resolution=10**6, t_max=10**4),
    GenParams(band=BANDS[0], ph=0.0, cl_range=(1, 1), resolution=1,
              t_max=2**62 + 1),
    GenParams(band=BANDS[0], rc=5, ph=0.3, cl_range=(2, 9), resolution=10**6,
              t_max=2**62 // 10**6),
]


@given(st.integers(0, 2**64 - 1))
@settings(max_examples=30, derandomize=True, deadline=None)
def test_draws_decode_like_generator(seed):
    # 80 tasks per corner, so word batches refill; attempts 0 and 7 start
    # from different streams of the same root
    ss = np.random.SeedSequence(seed)
    for params in DECODE_CORNERS:
        for attempt in (0, 7):
            grows_numpy_draws(params, ss, attempt, n=80)


@pytest.mark.parametrize("kind", ["seedseq", "spawned", "int", "long int", "none"])
def test_gen_taskset_matches_numpy_and_the_old_loop(kind):
    # whole restart loops, overshoots included, against both oracles
    for trial in range(40):
        params = GenParams(band=BANDS[trial % 5], rc=3 + trial % 3, seed=trial,
                           inflate_lc=trial % 2 == 1)
        rng = {"seedseq": np.random.SeedSequence((41, trial)),
               "spawned": np.random.SeedSequence(trial, spawn_key=(trial, 3)),
               "int": trial, "long int": 2**96 + trial, "none": None}[kind]
        ts = gen_taskset(params, rng)
        assert ts == taskset_oracle.gen_taskset(params, rng)
        assert ts == taskset_oracle.old_gen_taskset(params, rng)


def test_later_attempts_land_as_numpy_says():
    # a narrow band makes most attempts overshoot; _grow over any attempt
    # range lands where the numpy oracle does, or times out with it
    params = GenParams(band=(F(70, 100), F(7005, 10000)))
    rng = np.random.SeedSequence(17)
    for attempts in ([2**32 + 3, 10**5], range(5000, 5040), range(2**32 - 3, 2**32 + 3)):
        try:
            expect = taskset_oracle.gen_taskset(params, rng, attempts)
        except GenerationTimeout:
            with pytest.raises(GenerationTimeout):
                _grow(params, rng, attempts)
        else:
            assert _grow(params, rng, attempts) == expect


@pytest.mark.parametrize("band", [(F(1, 8), F(1, 4)), (F(1, 4), F(3, 8))])
def test_band_edges_are_inclusive(band):
    # one LC task of C = 1 and T in {1, 2}: only T = 2 can land, and its
    # average utilization 1/4 sits exactly on an edge of the band
    params = GenParams(band=band, ph=0.0, cl_range=(1, 1), t_max=2,
                       resolution=1, max_restarts=64)
    ts = gen_taskset(params, np.random.SeedSequence(0))
    assert [(t.period, t.wcet) for t in ts.tasks] == [(F(2), F(1))]
    assert avg_utilization(ts) == F(1, 4)


def test_generation_timeout():
    params = GenParams(band=(F(1, 1000), F(2, 1000)), max_restarts=5)
    with pytest.raises(GenerationTimeout):
        gen_taskset(params, np.random.SeedSequence(0))


def test_params_validation():
    with pytest.raises(ValueError):
        GenParams(band=(F(1, 2), F(1, 2)))
    with pytest.raises(ValueError):
        GenParams(band=(F(0), F(1, 2)))
    with pytest.raises(ValueError):
        GenParams(band=BANDS[0], rc=0)
    for cl_range in ((0, 1), (-1, 5), (5, 4)):
        with pytest.raises(ValueError, match="cl_range"):
            GenParams(band=BANDS[0], cl_range=cl_range)
    for resolution in (0, -100):
        with pytest.raises(ValueError, match="resolution"):
            GenParams(band=BANDS[0], resolution=resolution)
    # rc * cl_range[1] = 30 here; a period draw on [C, 2] cannot exist
    with pytest.raises(ValueError, match="t_max"):
        GenParams(band=BANDS[0], t_max=2)
    GenParams(band=BANDS[0], cl_range=(1, 1), resolution=1)
    GenParams(band=BANDS[0], ph=0)
    GenParams(band=BANDS[0], ph=1)


@pytest.mark.parametrize("field, value, error, message", [
    # NaN and negative ph gave all-LC sets, 1.5 all-HC ones
    ("ph", 1.5, ValueError, "ph must lie in [0, 1], got 1.5"),
    ("ph", -1, ValueError, "ph must lie in [0, 1], got -1"),
    ("ph", float("nan"), ValueError, "ph must lie in [0, 1], got nan"),
    # these reached the decoder and failed there on ``&``
    ("rc", 2.5, TypeError, "rc must be an int, got 2.5"),
    ("t_max", 150.5, TypeError, "t_max must be an int, got 150.5"),
    ("resolution", 100.0, TypeError, "resolution must be an int, got 100.0"),
    ("cl_range", (1.5, 10), TypeError, "cl_range must be two ints, got (1.5, 10)"),
    ("max_restarts", 10.0, TypeError, "max_restarts must be an int, got 10.0"),
    ("rc", True, TypeError, "rc must be an int, got True"),
    ("cl_range", (1, 10.0), TypeError, "cl_range must be two ints, got (1, 10.0)"),
    ("cl_range", (1, 5, 10), TypeError, "cl_range must be two ints, got (1, 5, 10)"),
])
def test_params_reject_bad_values_in_one_line(field, value, error, message):
    with pytest.raises(error) as info:
        GenParams(band=BANDS[0], **{field: value})
    assert type(info.value) is error and str(info.value) == message


def test_job_sequence_counts_on_a_common_multiple():
    ts = gen_taskset(GenParams(band=BANDS[0]), np.random.SeedSequence(5))
    horizon = F(400)
    jobs = gen_job_sequence(ts, horizon, ConstantDemand(F(1)),
                            np.random.SeedSequence(5))
    validate_jobs(ts, jobs)
    for t in ts.tasks:
        mine = [j for j in jobs if j.task == t.id]
        expect = int(-(-horizon // t.period))  # ceil(horizon / T)
        assert len(mine) == expect
        assert [j.seq for j in mine] == list(range(expect))
        assert all(j.release == k * t.period for k, j in enumerate(mine))


# a CDF with plateaus (no mass at 1/2 or 1) and values that floats round
PLATEAU = ExecDistribution((F(1, 4), F(1, 2), F(3, 4), F(1)),
                           (F(1, 3), F(1, 3), F(1), F(1)))
DEMAND_MODELS = (GridDemand(), GridDemand(PLATEAU), UniformDemand(),
                 UniformDemand(F(3, 10), F(7, 10)), UniformDemand(F(1), F(1)),
                 ConstantDemand(F(3, 4)), ConstantDemand(F(1)))


def same_jobs_and_stream(ts, horizon, model, seed):
    """``gen_job_sequence`` and the oracle agree job for job, in their
    ``str`` bytes, and in the state they leave a shared-seed stream."""
    mine = np.random.default_rng(seed)
    theirs = np.random.default_rng(seed)
    jobs = gen_job_sequence(ts, horizon, model, mine)
    expect = oracle.gen_job_sequence(ts, horizon, model, theirs)
    assert jobs == expect
    assert str(jobs) == str(expect)
    assert mine.bit_generator.state == theirs.bit_generator.state
    # a 32-bit draw would show a kept half word, a double the word position
    assert mine.integers(0, 1000, size=3).tolist() == theirs.integers(0, 1000, size=3).tolist()
    assert mine.random() == theirs.random()
    return jobs


# periods with coprime denominators; ids out of task-set order
COPRIME = TaskSet((
    McTask(3, F(7, 3), F(1, 2), Criticality.HC),
    McTask(1, F(5, 2), F(1), Criticality.LC),
    McTask(2, F(11, 7), F(3, 7), Criticality.HC),
    McTask(5, F(4), F(9, 5), Criticality.HC),
))


@pytest.mark.parametrize("model", DEMAND_MODELS, ids=repr)
@pytest.mark.parametrize("horizon", [
    F(7 * 5 * 11 * 4),     # on every period's lattice: no release at H
    F(7 * 5 * 11 * 4) + F(1, 13),  # off the lattice
    F(22, 3),              # fractional, between releases
    F(1),                  # below the shortest period: one job per task
])
def test_job_sequence_matches_the_oracle(model, horizon):
    jobs = same_jobs_and_stream(COPRIME, horizon, model, 11)
    validate_jobs(COPRIME, jobs)
    _, releases = _release_ticks(COPRIME, horizon)
    for t, (_, n) in zip(COPRIME.tasks, releases):
        assert sum(j.task == t.id for j in jobs) == n


def test_generated_and_scenario_jobs_match_the_oracle():
    for seed in range(6):
        ts = gen_taskset(GenParams(band=BANDS[seed % 5]), np.random.SeedSequence(seed))
        for model in DEMAND_MODELS:
            same_jobs_and_stream(ts, F(400), model, seed)
            same_jobs_and_stream(ts, F(1201, 3), model, seed)
    for i in range(30):
        sc = random_feasible_scenario(np.random.SeedSequence((5, i)),
                                      switchy=i % 2 == 1)
        for model in DEMAND_MODELS:
            same_jobs_and_stream(sc.ts, sc.horizon, model, i)


def test_grid_demand_takes_the_first_cdf_value_a_draw_ties():
    # u <= c picks a grid point, so a draw equal to a CDF value takes it
    ts = TaskSet((McTask(1, F(2), F(1), Criticality.HC),))
    for seed in range(5):
        u = np.random.default_rng(seed).random()
        dist = ExecDistribution((F(1, 2), F(1)), (F(u), F(1)))
        jobs = same_jobs_and_stream(ts, F(1), GridDemand(dist), seed)
        assert [j.demand for j in jobs] == [F(1, 2)]


@st.composite
def periodic_sets(draw):
    n = draw(st.integers(1, 5))
    ids = draw(st.permutations(range(1, n + 1)))
    tasks = []
    for tid in ids:
        period = F(draw(st.integers(1, 60)), draw(st.integers(1, 12)))
        wcet = period * F(draw(st.integers(1, 10)), 10)
        crit = draw(st.sampled_from(Criticality))
        tasks.append(McTask(tid, period, wcet, crit))
    ts = TaskSet(tuple(tasks))
    longest = max(t.period for t in ts.tasks)
    horizon = longest * F(draw(st.integers(1, 40)), draw(st.integers(1, 10)))
    return ts, horizon


@given(periodic_sets(), st.sampled_from(DEMAND_MODELS), st.integers(0, 2**32))
@settings(max_examples=150, derandomize=True, deadline=None)
def test_job_sequence_matches_the_oracle_on_random_sets(case, model, seed):
    ts, horizon = case
    same_jobs_and_stream(ts, horizon, model, seed)


@pytest.mark.parametrize("n", [0, 1, 2, 5, 33])
def test_batched_demand_draws_use_the_stream_as_scalar_draws(n):
    # gen_job_sequence draws each HC task's demands in one batch; numpy
    # must consume the stream as n scalar calls would, including the kept
    # 32-bit half word of a bounded draw
    for first in (None, "half"):
        batch, scalar = np.random.default_rng(3), np.random.default_rng(3)
        if first:
            batch.integers(0, 9), scalar.integers(0, 9)
        ks = batch.integers(100, 1000, size=n, endpoint=True).tolist()
        assert ks == [int(scalar.integers(100, 1000, endpoint=True)) for _ in range(n)]
        us = batch.random(n).tolist()
        assert us == [float(scalar.random()) for _ in range(n)]
        assert batch.integers(1000, 1000, size=n, endpoint=True).tolist() == [1000] * n
        assert batch.bit_generator.state == scalar.bit_generator.state


def test_lc_jobs_demand_full_wcet_and_hc_jobs_scale():
    ts = gen_taskset(GenParams(band=BANDS[4]), np.random.SeedSequence(17))
    jobs = gen_job_sequence(ts, F(1000), GridDemand(),
                            np.random.SeedSequence(17))
    by_id = {t.id: t for t in ts.tasks}
    for j in jobs:
        task = by_id[j.task]
        if task.is_hc:
            assert 0 < j.demand <= task.wcet
        else:
            assert j.demand == task.wcet


def test_grid_demand_matches_its_distribution():
    dist = BUILTIN_DISTRIBUTIONS["table4"]
    ts = gen_taskset(GenParams(band=BANDS[0], ph=1.0, t_max=2,
                               cl_range=(1, 1), rc=1),
                     np.random.SeedSequence(29))
    jobs = gen_job_sequence(ts, F(10_000 * 2), GridDemand(dist),
                            np.random.SeedSequence(29))
    hc = ts.hc_tasks[0]
    scales = [j.demand / hc.wcet for j in jobs if j.task == hc.id]
    assert len(scales) >= 10_000
    for g, c in zip(dist.grid, dist.cdf):
        emp = sum(1 for s in scales if s <= g) / len(scales)
        assert abs(emp - float(c)) < 0.02


def test_uniform_demand_honours_its_range():
    ts = gen_taskset(GenParams(band=BANDS[0], ph=1.0, t_max=2,
                               cl_range=(1, 1), rc=1),
                     np.random.SeedSequence(31))
    model = UniformDemand(F(3, 10), F(7, 10))
    jobs = gen_job_sequence(ts, F(500), model, np.random.SeedSequence(31))
    hc = ts.hc_tasks[0]
    scales = {j.demand / hc.wcet for j in jobs if j.task == hc.id}
    assert all(F(3, 10) <= s <= F(7, 10) for s in scales)
    assert all((s * 1000).denominator == 1 for s in scales)


def test_demand_model_validation():
    with pytest.raises(ValueError):
        UniformDemand(F(0), F(1))
    with pytest.raises(ValueError):
        UniformDemand(F(1, 2), F(3, 2))
    with pytest.raises(ValueError):
        UniformDemand(F(7, 10), F(3, 10))
    with pytest.raises(ValueError):
        UniformDemand(F(1, 3), F(1, 2))  # 1/3 off the tick lattice
    with pytest.raises(ValueError):
        ConstantDemand(F(0))
    with pytest.raises(ValueError):
        ConstantDemand(F(2))


def test_parse_demand_model():
    assert parse_demand_model("grid") == GridDemand()
    assert parse_demand_model("uniform:1/2:1") == UniformDemand(F(1, 2), F(1))
    assert parse_demand_model("constant:3/4") == ConstantDemand(F(3, 4))
    with pytest.raises(ValueError):
        parse_demand_model("gaussian:0:1")
