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
from mcsched.generator import (
    _MAX_RESTARTS, _U32, _bounded, _grow, _release_ticks, band_label)
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


ATTEMPTS = (*range(21), 10**5)
ENTROPIES = (7, (3, 1, 4, 1, 5), 0, 2**32 + 9, (np.int64(2**40), np.int64(5)),
             None, tuple(range(1, 10)))


@pytest.mark.parametrize("entropy", ENTROPIES)
@pytest.mark.parametrize("spawn_key", [(), (6,), (2**33, 0)])
def test_attempt_seeds_match_seed_sequence(entropy, spawn_key):
    ss = np.random.SeedSequence(entropy, spawn_key=spawn_key)
    params = GenParams(band=BANDS[0])
    for root in (ss, *ss.spawn(2)):
        for attempt in ATTEMPTS:
            grows_numpy_draws(params, root, attempt)


def test_attempt_seeds_ignore_the_root_pool_size():
    # attempts draw on default-size pools, whatever the root's pool size
    params = GenParams(band=BANDS[0])
    for root in (np.random.SeedSequence(7, pool_size=8),
                 np.random.SeedSequence(tuple(range(6)), spawn_key=(3,), pool_size=5)):
        for attempt in ATTEMPTS:
            grows_numpy_draws(params, root, attempt)


@pytest.mark.parametrize("root", [0, 2**32, 2**70, 2**100, np.int64(12), None, 2**150])
def test_attempt_seeds_match_int_roots(root):
    # up to three root words the attempt number joins the pool itself; a
    # fourth (2**100) fills the pool, so attempts mix in after it, and a
    # fifth (2**150) moves the hash constant they mix with
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


# Parameter corners of the decoder: rc = 1 (zero-width C span), the
# inflated variant, and the largest rc, 20, whose C spans reach 19,001
# ticks.
DECODE_CORNERS = [
    GenParams(band=BANDS[0], rc=1),
    GenParams(band=BANDS[0], rc=4, inflate_lc=True),
    GenParams(band=BANDS[0], rc=20),
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


# A zero low half always rejects at a span that is not a power of two, so
# crafted words steer a draw down each of _bounded's paths; a PCG64's own
# words follow them.  ``used`` and ``kept`` are the words the draw reads
# and the half it keeps after it (-1 for none).
@pytest.mark.parametrize("size, words, half, used, kept", [
    # a rejection taken from a fresh word; the retry takes its high half
    (901, [0xDEADBEEF << 32], -1, 1, -1),
    # a rejection taken from the kept half; the retry takes a fresh word
    (901, [0xFEEDFACE << 32 | 0xCAFEF00D], 0, 1, 0xFEEDFACE),
    # twelve rejections chained through six zero words, with the refill
    # that reads the next batch in the middle of the chain
    (19_001, [0] * 6, -1, 7, None),
    # a span of 1 reads nothing: it gives back the kept half, or the fresh
    # word whose low half was taken
    (1, [], 9, 0, 9),
    (1, [0x1234 << 32 | 0x5678], -1, 0, -1),
])
def test_bounded_finishes_draws_as_the_oracle(size, words, half, used, kept):
    bitgen = np.random.PCG64(8)
    twin = np.random.PCG64()
    twin.state = bitgen.state
    # the oracle's integer step on the same words
    stream = iter(words + twin.random_raw(64).tolist())
    read = []
    value, their_half = taskset_oracle.integer(
        0, size - 1, lambda: read.append(1) or next(stream), None if half < 0 else half)
    # _grow's inline take of a half word times size, then _bounded
    mine = list(words)
    if half < 0:
        half, m, i = mine[0] >> 32, (mine[0] & _U32) * size, 1
    else:
        half, m, i = -1, half * size, 0
    m, i, half = _bounded(size, m, mine, i, half, bitgen)
    assert (m >> 32, i, half) == (value, len(read), -1 if their_half is None else their_half)
    assert i == used and (kept is None or half == kept)
    assert mine[:len(words)] == words


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
    for attempts in ([10**5], range(5000, 5040), range(2**32 - 3, 2**32)):
        try:
            expect = taskset_oracle.gen_taskset(params, rng, attempts)
        except GenerationTimeout:
            with pytest.raises(GenerationTimeout):
                _grow(params, rng, attempts)
        else:
            assert _grow(params, rng, attempts) == expect


def test_attempt_numbers_fit_one_word():
    assert _MAX_RESTARTS <= 2**32  # _grow hashes an attempt number as one 32-bit word


@pytest.mark.parametrize("edge", ["hi", "lo"])
def test_band_edges_are_inclusive(edge):
    # attempt 0 lands with its first three tasks when their exact average
    # utilization u is the upper edge of a band whose lower edge lies above
    # the first two tasks' average u2, or the lower edge of [u, u + 1]
    rng = np.random.SeedSequence(0)
    draws = list(islice(taskset_oracle.numpy_draws(GenParams(band=BANDS[0]), rng, 0), 3))
    u2, u = (taskset_oracle.average_utilization(draws[:n]) for n in (2, 3))
    params = GenParams(band=((u2 + u) / 2, u) if edge == "hi" else (u, u + 1))
    ts = gen_taskset(params, rng)
    assert ts == taskset_oracle.landing(params, iter(draws))
    assert len(ts.tasks) == 3 and avg_utilization(ts) == u


def test_generation_timeout():
    # the first three attempts all overshoot this narrow band
    params = GenParams(band=(F(70, 100), F(7005, 10000)))
    with pytest.raises(GenerationTimeout) as raised:
        _grow(params, np.random.SeedSequence(17), range(3))
    assert str(raised.value) == "no task set hit band lo=7/10, hi=1401/2000 in 3 attempts"


def test_params_validation():
    with pytest.raises(ValueError):
        GenParams(band=(F(1, 2), F(1, 2)))
    with pytest.raises(ValueError):
        GenParams(band=(F(0), F(1, 2)))
    # one LC task with C = 1 and T = 200 averages 1/400, the least of any set
    with pytest.raises(ValueError, match="band must reach 1/400"):
        GenParams(band=(F(1, 1000), F(2, 1000)))
    GenParams(band=(F(1, 1000), F(1, 400)))
    for rc in (0, 21):
        with pytest.raises(ValueError, match="rc"):
            GenParams(band=BANDS[0], rc=rc)
    GenParams(band=BANDS[0], rc=1)
    GenParams(band=BANDS[0], rc=20)


def test_numpy_integer_seeds_read_as_ints():
    params = GenParams(band=BANDS[0], seed=np.int64(5))
    assert gen_taskset(params) == gen_taskset(GenParams(band=BANDS[0], seed=5))


@pytest.mark.parametrize("field, value, error, message", [
    # these reached the decoder and failed there on ``&``
    ("rc", 2.5, TypeError, "rc must be an int, got 2.5"),
    ("rc", True, TypeError, "rc must be an int, got True"),
    # a WCET draw up to rc * 10 must fit a period of 200
    ("rc", 21, ValueError, "rc must lie in [1, 20], got 21"),
    ("rc", 0, ValueError, "rc must lie in [1, 20], got 0"),
    # these failed in the seed hashing, or went unused beside an rng
    ("seed", 1.5, TypeError, "seed must be a non-negative int, got 1.5"),
    ("seed", True, TypeError, "seed must be a non-negative int, got True"),
    ("seed", "3", TypeError, "seed must be a non-negative int, got '3'"),
    ("seed", (1, 2), TypeError, "seed must be a non-negative int, got (1, 2)"),
    ("seed", None, TypeError, "seed must be a non-negative int, got None"),
    ("seed", -1, ValueError, "seed must be a non-negative int, got -1"),
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


# one HC task, so its jobs are every scale drawn
ONE_HC_TASK = TaskSet((McTask(1, F(2), F(1), Criticality.HC),))


def test_grid_demand_matches_its_distribution():
    dist = BUILTIN_DISTRIBUTIONS["table4"]
    ts = ONE_HC_TASK
    jobs = gen_job_sequence(ts, F(10_000 * 2), GridDemand(dist),
                            np.random.SeedSequence(29))
    hc = ts.hc_tasks[0]
    scales = [j.demand / hc.wcet for j in jobs if j.task == hc.id]
    assert len(scales) >= 10_000
    for g, c in zip(dist.grid, dist.cdf):
        emp = sum(1 for s in scales if s <= g) / len(scales)
        assert abs(emp - float(c)) < 0.02


def test_uniform_demand_honours_its_range():
    ts = ONE_HC_TASK
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
