from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from mcsched import (
    Criticality,
    InvalidFraction,
    McTask,
    NoLcTasks,
    TaskSet,
    TaskSetParseError,
    alpha_star_from_per_task,
    as_fraction,
    beta_star_from_lc_estimates,
    distribute_hc_budget_equal,
    utilizations,
)
from mcsched.taskmodel import format_taskset, parse_taskset


def test_as_fraction_accepts_int_and_fraction():
    assert as_fraction(3, "v") == F(3)
    assert as_fraction(F(1, 7), "v") == F(1, 7)


def test_as_fraction_rejects_float_and_bool():
    with pytest.raises(TypeError):
        as_fraction(0.5, "v")
    with pytest.raises(TypeError):
        as_fraction(True, "v")


def test_task_validation():
    with pytest.raises(ValueError):
        McTask(1, F(0), F(1), Criticality.LC)  # period > 0
    with pytest.raises(ValueError):
        McTask(1, F(5), F(6), Criticality.LC)  # wcet <= period
    with pytest.raises(ValueError):
        McTask(1, F(5), F(0), Criticality.LC)  # wcet > 0
    with pytest.raises(ValueError):
        McTask(1, F(5), F(2), Criticality.HC, lc_estimate=F(3))  # estimate <= wcet
    with pytest.raises(InvalidFraction):
        McTask(1, F(5), F(2), Criticality.LC, alpha=F(3, 2))  # alpha in [0,1]


LC, HC = Criticality.LC, Criticality.HC


@pytest.mark.parametrize("args, kwargs, error, message", [
    ((1, F(0), F(1), LC), {}, ValueError,
     "task 1: period must be positive, got 0"),
    ((2, F(-5, 2), F(1), LC), {}, ValueError,
     "task 2: period must be positive, got -5/2"),
    ((3, F(5), F(0), LC), {}, ValueError,
     "task 3: wcet must satisfy 0 < C <= T, got C=0 T=5"),
    ((4, F(9, 4), F(7, 3), LC), {}, ValueError,
     "task 4: wcet must satisfy 0 < C <= T, got C=7/3 T=9/4"),
    ((5, F(5), F(2), HC), {"lc_estimate": F(-1, 3)}, ValueError,
     "task 5: lc_estimate must satisfy 0 <= CL <= C, got -1/3"),
    ((6, F(5), F(2), HC), {"lc_estimate": F(201, 100)}, ValueError,
     "task 6: lc_estimate must satisfy 0 <= CL <= C, got 201/100"),
    ((7, F(5), F(2), LC), {"alpha": F(-1, 10)}, InvalidFraction,
     "alpha must lie in [0, 1], got -1/10"),
    ((8, F(5), F(2), LC), {"alpha": F(11, 10)}, InvalidFraction,
     "alpha must lie in [0, 1], got 11/10"),
    ((9, 5.0, F(2), LC), {}, TypeError,
     "period must be exact (int, Fraction or string), got 5.0"),
    ((10, F(5), F(2), HC), {"lc_estimate": 0.5}, TypeError,
     "lc_estimate must be exact (int, Fraction or string), got 0.5"),
    # two faults: every field is coerced before any range check, and the
    # range checks run period, wcet, lc_estimate
    ((11, F(0), F(2), LC), {"alpha": F(11, 10)}, InvalidFraction,
     "alpha must lie in [0, 1], got 11/10"),
    ((12, F(5), F(6), HC), {"lc_estimate": F(7)}, ValueError,
     "task 12: wcet must satisfy 0 < C <= T, got C=6 T=5"),
    # the edges of each range are accepted
    ((13, F(7, 3), F(7, 3), HC), {"lc_estimate": F(7, 3)}, None, None),
    ((14, F(5), F(1, 9), LC), {"alpha": F(1), "lc_estimate": F(0)}, None, None),
])
def test_task_error_messages(args, kwargs, error, message):
    if error is None:
        McTask(*args, **kwargs)
        return
    with pytest.raises(error) as info:
        McTask(*args, **kwargs)
    assert type(info.value) is error
    assert str(info.value) == message


def test_zero_lc_estimate_allowed():
    t = McTask(1, F(5), F(2), Criticality.HC, lc_estimate=F(0))
    assert t.lc_estimate == 0


def test_task_properties():
    t = McTask(1, F(10), F(4), Criticality.HC, lc_estimate=F(2))
    assert t.utilization == F(2, 5)
    assert t.is_hc and not t.is_lc
    lc = McTask(2, F(10), F(5), Criticality.LC, alpha=F(1, 2))
    assert lc.degraded_service == F(5, 2)
    assert lc.with_alpha(F(1)).alpha == 1


@pytest.mark.parametrize("alpha", [F(0), F(1, 3), F(1), 1, "2/7"])
def test_with_alpha_equals_a_replace_built_task(alpha, contrast_set):
    # with_alpha checks only alpha and copies the rest; the result must be
    # the task dataclasses.replace builds through every __post_init__ check
    for t in (*contrast_set.tasks, McTask(4, F(9, 2), F(3, 2), LC, F(1, 5), F(1))):
        mine, theirs = t.with_alpha(alpha), replace(t, alpha=as_fraction(alpha))
        assert mine == theirs and repr(mine) == repr(theirs)
        assert type(mine.alpha) is F and hash(mine) == hash(theirs)
    copy = contrast_set.with_alphas({1: F(1, 4), 2: alpha, 3: F(1, 2)})
    assert copy == TaskSet(tuple(
        replace(t, alpha=as_fraction(a)) if t.is_lc else t
        for t, a in zip(contrast_set.tasks, (F(1, 4), alpha, None))))


@pytest.mark.parametrize("alpha, error, message", [
    (F(11, 10), InvalidFraction, "alpha must lie in [0, 1], got 11/10"),
    (F(-1, 10), InvalidFraction, "alpha must lie in [0, 1], got -1/10"),
    (0.5, TypeError, "alpha must be exact (int, Fraction or string), got 0.5"),
])
def test_with_alpha_error_messages(alpha, error, message):
    t = McTask(2, F(10), F(5), Criticality.LC, alpha=F(1, 2))
    with pytest.raises(error) as info:
        t.with_alpha(alpha)
    assert type(info.value) is error and str(info.value) == message
    with pytest.raises(error) as info:
        McTask(2, F(10), F(5), Criticality.LC, alpha=alpha)
    assert str(info.value) == message


def test_taskset_unique_ids():
    t = McTask(1, F(5), F(1), Criticality.LC)
    with pytest.raises(ValueError):
        TaskSet((t, t))


def test_utilizations(half_four_fifths_set, contrast_set):
    assert utilizations(half_four_fifths_set) == (F(1, 2), F(4, 5))
    # with_alphas hands its copy the class sums it already holds
    for ts in (half_four_fifths_set, contrast_set):
        copy = ts.with_alphas({t.id: F(1, 3) for t in ts.lc_tasks})
        assert [t.alpha for t in copy.lc_tasks] == [F(1, 3)] * len(ts.lc_tasks)
        assert utilizations(copy) == utilizations(TaskSet(copy.tasks)) == utilizations(ts)


def test_alpha_star_is_min_over_lc(contrast_set):
    assert alpha_star_from_per_task(contrast_set) == F(1, 2)
    hc_only = TaskSet((McTask(1, F(5), F(1), Criticality.HC),))
    with pytest.raises(NoLcTasks):
        alpha_star_from_per_task(hc_only)


def test_beta_star_from_lc_estimates(half_four_fifths_set):
    # (2/10 + 2/10) / (4/5) = 1/2
    assert beta_star_from_lc_estimates(half_four_fifths_set) == F(1, 2)


def test_distribute_hc_budget_unclamped_oracle():
    # u = (1/2, 1/2 of U_L each); equal split below 1 stays equal
    ts = TaskSet((
        McTask(1, F(4), F(1), Criticality.LC),
        McTask(2, F(4), F(1), Criticality.LC),
        McTask(3, F(4), F(1), Criticality.HC),
    ))
    got = distribute_hc_budget_equal(ts, F(3, 5))
    assert got == {1: F(3, 5), 2: F(3, 5)}


def test_distribute_hc_budget_clamped_oracle():
    # u = (2/5, 1/10), alpha* = 9/10: water level puts task 2 at 1 and
    # task 1 carries the rest: (9/10 * 1/2 - 1/10) / (2/5) = 7/8
    ts = TaskSet((
        McTask(1, F(10), F(4), Criticality.LC),
        McTask(2, F(10), F(1), Criticality.LC),
        McTask(3, F(10), F(2), Criticality.HC),
    ))
    got = distribute_hc_budget_equal(ts, F(9, 10))
    assert got == {1: F(7, 8), 2: F(1)}


def _water_level_oracle(ts, alpha_star):
    """Independent check: level L with sum(min(L, u_i)) = alpha* U_L."""
    lc = ts.lc_tasks
    total = alpha_star * sum(t.utilization for t in lc)
    lo, hi = F(0), max(t.utilization for t in lc)
    for _ in range(80):
        mid = (lo + hi) / 2
        if sum(min(mid, t.utilization) for t in lc) < total:
            lo = mid
        else:
            hi = mid
    return hi


@given(st.integers(1, 4), st.integers(0, 100), st.integers(1, 997))
@settings(max_examples=60, derandomize=True, deadline=None)
def test_distribute_matches_water_level(n_lc, a_num, salt):
    alpha_star = F(a_num, 100)
    tasks = [McTask(i + 1, F(10), F(1 + (salt * (i + 3)) % 9), Criticality.LC)
             for i in range(n_lc)]
    tasks.append(McTask(99, F(10), F(1), Criticality.HC))
    ts = TaskSet(tuple(tasks))
    got = distribute_hc_budget_equal(ts, alpha_star)
    u_l = sum(t.utilization for t in ts.lc_tasks)
    # exact mass conservation
    assert sum(got[t.id] * t.utilization for t in ts.lc_tasks) == alpha_star * u_l
    assert all(0 <= v <= 1 for v in got.values())
    level = _water_level_oracle(ts, alpha_star)
    for t in ts.lc_tasks:
        if got[t.id] < 1:  # unclamped tasks carry equal mass = the level
            assert abs(got[t.id] * t.utilization - level) < F(1, 10**9)


def test_format_parse_round_trip(half_four_fifths_set, contrast_set):
    for ts in (half_four_fifths_set, contrast_set):
        assert parse_taskset(format_taskset(ts)) == ts


def test_parse_reports_line_numbers():
    text = "taskset v1\n1 10 4 HC\nbogus line here\n"
    with pytest.raises(TaskSetParseError) as err:
        parse_taskset(text)
    assert "line 3" in str(err.value)


def test_parse_rejects_missing_header():
    with pytest.raises(TaskSetParseError):
        parse_taskset("1 10 4 HC\n")


@given(st.lists(st.tuples(st.integers(1, 50), st.integers(1, 50),
                          st.booleans(), st.integers(0, 100)),
                min_size=1, max_size=6, unique_by=lambda t: t[0]))
@settings(max_examples=60, derandomize=True, deadline=None)
def test_round_trip_property(rows):
    tasks = []
    for tid, c_num, is_hc, a_num in rows:
        period = F(c_num) + F(tid, 7)
        wcet = F(c_num, 3)
        if is_hc:
            tasks.append(McTask(tid, period, wcet, Criticality.HC,
                                lc_estimate=wcet / 2))
        else:
            tasks.append(McTask(tid, period, wcet, Criticality.LC,
                                alpha=F(a_num, 100)))
    ts = TaskSet(tuple(tasks))
    assert parse_taskset(format_taskset(ts)) == ts


@given(st.lists(st.tuples(st.booleans(), st.integers(1, 60),
                          st.integers(1, 12), st.integers(1, 60),
                          st.integers(0, 60)),
                max_size=8))
@settings(max_examples=150, derandomize=True, deadline=None)
def test_class_sums_equal_plain_fraction_sums(rows):
    # periods t/den share factors with each other and with the WCETs, so
    # the per-task quotients arrive unreduced; either class may be empty
    tasks = []
    for i, (is_hc, t_num, den, c_num, e_num) in enumerate(rows, start=1):
        period = F(t_num, den)
        wcet = period * F(c_num, 60)
        if is_hc:
            tasks.append(McTask(i, period, wcet, Criticality.HC,
                                lc_estimate=wcet * F(e_num, 60)))
        else:
            tasks.append(McTask(i, period, wcet, Criticality.LC))
    ts = TaskSet(tuple(tasks))
    u_l = sum((t.wcet / t.period for t in ts.tasks if t.is_lc), F(0))
    u_h = sum((t.wcet / t.period for t in ts.tasks if t.is_hc), F(0))
    got = utilizations(ts)
    assert got == (u_l, u_h)
    assert all(type(u) is F for u in got)
    if ts.hc_tasks:
        est = sum((t.lc_estimate / t.period for t in ts.hc_tasks), F(0))
        assert beta_star_from_lc_estimates(ts) == est / u_h
    else:
        with pytest.raises(ValueError):
            beta_star_from_lc_estimates(ts)
