import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from mcsched import (
    BudgetExceedsWcet,
    Criticality,
    Infeasible,
    InvalidFraction,
    McTask,
    NoLcTasks,
    TaskSet,
    default_x,
    map_to_static,
    max_alpha_given_beta,
    max_beta_given_alpha,
    optimal_beta_for_su,
    static_model_su,
    static_split,
    su_levels,
    theorem1_test,
    threshold_m,
    total_system_utilization,
)
from mcsched.analysis import X_EPSILON


def two_task_set(u_l: F, u_h: F) -> TaskSet:
    tasks = []
    if u_l > 0:
        tasks.append(McTask(1, F(1), u_l, Criticality.LC))
    if u_h > 0:
        tasks.append(McTask(2, F(1), u_h, Criticality.HC))
    return TaskSet(tuple(tasks))


def test_threshold_m_values(half_four_fifths_set):
    assert threshold_m(half_four_fifths_set) == F(3, 4)
    assert threshold_m(two_task_set(F(1, 2), F(2, 3))) == F(1, 2)
    assert threshold_m(two_task_set(F(0), F(1, 2))) is None
    assert threshold_m(two_task_set(F(1, 2), F(0))) is None


def test_worked_example_accepts_boundary_pair(half_four_fifths_set):
    v = theorem1_test(half_four_fifths_set, F(0), F(1, 4))
    assert v.schedulable
    assert v.M == F(3, 4)
    # equality case pins the window to a single point
    assert v.x_lo == v.x_hi == F(2, 5)
    assert default_x(v) == F(2, 5)


def test_worked_example_rejects_violating_pair(half_four_fifths_set):
    v = theorem1_test(half_four_fifths_set, F(1, 2), F(1, 2))
    assert not v.schedulable
    with pytest.raises(Infeasible):
        default_x(v)


def test_rejects_every_pair_below_threshold(half_four_fifths_set):
    # 11x11 grid: schedulable iff (1-a)(1-b) >= 3/4, exactly
    for ai in range(0, 11):
        for bi in range(0, 11):
            a, b = F(ai, 10), F(bi, 10)
            v = theorem1_test(half_four_fifths_set, a, b)
            assert v.schedulable == ((1 - a) * (1 - b) >= F(3, 4))


def test_theorem1_validates_inputs(half_four_fifths_set):
    with pytest.raises(InvalidFraction):
        theorem1_test(half_four_fifths_set, F(3, 2), F(0))


def test_m_nonpositive_regime():
    ts = two_task_set(F(1, 4), F(1, 2))
    v = theorem1_test(ts, F(1), F(1))
    assert v.schedulable  # worst-case reservations fit when U_L + U_H <= 1


def test_empty_class_regime():
    hc_only = two_task_set(F(0), F(3, 4))
    assert theorem1_test(hc_only, F(1), F(1)).schedulable
    overload = TaskSet((McTask(1, F(1), F(3, 5), Criticality.HC),
                        McTask(2, F(1), F(3, 5), Criticality.HC)))
    assert not theorem1_test(overload, F(0), F(0)).schedulable


def test_unit_lc_utilization_unschedulable():
    # U_L = 1 makes the x lower-bound denominator vanish at alpha* = 0
    ts = two_task_set(F(1), F(1, 2))
    assert not theorem1_test(ts, F(0), F(0)).schedulable


def test_x_lower_bound_is_floored():
    ts = two_task_set(F(1, 4), F(1, 4))
    v = theorem1_test(ts, F(0), F(0))
    assert v.schedulable
    assert v.x_lo == X_EPSILON  # algebraic bound is 0, x must stay positive


def test_trade_off_oracles(half_four_fifths_set):
    assert max_alpha_given_beta(half_four_fifths_set, F(1, 4)) == F(0)
    assert max_beta_given_alpha(two_task_set(F(1, 2), F(2, 3)), F(0)) == F(1, 2)
    assert max_alpha_given_beta(two_task_set(F(1, 4), F(1, 2)), F(1)) == F(1)
    with pytest.raises(Infeasible):
        max_alpha_given_beta(half_four_fifths_set, F(1))


def test_su_levels_oracle(half_four_fifths_set):
    assert su_levels(half_four_fifths_set, F(0), F(1, 4)) == (F(7, 10), F(4, 5))
    # beta*=0 collapses SU_L to U_L; alpha*=1 lifts SU_H to U_L + U_H
    assert su_levels(half_four_fifths_set, F(1), F(0)) == (F(1, 2), F(13, 10))


def test_total_su_at_zero_weight(half_four_fifths_set):
    # w=0, beta=0: SU = U_H + U_L(1-M) = 4/5 + 1/2 * 1/4
    assert total_system_utilization(half_four_fifths_set, 0.0, F(0)) == 0.925


def test_total_su_rejects_beta_past_cap(half_four_fifths_set):
    with pytest.raises(Infeasible):
        total_system_utilization(half_four_fifths_set, 0.5, F(1, 2))


def test_optimal_beta_endpoints(half_four_fifths_set):
    assert optimal_beta_for_su(half_four_fifths_set, 0.0) == 0.0
    assert optimal_beta_for_su(half_four_fifths_set, 1.0) == 0.25
    assert optimal_beta_for_su(two_task_set(F(1, 4), F(1, 2)), 0.7) == 1.0


def _su_float(u_l, u_h, m, w, beta):
    # independent float evaluation of the weighted objective
    return (w * (beta * u_h + u_l)
            + (1 - w) * ((1 - m / (1 - beta)) * u_l + u_h))


def test_optimal_beta_matches_grid_search():
    # one cell of the w-sweep: U_L=0.7, U_H=0.8
    ts = two_task_set(F(7, 10), F(4, 5))
    m = float(threshold_m(ts))
    cap = 1 - m
    for w in (0.3, 0.5, 0.9):
        best = max((k * cap / 10**4 for k in range(10**4 + 1)),
                   key=lambda b: _su_float(0.7, 0.8, m, w, b))
        got = optimal_beta_for_su(ts, w)
        assert abs(got - best) <= 1e-3


def test_dynamic_su_at_cap_equals_static(half_four_fifths_set):
    for w in (0.0, 0.25, 0.5, 0.75, 1.0):
        cap = F(1, 4)  # 1 - M
        dyn = total_system_utilization(half_four_fifths_set, w, cap)
        assert math.isclose(dyn, static_model_su(half_four_fifths_set, w),
                            rel_tol=0, abs_tol=1e-12)


def test_static_su_oracle(half_four_fifths_set):
    assert static_model_su(half_four_fifths_set, 0.0) == 0.8
    assert static_model_su(half_four_fifths_set, 0.5) == 0.75
    with pytest.raises(NoLcTasks):
        static_model_su(two_task_set(F(0), F(1, 2)), 0.5)


@given(st.integers(5, 95), st.integers(5, 95),
       st.integers(0, 100), st.integers(0, 100),
       st.integers(0, 100), st.integers(0, 100))
@settings(max_examples=120, derandomize=True, deadline=None)
def test_theorem1_monotone(ul_pct, uh_pct, a1, a2, b1, b2):
    ts = two_task_set(F(ul_pct, 100), F(uh_pct, 100))
    a_hi, a_lo = max(a1, a2), min(a1, a2)
    b_hi, b_lo = max(b1, b2), min(b1, b2)
    hi = theorem1_test(ts, F(a_hi, 100), F(b_hi, 100))
    lo = theorem1_test(ts, F(a_lo, 100), F(b_lo, 100))
    # decreasing either service level never breaks schedulability
    if hi.schedulable:
        assert lo.schedulable
        assert lo.x_lo <= lo.x_hi


def test_map_to_static_lc_split():
    ts = TaskSet((McTask(1, F(10), F(4), Criticality.LC, alpha=F(1, 2)),
                  McTask(2, F(10), F(4), Criticality.HC)))
    parts = map_to_static(ts, {2: F(1)})
    by_id = {p.id: p for p in parts.tasks}
    assert by_id[2].lc_estimate == F(2) and by_id[2].wcet == F(2)
    assert by_id[2].criticality is Criticality.HC
    assert by_id[3].wcet == F(2) and by_id[3].criticality is Criticality.LC
    assert by_id[3].lc_estimate is None
    assert by_id[4].lc_estimate == F(1) and by_id[4].wcet == F(4)
    assert all(p.period == F(10) for p in parts.tasks)
    assert {p.id // 2 for p in parts.tasks} == {1, 2}
    assert static_split(ts.task(1), F(3)) == ((2, F(2)), (3, F(1)))
    assert static_split(ts.task(2), F(3)) == ((4, F(3)), (5, F(0)))


def test_map_to_static_degenerate_parts():
    ts = TaskSet((McTask(1, F(10), F(4), Criticality.LC, alpha=F(1)),
                  McTask(2, F(10), F(4), Criticality.HC)))
    parts = map_to_static(ts, {})  # missing e_m -> 0
    ids = {p.id for p in parts.tasks}
    assert ids == {2, 4}  # the (1-alpha) LC remainder is dropped at alpha=1
    assert parts.task(4).lc_estimate == F(0)


def test_map_to_static_budget_cap():
    ts = TaskSet((McTask(1, F(10), F(4), Criticality.HC),))
    with pytest.raises(BudgetExceedsWcet):
        map_to_static(ts, {1: F(5)})


def test_map_to_static_utilization_sums(contrast_set):
    # proof-level invariants of the mapped system
    e_m = {3: F(1)}
    parts = map_to_static(contrast_set, e_m)
    u_l = sum(t.utilization for t in contrast_set.lc_tasks)
    u_h = sum(t.utilization for t in contrast_set.hc_tasks)
    alpha_star = sum(t.alpha * t.utilization for t in contrast_set.lc_tasks) / u_l
    lc_parts = parts.lc_tasks
    hc_parts = parts.hc_tasks
    assert sum(p.wcet / p.period for p in lc_parts) == u_l * (1 - alpha_star)
    assert sum(p.wcet / p.period for p in hc_parts) == u_h + u_l * alpha_star
    beta_pool = sum(e_m[t.id] / t.period for t in contrast_set.hc_tasks)
    assert (sum(p.lc_estimate / p.period for p in hc_parts)
            == beta_pool + u_l * alpha_star)
