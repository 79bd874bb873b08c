from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from mcsched import (
    BudgetOverrun,
    Criticality,
    McTask,
    MebaState,
    Mode,
    TaskSet,
    WrongMode,
)


def two_hc_set() -> TaskSet:
    return TaskSet((
        McTask(1, F(10), F(5), Criticality.LC),
        McTask(2, F(10), F(4), Criticality.HC),
        McTask(3, F(10), F(4), Criticality.HC),
    ))


def test_first_dispatch_gets_whole_pool():
    st8 = MebaState.for_taskset(two_hc_set(), F(1, 4))
    assert st8.beta_budget == F(1, 5)
    assert st8.on_dispatch(2) == F(2)  # T * beta * U_H


def test_regrant_subtracts_other_maxima():
    st8 = MebaState.for_taskset(two_hc_set(), F(1, 4))
    st8.on_dispatch(2)
    st8.on_preempt_or_complete(2, F(1))
    assert st8.on_dispatch(3) == F(10) * (F(1, 5) - F(1, 10))
    # a later, larger job of task 2 shrinks the next grant further
    st8.on_preempt_or_complete(3, F(1, 2))
    st8.on_dispatch(2)
    st8.on_preempt_or_complete(2, F(3, 2))
    assert st8.on_dispatch(3) == F(10) * (F(1, 5) - F(3, 2) / F(10))


def test_maxima_never_decrease():
    st8 = MebaState.for_taskset(two_hc_set(), F(1, 4))
    st8.on_dispatch(2)
    st8.on_preempt_or_complete(2, F(3, 2))
    st8.on_dispatch(2)
    st8.on_preempt_or_complete(2, F(1, 2))  # smaller later job is a no-op
    assert st8.e_m[2] == F(3, 2)


def test_zero_pool_grants_nothing():
    st8 = MebaState.for_taskset(two_hc_set(), F(0))
    assert st8.on_dispatch(2) == F(0)


def test_exhaustion_snapshot_meets_pool_exactly():
    # worked sequence: demands 1.05 then 0.96 against a 0.2 pool
    st8 = MebaState.for_taskset(two_hc_set(), F(1, 4))
    st8.on_dispatch(2)
    st8.on_preempt_or_complete(2, F(21, 20))
    grant = st8.on_dispatch(3)
    assert grant == F(19, 20)  # less than the 0.96 demand
    snapshot = st8.on_budget_exhausted(3)
    assert st8.mode is Mode.HC
    assert snapshot == ((2, F(21, 20)), (3, F(19, 20)))
    # the maxima exhaust the pool exactly at the switch
    assert st8.utilization_of_maxima() == st8.beta_budget
    # the snapshot is a copy, not a live view
    st8.on_idle()
    assert snapshot[1] == (3, F(19, 20))


def test_wrong_mode_guards():
    st8 = MebaState.for_taskset(two_hc_set(), F(1, 4))
    st8.on_dispatch(2)
    st8.on_budget_exhausted(2)
    with pytest.raises(WrongMode):
        st8.on_dispatch(3)
    with pytest.raises(WrongMode):
        st8.on_budget_exhausted(3)


def test_budget_overrun_guard():
    st8 = MebaState.for_taskset(two_hc_set(), F(1, 4))
    st8.on_dispatch(2)
    with pytest.raises(BudgetOverrun):
        st8.on_preempt_or_complete(2, F(3))  # only 2 was granted


def test_idle_reset_is_idempotent():
    st8 = MebaState.for_taskset(two_hc_set(), F(1, 4))
    st8.on_dispatch(2)
    st8.on_budget_exhausted(2)
    for _ in range(2):
        st8.on_idle()
        assert st8.mode is Mode.LC
        assert all(v == 0 for v in st8.e_m.values())
        assert all(v == 0 for v in st8.b.values())


@given(st.lists(st.tuples(st.sampled_from([2, 3]), st.integers(0, 100)),
                min_size=1, max_size=12))
@settings(max_examples=80, derandomize=True, deadline=None)
def test_pool_never_overflows_while_nominal(steps):
    """Any dispatch/consume interleaving keeps the maxima within the pool."""
    st8 = MebaState.for_taskset(two_hc_set(), F(1, 4))
    for tid, pct in steps:
        grant = st8.on_dispatch(tid)
        spend = grant * F(pct, 100)
        if spend >= grant and spend < F(4):
            # full-budget incomplete job: this is the switch case
            st8.on_budget_exhausted(tid)
            assert st8.utilization_of_maxima() == st8.beta_budget
            return
        st8.on_preempt_or_complete(tid, min(spend, F(4)))
        assert st8.utilization_of_maxima() <= st8.beta_budget
