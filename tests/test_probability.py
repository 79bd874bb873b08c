import itertools
import math
from fractions import Fraction as F

import pytest
from hypothesis import Phase, given, settings, strategies as st

from mcsched import (
    BUILTIN_DISTRIBUTIONS,
    ExecDistribution,
    GridOverflow,
    InvalidFraction,
    load_distribution,
    p_noswitch_dynamic,
    p_noswitch_static,
    parse_distribution,
)
from mcsched import probability

TABLE4 = BUILTIN_DISTRIBUTIONS["table4"]


def test_builtin_distribution_pmf():
    # hand-differenced from the bundled CDF
    assert TABLE4.pmf == tuple(F(k, 200) for k in
                               (2, 8, 30, 60, 60, 20, 10, 6, 3, 1))
    assert sum(TABLE4.pmf) == 1


def test_cdf_floors_to_the_grid():
    assert TABLE4.cdf_at(F(1, 2)) == F(4, 5)
    assert TABLE4.cdf_at(F(15, 100)) == F(1, 100)  # floors down to 0.1
    assert TABLE4.cdf_at(F(1, 20)) == 0            # below the grid
    assert TABLE4.cdf_at(F(1)) == 1
    assert TABLE4.cdf_at(F(2)) == 1


def test_static_survival_oracle():
    # two tasks at budget scale 1/2: (4/5)^2
    assert p_noswitch_static(TABLE4, 2, F(1, 2)) == pytest.approx(0.64, abs=0)


def test_dynamic_survival_oracle_equal_utilizations():
    # hand convolution of P(s1 + s2 <= 1): 30532/40000
    p = p_noswitch_dynamic(TABLE4, [F(1, 10), F(1, 10)], F(1, 2))
    assert p == float(F(7633, 10000))


def test_dynamic_survival_oracle_unequal_utilizations():
    # P(2*k1 + k2 <= 15) over the tenths lattice: 29790/40000
    p = p_noswitch_dynamic(TABLE4, [F(1, 5), F(1, 10)], F(1, 2))
    assert p == float(F(2979, 4000))


def test_dynamic_dominates_static():
    for n in range(1, 7):
        for beta in (F(1, 4), F(1, 2), F(3, 4)):
            p_s = p_noswitch_static(TABLE4, n, beta)
            p_d = p_noswitch_dynamic(TABLE4, [F(1, 10)] * n, beta)
            assert p_d >= p_s


def test_static_survival_strictly_decreasing_in_n():
    vals = [p_noswitch_static(TABLE4, n, F(1, 2)) for n in range(1, 9)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_enumeration_and_convolution_agree_exactly():
    for n in (1, 2, 5, 9):
        us = [F(k + 1, 20) for k in range(n)]
        a = p_noswitch_dynamic(TABLE4, us, F(11, 20), method="enumerate")
        b = p_noswitch_dynamic(TABLE4, us, F(11, 20), method="convolve")
        assert a == b


@pytest.mark.parametrize("us, beta, picked", [
    # ten-point grid, bound 36 on the scaled lattice: about 2,300
    # convolution steps against 2 * 10**4 enumerated sums
    ([F(1, 10)] * 8, F(45, 100), "convolve"),
    # coprime denominators put the bound near 4 * 10**10, so convolution's
    # predicted work is about 10**8 steps
    ([F(1, p) for p in (11, 13, 17, 19, 23, 29, 31, 37)], F(1, 4), "enumerate"),
])
def test_auto_picks_the_method_with_less_predicted_work(monkeypatch, us, beta,
                                                        picked):
    forced = {m: p_noswitch_dynamic(TABLE4, us, beta, method=m)
              for m in ("enumerate", "convolve")}
    assert forced["enumerate"] == forced["convolve"]
    calls = []
    for name in ("_enumerate_mass", "_convolve_mass"):
        real = getattr(probability, name)
        monkeypatch.setattr(probability, name,
                            lambda *a, _real=real, _name=name:
                            calls.append(_name) or _real(*a))
    assert p_noswitch_dynamic(TABLE4, us, beta) == forced[picked]
    assert calls == [f"_{picked}_mass"]


def test_convolution_state_cap(monkeypatch):
    monkeypatch.setattr(probability, "_MAX_STATES", 3)
    with pytest.raises(GridOverflow):
        p_noswitch_dynamic(TABLE4, [F(1, 10)] * 6, F(3, 4), method="convolve")


# grid off the tenths, with a zero-mass point
SMALL = ExecDistribution((F(1, 3), F(1, 2), F(4, 5), F(1)),
                         (F(1, 4), F(1, 4), F(5, 7), F(1)))


def brute_force_survival(dist, us, beta):
    """Exact mass and peak lattice size, by visiting every grid assignment."""
    bound = beta * sum(us)
    pmf = dist.pmf
    mass = F(0)
    for picks in itertools.product(range(len(dist.grid)), repeat=len(us)):
        if sum(dist.grid[k] * u for k, u in zip(picks, us)) <= bound:
            mass += math.prod(pmf[k] for k in picks)
    live = [k for k in range(len(dist.grid)) if pmf[k] > 0]
    peak = 0
    for m in range(1, len(us) + 1):
        sums = {sum(dist.grid[k] * u for k, u in zip(picks, us))
                for picks in itertools.product(live, repeat=m)}
        peak = max(peak, sum(1 for v in sums if v <= bound))
    return mass, peak


# no shrinking: each example can visit 10**4 assignments
@settings(max_examples=40, deadline=None, derandomize=True,
          phases=(Phase.explicit, Phase.generate))
@given(st.sampled_from([TABLE4, SMALL]),
       st.lists(st.fractions(min_value=F(1, 40), max_value=1,
                             max_denominator=40), min_size=1, max_size=4),
       st.fractions(min_value=0, max_value=1, max_denominator=60))
def test_dynamic_survival_matches_brute_force(dist, us, beta):
    mass, peak = brute_force_survival(dist, us, beta)
    for method in ("enumerate", "convolve"):
        assert p_noswitch_dynamic(dist, us, beta, method=method) == float(mass)
    # a function-scoped fixture would be shared by every example
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(probability, "_MAX_STATES", peak)
        assert p_noswitch_dynamic(dist, us, beta, method="convolve") == float(mass)
        if peak:
            mp.setattr(probability, "_MAX_STATES", peak - 1)
            with pytest.raises(GridOverflow):
                p_noswitch_dynamic(dist, us, beta, method="convolve")


def test_input_validation():
    with pytest.raises(ValueError):
        p_noswitch_static(TABLE4, 0, F(1, 2))
    with pytest.raises(InvalidFraction):
        p_noswitch_static(TABLE4, 1, F(-1, 2))
    with pytest.raises(ValueError):
        p_noswitch_dynamic(TABLE4, [], F(1, 2))
    with pytest.raises(ValueError):
        p_noswitch_dynamic(TABLE4, [F(0)], F(1, 2))
    with pytest.raises(InvalidFraction):
        p_noswitch_dynamic(TABLE4, [F(1, 10)], F(3, 2))
    with pytest.raises(ValueError):
        p_noswitch_dynamic(TABLE4, [F(1, 10)], F(1, 2), method="bogus")


def test_distribution_shape_validation():
    good_grid = (F(1, 2), F(1))
    with pytest.raises(ValueError):
        ExecDistribution((), ())
    with pytest.raises(ValueError):
        ExecDistribution(good_grid, (F(1),))
    with pytest.raises(ValueError):
        ExecDistribution((F(0), F(1)), (F(1, 2), F(1)))  # grid point at 0
    with pytest.raises(ValueError):
        ExecDistribution((F(1, 2), F(3, 2)), (F(1, 2), F(1)))  # above 1
    with pytest.raises(ValueError):
        ExecDistribution((F(1), F(1, 2)), (F(1, 2), F(1)))  # not increasing
    with pytest.raises(ValueError):
        ExecDistribution(good_grid, (F(1), F(1, 2)))  # cdf decreasing
    with pytest.raises(ValueError):
        ExecDistribution(good_grid, (F(1, 4), F(1, 2)))  # does not reach 1
    with pytest.raises(InvalidFraction):
        ExecDistribution(good_grid, (F(1, 2), F(3, 2)))  # cdf above 1


def test_parse_distribution_files(tmp_path):
    text = "# comment\n\n1/2 1/4\n1 1\n"
    dist = parse_distribution(text)
    assert dist.grid == (F(1, 2), F(1))
    assert dist.cdf == (F(1, 4), F(1))
    path = tmp_path / "dist.txt"
    path.write_text(text)
    assert load_distribution(path) == dist
    with pytest.raises(ValueError, match="line 1"):
        parse_distribution("1/2 1/4 extra\n")
    with pytest.raises(ValueError, match="line 2"):
        parse_distribution("1/2 1/4\nnot-a-number 1\n")
    with pytest.raises(ValueError):
        parse_distribution("# only comments\n")


def test_from_pairs_sorts():
    dist = ExecDistribution.from_pairs([(F(1), F(1)), (F(1, 2), F(1, 4))])
    assert dist.grid == (F(1, 2), F(1))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(0, 20), st.integers(1, 5))
def test_dynamic_survival_monotone_in_beta(k, n):
    lo = p_noswitch_dynamic(TABLE4, [F(1, 10)] * n, F(k, 40))
    hi = p_noswitch_dynamic(TABLE4, [F(1, 10)] * n, F(k + 1, 40))
    assert lo <= hi


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.lists(st.integers(1, 10), min_size=1, max_size=6),
       st.integers(0, 10))
def test_survival_is_a_probability(ks, b):
    us = [F(k, 20) for k in ks]
    p = p_noswitch_dynamic(TABLE4, us, F(b, 10))
    assert 0 <= p <= 1
    assert p_noswitch_dynamic(TABLE4, us, F(1)) == 1.0
