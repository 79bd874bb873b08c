"""Mode-switch probabilities under discretized execution-scale distributions.

Job execution demands are modelled as ``s * C_i`` with the scale ``s`` drawn
from a distribution supported on a finite grid (0.1, 0.2, ..., 1.0 for the
bundled example).  Two designs are compared:

* static per-task budgets ``beta_i * C_i``: the busy interval survives iff
  every task's scale lands at or below its budget scale, so with identical
  budgets ``P = cdf(floor(beta))**n``;
* one dynamic pool: the interval survives iff the utilization-weighted
  scales fit the pool, ``sum(s_i * u_i) <= beta_star * sum(u_i)``.

Both evaluations are exact over rationals; only the final probability is
returned as a float.  Two independent algorithms (half-enumeration with
prefix sums, and a pruned lattice convolution) must agree exactly and are
both exposed for cross-checking.
"""

from __future__ import annotations

import bisect
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from .errors import GridOverflow, InputError, InvalidFraction
from .taskmodel import as_fraction, read_text, unit_fraction


@dataclass(frozen=True)
class ExecDistribution:
    """A discrete execution-scale distribution given by its CDF on a grid.

    ``grid`` must be strictly increasing within (0, 1]; ``cdf`` must be
    non-decreasing, end at exactly 1, and assign positive mass overall.
    """

    grid: tuple[Fraction, ...]
    cdf: tuple[Fraction, ...]

    def __post_init__(self):
        grid = tuple(as_fraction(g, "grid point") for g in self.grid)
        cdf = tuple(unit_fraction(c, "cdf value") for c in self.cdf)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "cdf", cdf)
        if not grid or len(grid) != len(cdf):
            raise ValueError("grid and cdf must be equal-length and non-empty")
        if any(not 0 < g <= 1 for g in grid) or any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("grid must be strictly increasing within (0, 1]")
        if any(b < a for a, b in zip(cdf, cdf[1:])):
            raise ValueError("cdf must be non-decreasing")
        if cdf[-1] != 1:
            raise ValueError("cdf must reach exactly 1")

    @property
    def pmf(self) -> tuple[Fraction, ...]:
        prev = Fraction(0)
        out = []
        for c in self.cdf:
            out.append(c - prev)
            prev = c
        return tuple(out)

    def cdf_at(self, scale) -> Fraction:
        """P(s <= scale): the CDF at the largest grid point not above ``scale``."""
        s = as_fraction(scale, "scale")
        best = Fraction(0)
        for g, c in zip(self.grid, self.cdf):
            if g <= s:
                best = c
            else:
                break
        return best

    @classmethod
    def from_pairs(cls, pairs: Sequence[tuple]) -> "ExecDistribution":
        pts = sorted((as_fraction(g, "grid point"), as_fraction(c, "cdf value"))
                     for g, c in pairs)
        return cls(tuple(g for g, _ in pts), tuple(c for _, c in pts))


def parse_distribution(text: str) -> ExecDistribution:
    """Parse a distribution file: one ``scale cdf`` pair per line.

    Blank lines and ``#`` comments are ignored; values are rationals.  A
    malformed line or an invalid distribution raises :class:`InputError`.
    """
    pairs = []
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise InputError(f"line {no}: expected 'scale cdf', got {raw!r}")
        try:
            pairs.append((Fraction(fields[0]), Fraction(fields[1])))
        except (ValueError, ZeroDivisionError):
            raise InputError(f"line {no}: bad rational in {raw!r}") from None
    if not pairs:
        raise InputError("distribution file holds no data lines")
    try:
        return ExecDistribution.from_pairs(pairs)
    except (ValueError, InvalidFraction) as exc:
        raise InputError(str(exc)) from None


def load_distribution(path) -> ExecDistribution:
    return parse_distribution(read_text(path))


def _tenths(n: int) -> Fraction:
    return Fraction(n, 10)


# Bundled example distribution on the 0.1 .. 1.0 grid.
BUILTIN_DISTRIBUTIONS = {
    "table4": ExecDistribution(
        grid=tuple(_tenths(k) for k in range(1, 11)),
        cdf=(Fraction(1, 100), Fraction(1, 20), Fraction(1, 5), Fraction(1, 2),
             Fraction(4, 5), Fraction(9, 10), Fraction(19, 20), Fraction(49, 50),
             Fraction(199, 200), Fraction(1)),
    ),
}


def p_noswitch_static(dist: ExecDistribution, n: int, beta_i) -> float:
    """Survival probability of one busy interval under static budgets.

    ``n`` identical tasks each carry the per-task budget scale ``beta_i``;
    the interval stays nominal iff no task draws a scale above it.  Budget
    scales between grid points floor to the grid.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    beta = as_fraction(beta_i, "beta_i")
    if beta < 0:
        raise InvalidFraction(f"beta_i must be non-negative, got {beta}")
    return float(dist.cdf_at(beta) ** n)


def _enumerate_mass(weights: Sequence[Sequence[tuple[int, int]]],
                    bound: int) -> int:
    """Exact mass of { sum_i v_i <= bound } by meet-in-the-middle enumeration.

    ``weights[i]`` lists (value, weight) pairs for coordinate i.  Both halves
    of the coordinate product are expanded, one is sorted with prefix sums,
    and each element of the other half binary-searches its complement.
    """

    def expand(cols):
        acc = [(0, 1)]
        for col in cols:
            acc = [(v + cv, w * cw) for v, w in acc for cv, cw in col]
        return acc

    half = len(weights) // 2
    left = expand(weights[:half])
    right = expand(weights[half:])
    right.sort(key=lambda p: p[0])
    right_vals = [v for v, _ in right]
    prefix = [0]
    for _, w in right:
        prefix.append(prefix[-1] + w)
    total = 0
    for v, w in left:
        idx = bisect.bisect_right(right_vals, bound - v)
        total += w * prefix[idx]
    return total


_MAX_STATES = 200_000  # the state cap of the convolution lattice


def _convolve_mass(weights: Sequence[Sequence[tuple[int, int]]], bound: int) -> int:
    """Exact mass of { sum_i v_i <= bound } by lattice convolution.

    States above the bound are pruned (increments are non-negative, so they
    can never re-enter the feasible region).

    Raises:
        GridOverflow: if the running state count exceeds ``_MAX_STATES``.
    """
    acc: dict[int, int] = {0: 1}
    for col in weights:
        nxt: dict[int, int] = defaultdict(int)
        for value, weight in col:
            if weight == 0:
                continue
            for tot, p in acc.items():
                t2 = tot + value
                if t2 <= bound:
                    nxt[t2] += p * weight
        if len(nxt) > _MAX_STATES:
            raise GridOverflow(
                f"convolution lattice grew to {len(nxt)} states (cap {_MAX_STATES})")
        acc = dict(nxt)
    return sum(acc.values())


def p_noswitch_dynamic(dist: ExecDistribution, u_list: Sequence, beta_star, *,
                       method: str = "auto") -> float:
    """Survival probability of one busy interval under the dynamic pool.

    The interval stays nominal iff the drawn scales satisfy
    ``sum(s_i * u_i) <= beta_star * sum(u_i)``.  Scales are independent
    draws from ``dist``; utilizations must be positive rationals.

    Both algorithms run on an integer lattice: every value ``g * u`` and the
    bound are multiplied by the lcm of their denominators, and the pmf by
    the lcm ``W`` of its denominators.  The scaling is one-to-one, so the
    lattice has the same states as its rational form, and the mass over
    ``W**n`` is the exact probability.

    Both give the same integers, so "auto" picks by predicted work on a
    ``k``-point grid with scaled bound ``B``.  Column ``i`` of convolution
    holds at most ``min(k**i, B + 1)`` states, so at most ``C = sum_{i<n}
    k * min(k**i, B + 1)`` steps; enumeration makes ``E = k**ceil(n/2) +
    k**floor(n/2)`` sums.  Up to 8 tasks it convolves iff ``C <= E`` and
    ``min(k**n, B + 1)``, which bounds every column, fits ``_MAX_STATES``,
    so it never raises GridOverflow there; beyond 8 it always convolves.

    Args:
        method: "auto", or "enumerate" / "convolve" to force one.

    Raises:
        GridOverflow: if convolution exceeds ``_MAX_STATES`` states.
    """
    us = [as_fraction(u, "utilization") for u in u_list]
    if not us or any(u <= 0 for u in us):
        raise ValueError("u_list must be non-empty with positive entries")
    beta = unit_fraction(beta_star, "beta_star")
    bound = beta * sum(us, Fraction(0))
    values = [[g * u for g in dist.grid] for u in us]
    scale = lcm(bound.denominator,
                *(v.denominator for row in values for v in row))
    pmf = dist.pmf
    w_scale = lcm(*(w.denominator for w in pmf))
    int_pmf = [int(w * w_scale) for w in pmf]
    weights = [
        [(int(v * scale), w) for v, w in zip(row, int_pmf)]
        for row in values
    ]
    int_bound = int(bound * scale)
    if method == "auto":
        k, n = len(dist.grid), len(us)
        method = "convolve"
        if n <= 8 and (sum(k * min(k**i, int_bound + 1) for i in range(n))
                       > k ** ((n + 1) // 2) + k ** (n // 2)
                       or min(k**n, int_bound + 1) > _MAX_STATES):
            method = "enumerate"
    if method == "enumerate":
        mass = _enumerate_mass(weights, int_bound)
    elif method == "convolve":
        mass = _convolve_mass(weights, int_bound)
    else:
        raise ValueError(f"unknown method {method!r}")
    return float(Fraction(mass, w_scale ** len(us)))
