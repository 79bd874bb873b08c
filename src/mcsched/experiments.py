"""Reproducible experiment drivers and randomized property suites.

Every study is one row of :data:`EXPERIMENT_RUNNERS` and one rows
function, which derives all randomness from the experiment seed through
named ``numpy`` seed sequences.  :func:`run_experiment` writes its rows as
one CSV (header row plus a comment line recording version, seed and
parameters), so reruns with the same ExperimentSpec are byte-identical.
The figure 3 and 4 rows come from :func:`survival_rows` and
:func:`su_row`, which the ``prob`` and ``analyze`` commands print too.
"""

from __future__ import annotations

import csv
import statistics
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import __version__
from .analysis import (
    max_alpha_given_beta,
    optimal_beta_for_su,
    static_model_su,
    theorem1_test,
    threshold_m,
    total_system_utilization,
)
from .errors import Infeasible, McSchedError
from .generator import (
    BANDS,
    ConstantDemand,
    GenParams,
    GridDemand,
    UniformDemand,
    band_label,
    gen_job_sequence,
    gen_taskset,
)
from .probability import (
    BUILTIN_DISTRIBUTIONS,
    ExecDistribution,
    p_noswitch_dynamic,
    p_noswitch_static,
)
from .simulator import (
    EdfUvdMeba,
    SimConfig,
    check_lemma2_optimality,
    check_mapping_equivalence,
    mode_switch_instant,
    pool_utilization_violations,
    simulate,
    verify_mc_schedulable,
)
from .taskmodel import (
    Criticality,
    McTask,
    TaskSet,
    beta_star_from_lc_estimates,
    distribute_hc_budget_equal,
    utilizations,
)

DEFAULT_SEED = 1

W_GRID = tuple(k / 50 for k in range(1, 51))

_FIGURE2_U_SUM = Fraction(3, 2)  # U_L + U_H of the synthetic sets
# figure 3's task counts and pool levels, the defaults of ``mcsched prob``
_FIGURE3_NS = range(1, 9)
_FIGURE3_BETAS = tuple(Fraction(k, 100) for k in (45, 55, 65, 75))
_FIGURE4_U_SUM = Fraction(13, 10)


@dataclass(frozen=True)
class ExperimentSpec:
    """What to run, where to write it, and under which seed."""

    name: str
    out_dir: str = "results"
    seed: int = DEFAULT_SEED
    trials: int | None = None
    jobs: int = 1


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def write_rows(path: Path, header: Sequence[str], rows: Sequence[Sequence],
               comment: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# {comment}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def taskset_with_utilizations(u_l: Fraction, u_h: Fraction) -> TaskSet:
    """A minimal synthetic set hitting exact class utilizations (each <= 1)."""
    tasks = []
    if u_l > 0:
        tasks.append(McTask(1, Fraction(1), u_l, Criticality.LC))
    if u_h > 0:
        tasks.append(McTask(2, Fraction(1), u_h, Criticality.HC))
    return TaskSet(tuple(tasks))


def max_alpha_for_generated_set(ts: TaskSet) -> float:
    """Best guaranteed LC service when beta_star comes from the estimates.

    Unschedulable sets score 0; sets missing one criticality class score on
    plain utilization feasibility (an empty LC class makes the guarantee
    vacuous).
    """
    u_l, u_h = utilizations(ts)
    if u_l == 0 or u_h == 0:
        return 1.0 if u_l + u_h <= 1 else 0.0
    try:
        return float(max_alpha_given_beta(ts, beta_star_from_lc_estimates(ts)))
    except Infeasible:
        return 0.0  # estimates fill the whole HC share and M > 0


def _table3_cell(args) -> tuple[str, int, float, float, float]:
    seed, band_idx, rc, trials = args
    band = BANDS[band_idx]
    means = []
    for inflate in (False, True):
        params = GenParams(band=band, rc=rc, seed=seed, inflate_lc=inflate)
        samples = []
        for trial in range(trials):
            ss = np.random.SeedSequence((seed, band_idx, rc, trial, int(inflate)))
            samples.append(max_alpha_for_generated_set(gen_taskset(params, ss)))
        means.append(samples)
    primary, inflated = means
    mean = statistics.fmean(primary)
    std = statistics.stdev(primary) if len(primary) > 1 else 0.0
    return (band_label(band), rc, mean, std, statistics.fmean(inflated))


def run_table3_dynamic(spec: ExperimentSpec) -> list[tuple]:
    """Mean best LC service over generated task sets, per band and rc.

    Emits the primary generator variant (LC WCET equal to its optimistic
    draw) plus an LC-inflated sensitivity column, and the per-cell sample
    standard deviation.
    """
    cells = [(spec.seed, band_idx, rc, spec.trials)
             for rc in (3, 4, 5) for band_idx in range(len(BANDS))]
    if spec.jobs > 1:
        # imported here: it pulls in multiprocessing for every import of mcsched
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=spec.jobs) as pool:
            return list(pool.map(_table3_cell, cells))
    return [_table3_cell(cell) for cell in cells]


def figure2_grid() -> tuple[list[Fraction], list[float]]:
    u_l_grid = [Fraction(k, 10) for k in range(1, 11)
                if 0 < _FIGURE2_U_SUM - Fraction(k, 10) <= 1]
    return u_l_grid, list(W_GRID)


def run_figure2(spec: ExperimentSpec) -> list[tuple]:
    """Bandwidth scale that maximizes weighted utilization, over a grid."""
    u_l_grid, w_grid = figure2_grid()
    rows = []
    for u_l in u_l_grid:
        ts = taskset_with_utilizations(u_l, _FIGURE2_U_SUM - u_l)
        for w in w_grid:
            rows.append((float(u_l), w, optimal_beta_for_su(ts, w)))
    return rows


def survival_rows(dist: ExecDistribution, ns: Sequence[int], betas: Sequence[Fraction],
                  us: Sequence[Fraction] | None, models: Sequence[str]) -> list[tuple]:
    """Rows ``(n, beta, model, p)`` of busy-interval survival probabilities.

    ``model`` "s" is ``n`` identical static budgets, "d" the dynamic pool
    over ``us`` (None: ``n`` tasks of utilization 1/10).
    """
    rows = []
    for n in ns:
        u_list = [Fraction(1, 10)] * n if us is None else us
        for beta in betas:
            for model in models:
                p = (p_noswitch_static(dist, n, beta) if model == "s"
                     else p_noswitch_dynamic(dist, u_list, beta))
                rows.append((n, float(beta), model, p))
    return rows


def run_figure3(spec: ExperimentSpec) -> list[tuple]:
    """Busy-interval survival probabilities, static budgets vs dynamic pool."""
    return survival_rows(BUILTIN_DISTRIBUTIONS["table4"], _FIGURE3_NS, _FIGURE3_BETAS, None,
                         ("s", "d"))


def su_row(ts: TaskSet, w: float) -> tuple[float, float, float, float]:
    """``(beta_opt, su_dynamic, su_static, ratio)`` at weight ``w``: the dynamic
    design at its optimal beta_star against the static baseline."""
    beta_opt = optimal_beta_for_su(ts, w)
    su_dyn = total_system_utilization(ts, w, Fraction(beta_opt))
    su_static = static_model_su(ts, w)
    return beta_opt, su_dyn, su_static, su_dyn / su_static


def run_figure4(spec: ExperimentSpec) -> list[tuple]:
    """Weighted utilization of the dynamic design relative to the static one."""
    u_l_grid = [Fraction(k, 100) for k in (40, 50, 65, 80, 100)
                if 0 < _FIGURE4_U_SUM - Fraction(k, 100) <= 1]
    rows = []
    for u_l in u_l_grid:
        ts = taskset_with_utilizations(u_l, _FIGURE4_U_SUM - u_l)
        for w in W_GRID:
            rows.append((float(u_l), w, *su_row(ts, w)[1:]))
    return rows


@dataclass(frozen=True)
class Scenario:
    """A randomized admissible system plus a job sequence to drive it."""

    ts: TaskSet
    alpha_star: Fraction
    beta_star: Fraction
    x: Fraction
    jobs: tuple
    horizon: Fraction

    def config(self) -> SimConfig:
        return SimConfig(EdfUvdMeba(self.beta_star), self.x, horizon=self.horizon)


def random_feasible_scenario(seed_material, *, switchy: bool = False,
                             fine_demands: bool = False) -> Scenario:
    """Draw a schedulable system and a job sequence for it.

    The jobs come from :func:`~mcsched.generator.gen_job_sequence`: every
    task releases synchronously at 0 and strictly periodically after, over
    two or three times the longest period (no sporadic separation).

    Utilization targets stay at or below 0.9 per class so the service-level
    trade-off always admits a pair; levels and the deadline factor are drawn
    inside their exact admissible ranges.  ``switchy`` biases toward small
    bandwidth pools and full demands so degradations are frequent;
    ``fine_demands`` draws demand scales on a fine prime-denominator lattice
    to keep budget boundaries off the release lattice.
    """
    rng = np.random.default_rng(seed_material)
    n_lc = int(rng.integers(1, 3, endpoint=True))
    n_hc = int(rng.integers(1, 3, endpoint=True))
    u_l = Fraction(int(rng.integers(10, 90, endpoint=True)), 100)
    u_h = Fraction(int(rng.integers(10, 90, endpoint=True)), 100)

    def split(total: Fraction, n: int) -> list[Fraction]:
        weights = [int(rng.integers(1, 9, endpoint=True)) for _ in range(n)]
        num, den = total.numerator, total.denominator * sum(weights)
        return [Fraction(num * w, den) for w in weights]

    tasks = []
    tid = 1
    for crit, shares in ((Criticality.LC, split(u_l, n_lc)),
                         (Criticality.HC, split(u_h, n_hc))):
        for u in shares:
            period = Fraction(int(rng.integers(400, 4000, endpoint=True)), 100)
            tasks.append(McTask(tid, period, u * period, crit))
            tid += 1
    ts0 = TaskSet(tuple(tasks))

    # Both classes are non-empty, so M is defined.
    m = threshold_m(ts0)
    if m <= 0:
        beta = Fraction(int(rng.integers(0, 100, endpoint=True)), 100)
    else:
        hi = 40 if switchy else 100
        beta = (1 - m) * Fraction(int(rng.integers(0, hi)), 100)
    alpha_star = (max_alpha_given_beta(ts0, beta)
                  * Fraction(int(rng.integers(0, 100, endpoint=True)), 100))
    alphas = distribute_hc_budget_equal(ts0, alpha_star)
    ts = ts0.with_alphas(alphas)
    verdict = theorem1_test(ts, alpha_star, beta)
    if not verdict.schedulable:
        raise McSchedError("scenario factory produced an inadmissible system")
    span = verdict.x_hi - verdict.x_lo
    x = verdict.x_lo + span * Fraction(int(rng.integers(0, 100, endpoint=True)), 100)

    if switchy:
        model = ConstantDemand(Fraction(1))
    else:
        pick = int(rng.integers(0, 3))
        if pick == 0:
            model = GridDemand()
        elif pick == 1:
            lo = Fraction(int(rng.integers(1, 5)), 10)
            model = UniformDemand(lo, Fraction(1))
        else:
            model = ConstantDemand(Fraction(int(rng.integers(50, 100, endpoint=True)), 100))
    if fine_demands:
        k = int(rng.integers(5000, 9973, endpoint=True))
        model = ConstantDemand(Fraction(k, 9973))
    horizon = max(t.period for t in ts.tasks) * int(rng.integers(2, 4, endpoint=True))
    jobs = gen_job_sequence(ts, horizon, model, rng)
    return Scenario(ts, alpha_star, beta, x, jobs, horizon)


def switch_inducing_scenario(seed: int, trial: int, *,
                             fine_demands: bool = False) -> tuple[Scenario, Fraction]:
    """A scenario whose dynamic run degrades (in 50 draws), with its t*."""
    for attempt in range(50):
        sc = random_feasible_scenario(
            np.random.SeedSequence((seed, trial, attempt)),
            switchy=True, fine_demands=fine_demands)
        trace = simulate(sc.ts, sc.config(), sc.jobs, stop_after_switch=True)
        t_star = mode_switch_instant(trace)
        if t_star is not None:
            return sc, t_star
    raise McSchedError(f"no degradation found for trial {trial} in 50 attempts")


def random_budget_vectors(ts: TaskSet, beta_star: Fraction, rng, count: int,
                          include: Sequence[dict] = ()) -> list[dict]:
    """Fixed budget vectors whose bandwidth never exceeds the pool."""
    rng = np.random.default_rng(rng)
    _, u_h = utilizations(ts)
    pool = beta_star * u_h
    hc = ts.hc_tasks
    vectors = [dict(v) for v in include]
    while len(vectors) < count:
        shares = [int(rng.integers(0, 100, endpoint=True)) for _ in hc]
        vectors.append({
            t.id: t.period * pool * Fraction(s, 100 * len(hc))
            for t, s in zip(hc, shares)
        })
    return vectors[:count]


def run_lemma2_fuzz(spec: ExperimentSpec, *, vectors_per_sequence: int = 20
                    ) -> list[tuple]:
    """Fixed feasible budgets must never outlast the dynamic allocation."""
    rows = []
    for trial in range(spec.trials):
        sc = random_feasible_scenario(
            np.random.SeedSequence((spec.seed, 2, trial)), switchy=True)
        rng = np.random.SeedSequence((spec.seed, 3, trial))
        trace = simulate(sc.ts, sc.config(), sc.jobs, stop_after_switch=True)
        switch_ev = next((ev for ev in trace.events if ev.snapshot is not None), None)
        include = [{t.id: Fraction(0) for t in sc.ts.hc_tasks}]
        if switch_ev is not None:
            include.append(dict(switch_ev.snapshot))
        vecs = random_budget_vectors(sc.ts, sc.beta_star, rng,
                                     vectors_per_sequence, include)
        ok = check_lemma2_optimality(sc.ts, sc.beta_star, sc.jobs, vecs, x=sc.x)
        rows.append((trial, "" if switch_ev is None else switch_ev.time, int(ok)))
    return rows


def run_mapping_fuzz(spec: ExperimentSpec) -> list[tuple]:
    """The static reduction must replay the dynamic schedule."""
    rows = []
    for trial in range(spec.trials):
        sc, t_star = switch_inducing_scenario(spec.seed, trial, fine_demands=True)
        ok = check_mapping_equivalence(sc.ts, None, sc.x, sc.jobs, beta_star=sc.beta_star)
        rows.append((trial, t_star, int(ok)))
    return rows


def run_e2e_verify(spec: ExperimentSpec) -> list[tuple]:
    """Admissible systems must produce clean traces and clean accounting."""
    rows = []
    for trial in range(spec.trials):
        sc = random_feasible_scenario(np.random.SeedSequence((spec.seed, 4, trial)))
        trace = simulate(sc.ts, sc.config(), sc.jobs)
        ok, violations = verify_mc_schedulable(sc.ts, sc.config(), trace)
        audit = pool_utilization_violations(sc.ts, sc.beta_star, trace)
        switched = mode_switch_instant(trace) is not None
        rows.append((trial, int(switched), int(ok and not audit)))
    return rows


_SUITE_HEADER = ("trial", "t_star", "ok")

# name -> (rows function, CSV header, default trials or None for a figure,
#          comment suffix)
EXPERIMENT_RUNNERS: dict[str, tuple[Callable[[ExperimentSpec], list[tuple]],
                                    tuple[str, ...], int | None, str]] = {
    "table3_dynamic": (run_table3_dynamic, ("band", "rc", "mean_max_alpha", "std_max_alpha",
                                            "mean_max_alpha_lc_inflated"), 1000, ""),
    "figure2": (run_figure2, ("U_L", "w", "beta_opt"), None, f" u_sum={_FIGURE2_U_SUM}"),
    "figure3": (run_figure3, ("n", "beta", "model", "p"), None, ""),
    "figure4": (run_figure4, ("U_L", "w", "su_dynamic", "su_static", "ratio"), None,
                f" u_sum={_FIGURE4_U_SUM}"),
    "lemma2_fuzz": (run_lemma2_fuzz, _SUITE_HEADER, 200, ""),
    "mapping_fuzz": (run_mapping_fuzz, _SUITE_HEADER, 100, ""),
    "e2e_verify": (run_e2e_verify, _SUITE_HEADER, 500, ""),
}
EXPERIMENTS = tuple(EXPERIMENT_RUNNERS)


def run_experiment(spec: ExperimentSpec) -> int:
    """Run an experiment by name and write its CSV.

    Returns the violation count: the suite rows whose ``ok`` is 0, and 0
    for the tables and figures.
    """
    if spec.name not in EXPERIMENT_RUNNERS:
        raise ValueError(f"unknown experiment {spec.name!r}; choose from {EXPERIMENTS}")
    run, header, trials, suffix = EXPERIMENT_RUNNERS[spec.name]
    if trials is not None:
        spec = replace(spec, trials=trials if spec.trials is None else spec.trials)
        suffix = f" trials={spec.trials}"
    rows = run(spec)
    write_rows(Path(spec.out_dir) / f"{spec.name}.csv", header, rows,
               f"mcsched {__version__} name={spec.name} seed={spec.seed}{suffix}")
    return sum(1 for row in rows if not row[-1]) if header is _SUITE_HEADER else 0
