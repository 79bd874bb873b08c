"""The three benchmark workloads and the per-pass record they fill in.

Each workload builds its inputs from the seed in ``setup`` and then runs a
fixed amount of work, a *pass*, in ``run``.  A pass is a sequence of timed
units (task sets, scenarios or trace rungs) plus, for ``paper_tables``, a
few timed blocks.  Every output the program returns is fed into the pass
digest in the byte form mcsched writes it (CSV fields, exact rationals), so
the digest changes iff some output changes.

The benchmark calls mcsched's public functions through ``Pass.call``, which
counts the call and, when tracing is on, records a span named after the
layer: ``<module>.<function>``, plus a policy or method suffix where one
function is measured per argument (``simulate`` per policy,
``p_noswitch_dynamic`` per method).
"""

from __future__ import annotations

import hashlib
import statistics
import sys
import time
import traceback
from collections import Counter, defaultdict
from fractions import Fraction as F

import numpy as np

from mcsched import (
    BUILTIN_DISTRIBUTIONS,
    Criticality,
    EdfUvdMeba,
    FixedBudget,
    GenParams,
    GridDemand,
    McTask,
    ScheduleTrace,
    SimConfig,
    TaskSet,
    UniformDemand,
    Violation,
    check_mapping_equivalence,
    distribute_hc_budget_equal,
    edf_dispatch_violations,
    gen_job_sequence,
    gen_taskset,
    mode_switch_instant,
    optimal_beta_for_su,
    p_noswitch_dynamic,
    p_noswitch_static,
    pool_utilization_violations,
    simulate,
    static_model_su,
    theorem1_test,
    total_system_utilization,
    verify_mc_schedulable,
)
from mcsched.experiments import (
    max_alpha_for_generated_set,
    random_budget_vectors,
    random_feasible_scenario,
    taskset_with_utilizations,
)
from mcsched.generator import BANDS, band_label


def _canon(obj, out: list) -> None:
    """Append the exact text form of an mcsched output to ``out``."""
    if isinstance(obj, (list, tuple)):
        out.append("(")
        for item in obj:
            _canon(item, out)
        out.append(")")
    elif isinstance(obj, float):
        out.append(repr(obj))
    elif obj is None or isinstance(obj, (bool, int, str, F)):
        out.append(str(obj))
    elif isinstance(obj, ScheduleTrace):
        # The rows of save_jobs_csv and save_trace_csv.
        for j in obj.jobs:
            out.append(f"{j.task},{j.release},{j.demand}")
        for ev in obj.events:
            detail = ev.detail
            if ev.snapshot is not None:
                packed = ",".join(f"{tid}:{val}" for tid, val in ev.snapshot)
                detail = f"{detail};e_m={packed}" if detail else f"e_m={packed}"
            out.append(f"{ev.time},{ev.kind.value},"
                       f"{'' if ev.task is None else ev.task},"
                       f"{'' if ev.job is None else ev.job},{detail}")
    elif isinstance(obj, TaskSet):
        for t in obj.tasks:
            out.append(f"{t.id} {t.period} {t.wcet} {t.criticality.value} "
                       f"{t.alpha} {t.lc_estimate}")
    elif isinstance(obj, Violation):
        out.append(f"{obj.task},{obj.seq},{obj.deadline},{obj.required},"
                   f"{obj.received},{obj.reason}")
    else:
        raise TypeError(f"no digest form for {type(obj).__name__}")


class Pass:
    """Timings, counts, digest and failures of one pass.

    ``wall_s`` and ``cpu_s`` cover only the timed units and blocks, so the
    benchmark's own hashing is not measured.
    """

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.counts: Counter = Counter()
        self.unit_s: list[float] = []
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.failed_units = 0
        self.problems: list[str] = []
        # Results the self-tests compare with mcsched's experiment functions.
        self.kept: defaultdict = defaultdict(list)
        self._hash = hashlib.sha256()

    @property
    def digest(self) -> str:
        return self._hash.hexdigest()

    def call(self, name: str, fn, *args, **kwargs):
        self.counts[name + ".calls"] += 1
        return self.tracer.call(name, fn, *args, **kwargs)

    def absorb(self, tag, outputs) -> None:
        parts: list = []
        _canon(outputs, parts)
        self._hash.update(f"[{tag}]\n".encode())
        self._hash.update("\n".join(parts).encode())

    def _timed(self, kind: str, tag, fn, args):
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            with self.tracer.span(kind, unit=tag):
                ok, outputs = fn(*args)
        except Exception:  # a failing unit is counted, the run goes on
            traceback.print_exc(file=sys.stderr)
            ok, outputs = False, None
        dt = time.perf_counter() - t0
        self.wall_s += dt
        self.cpu_s += time.process_time() - c0
        if not ok:
            self.problems.append(f"{kind} {tag} failed")
        self.absorb(tag, outputs)
        return ok, outputs, dt

    def unit(self, tag, fn, *args):
        """Time ``fn(*args) -> (ok, outputs)`` as one unit; return outputs."""
        ok, outputs, dt = self._timed("unit", tag, fn, args)
        self.unit_s.append(dt)
        self.failed_units += not ok
        return outputs

    def block(self, tag, fn, *args) -> None:
        """Time non-unit work; a failed block fails every unit of the pass."""
        self._timed("block", tag, fn, args)


# ---------------------------------------------------------------- paper_tables

FIG3_BETAS = (F(45, 100), F(55, 100), F(65, 100), F(75, 100))


class PaperTables:
    """The paper's numbers without the simulator.

    Table 3 makes the same ``gen_taskset`` + ``max_alpha_for_generated_set``
    calls as ``run_table3_dynamic`` over all 15 (band, rc) cells and both LC
    variants, with fewer trials per cell.  Then the figure 3 and figure 4
    sweeps, and the dynamic survival probability by convolution at n=8
    (checked equal to the enumerated figure 3 value) and n=12.
    """

    name = "paper_tables"
    unit = "task_set"

    def __init__(self, trials: int = 40) -> None:
        self.trials = trials

    def setup(self, seed: int, p: Pass):
        cells = [(band_idx, rc, [GenParams(band=BANDS[band_idx], rc=rc, seed=seed,
                                           inflate_lc=inflate)
                                 for inflate in (False, True)])
                 for rc in (3, 4, 5) for band_idx in range(len(BANDS))]
        fig4_u_sum = F(13, 10)
        fig4_sets = [(u_l, taskset_with_utilizations(u_l, fig4_u_sum - u_l))
                     for u_l in (F(k, 100) for k in (40, 50, 65, 80, 100))
                     if 0 < fig4_u_sum - u_l <= 1]
        return seed, cells, fig4_sets

    def run(self, inputs, p: Pass) -> None:
        seed, cells, fig4_sets = inputs
        for band_idx, rc, params in cells:
            samples = []
            for inflate, prm in enumerate(params):
                alphas = []
                for trial in range(self.trials):
                    ss = np.random.SeedSequence((seed, band_idx, rc, trial, inflate))
                    out = p.unit((band_idx, rc, inflate, trial), self._task_set, p, prm, ss)
                    alphas.append(out[1] if out else float("nan"))
                samples.append(alphas)
            primary, inflated = samples
            std = statistics.stdev(primary) if len(primary) > 1 else 0.0
            row = (band_label(BANDS[band_idx]), rc,
                   statistics.fmean(primary), std, statistics.fmean(inflated))
            p.absorb("row", row)
            p.kept["table3"].append(row)
        p.block("figure3", self._figure3, p)
        p.block("figure4", self._figure4, p, fig4_sets)

    @staticmethod
    def _task_set(p: Pass, params, ss):
        ts = p.call("generator.gen_taskset", gen_taskset, params, ss)
        p.counts["generator.gen_taskset.tasks"] += len(ts.tasks)
        alpha = p.call("experiments.max_alpha_for_generated_set",
                       max_alpha_for_generated_set, ts)
        return 0.0 <= alpha <= 1.0, (ts, alpha)

    @staticmethod
    def _figure3(p: Pass):
        dist = BUILTIN_DISTRIBUTIONS["table4"]
        rows, enumerated = [], {}
        for n in range(1, 9):
            us = [F(1, 10)] * n
            for beta in FIG3_BETAS:
                rows.append((n, float(beta), "s", p.call(
                    "probability.p_noswitch_static", p_noswitch_static, dist, n, beta)))
                # run_figure3 leaves the method on "auto", which enumerates
                # up to 8 tasks.
                p_d = p.call("probability.p_noswitch_dynamic.enumerate",
                             p_noswitch_dynamic, dist, us, beta)
                rows.append((n, float(beta), "d", p_d))
                enumerated[n, beta] = p_d
        ok = True
        for n in (8, 12):
            for beta in FIG3_BETAS:
                p_c = p.call("probability.p_noswitch_dynamic.convolve", p_noswitch_dynamic,
                             dist, [F(1, 10)] * n, beta, method="convolve")
                rows.append((n, float(beta), "convolve", p_c))
                if n == 8 and p_c != enumerated[n, beta]:
                    ok = False
        return ok, rows

    @staticmethod
    def _figure4(p: Pass, fig4_sets):
        rows, ok = [], True
        for u_l, ts in fig4_sets:
            for w in (k / 50 for k in range(1, 51)):
                beta_opt = p.call("analysis.optimal_beta_for_su", optimal_beta_for_su, ts, w)
                su_dyn = total_system_utilization(ts, w, F(beta_opt))
                su_static = static_model_su(ts, w)
                rows.append((float(u_l), w, su_dyn, su_static, su_dyn / su_static))
                ok = ok and su_dyn / su_static >= 1 - 1e-9
        return ok, rows


# ------------------------------------------------------------- property_suites

class PropertySuites:
    """Many short admissible scenarios, checked like acceptance criteria 3-6.

    Scenario ``k`` of a pass is switchy when ``k`` is odd.  Every
    ``replay_every``-th switchy scenario also replays its job sequence under
    ``vectors`` fixed-budget vectors (criterion 4, Lemma 2), and every
    ``mapping_every``-th one is drawn with fine demands and checked by
    ``check_mapping_equivalence`` (criterion 5), keeping the acceptance
    suite's 100:10:1 proportions.  Setup keeps only scenarios with
    ``JOBS_BAND`` jobs: audit time grows with the square of trace length,
    so a few long draws would otherwise set the pass time, and long traces
    have a workload of their own.
    """

    JOBS_BAND = (16, 40)

    name = "property_suites"
    unit = "scenario"

    def __init__(self, scenarios: int = 300, replay_every: int = 10, vectors: int = 100,
                 mapping_every: int = 100) -> None:
        self.scenarios = scenarios
        self.replay_every = replay_every
        self.vectors = vectors
        self.mapping_every = mapping_every

    def setup(self, seed: int, p: Pass):
        plan, i = [], 0
        lo, hi = self.JOBS_BAND
        while len(plan) < self.scenarios:
            k = len(plan)
            switchy = k % 2 == 1
            replay = k % self.replay_every == 1
            mapping = k % self.mapping_every == 3
            sc = random_feasible_scenario(np.random.SeedSequence((seed, 40, i)),
                                          switchy=switchy, fine_demands=mapping)
            if lo <= len(sc.jobs) <= hi:
                plan.append((seed, i, switchy, replay, mapping))
            i += 1
        return plan

    def run(self, plan, p: Pass) -> None:
        for item in plan:
            p.unit(item[1], self._scenario, p, *item)

    def _scenario(self, p: Pass, seed, i, switchy, replay, mapping):
        sc = p.call("experiments.random_feasible_scenario", random_feasible_scenario,
                    np.random.SeedSequence((seed, 40, i)),
                    switchy=switchy, fine_demands=mapping)
        cfg = sc.config()
        trace = p.call("simulator.simulate.uvd", simulate, sc.ts, cfg, sc.jobs)
        t_dyn = mode_switch_instant(trace)
        p.counts["simulator.simulate.uvd.events"] += len(trace.events)
        p.counts["experiments.random_feasible_scenario.switched"] += t_dyn is not None
        outputs = [sc.ts, sc.alpha_star, sc.beta_star, sc.x, trace]
        ok = _audit(p, sc.ts, cfg, sc.beta_star, trace, outputs)
        if replay:
            ok &= self._lemma2(p, sc, trace, t_dyn, np.random.SeedSequence((seed, 3, i)),
                               outputs)
        if mapping:
            same = p.call("simulator.check_mapping_equivalence", check_mapping_equivalence,
                          sc.ts, {t.id: t.alpha for t in sc.ts.lc_tasks}, sc.x, sc.jobs,
                          beta_star=sc.beta_star)
            p.counts["simulator.check_mapping_equivalence.mismatches"] += not same
            outputs.append(same)
            ok &= same
        return ok, outputs

    def _lemma2(self, p: Pass, sc, trace, t_dyn, seed_seq, outputs) -> bool:
        """Lemma 2: no fixed feasible budget vector degrades later than the pool.

        The vectors are drawn as ``run_lemma2_fuzz`` draws them, including
        the all-zero vector and the execution maxima at the switch.
        """
        include = [{t.id: F(0) for t in sc.ts.hc_tasks}]
        switch_ev = next((ev for ev in trace.events if ev.snapshot is not None), None)
        if switch_ev is not None:
            include.append(dict(switch_ev.snapshot))
        vectors = random_budget_vectors(sc.ts, sc.beta_star, seed_seq, self.vectors, include)
        ok = True
        for vec in vectors:
            fixed = p.call("simulator.simulate.fixed", simulate, sc.ts,
                           SimConfig(FixedBudget(vec), sc.x), sc.jobs, stop_after_switch=True)
            p.counts["simulator.simulate.fixed.events"] += len(fixed.events)
            t_fix = mode_switch_instant(fixed)
            outputs.append((fixed, t_fix))
            if t_dyn is not None and (t_fix is None or t_fix > t_dyn):
                ok = False
        p.kept["lemma2"].append((vectors, ok))
        return ok


def _audit(p: Pass, ts, cfg, beta_star, trace, outputs) -> bool:
    """Run the three trace audits; True iff all are clean."""
    events = len(trace.events)
    ok_v, violations = p.call("simulator.verify_mc_schedulable",
                              verify_mc_schedulable, ts, cfg, trace)
    pool = p.call("simulator.pool_utilization_violations",
                  pool_utilization_violations, ts, beta_star, trace)
    edf = p.call("simulator.edf_dispatch_violations", edf_dispatch_violations, ts, cfg, trace)
    for name, found in (("verify_mc_schedulable", violations),
                        ("pool_utilization_violations", pool),
                        ("edf_dispatch_violations", edf)):
        p.counts[f"simulator.{name}.events"] += events
        p.counts[f"simulator.{name}.violations"] += len(found)
    outputs.extend([ok_v, violations, pool, edf])
    return ok_v and not violations and not pool and not edf


# ----------------------------------------------------------------- long_traces

def _fixed_scenarios():
    """Two hand-built admissible systems (exact, independent of the seed).

    ``nominal`` draws HC demands from the paper's table 4 grid, so it
    degrades rarely; ``switchy`` has a small pool and near-full demands, so
    it degrades in most busy intervals.
    """
    lc, hc = Criticality.LC, Criticality.HC
    nominal = ((McTask(1, 20, 6, lc), McTask(2, 50, 10, lc),
                McTask(3, 25, 10, hc), McTask(4, 40, 12, hc)),
               F(1, 4), F(1, 5), GridDemand())
    switchy = ((McTask(1, 20, 10, lc), McTask(2, 15, 6, hc), McTask(3, 30, 6, hc)),
               F(1, 2), F(1, 20), UniformDemand(F(4, 5), F(1)))
    return {"nominal": nominal, "switchy": switchy}


class LongTraces:
    """Fixed systems simulated at a doubling ladder of trace lengths.

    Rung ``r`` releases about ``rungs[r]`` jobs (the horizon is set from the
    task rates), which gives about 3 events per job.  Each rung is
    simulated once and audited by all three audits.  The seed only draws
    the job demands, so trace lengths barely move between seeds.
    """

    name = "long_traces"
    unit = "trace_rung"

    def __init__(self, rungs: tuple[int, ...] = (64, 128, 256, 512)) -> None:
        self.rungs = rungs

    def setup(self, seed: int, p: Pass):
        inputs = []
        for k, (label, (tasks, alpha_star, beta_star, model)) in enumerate(
                _fixed_scenarios().items()):
            ts0 = TaskSet(tasks)
            ts = ts0.with_alphas(distribute_hc_budget_equal(ts0, alpha_star))
            verdict = theorem1_test(ts, alpha_star, beta_star)
            if not verdict.schedulable:
                raise RuntimeError(f"long_traces scenario {label} is not admissible")
            x = (verdict.x_lo + verdict.x_hi) / 2
            rate = sum(1 / t.period for t in ts.tasks)
            for r, target in enumerate(self.rungs):
                horizon = F(target) / rate
                jobs = p.call("generator.gen_job_sequence", gen_job_sequence, ts, horizon,
                              model, np.random.SeedSequence((seed, 60, k, r)))
                p.counts["generator.gen_job_sequence.jobs"] += len(jobs)
                cfg = SimConfig(EdfUvdMeba(beta_star), x, horizon=horizon)
                inputs.append(((label, r), ts, beta_star, cfg, jobs))
        return inputs

    def run(self, inputs, p: Pass) -> None:
        for tag, ts, beta_star, cfg, jobs in inputs:
            p.unit(tag, self._rung, p, tag[1], ts, beta_star, cfg, jobs)

    @staticmethod
    def _rung(p: Pass, r, ts, beta_star, cfg, jobs):
        trace = p.call("simulator.simulate.uvd", simulate, ts, cfg, jobs)
        p.counts["simulator.simulate.uvd.events"] += len(trace.events)
        p.counts[f"rung{r}.events"] += len(trace.events)
        outputs = [trace]
        return _audit(p, ts, cfg, beta_star, trace, outputs), outputs


WORKLOADS = {w.name: w for w in (PaperTables, PropertySuites, LongTraces)}
