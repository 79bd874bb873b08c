"""Command line front end.

Subcommands: ``analyze`` (admissibility and utilization trade-offs),
``simulate`` (run one schedule and optionally verify it), ``gen`` (random
task sets), ``prob`` (degradation-avoidance probabilities) and
``experiment`` (the canned reproducible studies).  Exit status is 0 on
success, 1 when a check fails or a system is found unschedulable, 2 on
usage errors and malformed or missing input files.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import default_x, theorem1_test, threshold_m
from .errors import Infeasible, InputError, InvalidFraction, InvalidJobSequence, McSchedError
from .experiments import (
    EXPERIMENTS,
    W_GRID,
    ExperimentSpec,
    _FIGURE3_BETAS,
    _FIGURE3_NS,
    run_experiment,
    su_row,
    survival_rows,
    taskset_with_utilizations,
    write_rows,
)
from .generator import (
    BANDS,
    GenParams,
    _release_ticks,
    band_label,
    gen_job_sequence,
    gen_taskset,
    parse_demand_model,
)
from .probability import BUILTIN_DISTRIBUTIONS, load_distribution
from .simulator import (
    EdfUvdMeba,
    EdfVdStatic,
    FixedBudget,
    SimConfig,
    edf_dispatch_violations,
    load_jobs_csv,
    mode_switch_instant,
    pool_utilization_violations,
    save_trace_csv,
    simulate,
    validate_jobs,
    verify_mc_schedulable,
)
from .taskmodel import TaskSet, load_taskset, save_taskset, unit_fraction, utilizations


def _frac_list(text: str, option: str) -> list[Fraction]:
    try:
        return [Fraction(item) for item in text.split(",")]
    except (ValueError, ZeroDivisionError):
        raise InputError(f"{option} {text!r}: not a comma-separated list "
                         "of rational numbers") from None


def _frac(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _int_from(low: int):
    """An argparse type for ints of at least ``low``: 0 for seeds, 1 for counts."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be a {'positive' if low else 'non-negative'} integer, got {value}")
        return value
    parse.__name__ = "positive_int" if low else "int"  # argparse: "invalid <name> value"
    return parse


_MAX_GENERATED_JOBS = 100_000


def _load_taskset(path: str) -> TaskSet:
    try:
        return load_taskset(path)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None


def _out_dir(args) -> Path:
    out = args.out or os.environ.get("MCSCHED_OUT") or "results"
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load_or_synthesize(args) -> TaskSet:
    if args.taskset:
        return _load_taskset(args.taskset)
    if args.u_l is None or args.u_h is None:
        raise InputError("need --taskset or both --u-l and --u-h")
    try:
        return taskset_with_utilizations(args.u_l, args.u_h)
    except ValueError as exc:
        raise InputError(f"--u-l/--u-h: {exc}") from None


def _cmd_analyze(args) -> int:
    ts = _load_or_synthesize(args)
    u_l, u_h = utilizations(ts)
    m = threshold_m(ts)
    if (args.alpha_star is None) != (args.beta_star is None):
        raise InputError("need --alpha-star with --beta-star")
    print(f"U_L={u_l} U_H={u_h} M={'none' if m is None else m}")
    status = 0
    if args.alpha_star is not None:
        verdict = theorem1_test(ts, args.alpha_star, args.beta_star)
        print(f"schedulable={'yes' if verdict.schedulable else 'no'}"
              f" x_lo={verdict.x_lo} x_hi={verdict.x_hi}")
        if verdict.schedulable:
            print(f"x={default_x(verdict)}")
        else:
            status = 1
    if args.w is not None:
        beta_opt, su_dyn, su_stat, ratio = su_row(ts, args.w)
        print(f"w={args.w} beta_opt={beta_opt:.6f} su_dynamic={su_dyn:.6f}"
              f" su_static={su_stat:.6f} ratio={ratio:.6f}")
    if args.sweep:
        rows = [(w, *su_row(ts, w)) for w in W_GRID]
        path = _out_dir(args) / "analyze_sweep.csv"
        write_rows(path, ["w", "beta_opt", "su_dynamic", "su_static", "ratio"],
                   rows, f"mcsched {__version__} name=analyze_sweep")
        print(f"wrote {path}")
    return status


def _parse_budgets(text: str) -> dict[int, Fraction]:
    budgets = {}
    try:
        for item in text.split(","):
            tid, _, val = item.partition(":")
            budgets[int(tid)] = Fraction(val)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"--budgets {text!r}: use id:value,id:value") from None
    return budgets


def _cmd_simulate(args) -> int:
    ts = _load_taskset(args.taskset)
    if args.policy == "uvd":
        if args.beta_star is None:
            raise InputError("--policy uvd needs --beta-star")
        policy = EdfUvdMeba(args.beta_star)
    elif args.policy == "vd":
        policy = EdfVdStatic()
    else:
        if not args.budgets:
            raise InputError("--policy fixed needs --budgets")
        policy = FixedBudget(_parse_budgets(args.budgets))
    try:
        policy.hc_budgets(ts)  # rejects budgets of non-HC tasks, missing lc_estimate
    except ValueError as exc:
        raise InputError(str(exc)) from None

    x = args.x
    if x is None:
        if args.alpha_star is None or args.beta_star is None:
            raise InputError("need --x, or --alpha-star with --beta-star")
        verdict = theorem1_test(ts, args.alpha_star, args.beta_star)
        try:
            x = default_x(verdict)
        except Infeasible:
            print("unschedulable: no admissible deadline factor", file=sys.stderr)
            return 1
    if args.horizon is not None and args.horizon <= 0:
        raise InputError(f"--horizon must be positive, got {args.horizon}")
    cfg = SimConfig(policy, x, horizon=args.horizon)

    if args.jobs_csv:
        for option, value in (("--seed", args.seed), ("--demand-model", args.demand_model)):
            if value is not None:
                raise InputError(f"{option} is for generated jobs, not --jobs-csv")
        try:
            jobs = load_jobs_csv(args.jobs_csv)
            validate_jobs(ts, jobs)
        except (InputError, InvalidJobSequence) as exc:
            raise InputError(f"{args.jobs_csv}: {exc}") from None
    else:
        if args.horizon is None:
            raise InputError("generating jobs needs --horizon")
        count = sum(n for _, n in _release_ticks(ts, args.horizon)[1])
        if count > _MAX_GENERATED_JOBS:
            raise InputError(f"--horizon {args.horizon} would release {count} "
                             f"jobs, more than {_MAX_GENERATED_JOBS}")
        model = parse_demand_model(
            "constant:1" if args.demand_model is None else args.demand_model)
        seed = 1 if args.seed is None else args.seed
        jobs = gen_job_sequence(ts, args.horizon, model, np.random.SeedSequence(seed))

    trace = simulate(ts, cfg, jobs)
    t_star = mode_switch_instant(trace)
    print(f"jobs={len(jobs)} events={len(trace.events)}"
          f" t_star={'none' if t_star is None else t_star}")
    if args.trace:
        save_trace_csv(trace, args.trace)
        print(f"wrote {args.trace}")
    if not args.verify:
        return 0

    ok, violations = verify_mc_schedulable(ts, cfg, trace)
    for v in violations:
        print(f"violation: task {v.task} job {v.seq} deadline {v.deadline}"
              f" required {v.required} received {v.received} ({v.reason})")
    problems = list(edf_dispatch_violations(ts, cfg, trace))
    if args.policy == "uvd":
        problems += pool_utilization_violations(ts, args.beta_star, trace)
    for p in problems:
        print(f"violation: {p}")
    if ok and not problems:
        print("verify: ok")
        return 0
    return 1


def _parse_band(text: str):
    for band in BANDS:
        if band_label(band) == text:
            return band
    forms = "use lo:hi or one of " + ",".join(band_label(b) for b in BANDS)
    lo, sep, hi = text.partition(":")
    if not sep:
        raise InputError(f"unknown band {text!r}; {forms}")
    try:
        return (Fraction(lo), Fraction(hi))
    except (ValueError, ZeroDivisionError):
        raise InputError(f"--band {text!r}: lo and hi must be rational numbers; "
                         f"{forms}") from None


def _cmd_gen(args) -> int:
    try:
        params = GenParams(band=_parse_band(args.band), rc=args.rc,
                           seed=args.seed, inflate_lc=args.inflate_lc)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    band = params.band
    out = _out_dir(args)
    for i in range(args.count):
        ts = gen_taskset(params, np.random.SeedSequence((args.seed, i)))
        path = out / f"taskset_{band_label(band)}_rc{args.rc}_{i:03d}.txt"
        save_taskset(ts, path)
        u_l, u_h = utilizations(ts)
        print(f"wrote {path} tasks={len(ts.tasks)} U_L={u_l} U_H={u_h}")
    return 0


def _cmd_prob(args) -> int:
    try:
        dist = BUILTIN_DISTRIBUTIONS.get(args.dist) or load_distribution(args.dist)
    except InputError as exc:
        raise InputError(f"{args.dist}: {exc}") from None
    betas = _FIGURE3_BETAS if args.beta_star is None else [
        unit_fraction(b, "--beta-star")
        for b in _frac_list(args.beta_star, "--beta-star")]
    ns = _FIGURE3_NS if args.n is None else [args.n]
    us = _frac_list(args.u, "--u") if args.u else None
    if us is not None:
        if any(u <= 0 for u in us):
            raise InputError(f"--u {args.u!r}: utilizations must be positive")
        if args.n not in (None, len(us)):
            raise InputError(f"got {len(us)} utilizations for n={args.n}")
        ns = [len(us)]
    models = ("s", "d") if args.model == "both" else (args.model,)
    rows = survival_rows(dist, ns, betas, us, models)
    for row in rows:
        print(f"n={row[0]} beta={row[1]} model={row[2]} p={row[3]:.6f}")
    path = _out_dir(args) / "prob.csv"
    write_rows(path, ["n", "beta", "model", "p"], rows,
               f"mcsched {__version__} name=prob")
    print(f"wrote {path}")
    return 0


def _cmd_experiment(args) -> int:
    spec = ExperimentSpec(name=args.name, out_dir=str(_out_dir(args)),
                          seed=args.seed, trials=args.trials, jobs=args.jobs)
    violations = run_experiment(spec)
    print(f"experiment {args.name}: violations={violations}")
    return 1 if violations else 0


class _Parser(argparse.ArgumentParser):
    """Reports a rejected option or value as one usage error, like the commands."""

    def error(self, message):
        command = self.prog.removeprefix("mcsched").strip()
        raise InputError(f"{command}: {message}" if command else message)


def build_parser() -> argparse.ArgumentParser:
    seeded, writes = _Parser(add_help=False), _Parser(add_help=False)
    seeded.add_argument("--seed", type=_int_from(0), default=1)
    writes.add_argument("--out", default=None,
                        help="output directory (default $MCSCHED_OUT or ./results)")

    parser = _Parser(
        prog="mcsched",
        description="Mixed-criticality scheduling: analysis, simulation, studies.")
    parser.add_argument("--version", action="version",
                        version=f"mcsched {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=[writes],
                       help="admissibility and utilization trade-offs")
    p.add_argument("--taskset")
    p.add_argument("--u-l", type=_frac)
    p.add_argument("--u-h", type=_frac)
    p.add_argument("--alpha-star", type=_frac)
    p.add_argument("--beta-star", type=_frac)
    p.add_argument("--w", type=float)
    p.add_argument("--sweep", action="store_true",
                   help="write a weighted-utilization sweep over w")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("simulate", help="run one schedule")
    # Not from ``seeded``: the default is None here, and parsers share a
    # parent's actions, so a default set there would reach gen and experiment.
    p.add_argument("--seed", type=_int_from(0), help="seed for generated jobs (default 1)")
    p.add_argument("--taskset", required=True)
    p.add_argument("--policy", choices=("uvd", "vd", "fixed"), default="uvd")
    p.add_argument("--x", type=_frac)
    p.add_argument("--alpha-star", type=_frac)
    p.add_argument("--beta-star", type=_frac)
    p.add_argument("--budgets", help="fixed budgets as id:value,id:value")
    p.add_argument("--horizon", type=_frac)
    p.add_argument("--demand-model", help="for generated jobs (default constant:1)")
    p.add_argument("--jobs-csv")
    p.add_argument("--trace", help="write the event trace to this CSV")
    p.add_argument("--verify", action="store_true",
                   help="check service guarantees and dispatch order")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("gen", parents=[seeded, writes], help="generate random task sets")
    p.add_argument("--band", required=True,
                   help="band for the average utilization "
                        "(U_L + U_H + sum of HC C_L/T) / 2: lo:hi or a "
                        "label like 0.55")
    p.add_argument("--rc", type=int, default=3)
    p.add_argument("--count", type=_int_from(1), default=1)
    p.add_argument("--inflate-lc", action="store_true")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("prob", parents=[writes],
                       help="degradation-avoidance probabilities")
    p.add_argument("--dist", default="table4")
    p.add_argument("--n", type=_int_from(1))
    p.add_argument("--beta-star", help="comma-separated pool levels (default: figure 3's)")
    p.add_argument("--u", help="comma-separated per-task utilizations; sets n")
    p.add_argument("--model", choices=("s", "d", "both"), default="both")
    p.set_defaults(func=_cmd_prob)

    p = sub.add_parser("experiment", parents=[seeded, writes],
                       help="run a canned reproducible study")
    p.add_argument("name", choices=EXPERIMENTS)
    p.add_argument("--trials", type=_int_from(1))
    p.add_argument("--jobs", type=_int_from(1), default=1, help="worker processes")
    p.set_defaults(func=_cmd_experiment)
    return parser


def main(argv=None) -> int:
    command = ""  # parse errors name their subcommand themselves
    try:
        args = build_parser().parse_args(argv)
        command = f"{args.command}: "
        return args.func(args)
    # Out-of-range service levels, weights and deadline factors can only
    # come from options here, so they are usage errors too, as are files
    # named in arguments that cannot be read or written.
    except (InputError, InvalidFraction, OSError) as exc:
        print(f"error: {command}{exc}", file=sys.stderr)
        return 2
    except McSchedError as exc:
        print(f"error: {command}{exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
