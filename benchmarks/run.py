"""mcsched benchmark: one workload, one seed, one process, one thread.

    python3 benchmarks/run.py --workload paper_tables --seed 1 --seconds 40 --trace 0

Workloads (see ``workloads.py`` for why each exists):

* ``paper_tables``: table 3 task sets plus the figure 3/4 sweeps; unit = task set.
* ``property_suites``: short admissible scenarios checked as in acceptance
  criteria 3-6; unit = scenario.
* ``long_traces``: fixed systems at a doubling ladder of trace lengths,
  simulated and audited; unit = trace rung.

Per-pass figures are averaged over the run's passes: on a shared machine
the speed of a core can drift over tens of seconds, and a mean over the
run follows such drift more smoothly than a median of a few passes.

The run builds its inputs from the seed three times (``setup_s`` uses the
median), then repeats a fixed pass over them, closed loop, for as many
passes as fit in ``--seconds``.  Every pass must give the same output
digest and work counts; when ``digests.json`` holds the seed, they must
also equal the recorded ones.  Any mismatch, raised exception or audit
violation fails the run.

With ``--trace 0`` the last line carries the end-to-end metrics:

* ``setup_s``: process start (the first line of this file) to the first
  timed unit, i.e. imports plus the median input build;
* ``wall_s`` / ``cpu_s``: wall / process CPU time of one pass, over the
  timed units and blocks only (the digest hashing is not timed);
* ``units_per_s``: units completed per second of measured pass time;
* ``unit_ms_p50`` / ``unit_ms_tail``: the median unit time of a pass, and
  the unit time with exactly ten units of the pass above it (the maximum
  when a pass has ten units or fewer);
* ``peak_rss_mb``: peak resident memory of the process.

``error_rate`` (failed / attempted units) is printed with them; it is the
``failed`` and ``attempted`` fields of the result line.

With ``--trace 1`` the passes alternate between tracing off and on.  The
traced passes record spans around every call into mcsched and give the
per-layer metrics; ``trace.overhead_s`` is the median traced pass minus
the median untraced one.  Spans are written to
``.bench_out/spans-<workload>-seed<seed>.json``.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
AUDITS = ("verify_mc_schedulable", "pool_utilization_violations", "edf_dispatch_violations")
WORKLOAD_NAMES = ("paper_tables", "property_suites", "long_traces")


def import_workloads():
    """Import mcsched from this checkout's ``src`` (never an installed copy)."""
    src = ROOT / "src"
    if not (src / "mcsched" / "__init__.py").is_file():
        raise SystemExit(f"error: no mcsched sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import mcsched
    if Path(mcsched.__file__).resolve().parent != (src / "mcsched").resolve():
        raise SystemExit(f"error: imported mcsched from {mcsched.__file__}, not {src}")
    import workloads
    return workloads


def git_commit(root: Path):
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_record() -> dict:
    import numpy
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(ROOT),
        "loadavg_start": list(os.getloadavg()),
    }


# The end-to-end metric and workload each layer should move.
MOVES = (
    ("generator.gen_taskset", "wall_s on paper_tables"),
    ("generator.gen_job_sequence", "setup_s on long_traces"),
    ("experiments.max_alpha_for_generated_set", "wall_s on paper_tables"),
    ("analysis.optimal_beta_for_su", "wall_s on paper_tables"),
    ("experiments.random_feasible_scenario", "unit_ms_p50 on property_suites"),
    ("simulator.simulate", "wall_s and unit_ms_p50 on property_suites"),
    ("simulator.check_mapping_equivalence", "wall_s on property_suites"),
    ("probability", "wall_s on paper_tables"),
    ("trace.overhead_s", "nothing: traced minus untraced wall_s of this run"),
)


def moves(metric: str) -> str:
    if metric.endswith(".scaling_exp"):
        return "wall_s and unit_ms_tail on long_traces"
    if any(metric.startswith(f"simulator.{audit}.") for audit in AUDITS):
        return "wall_s on long_traces, then property_suites"
    return next(target for prefix, target in MOVES if metric.startswith(prefix))


def median_of(passes, key):
    return statistics.median(key(p) for p in passes)


def per_layer_metrics(workload, setups, traced, untraced) -> dict:
    """Per-layer metrics of a traced run, named as in BENCHMARK.json."""
    counts = traced[0].counts
    setup_counts = setups[0].counts
    selfs = [p.tracer.self_times() for p in traced]
    busy = {name: statistics.median(st.get(name, 0.0) for st in selfs)
            for name in {n for st in selfs for n in st}}
    setup_busy = {"generator.gen_job_sequence": median_of(
        setups, lambda p: p.tracer.self_times().get("generator.gen_job_sequence", 0.0))}
    metrics = {}

    def add(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    def calls_busy(layer, busy=busy, counts=counts):
        n, b = counts.get(layer + ".calls", 0), busy.get(layer, 0.0)
        add(layer + ".calls", n, "count")
        add(layer + ".busy_s", b, "s")
        return n, b

    def ratio(a, b):
        return a / b if b else 0.0

    n, b = calls_busy("generator.gen_taskset")
    add("generator.gen_taskset.us_per_set", 1e6 * ratio(b, n), "us")
    add("generator.gen_taskset.tasks_per_set",
        ratio(counts["generator.gen_taskset.tasks"], n), "tasks")
    calls_busy("generator.gen_job_sequence", setup_busy, setup_counts)
    add("generator.gen_job_sequence.jobs", setup_counts["generator.gen_job_sequence.jobs"],
        "count")
    calls_busy("experiments.max_alpha_for_generated_set")
    calls_busy("analysis.optimal_beta_for_su")
    n, _ = calls_busy("experiments.random_feasible_scenario")
    add("experiments.random_feasible_scenario.switched_frac",
        ratio(counts["experiments.random_feasible_scenario.switched"], n), "ratio")
    for policy in ("uvd", "fixed"):
        layer = f"simulator.simulate.{policy}"
        _, b = calls_busy(layer)
        events = counts[layer + ".events"]
        add(layer + ".events", events, "count")
        add(layer + ".us_per_event", 1e6 * ratio(b, events), "us")
    calls_busy("simulator.check_mapping_equivalence")
    add("simulator.check_mapping_equivalence.mismatches",
        counts["simulator.check_mapping_equivalence.mismatches"], "count")
    rungs = getattr(workload, "rungs", None)
    for audit in AUDITS:
        layer = f"simulator.{audit}"
        b = busy.get(layer, 0.0)
        add(layer + ".busy_s", b, "s")
        add(layer + ".us_per_event", 1e6 * ratio(b, counts[layer + ".events"]), "us")
        add(layer + ".violations", counts[layer + ".violations"], "count")
        add(layer + ".scaling_exp",
            scaling_exponent(traced, layer, len(rungs) - 1) if rungs else 0.0, "ratio")
    calls_busy("probability.p_noswitch_dynamic.enumerate")
    calls_busy("probability.p_noswitch_dynamic.convolve")
    calls_busy("probability.p_noswitch_static")
    add("trace.overhead_s", median_of(traced, lambda p: p.wall_s)
        - median_of(untraced, lambda p: p.wall_s), "s")
    return metrics


def scaling_exponent(traced, layer, last) -> float:
    """log(time ratio) / log(event ratio) between the first and last rung.

    Times are the layer's self time summed over the rung's units, median
    over traced passes; events are summed the same way.
    """
    def rung_time(p, r):
        return sum(t for (name, unit), t in p.tracer.self_times(by_unit=True).items()
                   if name == layer and unit is not None and unit[1] == r)

    counts = traced[0].counts
    t0 = median_of(traced, lambda p: rung_time(p, 0))
    t1 = median_of(traced, lambda p: rung_time(p, last))
    e0, e1 = counts["rung0.events"], counts[f"rung{last}.events"]
    return math.log(t1 / t0) / math.log(e1 / e0)


def end_to_end_metrics(setup_s, passes) -> tuple[dict, str]:
    n = len(passes[0].unit_s)
    # The tail is the unit time with exactly ten units of the pass above it.
    rank = n - 11 if n > 10 else n - 1
    tail_note = (f"p{100 * (n - 10) / n:.2f} of {n} units" if n > 10
                 else f"max of {n} units (no percentile has ten above it)")

    def mean_of(key):
        return statistics.fmean(key(p) for p in passes)

    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (mean_of(lambda p: p.wall_s), "s"),
        "cpu_s": (mean_of(lambda p: p.cpu_s), "s"),
        "units_per_s": (sum(len(p.unit_s) for p in passes)
                        / sum(p.wall_s for p in passes), "1/s"),
        "unit_ms_p50": (1e3 * mean_of(lambda p: statistics.median(p.unit_s)), "ms"),
        "unit_ms_tail": (1e3 * mean_of(lambda p: sorted(p.unit_s)[rank]), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, tail_note


def check(workload_name, seed, setups, passes, log) -> int:
    """Failed units: unit failures, plus every unit of a pass whose digest,
    counts or blocks are wrong."""
    recorded = json.loads((HERE / "digests.json").read_text()).get(workload_name, {})
    expect = recorded.get(str(seed))
    first = passes[0]
    failed = 0
    for i, p in enumerate(passes):
        counts = dict(p.counts) | dict(setups[0].counts)
        bad = [m for m in p.problems if not m.startswith("unit ")]
        if p.digest != first.digest or p.counts != first.counts:
            bad.append(f"pass {i} differs from pass 0")
        if expect is not None and p.digest != expect["digest"]:
            bad.append(f"pass {i} digest {p.digest} != recorded {expect['digest']}")
        if expect is not None and counts != expect["counts"]:
            diff = sorted(k for k in counts.keys() | expect["counts"].keys()
                          if counts.get(k) != expect["counts"].get(k))
            bad.append(f"pass {i} counts differ from recorded: {diff}")
        for m in p.problems[:5] + bad:
            log(f"FAIL: {m}")
        failed += len(p.unit_s) if bad else p.failed_units
    if any(s.counts != setups[0].counts for s in setups):
        log("FAIL: input builds differ")
        failed = sum(len(p.unit_s) for p in passes)
    log(f"digest: {first.digest} ("
        + ("matches the recorded digest" if expect is not None and failed == 0
           else "checked against the recorded digest" if expect is not None
           else "seed not in digests.json; checked for repeatability only") + ")")
    return failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    workloads = import_workloads()
    from tracing import NullTracer, Tracer
    import_s = time.perf_counter() - T_START
    machine = machine_record()

    def log(line):
        print(line, flush=True)

    def new_pass(traced):
        return workloads.Pass(Tracer() if traced else NullTracer())

    workload = workloads.WORKLOADS[args.workload]()
    setups, builds = [], []
    for _ in range(SETUP_REPEATS):
        rec = new_pass(args.trace)
        t0 = time.perf_counter()
        inputs = workload.setup(args.seed, rec)
        builds.append(time.perf_counter() - t0)
        setups.append(rec)
    setup_s = import_s + statistics.median(builds)

    # Start another pass only if it should end within --seconds, so the
    # run's length does not depend on how long one pass takes.
    passes = []
    begin = time.perf_counter()
    while True:
        started = time.perf_counter()
        p = new_pass(bool(args.trace) and len(passes) % 2 == 1)
        workload.run(inputs, p)
        passes.append(p)
        now = time.perf_counter()
        if 2 * now - started - begin > args.seconds and len(passes) >= 1 + args.trace:
            break

    machine["loadavg_end"] = list(os.getloadavg())
    log("machine: " + json.dumps(machine))
    log(f"workload: {args.workload} seed={args.seed} unit={workload.unit} "
        f"passes={len(passes)} units_per_pass={len(passes[0].unit_s)} "
        f"setup: import {import_s:.4f} s + build {statistics.median(builds):.4f} s "
        f"(median of {SETUP_REPEATS})")
    failed = check(args.workload, args.seed, setups, passes, log)
    attempted = sum(len(p.unit_s) for p in passes)

    untraced = [p for p in passes if isinstance(p.tracer, NullTracer)]
    if args.trace:
        traced = [p for p in passes if not isinstance(p.tracer, NullTracer)]
        metrics = per_layer_metrics(workload, setups, traced, untraced)
        out = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.json"
        out.parent.mkdir(exist_ok=True)
        phases = ([{"phase": f"setup{i}", "spans": s.tracer.spans} for i, s in enumerate(setups)]
                  + [{"phase": f"pass{i}", "spans": p.tracer.spans}
                     for i, p in enumerate(passes) if p in traced])
        out.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                   "machine": machine, "clock_origin": T_START,
                                   "phases": phases}))
        log(f"spans: {out.relative_to(ROOT)}")
    else:
        metrics, tail_note = end_to_end_metrics(setup_s, untraced)
        log(f"unit_ms_tail: {tail_note}, mean of {len(untraced)} passes")
        log("pass wall_s: " + " ".join(f"{p.wall_s:.4f}" for p in untraced))
    for name, m in metrics.items():
        log(f"  {name} = {m['value']:.6g} {m['unit']}"
            + (f"  -> {moves(name)}" if args.trace else ""))
    log(f"  error_rate = {failed / attempted:.6g} ({failed} of {attempted} units)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
