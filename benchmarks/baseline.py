"""Run the benchmark over several seeds and summarise its spread.

    python3 benchmarks/baseline.py --seeds 1-10 [--workloads paper_tables,...]
                                   [--out benchmarks/baseline.json]

For each seed and workload (seed-major, so slow phases of a shared machine
fall on every workload alike) it runs ``run.py --trace 0`` as a child
process, then one ``--trace 1`` run per workload on the first seed.  Per
end-to-end metric it reports the median, the quartiles and the spread
(interquartile distance over the median) next to the metric's bound in
BENCHMARK.json.  Exits 1 if a run fails or a spread other than
``setup_s``'s exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One child run: (result line, machine record)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}")
    machine = next(json.loads(line[len("machine: "):]) for line in lines
                   if line.startswith("machine: "))
    return json.loads(lines[-1]), machine


def summarise(values: list[float], bound: float | None) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    out = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}
    if bound is not None:
        out["bound"] = bound
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    chosen = args.workloads.split(",")
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results: dict[str, list[dict]] = {w: [] for w in chosen}
    machine = None
    for seed in seeds:
        for w in chosen:
            result, machine = run_once(w, seed, seconds, 0)
            if not result["correct"]:
                raise SystemExit(f"{w} seed {seed}: incorrect result")
            results[w].append(result)
            print(f"{w} seed={seed} " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)

    ok = True
    report = {"machine": machine, "seconds": seconds, "seeds": seeds, "workloads": {}}
    for w in chosen:
        summary = {}
        for metric in results[w][0]["metrics"]:
            s = summarise([r["metrics"][metric]["value"] for r in results[w]], bounds[metric])
            summary[metric] = s
            flag = ""
            if s["spread"] > bounds[metric] / 3:
                flag = "  above a third of its bound"
            if s["spread"] > bounds[metric] and metric != "setup_s":
                flag, ok = "  ABOVE ITS BOUND", False
            print(f"{w:16s} {metric:12s} median={s['median']:.5g} spread={s['spread']:.3f}"
                  f" bound={bounds[metric]}{flag}", flush=True)
        traced, _ = run_once(w, seeds[0], seconds, 1)
        report["workloads"][w] = {
            "end_to_end": summary,
            "per_layer_seed": seeds[0],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
