"""Record each workload's output digest and work counts per seed.

    python3 benchmarks/record_digests.py --seeds 0-31 [--workloads long_traces,...]

Runs one untraced pass per (workload, seed) and stores its digest and
counts in ``digests.json``, which ``run.py`` checks every pass against.
Re-record only when a change is meant to alter mcsched's outputs, and say
so in the change; a pass with a failed unit or block is never recorded.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import HERE, WORKLOAD_NAMES, import_workloads


def record(workloads, name: str, seed: int) -> dict:
    from tracing import NullTracer
    workload = workloads.WORKLOADS[name]()
    setup = workloads.Pass(NullTracer())
    inputs = workload.setup(seed, setup)
    p = workloads.Pass(NullTracer())
    workload.run(inputs, p)
    if p.problems:
        raise SystemExit(f"{name} seed {seed}: {p.problems[:5]}")
    return {"digest": p.digest, "counts": dict(sorted((dict(p.counts) | dict(setup.counts)).items()))}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="0-31", help="inclusive range, e.g. 0-31")
    ap.add_argument("--workloads", default=",".join(WORKLOAD_NAMES))
    args = ap.parse_args(argv)
    lo, _, hi = args.seeds.partition("-")
    workloads = import_workloads()
    path = HERE / "digests.json"
    table = json.loads(path.read_text())
    for name in args.workloads.split(","):
        for seed in range(int(lo), int(hi or lo) + 1):
            table.setdefault(name, {})[str(seed)] = record(workloads, name, seed)
            print(f"{name} seed={seed} {table[name][str(seed)]['digest']}", flush=True)
            path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
