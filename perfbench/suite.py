#!/usr/bin/env python3
"""Run every benchmark workload several times and summarise each metric.

    python3 perfbench/suite.py                       # 10 runs of each workload
    python3 perfbench/suite.py --runs 5 --workloads mc-contrast-2w
    python3 perfbench/suite.py --runs 1 --trace      # plus one traced run each

Each run is `perfbench/run.py` in a fresh process, measuring for
BENCHMARK.json's run_seconds, with its own seed (REFERENCE_SEED,
REFERENCE_SEED + 1, ...; the first is checked against the stored reference).  For every end-to-end metric it prints the median, the
90th percentile (nearest rank), the sample count and the spread, which is
the distance between the first and third quartiles as a share of the
median, next to the metric's bound from BENCHMARK.json.  Exits 1 if any run
fails or its output check fails.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import OUT, REFERENCE_SEED  # noqa: E402


def run_one(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    ok = proc.returncode == 0 and result is not None and result["correct"]
    if not ok:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
    return ok, result, lines[:-1]


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def nearest_rank(values, pct):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def summarise(workload, results, spec):
    print(f"\n== {workload}: {len(results)} run(s)")
    print(f"  {'metric':18s} {'unit':6s} {'median':>12s} {'p90':>12s} {'n':>3s} "
          f"{'spread':>8s} {'bound':>6s}")
    table = {}
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        row = {"median": statistics.median(values), "p90": nearest_rank(values, 90),
               "n": len(values), "spread": spread(values), "bound": m["bound"],
               "values": values}
        table[m["name"]] = row
        print(f"  {m['name']:18s} {m['unit']:6s} {row['median']:12.6g} {row['p90']:12.6g} "
              f"{row['n']:3d} {row['spread']:8.4f} {m['bound']:6.2f}")
    return table


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=",".join(names),
                   help="comma-separated workload names (default: all)")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--trace", action="store_true", help="add one traced run per workload")
    args = p.parse_args(argv)

    all_ok = True
    summary = {}
    for workload in args.workloads.split(","):
        results = []
        for i in range(args.runs):
            ok, result, _ = run_one(workload, REFERENCE_SEED + i, spec["run_seconds"], False)
            all_ok &= ok
            if result is not None:
                results.append(result)
        summary[workload] = summarise(workload, results, spec) if results else {}
        if args.trace:
            ok, result, lines = run_one(workload, REFERENCE_SEED, spec["run_seconds"], True)
            all_ok &= ok
            print(f"-- {workload}: traced run, seed {REFERENCE_SEED}")
            print("\n".join(lines))
    OUT.mkdir(exist_ok=True)
    (OUT / "suite.json").write_text(json.dumps(summary, indent=1) + "\n")
    print("\nall runs correct" if all_ok else "\nSOME RUNS FAILED OR GAVE WRONG OUTPUT")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
