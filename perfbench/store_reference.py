#!/usr/bin/env python3
"""Store the per-sample reference results the output check compares against.

    python3 perfbench/store_reference.py [workload ...]   # default: all benchmarked

Runs each workload's command once at REFERENCE_SEED and writes every
sample's W_L, DW_L and D2W_L, with the keys of solved and failed samples, to
perfbench/reference/<workload>.npz, and the data rows of the CSV files it
wrote to perfbench/reference/<workload>.csv.json.  Regenerate only when a
change is meant to alter the results, and say so in the change.
"""

import json
import sys

import run
import checks


def main(argv):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = argv or [w["name"] for w in spec["workloads"]]
    for name in names:
        workload = run.WORKLOADS[name]
        cli = run.load_program(workload)[0]
        rep = run.run_once(cli, workload, run.REFERENCE_SEED, workload.workers,
                           run.OUT / "reference-tmp")
        if rep.rc != 0 or checks.residual_problems(rep.runs):
            print(f"{name}: run failed or residual check failed, not stored", file=sys.stderr)
            return 1
        run.REFERENCE_DIR.mkdir(exist_ok=True)
        path = run.REFERENCE_DIR / f"{name}.npz"
        checks.save_reference(path, checks.sample_table(rep.runs))
        checks.save_csv_reference(run.REFERENCE_DIR / f"{name}.csv.json", rep.csv)
        print(f"{name}: {rep.solved()} samples in {rep.wall:.1f} s -> {path.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
