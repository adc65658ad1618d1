#!/usr/bin/env python3
"""Benchmark of the laminhom rate-study CLI, end to end and per layer.

    python3 perfbench/run.py --workload rates-small --seed 1 --seconds 55 --trace 0

Runs `laminhom.cli.main(argv)` in this process, the path users run, with the
workload's config and `--seed`.  With `--trace 0` it repeats the command for
as long as another repetition still fits into `--seconds` (at least once) and
reports the end-to-end metrics of BENCHMARK.json, medians over the
repetitions, plus the median set-up time of fresh interpreters.  With
`--trace 1` it runs the command once untraced and once with spans recorded
around the public functions of fields, energy, cell, stats and cli, and
reports the per-layer metrics; a pooled workload is traced at one worker on
the same inputs, because spans recorded inside pool workers are lost.  Both
modes check the outputs.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  A fuller record
(environment, every repetition, check report) and the spans of a traced run
go to .perfbench_out/ under the checkout root.
"""

import os

# Pin native thread pools before numpy is imported, here and in every child.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("LAMINHOM_WORKERS", None)

import argparse
import contextlib
import dataclasses
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE_DIR = HERE / "reference"
# The seed the stored references were computed at (run.seed of the shipped configs).
REFERENCE_SEED = 20240901
SETUP_REPEATS = 5
SETUP_SNIPPET = ("import sys; sys.path.insert(0, sys.argv[1]); import laminhom; "
                 "from laminhom.cli import load_config; load_config(sys.argv[2])")


@dataclass(frozen=True)
class Workload:
    command: str
    config: str        # relative to the checkout root
    workers: int


# Why each workload is here is recorded in BENCHMARK.json.  `smoke` is a
# seconds-long run for the harness self-tests and is not benchmarked.
WORKLOADS = {
    "rates-small": Workload("rates", "configs/rates_small.cfg", 1),
    "mc-contrast-2w": Workload("mc", "perfbench/configs/mc_contrast_2w.cfg", 2),
    "smoke": Workload("rates", "perfbench/configs/smoke.cfg", 1),
}

KERNELS = ("stress_cells", "tangent_apply_cells", "acoustic_cells", "energy_cells",
           "admissible_cells")
ESTIMATORS = ("fluctuation_estimate", "systematic_estimate", "fit_rate", "mc_total_error")
# Periods with a samples/s figure: the union over the workloads, 0 where a workload has none.
REPORTED_LENGTHS = (16, 32, 64, 128, 256)


class SetupError(RuntimeError):
    """The checkout lacks the program or the workload's inputs."""


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def _git_commit():
    """Commit of the checkout read from .git, or 'unknown' outside a repository."""
    git = ROOT / ".git"
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
    return "unknown"


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment_record():
    import numpy as np

    blas = {}
    with contextlib.suppress(Exception):
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version"),
                "configuration": deps.get("openblas configuration")}
    return {
        "commit": _git_commit(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "loadavg_at_start": list(os.getloadavg()),
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


@dataclass
class EnsembleCall:
    run: object
    wall: float
    cpu: float              # CPU seconds of whichever processes did the solves
    workers: int
    cells: dict             # L -> cells per sample


@dataclass
class Rep:
    workers: int
    traced: bool
    rc: int = 0
    wall: float = 0.0
    log: str = ""
    calls: list = field(default_factory=list)
    csv: dict = field(default_factory=dict)     # file name -> rows, see checks.csv_rows

    @property
    def runs(self):
        return [c.run for c in self.calls]

    def attempted(self):
        return sum(c.run.counts[L] for c in self.calls for L in c.run.lengths)

    def solved(self):
        return sum(len(c.run.samples[L]) for c in self.calls for L in c.run.lengths)


class EnsembleCapture:
    """Stands in for laminhom.cli.run_ensemble: keeps each run and its CPU time.

    CPU time is the parent's own at one worker, and the pool children's at
    more (children count once the pool has joined them).
    """

    def __init__(self, original, sink):
        self.original = original
        self.sink = sink

    def __call__(self, plan):
        t0, w0 = os.times(), time.perf_counter()
        run = self.original(plan)
        wall = time.perf_counter() - w0
        t1 = os.times()
        if plan.workers > 1:
            cpu = (t1.children_user - t0.children_user) + (t1.children_system - t0.children_system)
        else:
            cpu = (t1.user - t0.user) + (t1.system - t0.system)
        # the CLI merges later per-L runs into the first one in place: keep a copy
        kept = dataclasses.replace(run, counts=dict(run.counts), samples=dict(run.samples),
                                   failures=dict(run.failures), timing=dict(run.timing))
        cells = {L: int(round(L / plan.spacing)) for L in kept.lengths}
        self.sink.append(EnsembleCall(kept, wall, cpu, plan.workers, cells))
        return run


def trace_points(modules):
    """(owner, attribute, span name, probe) for every traced layer boundary."""
    cli, stats, cell, fields, energy = modules

    def cells_at(pos):
        return lambda args, out: len(args[pos])

    def corrector(args, out):
        st = out.stats if out is not None else {}
        return (args[1].n, st.get("outer_iterations"), st.get("inner_iterations"),
                st.get("backtracks"))

    def csv_bytes(args, out):
        return out.stat().st_size if out is not None else 0

    points = [
        (cli, "load_config", "cli.load_config", None),
        (cli, "write_csv", "cli.write_csv", csv_bytes),
        (cli, "run_ensemble", "stats.run_ensemble", None),
        *[(cli, name, "stats." + name, None) for name in ESTIMATORS],
        (stats, "sample_periodic_field", "fields.sample_periodic_field", None),
        (stats, "periodize_covariance", "fields.periodize_covariance", None),
        (fields, "periodize_covariance", "fields.periodize_covariance", None),
        (stats, "assemble", "cell.assemble", lambda args, out: args[1].n),
        (cell, "solve_corrector", "cell.solve_corrector", corrector),
        (cell, "solve_linearized", "cell.solve_linearized", None),
    ]
    for name in KERNELS:
        pos = 1 if name == "admissible_cells" else 2
        points.append((energy.EnergyDensity, name, "energy." + name, cells_at(pos)))
    return points


def run_once(cli, workload, seed, workers, out_dir, tracer=None):
    """Run the workload's command once in process, capturing every ensemble it runs.

    The CSV rows it writes are kept in the returned Rep and out_dir is removed.
    """
    argv = [workload.command, "--config", str(ROOT / workload.config), "--seed", str(seed),
            "--workers", str(workers), "--out", str(out_dir)]
    rep = Rep(workers=workers, traced=tracer is not None)
    capture = EnsembleCapture(cli.run_ensemble, rep.calls)
    cli.run_ensemble = capture
    sink = io.StringIO()
    main = cli.main if tracer is None else tracer.wrap("cli.main", cli.main)
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            t0 = time.perf_counter()
            rep.rc = main(argv)
            rep.wall = time.perf_counter() - t0
        rep.csv = checks.csv_rows(out_dir)
    finally:
        cli.run_ensemble = capture.original
        shutil.rmtree(out_dir, ignore_errors=True)
    rep.log = sink.getvalue()
    return rep


def measure_setup(config_path, repeats=SETUP_REPEATS):
    """Median wall time of a fresh interpreter importing laminhom and loading the config."""
    cmd = [sys.executable, "-c", SETUP_SNIPPET, str(SRC), str(config_path)]
    subprocess.run(cmd, check=True)  # untimed: bytecode compilation happens once per checkout
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), times


def peak_rss_mib():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0   # ru_maxrss is in KiB on Linux


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def end_to_end_metrics(reps, setup_s):
    walls = [r.wall for r in reps]
    attempted = sum(r.attempted() for r in reps)
    solved = sum(r.solved() for r in reps)
    return {
        "wall_s": statistics.median(walls),
        "samples_per_s": statistics.median(r.solved() / r.wall for r in reps),
        "setup_s": setup_s,
        "peak_rss_mib": peak_rss_mib(),
        "ok_sample_ratio": solved / attempted if attempted else 0.0,
    }


def traffic_metrics(rep):
    ns = [c.cells[L] for c in rep.calls for L in c.run.lengths for _ in range(c.run.counts[L])]
    samples = len(ns)
    cells = sum(ns)
    return {
        "samples": samples,
        "cells": cells,
        "cells_per_sample": cells / samples if samples else 0.0,
        "share_samples_n_le_256": sum(n <= 256 for n in ns) / samples if samples else 0.0,
    }


def pool_metrics(rep):
    cpu = sum(c.cpu for c in rep.calls)
    capacity = sum(c.workers * c.wall for c in rep.calls)
    out = {"stats.pool_busy_ratio": cpu / capacity if capacity else 0.0}
    per_L = {}
    for c in rep.calls:
        for L in c.run.lengths:
            done = len(c.run.samples[L]) + len(c.run.failures[L])
            per_L[L] = done / c.run.timing[L]
    for L in REPORTED_LENGTHS:
        out[f"stats.samples_per_s.L{L}"] = per_L.get(float(L), 0.0)
    return out


def kernel_totals(spans):
    """({kernel: calls}, {kernel: cells}, {kernel: self seconds}) of the energy spans.

    A kernel called from inside another (acoustic_cells calls
    tangent_apply_cells) is charged to the outermost one: its calls and cells
    are not counted again, and its self time goes to the outer kernel.
    """
    from spans import self_times

    calls = {name: 0 for name in KERNELS}
    cells = {name: 0 for name in KERNELS}
    self_s = {name: 0.0 for name in KERNELS}
    owner = [None] * len(spans)
    for i, ((name, _, _, parent, info), own) in enumerate(zip(spans, self_times(spans))):
        layer, _, fn = name.partition(".")
        if layer != "energy":
            continue
        nested = parent >= 0 and owner[parent] is not None
        owner[i] = owner[parent] if nested else fn
        self_s[owner[i]] += own
        if not nested:
            calls[fn] += 1
            cells[fn] += info
    return calls, cells, self_s


def layer_metrics(spans, traced, untraced, untraced_same_workers):
    """Per-layer metrics from the traced rep's spans; pool figures from the untraced rep."""
    from spans import layer_totals

    totals = layer_totals(spans)

    def calls(name):
        return totals.get(name, {}).get("calls", 0)

    def self_s(name):
        return totals.get(name, {}).get("self_s", 0.0)

    kernel_calls, cells, kernel_self = kernel_totals(spans)
    corrector = []
    csv_bytes = 0
    load_config_s = 0.0
    for name, start, end, _, info in spans:
        if name == "cell.solve_corrector" and info[1] is not None:
            corrector.append(info)
        elif name == "cli.write_csv":
            csv_bytes += info
        elif name == "cli.load_config":
            load_config_s += end - start

    m = {
        "fields.sample_periodic_field.calls": calls("fields.sample_periodic_field"),
        "fields.sample_periodic_field.self_s": self_s("fields.sample_periodic_field"),
        "fields.periodize_covariance.calls": calls("fields.periodize_covariance"),
    }
    for name in KERNELS:
        m[f"energy.{name}.calls"] = kernel_calls[name]
        m[f"energy.{name}.cells"] = cells[name]
        m[f"energy.{name}.self_s"] = kernel_self[name]
    evals = sum(cells.values())
    m["energy.us_per_cell_eval"] = 1e6 * sum(kernel_self.values()) / evals if evals else 0.0

    solved_cells = sum(info[0] for info in corrector)
    outer = [info[1] for info in corrector]
    inner = [info[2] for info in corrector]
    backtracks = sum(info[3] for info in corrector)
    corrector_total = totals.get("cell.solve_corrector", {}).get("total_s", 0.0)
    samples = calls("cell.assemble")
    m.update({
        "cell.solve_corrector.calls": calls("cell.solve_corrector"),
        "cell.solve_corrector.self_s": self_s("cell.solve_corrector"),
        "cell.solve_corrector.us_per_cell": (1e6 * corrector_total / solved_cells
                                             if solved_cells else 0.0),
        "cell.outer_iterations": sum(outer),
        "cell.outer_iterations_max": max(outer, default=0),
        "cell.inner_iterations": sum(inner),
        "cell.inner_iterations_max": max(inner, default=0),
        "cell.backtracks": backtracks,
        "cell.line_search_accept_ratio": (sum(inner) / (sum(inner) + backtracks)
                                          if sum(inner) else 1.0),
        "cell.solve_linearized.calls": calls("cell.solve_linearized"),
        "cell.solve_linearized.self_s": self_s("cell.solve_linearized"),
        "cell.assemble.self_s": self_s("cell.assemble"),
        "cell.acoustic_per_sample": (kernel_calls["acoustic_cells"] / samples
                                     if samples else 0.0),
        "stats.run_ensemble.calls": calls("stats.run_ensemble"),
        "stats.run_ensemble.self_s": self_s("stats.run_ensemble"),
    })
    m.update(pool_metrics(untraced))
    for name in ESTIMATORS:
        m[f"stats.{name}.self_s"] = self_s("stats." + name)
    m.update({
        "cli.load_config.s": load_config_s,
        "cli.write_csv.calls": calls("cli.write_csv"),
        "cli.write_csv.bytes": csv_bytes,
        "cli.write_csv.self_s": self_s("cli.write_csv"),
    })
    m.update(traffic_metrics(traced))
    attempted = traced.attempted()
    m["failed_sample_ratio"] = (attempted - traced.solved()) / attempted if attempted else 0.0
    m["trace.overhead_ratio"] = traced.wall / untraced_same_workers.wall
    return m


# ---------------------------------------------------------------------------
# output check
# ---------------------------------------------------------------------------


def check_reps(workload_name, seed, reps):
    """(ok, report): exit codes, residuals, agreement between reps, stored references."""
    problems = [f"repetition {i} exited with code {r.rc}: {r.log.strip()[-400:]}"
                for i, r in enumerate(reps) if r.rc != 0]
    report = {"reference": None, "max_rel_dev": {}}
    good = [r for r in reps if r.rc == 0]
    for r in good:
        problems.extend(checks.residual_problems(r.runs))
    tables = [checks.sample_table(r.runs) for r in good]
    if any(not checks.tables_identical(tables[0], t) for t in tables[1:]):
        problems.append("repetitions of the same seed disagree")
    if any(r.csv != good[0].csv for r in good[1:]):
        problems.append("repetitions of the same seed wrote different CSV rows")
    reference_path = REFERENCE_DIR / f"{workload_name}.npz"
    csv_path = REFERENCE_DIR / f"{workload_name}.csv.json"
    if tables and seed == REFERENCE_SEED and reference_path.is_file():
        reference = checks.load_reference(reference_path)
        worst, found = checks.compare_to_reference(tables[0], reference)
        report["reference"] = str(reference_path.relative_to(ROOT))
        report["max_rel_dev"] = worst
        problems.extend(found)
        if not csv_path.is_file():
            problems.append(f"stored CSV rows missing: {csv_path.relative_to(ROOT)}")
        else:
            worst, found = checks.compare_csv_to_reference(
                good[0].csv, checks.load_csv_reference(csv_path))
            report["max_rel_dev"].update(worst)
            problems.extend(found)
    report["problems"] = problems[:50]
    return not problems, report


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def benchmark_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def select(spec_metrics, values):
    missing = [m["name"] for m in spec_metrics if m["name"] not in values]
    if missing:
        raise KeyError(f"metrics not computed: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec_metrics}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def load_program(workload):
    """Import laminhom from the checkout: (cli, stats, cell, fields, energy)."""
    if not (SRC / "laminhom" / "cli.py").is_file():
        raise SetupError(f"program sources not found under {SRC}")
    if not (ROOT / workload.config).is_file():
        raise SetupError(f"workload config not found: {ROOT / workload.config}")
    if not (ROOT / "BENCHMARK.json").is_file():
        raise SetupError("BENCHMARK.json not found at the checkout root")
    sys.path.insert(0, str(SRC))
    from laminhom import cell, cli, energy, fields, stats
    return cli, stats, cell, fields, energy


def measure(args, workload, modules, scratch):
    """Run the repetitions; returns (reps, traced rep or None, tracer or None, setup)."""
    from spans import Tracer

    cli = modules[0]
    reps = []

    def once(workers, tracer=None):
        out_dir = scratch / f"rep{len(reps)}"
        reps.append(run_once(cli, workload, args.seed, workers, out_dir, tracer))
        return reps[-1]

    if not args.trace:
        setup = measure_setup(ROOT / workload.config)
        # repeat while another repetition of average length still fits
        started = time.perf_counter()
        while not reps or (time.perf_counter() - started) * (len(reps) + 1) / len(reps) \
                <= args.seconds:
            once(workload.workers)
        return reps, None, None, setup
    once(workload.workers)
    if workload.workers > 1:
        # spans recorded in pool workers are lost: trace the same inputs in-process
        once(1)
    tracer = Tracer()
    tracer.install(trace_points(modules))
    try:
        traced = once(1, tracer)
    finally:
        tracer.uninstall()
    return reps, traced, tracer, None


def main(argv=None):
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        modules = load_program(workload)
    except (SetupError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    spec = benchmark_spec()
    env = environment_record()
    scratch = OUT / f"tmp-{os.getpid()}"
    try:
        reps, traced, tracer, setup = measure(args, workload, modules, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    correct, report = check_reps(args.workload, args.seed, reps)

    if traced is None:
        values = end_to_end_metrics(reps, setup[0])
        metrics = select(spec["end_to_end"], values)
    else:
        untraced = reps[0]
        same_workers = next(r for r in reps if not r.traced and r.workers == traced.workers)
        values = layer_metrics(tracer.spans, traced, untraced, same_workers)
        metrics = select(spec["per_layer"], values)
    attempted = sum(r.attempted() for r in reps)
    failed = attempted - sum(r.solved() for r in reps)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    if tracer is not None:
        tracer.write(OUT / f"{stem}.spans.csv.gz")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "config": workload.config,
        "reps": [{"workers": r.workers, "traced": r.traced, "rc": r.rc, "wall_s": r.wall,
                  "attempted": r.attempted(), "solved": r.solved()} for r in reps],
        "setup_s_all": setup[1] if setup else None,
        "traffic": traffic_metrics(reps[0]),
        "check": report, "metrics": values,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")

    print(f"workload {args.workload} seed {args.seed}: {len(reps)} repetition(s), "
          f"commit {env['commit'][:12]}, load {env['loadavg_at_start'][0]:.2f}")
    if report["reference"]:
        devs = ", ".join(f"{k} {v:.2e}" for k, v in report["max_rel_dev"].items())
        print(f"reference check: largest relative deviation {devs}")
    for problem in report["problems"]:
        print(f"check failed: {problem}")
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
