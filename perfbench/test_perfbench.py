"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/test_perfbench.py

They cover the self-time arithmetic, the output check (including a negative
control that a perturbed reference must fail), and seconds-long runs of the
harness itself on the `smoke` workload.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import run
from spans import Tracer, layer_totals, self_times

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


# -- spans -------------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("root", 0.0, 10.0, -1, None),
        ("a", 1.0, 4.0, 0, None),
        ("leaf", 2.0, 3.0, 1, None),
        ("b", 5.0, 9.0, 0, None),
        ("leaf", 6.0, 7.5, 3, None),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 2.5, 1.5])
    totals = layer_totals(spans)
    assert totals["leaf"] == {"calls": 2, "self_s": pytest.approx(2.5),
                              "total_s": pytest.approx(2.5)}
    assert sum(t["self_s"] for t in totals.values()) == pytest.approx(10.0)


def test_nested_kernel_is_charged_to_the_outer_kernel():
    spans = [
        ("cell.assemble", 0.0, 10.0, -1, None),
        ("energy.acoustic_cells", 1.0, 5.0, 0, 100),
        ("energy.tangent_apply_cells", 2.0, 3.0, 1, 100),
        ("energy.tangent_apply_cells", 3.0, 4.5, 1, 100),
        ("energy.tangent_apply_cells", 6.0, 8.0, 0, 50),
    ]
    calls, cells, self_s = run.kernel_totals(spans)
    assert calls["acoustic_cells"] == 1 and calls["tangent_apply_cells"] == 1
    assert cells["acoustic_cells"] == 100 and cells["tangent_apply_cells"] == 50
    assert self_s["acoustic_cells"] == pytest.approx(4.0)
    assert self_s["tangent_apply_cells"] == pytest.approx(2.0)
    assert calls["stress_cells"] == cells["stress_cells"] == self_s["stress_cells"] == 0


class _Owner:
    @staticmethod
    def inner(x):
        return x + 1

    @staticmethod
    def outer(x):
        return _Owner.inner(x) * 2


def test_tracer_records_parents_and_restores_originals():
    originals = (_Owner.inner, _Owner.outer)
    tracer = Tracer()
    tracer.install([(_Owner, "inner", "inner", lambda args, out: out),
                    (_Owner, "outer", "outer", None)])
    try:
        assert _Owner.outer(1) == 4
        with pytest.raises(TypeError):
            _Owner.outer(None)
    finally:
        tracer.uninstall()
    assert (_Owner.inner, _Owner.outer) == originals
    names = [(s[0], s[3], s[4]) for s in tracer.spans]
    # spans are indexed by entry order; a raising call still closes its span
    assert names == [("outer", -1, None), ("inner", 0, 2), ("outer", -1, None),
                     ("inner", 2, None)]


# -- output check ------------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_runs():
    sys.path.insert(0, str(run.SRC))
    from laminhom.cli import load_config

    config = load_config(run.ROOT / run.WORKLOADS["smoke"].config)
    from laminhom.stats import run_ensemble

    plan = config.plan(lengths=(4.0, 8.0), counts={4.0: 3, 8.0: 3})
    return [run_ensemble(plan)]


def test_reference_check_passes_on_identical_output(tiny_runs):
    table = checks.sample_table(tiny_runs)
    worst, problems = checks.compare_to_reference(table, dict(table))
    assert problems == []
    assert set(worst) == {"W", "DW", "D2W"} and max(worst.values()) == 0.0
    assert checks.residual_problems(tiny_runs) == []


def test_perturbed_reference_fails_the_check(tiny_runs):
    """Negative control: a 1e-9 relative change in one sample must be caught."""
    table = checks.sample_table(tiny_runs)
    for name in checks.QUANTITIES:
        ref = {k: v.copy() for k, v in table.items()}
        ref[name][2] *= 1.0 + 1e-9
        worst, problems = checks.compare_to_reference(table, ref)
        assert worst[name] > checks.REL_TOL
        assert len(problems) == 1 and name in problems[0]
    ref = {k: v.copy() for k, v in table.items()}
    ref["index"][0] += 1
    assert checks.compare_to_reference(table, ref)[1]


def test_perturbed_csv_reference_fails_the_check():
    """Negative control for the CSV rows: a 1e-9 relative change, a changed text cell."""
    tables = {"rates.csv": [["series", "order", "slope"], ["sd", "0", "-0.52"],
                            ["bias", "1", "nan"]],
              "fluctuations.csv": [["order", "L", "sd"], ["0", "16", "1.25e-4"]]}
    worst, problems = checks.compare_csv_to_reference(tables, json.loads(json.dumps(tables)))
    assert problems == [] and worst == {"rates.csv": 0.0, "fluctuations.csv": 0.0}

    def perturbed(file, row, col, cell):
        ref = json.loads(json.dumps(tables))
        ref[file][row][col] = cell
        return checks.compare_csv_to_reference(tables, ref)[1]

    assert "slope" in perturbed("rates.csv", 1, 2, repr(-0.52 * (1 + 1e-9)))[0]
    assert "sd" in perturbed("fluctuations.csv", 1, 2, repr(1.25e-4 * (1 + 1e-9)))[0]
    assert "series" in perturbed("rates.csv", 2, 0, "fluct")[0]
    assert "non-finite" in perturbed("rates.csv", 2, 2, "0.5")[0]
    assert perturbed("rates.csv", 0, 2, "intercept")
    ref = json.loads(json.dumps(tables))
    del ref["fluctuations.csv"]
    assert checks.compare_csv_to_reference(tables, ref)[1]


def test_csv_rows_drop_metadata(tmp_path):
    (tmp_path / "rates.csv").write_text("#tool=laminhom\n#seed=3\nseries,slope\nsd,-0.5\n")
    (tmp_path / "notes.txt").write_text("not a table\n")
    assert checks.csv_rows(tmp_path) == {"rates.csv": [["series", "slope"], ["sd", "-0.5"]]}


def test_residual_check_flags_a_loose_solve(tiny_runs):
    q = tiny_runs[0].samples[4.0][0]
    saved = q.metadata["flux_residual"]
    q.metadata["flux_residual"] = 1e-6
    try:
        problems = checks.residual_problems(tiny_runs)
    finally:
        q.metadata["flux_residual"] = saved
    assert len(problems) == 1 and "flux residual" in problems[0]


# -- the harness end to end ---------------------------------------------------


def _run(cwd, trace):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", "smoke",
           "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_prints_the_contract_line(trace, section):
    proc = _run(run.ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC[section]]
    for m in SPEC[section]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and np.isfinite(got["value"])
    if trace:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert metrics["cell.solve_corrector.calls"] == metrics["samples"] == 32
        assert metrics["energy.stress_cells.calls"] > 0


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in SPEC["workloads"])
    assert all(w["name"] in run.WORKLOADS for w in SPEC["workloads"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"]) <= 0.25
