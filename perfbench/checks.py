"""Output checks on the per-sample results of a benchmark run.

Every sample that `run_ensemble` returned is flattened into one table keyed
by (L, sample index), in call order.  Three checks read that table:

* at the reference seed, W_L, DW_L and D2W_L must match a stored reference
  to REL_TOL relative in Frobenius norm, sample by sample, and the same
  samples must have failed;
* at any seed, every sample's flux and mean residuals must be within the
  solver tolerances recorded in its metadata, and every value finite;
* every repetition in one run (any worker count) must give the same bits.

The CSV files the command writes (fluctuations, systematic, rates, mc) are
checked the same way: at the reference seed their data rows must match the
stored rows, numeric columns to REL_TOL relative in Frobenius norm and text
columns exactly, and every repetition must write the same rows.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

REL_TOL = 1e-12
QUANTITIES = ("W", "DW", "D2W")


def sample_table(runs):
    """Flatten EnsembleRuns into arrays: L, index, W, DW, D2W, failed_L, failed_index."""
    keys, failed, values = [], [], {q: [] for q in QUANTITIES}
    for run in runs:
        for L in run.lengths:
            for q in run.samples[L]:
                keys.append((L, q.metadata["index"]))
                values["W"].append([q.energy])
                if q.stress is not None:
                    values["DW"].append(q.stress.reshape(-1))
                if q.tangent is not None:
                    values["D2W"].append(q.tangent.reshape(-1))
            failed.extend((L, idx) for idx, _ in run.failures[L])
    keys = np.array(keys, dtype=float).reshape(-1, 2)
    failed = np.array(failed, dtype=float).reshape(-1, 2)
    table = {"L": keys[:, 0], "index": keys[:, 1],
             "failed_L": failed[:, 0], "failed_index": failed[:, 1]}
    for name, rows in values.items():
        if rows:
            table[name] = np.array(rows, dtype=float)
    return table


def save_reference(path, table):
    np.savez_compressed(path, **table)


def load_reference(path):
    with np.load(path, allow_pickle=False) as data:
        return {k: data[k] for k in data.files}


def _same_keys(a, b):
    return all(np.array_equal(a[k], b[k])
               for k in ("L", "index", "failed_L", "failed_index"))


def compare_to_reference(table, reference):
    """(largest relative deviation per quantity, list of problems)."""
    if not _same_keys(table, reference):
        return {}, ["solved or failed samples differ from the stored reference"]
    worst, problems = {}, []
    for name in QUANTITIES:
        if name not in reference:
            continue
        if name not in table:
            problems.append(f"{name} missing from the output")
            continue
        ref = reference[name]
        dev = np.linalg.norm(table[name] - ref, axis=1)
        scale = np.maximum(np.linalg.norm(ref, axis=1), np.finfo(float).tiny)
        worst[name] = float(np.max(dev / scale)) if len(ref) else 0.0
        if not worst[name] <= REL_TOL:
            problems.append(f"{name} deviates from the reference by {worst[name]:.3e} "
                            f"relative (limit {REL_TOL:.0e})")
    return worst, problems


def residual_problems(runs):
    """Samples whose residuals exceed the solver tolerances or hold non-finite values."""
    problems = []
    for run in runs:
        for L in run.lengths:
            for q in run.samples[L]:
                md = q.metadata
                where = f"L={L:g} index={md['index']}"
                flux_limit = 10.0 * md["tol_inner"] * (1.0 + float(np.linalg.norm(md["sigma"])))
                if not md["flux_residual"] <= flux_limit:
                    problems.append(f"{where}: flux residual {md['flux_residual']:.3e} "
                                    f"above {flux_limit:.3e}")
                if not md["mean_residual"] <= md["tol_outer"]:
                    problems.append(f"{where}: mean residual {md['mean_residual']:.3e} "
                                    f"above {md['tol_outer']:.3e}")
                parts = [q.energy] + [x for x in (q.stress, q.tangent) if x is not None]
                if not all(np.all(np.isfinite(x)) for x in parts):
                    problems.append(f"{where}: non-finite effective quantity")
    return problems


def tables_identical(a, b):
    return a.keys() == b.keys() and all(np.array_equal(a[k], b[k]) for k in a)


def csv_rows(out_dir):
    """{file name: rows} of every CSV in out_dir: header first, '#' metadata lines dropped."""
    tables = {}
    for path in sorted(Path(out_dir).glob("*.csv")):
        lines = path.read_text(encoding="utf-8").splitlines()
        tables[path.name] = [line.split(",") for line in lines if not line.startswith("#")]
    return tables


def save_csv_reference(path, tables):
    """JSON with one row per line: {file name: [header, row, ...]}."""
    files = [json.dumps(name) + ": [\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]"
             for name, rows in tables.items()]
    Path(path).write_text("{\n" + ",\n".join(files) + "\n}\n", encoding="utf-8")


def load_csv_reference(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _as_floats(cells):
    try:
        return np.array([float(c) for c in cells])
    except ValueError:
        return None


def compare_csv_to_reference(tables, reference):
    """(largest relative column deviation per file, list of problems)."""
    if sorted(tables) != sorted(reference):
        return {}, [f"CSV files {sorted(tables)} differ from the stored {sorted(reference)}"]
    worst, problems = {}, []
    for name, ref_rows in reference.items():
        rows = tables[name]
        if rows[:1] != ref_rows[:1] or len(rows) != len(ref_rows) \
                or any(len(r) != len(q) for r, q in zip(rows, ref_rows)):
            problems.append(f"{name}: header or shape differs from the stored reference")
            continue
        worst[name] = 0.0
        for j, column in enumerate(ref_rows[0]):
            got = [r[j] for r in rows[1:]]
            ref = [r[j] for r in ref_rows[1:]]
            a, b = _as_floats(got), _as_floats(ref)
            if a is None or b is None:
                if got != ref:
                    problems.append(f"{name}: column {column} differs from the stored reference")
                continue
            finite = np.isfinite(b)
            if not np.array_equal(np.isfinite(a), finite) \
                    or not np.array_equal(a[~finite], b[~finite], equal_nan=True):
                problems.append(f"{name}: non-finite entries of column {column} differ")
                continue
            scale = max(float(np.linalg.norm(b[finite])), np.finfo(float).tiny)
            dev = float(np.linalg.norm(a[finite] - b[finite])) / scale
            worst[name] = max(worst[name], dev)
            if not dev <= REL_TOL:
                problems.append(f"{name}: column {column} deviates from the reference by "
                                f"{dev:.3e} relative (limit {REL_TOL:.0e})")
    return worst, problems
