"""Experiment driver.

Subcommands
-----------
single      solve one sample, write quantities.csv / corrector.csv / checks.csv
rates       Monte Carlo fluctuation + systematic tables and log-log rate fits,
            write fluctuations.csv / systematic.csv / rates.csv
mc          total-error table along the balanced schedule N ~ L/ln^2 L,
            write mc.csv
validate    run the built-in cross-checks (oracle routes, invariants, golden
            headers) on small instances; exit 0/1
dump-field  write one sampled material field as field.csv

Config files are flat INI text (sections in brackets, key = value); the
keys and their defaults are in README's "Config format" and in _KEYS.

Outputs are plain CSV ('.' decimal, '%.17g' floats) preceded by '#key=value'
metadata lines (version, PRNG, effective seed, config hash, resolved config)
sufficient to reproduce the file exactly; no timestamps, so identical
config+seed reruns are byte-identical regardless of worker count.

Exit codes: 0 ok, 1 invariant failure, 2 solver failure, 3 config error.
Errors print one machine-readable line on stderr:
    laminhom-error code=<n> kind=<config|solver|invariant> message="..."
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import hashlib
import io
import os
import sys
import tempfile
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from .cell import (
    ConvergenceError,
    SampleBlock,
    SingularityError,
    SolverOptions,
    assemble,
    det_identity_residual,
    fd_derivative_errors,
    rank_one_minimum,
    solve_corrector,
)
from .energy import DomainError, EnergyDensity, adjugate, rotation_from_angle
from .fields import (
    PRNG_NAME,
    CovarianceSpec,
    PeriodizationError,
    SpectrumError,
    periodize_covariance,
    sample_periodic_field,
)
from .oracle import minimize_direct
from .stats import (
    REFERENCE_STRATEGIES,
    DegenerateFitError,
    EnsembleError,
    EnsemblePlan,
    FluctuationEstimate,
    StatisticsError,
    SystematicEstimate,
    balanced_count,
    cells_for,
    fit_envelope_scale,
    fit_rate,
    fluctuation_estimate,
    mc_total_error,
    period_cells,
    reference_lengths,
    run_ensemble,
    systematic_estimate,
)

__all__ = [
    "EXIT_OK", "EXIT_INVARIANT", "EXIT_SOLVER", "EXIT_CONFIG", "GOLDEN_HEADERS",
    "ConfigError", "ExperimentConfig", "load_config", "write_csv",
    "cmd_single", "cmd_rates", "cmd_mc", "cmd_dump_field", "cmd_validate",
    "build_parser", "main",
]

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_SOLVER = 2
EXIT_CONFIG = 3

SCHEMA_VERSION = "1"

GOLDEN_HEADERS = {
    "quantities": "quantity,component,value",
    "corrector": "cell,x,omega,component,value",
    "checks": "check,value,threshold,status",
    "field": "cell,x,omega",
    "fluctuations": "order,L,count,sd,ci_low,ci_high",
    "systematic": "order,L,count,bias,se,underpowered,excluded",
    "rates": "series,order,slope,intercept,ci_low,ci_high,points",
    "mc": "L,N,groups,total_error,fluctuation_part,bias_part,envelope,scaled_envelope,ratio",
}

# checks.csv thresholds (also used by validate)
FD_STRESS_TOL = 1e-5
FD_TANGENT_TOL = 1e-4
FRAME_TOL = 1e-10
MEAN_RESIDUAL_TOL = 1e-13


class ConfigError(ValueError):
    """Bad or missing configuration."""


# =====================================================================
# configuration
# =====================================================================


def fmt(x):
    """Stable text form: %.17g floats, plain ints, 0/1 booleans."""
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return "%.17g" % float(x)
    return str(x)


def _matrix(text):
    """Square matrix from ';'-separated rows; ExperimentConfig checks its size."""
    rows = [r.strip() for r in text.split(";") if r.strip()]
    if not rows:
        raise ConfigError("needs rows separated by ';'")
    out = []
    for r in rows:
        entries = r.replace(",", " ").split()
        if len(entries) != len(rows):
            raise ConfigError(f"row {r!r} needs {len(rows)} entries, one per row")
        out.append([float(e) for e in entries])
    return np.array(out)


def _numbers(text):
    return tuple(float(v) for v in text.replace(",", " ").split())


# Every config key, in canonical order: (section, key, parse).  A key sets
# the ExperimentConfig field of its name (`lam` for lambda, see _FIELD),
# except the [deformation] keys, which make F together (`_deformation`).
# README's "Config format" block lists the same keys.
_KEYS = (
    ("material", "family", str.strip),
    ("material", "lambda", float),
    ("material", "mu", float),
    ("material", "modulation", float),
    ("material", "dimension", int),
    ("covariance", "kind", str.strip),
    ("covariance", "variance", float),
    ("covariance", "correlation_length", float),
    ("discretization", "spacing", float),
    ("deformation", "mode", str.strip),
    ("deformation", "matrix", _matrix),
    ("deformation", "angle", float),
    ("deformation", "strain", _matrix),
    ("deformation", "magnitude", float),
    ("run", "lengths", _numbers),
    ("run", "samples", int),
    ("run", "seed", int),
    ("run", "order", int),
    ("run", "tol_inner", float),
    ("run", "tol_outer", float),
    ("run", "delta_bar", float),
    ("run", "workers", int),
    ("run", "reference_strategy", str.strip),
    ("run", "reference_length", float),
    ("run", "reference_samples", int),
    ("run", "mc_groups", int),
    ("run", "mc_scale", float),
)
_FIELD = {"lambda": "lam"}
_SCHEMA = {section: {k for s, k, _ in _KEYS if s == section} for section, _, _ in _KEYS}


def _text(value):
    """Canonical text of a config value: numbers by fmt, sequences joined by spaces."""
    if value is None:
        return "none"
    if isinstance(value, (tuple, np.ndarray)):
        return " ".join(fmt(v) for v in np.ravel(value))
    return fmt(value)


@dataclass
class ExperimentConfig:
    """Resolved, validated experiment: one field per key of _KEYS, and F.

    Each rule is checked by the code that relies on it: every period the
    run solves (the lengths and reference_length) by `stats.period_cells`,
    the deformation by `SolverOptions.check_deformation`, the reference by
    `stats.reference_lengths`.
    """

    family: str
    lam: float
    mu: float
    modulation: float
    dimension: int
    kind: str
    variance: float
    correlation_length: float
    spacing: float
    F: np.ndarray
    lengths: tuple
    samples: int
    seed: int
    order: int = 2
    tol_inner: float = SolverOptions.tol_inner
    tol_outer: float = SolverOptions.tol_outer
    delta_bar: float = SolverOptions.delta_bar
    workers: int = 1
    reference_strategy: str = "largest_L_mean"
    reference_length: float | None = None
    reference_samples: int | None = None
    mc_groups: int = 8
    mc_scale: float = 1.0

    def __post_init__(self):
        self.F = np.asarray(self.F, dtype=float)
        self.lengths = tuple(float(L) for L in self.lengths)
        if self.dimension not in (2, 3):
            raise ConfigError(f"dimension must be 2 or 3, got {self.dimension}")
        if self.F.shape != (self.dimension, self.dimension):
            raise ConfigError(
                f"deformation must be {self.dimension}x{self.dimension} ({self.dimension} rows "
                f"of {self.dimension} entries), got shape {self.F.shape}")
        if not self.lengths:
            raise ConfigError("need at least one length")
        if len(set(self.lengths)) < len(self.lengths):
            raise ConfigError("lengths must be distinct")
        if self.samples < 1:
            raise ConfigError("samples must be >= 1")
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError("seed must fit in a u64")
        if self.order not in (0, 1, 2):
            raise ConfigError(f"order must be 0, 1 or 2, got {self.order}")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.reference_strategy not in REFERENCE_STRATEGIES:
            raise ConfigError(f"unknown reference_strategy {self.reference_strategy!r}")
        if self.reference_samples is None:
            self.reference_samples = self.samples
        if self.mc_groups < 2:
            raise ConfigError("mc_groups must be >= 2")
        if not self.mc_scale > 0.0:
            raise ConfigError("mc_scale must be positive")
        periods = self.lengths
        if self.reference_length is not None:
            periods += (self.reference_length,)
        try:
            # the canonical names, so equivalent spellings hash alike
            self.family = self.material().family
            covariance = self.covariance()
            self.kind = covariance.kind
            for L in periods:
                period_cells(covariance, L, self.spacing)
            self.solver_options().check_deformation(self.F)
            if self.reference_length is None:
                reference_lengths(self.reference_strategy, self.lengths)
        except (ValueError, StatisticsError) as exc:
            raise ConfigError(str(exc)) from exc

    def material(self):
        return EnergyDensity(self.family, lame=(self.lam, self.mu), modulation=self.modulation,
                             dim=self.dimension)

    def covariance(self):
        return CovarianceSpec(self.kind, self.variance, self.correlation_length)

    def solver_options(self):
        return SolverOptions(tol_inner=self.tol_inner, tol_outer=self.tol_outer,
                             delta_bar=self.delta_bar)

    def plan(self, lengths=None, counts=None, order=None):
        lengths = tuple(lengths if lengths is not None else self.lengths)
        if counts is None:
            counts = {L: self.samples for L in lengths}
        return EnsemblePlan(material=self.material(), covariance=self.covariance(),
                            F=self.F, spacing=self.spacing, lengths=lengths,
                            counts=counts, seed=self.seed,
                            order=self.order if order is None else order,
                            options=self.solver_options(), workers=self.workers)

    def canonical_items(self):
        """Resolved config as (key, value) text pairs in the order of _KEYS,
        for metadata and hashing; the [deformation] keys appear as the one
        matrix F.  Worker count is deliberately excluded: outputs do not
        depend on it."""
        items = {}
        for section, key, _ in _KEYS:
            if section == "deformation":
                items["deformation.F"] = _text(self.F)
            elif key != "workers":
                items[f"{section}.{key}"] = _text(getattr(self, _FIELD.get(key, key)))
        return list(items.items())

    def sha256(self):
        text = "\n".join(f"{k}={v}" for k, v in self.canonical_items())
        return hashlib.sha256(text.encode()).hexdigest()


def _deformation(keys):
    """F from the given [deformation] keys: mode = matrix takes the matrix;
    mode = identity_plus takes strain, magnitude and optionally angle, and
    means F = R(angle) (Id + magnitude * strain)."""
    def need(key):
        if key not in keys:
            raise ConfigError(f"missing deformation.{key}")
        return keys[key]

    mode = need("mode").lower()
    if mode == "matrix":
        if set(keys) - {"mode", "matrix"}:
            raise ConfigError("matrix mode takes only the matrix key")
        return need("matrix")
    if mode == "identity_plus":
        if "matrix" in keys:
            raise ConfigError("identity_plus mode does not take a matrix key")
        strain = need("strain")
        F = np.eye(len(strain)) + need("magnitude") * strain
        if len(strain) >= 2:  # the rotation acts in the (e1, e2) plane
            F = rotation_from_angle(keys.get("angle", 0.0), len(strain)) @ F
        return F
    raise ConfigError(f"deformation.mode must be matrix or identity_plus, got {mode!r}")


def load_config(path, seed=None, workers=None):
    """Parse and validate a config file into an ExperimentConfig; a seed or
    worker count that is not None overrides the file's run.seed or run.workers."""
    # ';' separates matrix rows, so only '#' may start an inline comment
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",),
                                   interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cp.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc
    for section in cp.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
    for section, keys in _SCHEMA.items():
        if not cp.has_section(section):
            raise ConfigError(f"missing [{section}] section")
        unknown = set(cp.options(section)) - keys
        if unknown:
            raise ConfigError(f"unknown key(s) in [{section}]: {', '.join(sorted(unknown))}")

    required = {f.name for f in fields(ExperimentConfig) if f.default is MISSING}
    values, deformation = {}, {}
    for section, key, parse in _KEYS:
        if cp.has_option(section, key):
            try:
                value = parse(cp.get(section, key))
            except ValueError as exc:
                raise ConfigError(f"{section}.{key}: {exc}") from exc
            (deformation if section == "deformation" else values)[_FIELD.get(key, key)] = value
        elif _FIELD.get(key, key) in required:
            raise ConfigError(f"missing {section}.{key}")
    for key, value in (("seed", seed), ("workers", workers)):
        if value is not None:
            values[key] = value
    return ExperimentConfig(F=_deformation(deformation), **values)


# =====================================================================
# output
# =====================================================================


def base_metadata(config, command, extra=()):
    items = [("schema_version", SCHEMA_VERSION),
             ("tool", "laminhom"),
             ("version", __version__),
             ("command", command),
             ("prng", PRNG_NAME),
             ("config_sha256", config.sha256())]
    items.extend(("config." + k, v) for k, v in config.canonical_items())
    items.extend(extra)
    return items


def write_csv(out_dir, schema, rows, metadata):
    """<schema>.csv in out_dir: the metadata lines, the golden header, the rows."""
    path = Path(out_dir) / f"{schema}.csv"
    lines = [f"#{k}={v}" for k, v in metadata]
    lines.append(GOLDEN_HEADERS[schema])
    lines.extend(",".join(fmt(c) for c in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return path


def _error_line(code, kind, message):
    message = str(message).replace('"', "'").replace("\n", " ")
    print(f'laminhom-error code={code} kind={kind} message="{message}"', file=sys.stderr)


def _component_label(index_tuple):
    return "".join(str(i + 1) for i in index_tuple)


# =====================================================================
# single
# =====================================================================


def _single_checks(w, sample, F, opts, sol, quantities, seed):
    """Named (check, value, threshold, passed) rows for checks.csv."""
    d = w.dim
    report = fd_derivative_errors(w, sample, F, opts=opts, step=1e-4)
    det_dev = det_identity_residual(sol.p, F)
    det_thr = 1e-12 * sample.n * abs(adjugate(F)[0])
    R = rotation_from_angle(0.7, d)
    rotated = assemble(w, sample, R @ F, order=0, opts=opts)
    frame_dev = abs(rotated.energy - quantities.energy)
    rho = rank_one_minimum(quantities.tangent,
                           np.random.default_rng(np.random.SeedSequence([seed, 303])))
    sigma = quantities.metadata["sigma"]
    flux_thr = 10.0 * opts.tol_inner * (1.0 + float(np.linalg.norm(sigma)))
    mean_thr = MEAN_RESIDUAL_TOL * (1.0 + float(np.abs(sol.p).max()))
    rows = [
        ("fd_stress", report["stress_rel_error"], FD_STRESS_TOL,
         report["stress_rel_error"] <= FD_STRESS_TOL),
        ("fd_tangent", report["tangent_rel_error"], FD_TANGENT_TOL,
         report["tangent_rel_error"] <= FD_TANGENT_TOL),
        ("det_identity", det_dev, det_thr, det_dev <= det_thr),
        ("frame_indifference", frame_dev, FRAME_TOL, frame_dev <= FRAME_TOL),
        ("rank_one_min", rho, 0.0, rho > 0.0),
        ("flux_residual", sol.stats["flux_residual"], flux_thr,
         sol.stats["flux_residual"] <= flux_thr),
        ("mean_residual", sol.stats["mean_residual"], mean_thr,
         sol.stats["mean_residual"] <= mean_thr),
    ]
    return [(name, val, thr, "pass" if ok else "fail") for name, val, thr, ok in rows]


def _sample(config, index):
    """Sample `index` of the first length of `config`."""
    L = config.lengths[0]
    return sample_periodic_field(config.covariance(), L, cells_for(L, config.spacing),
                                 config.seed, index)


def _solve(config, sample, order):
    """(CorrectorSolution, HomogenizedQuantities up to `order`) of `sample`
    at config.F under the config's solver options, solved once in a block of one."""
    w, opts = config.material(), config.solver_options()
    block = SampleBlock(w, [sample], config.F, opts)
    return (solve_corrector(w, sample, config.F, opts, block=block),
            assemble(w, sample, config.F, order=order, opts=opts, block=block))


def cmd_single(config, out_dir):
    sample = _sample(config, 0)
    sol, quantities = _solve(config, sample, order=2)

    d = config.dimension
    qrows = [("W", "", quantities.energy)]
    for j in range(d):
        for k in range(d):
            qrows.append(("DW", _component_label((j, k)), quantities.stress[j, k]))
    for idx in np.ndindex(d, d, d, d):
        qrows.append(("D2W", _component_label(idx), quantities.tangent[idx]))

    sigma = quantities.metadata["sigma"]
    meta = base_metadata(config, "single", [("L", fmt(sample.period)), ("cells", fmt(sample.n))]
                         + [(f"sigma_{k + 1}", fmt(sigma[k])) for k in range(d)])
    write_csv(out_dir, "quantities", qrows, meta)

    grid = sample.grid()
    crows = [(i, grid[i], sample.values[i], f"p{k + 1}", sol.p[i, k])
             for i in range(sample.n) for k in range(d)]
    write_csv(out_dir, "corrector", crows, meta)

    checks = _single_checks(config.material(), sample, config.F, config.solver_options(), sol,
                            quantities, config.seed)
    write_csv(out_dir, "checks", checks, meta)
    failed = [c[0] for c in checks if c[3] == "fail"]
    if failed:
        _error_line(EXIT_INVARIANT, "invariant", f"checks failed: {', '.join(failed)}")
        return EXIT_INVARIANT
    return EXIT_OK


# =====================================================================
# rates
# =====================================================================


def _parse_synthetic(text):
    kind, _, arg = text.partition(":")
    if kind.strip().lower() != "powerlaw":
        raise ConfigError(f"unknown synthetic form {text!r} (expected powerlaw:EXP)")
    try:
        return float(arg)
    except ValueError as exc:
        raise ConfigError(f"bad synthetic exponent {arg!r}") from exc


def _synthetic_rates(config, out_dir, exponent):
    """Exact power-law estimates L**exponent, written by the tables and fits
    of a real run: every sd, CI bound and bias is L**exponent, every SE 0."""
    lengths = sorted(config.lengths)
    values = {L: float(L) ** exponent for L in lengths}
    orders = range(config.order + 1)
    fluct = {order: {L: FluctuationEstimate(sd=v, ci_low=v, ci_high=v, count=config.samples)
                     for L, v in values.items()} for order in orders}
    syst = {order: SystematicEstimate(order=order, strategy="synthetic", reference=None,
                                      biases=values, ses=dict.fromkeys(lengths, 0.0),
                                      underpowered=dict.fromkeys(lengths, False), excluded=())
            for order in orders}
    meta = base_metadata(config, "rates", [("synthetic", f"powerlaw:{fmt(exponent)}")])
    _write_rates(config, out_dir, dict.fromkeys(lengths, config.samples), fluct, syst, meta)
    return EXIT_OK


def _write_rates(config, out_dir, counts, fluct, syst, meta):
    """fluctuations.csv, systematic.csv and rates.csv of the per-order
    estimates fluct {order: {L: FluctuationEstimate}} and syst {order:
    SystematicEstimate} at the lengths of counts {L: solved samples}, and a
    log-log rate fit of each series: every fluctuation fit, then every
    systematic fit."""
    lengths = list(counts)
    fl_rows = [(order, L, per_l[L].count, per_l[L].sd, per_l[L].ci_low, per_l[L].ci_high)
               for order, per_l in fluct.items() for L in lengths]
    sy_rows = []
    for order, est in syst.items():
        for L in lengths:
            if est.underpowered[L] and L not in est.excluded:
                print(f"warning: systematic order {order} underpowered at L={fmt(L)} "
                      f"(bias below 3 SE)", file=sys.stderr)
            sy_rows.append((order, L, counts[L], est.biases[L], est.ses[L],
                            est.underpowered[L], L in est.excluded))

    series = [("fluctuation", order, {L: per_l[L].sd for L in lengths})
              for order, per_l in fluct.items()]
    series += [("systematic", order, {L: est.biases[L] for L in lengths if L not in est.excluded})
               for order, est in syst.items()]
    rate_rows = []
    for name, order, ys in series:
        try:
            fit = fit_rate(np.array(list(ys), dtype=float), np.array(list(ys.values())),
                           seed=config.seed)
        except DegenerateFitError as exc:
            print(f"warning: {name} fit order {order}: {exc}", file=sys.stderr)
        else:
            rate_rows.append((name, order, fit.slope, fit.intercept,
                              fit.ci_low, fit.ci_high, fit.count))

    write_csv(out_dir, "fluctuations", fl_rows, meta)
    write_csv(out_dir, "systematic", sy_rows, meta)
    write_csv(out_dir, "rates", rate_rows, meta)


def _warn_failures(config, run):
    for L in run.lengths:
        for index, reason in run.failures[L]:
            print(f"warning: sample failed seed={config.seed} L={fmt(L)} index={index}: "
                  f"{reason}", file=sys.stderr)


def _ensembles(config, counts, order):
    """One ensemble over the lengths of counts, in increasing order, then the
    reference ensemble at reference_length unless the first was interrupted.

    Returns (run, reference_run or None, interrupted); an interrupted run
    holds the lengths that completed.
    """
    lengths = tuple(sorted(counts))
    run = run_ensemble(config.plan(lengths=lengths, counts=counts, order=order))
    _warn_failures(config, run)
    interrupted = run.lengths != lengths
    reference_run = None
    if config.reference_length is not None and not interrupted:
        Lr = config.reference_length
        try:
            reference_run = run_ensemble(
                config.plan(lengths=(Lr,), counts={Lr: config.reference_samples}, order=order))
        except KeyboardInterrupt:
            interrupted = True
        else:
            _warn_failures(config, reference_run)
    return run, reference_run, interrupted


def cmd_rates(config, out_dir, synthetic=None):
    if synthetic is not None:
        return _synthetic_rates(config, out_dir, _parse_synthetic(synthetic))

    run, reference_run, interrupted = _ensembles(
        config, {L: config.samples for L in config.lengths}, config.order)
    meta_tail = [("interrupted", "1")] if interrupted else []
    fluct, syst = {}, {}
    for order in range(config.order + 1):
        try:
            fluct[order] = fluctuation_estimate(run, order)
        except StatisticsError as exc:
            print(f"warning: fluctuation order {order}: {exc}", file=sys.stderr)
    for order in range(config.order + 1):
        try:
            syst[order] = systematic_estimate(run, order=order,
                                              strategy=config.reference_strategy,
                                              reference_run=reference_run)
        except StatisticsError as exc:
            print(f"warning: systematic order {order}: {exc}", file=sys.stderr)
    _write_rates(config, out_dir, {L: run.count(L) for L in run.lengths}, fluct, syst,
                 base_metadata(config, "rates", meta_tail))
    return 130 if interrupted else EXIT_OK


# =====================================================================
# mc
# =====================================================================


def cmd_mc(config, out_dir):
    try:
        schedule = [(L, balanced_count(L, config.mc_scale)) for L in sorted(config.lengths)]
    except ValueError as exc:
        raise ConfigError(f"mc: {exc}") from exc
    run, reference_run, interrupted = _ensembles(
        config, {L: config.mc_groups * N for L, N in schedule}, order=0)
    if interrupted:
        print("warning: interrupted, writing partial mc table", file=sys.stderr)
        schedule = [(L, N) for L, N in schedule if L in run.lengths]
    est = systematic_estimate(run, order=0, strategy=config.reference_strategy,
                              reference_run=reference_run)
    rows = mc_total_error(run, schedule, est.reference, order=0)
    scale = fit_envelope_scale(rows)
    out_rows = [(r.L, r.N, r.groups, r.total, r.scatter, r.bias, r.envelope,
                 scale * r.envelope, r.total / (scale * r.envelope)) for r in rows]
    meta_tail = [("envelope_scale", fmt(scale))]
    if interrupted:
        meta_tail.append(("interrupted", "1"))
    write_csv(out_dir, "mc", out_rows, base_metadata(config, "mc", meta_tail))
    return 130 if interrupted else EXIT_OK


# =====================================================================
# dump-field
# =====================================================================


def cmd_dump_field(config, out_dir):
    sample = _sample(config, 0)
    grid = sample.grid()
    rows = [(i, grid[i], sample.values[i]) for i in range(sample.n)]
    meta = [("L", fmt(sample.period)), ("cells", fmt(sample.n))]
    write_csv(out_dir, "field", rows, base_metadata(config, "dump-field", meta))
    return EXIT_OK


# =====================================================================
# validate
# =====================================================================


def _builtin_config(dim=2, family="saint-venant-kirchhoff", lengths=(8.0,), samples=2,
                    seed=20240901, **overrides):
    F = np.eye(dim)
    F[0, 1] += 0.05
    F[1, 0] += 0.05
    kwargs = dict(family=family, lam=1.2, mu=0.8, modulation=0.3, dimension=dim,
                  kind="triangle", variance=1.0, correlation_length=1.0,
                  spacing=0.25, F=F, lengths=lengths, samples=samples, seed=seed)
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


def _check_oracle(dim, family):
    config = _builtin_config(dim=dim, family=family)
    sample = _sample(config, 0)
    sol, quantities = _solve(config, sample, order=0)
    direct = minimize_direct(config.material(), sample, config.F, config.solver_options())
    gap_w = abs(quantities.energy - direct.energy)
    gap_p = float(np.abs(sol.p - direct.p).max())
    return gap_w <= 1e-8 and gap_p <= 1e-7, f"|dW|={gap_w:.2e} |dp|={gap_p:.2e}"


def _check_single_invariants():
    config = _builtin_config()
    sample = _sample(config, 1)
    sol, quantities = _solve(config, sample, order=2)
    rows = _single_checks(config.material(), sample, config.F, config.solver_options(), sol,
                          quantities, config.seed)
    bad = [r[0] for r in rows if r[3] == "fail"]
    return not bad, ("all pass" if not bad else "failed: " + ", ".join(bad))


def _check_spectra():
    # the one-point variance C_L(0) = C(0), read off the entries and off the
    # clamped spectrum, whose mean is the inverse DFT at lag 0
    for kind in ("triangle", "cosine-bump"):
        cov = CovarianceSpec(kind, 1.7, 1.0)
        for L, n in ((8.0, 64), (16.0, 96)):
            per = periodize_covariance(cov, L, n)
            mean = float(per.spectrum.mean())
            if per.entries[0] != cov.variance or abs(mean - cov.variance) > 1e-12 * cov.variance:
                return False, f"C_L(0) != C(0) for {kind} at L={L}: spectrum mean {mean!r}"
    return True, "C_L(0) = C(0) on 4 grids"


def _check_determinism():
    cov = CovarianceSpec("cosine-bump", 1.0, 1.0)
    a = sample_periodic_field(cov, 8.0, 32, 7, 3)
    b = sample_periodic_field(cov, 8.0, 32, 7, 3)
    if not np.array_equal(a.values, b.values):
        return False, "field draw not reproducible"
    config = _builtin_config()
    w = config.material()
    qa = assemble(w, a, config.F, order=1)
    qb = assemble(w, b, config.F, order=1)
    if not (qa.energy == qb.energy and np.array_equal(qa.stress, qb.stress)):
        return False, "solve not reproducible"
    # the sample needing the fewest iterations, solved alone and inside a
    # block of samples that need more (here 5 and 6 Newton steps)
    w = _builtin_config(modulation=0.95).material()
    cov = CovarianceSpec("triangle", 6.0, 4.0)
    samples = [sample_periodic_field(cov, 16.0, 64, 7, i) for i in range(8)]
    block = SampleBlock(w, samples, config.F)
    try:
        inside = [assemble(w, s, config.F, order=1, block=block) for s in samples]
    except (ConvergenceError, SingularityError):
        return False, "a block sample failed"
    iters = [q.metadata["outer_iterations"] for q in inside]
    s = int(np.argmin(iters))
    if not max(iters) > iters[s]:
        return False, "no sample in the block needs more iterations"
    alone = assemble(w, samples[s], config.F, order=1)
    ok = alone.energy == inside[s].energy and np.array_equal(alone.stress, inside[s].stress)
    return ok, "bitwise reproducible, alone and in a block"


def _check_negative_control():
    # a deliberately miscalibrated solve must trip the flux-constancy check
    config = _builtin_config()
    # a loose flux tolerance ends the Newton iteration one step after it is met
    loose = SolverOptions(tol_inner=1e-2)
    sol = solve_corrector(config.material(), _sample(config, 2), config.F, loose)
    threshold = 10.0 * SolverOptions().tol_inner * (1.0 + float(np.linalg.norm(sol.sigma)))
    tripped = sol.stats["flux_residual"] > threshold
    return tripped, f"flux residual {sol.stats['flux_residual']:.2e} vs {threshold:.2e}"


def _check_golden_headers():
    config = _builtin_config(lengths=(8.0, 16.0, 32.0, 48.0), samples=2)
    mc_config = _builtin_config(lengths=(8.0, 16.0), samples=2)
    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stdout(io.StringIO()):
            codes = {"single": cmd_single(config, tmp), "dump-field": cmd_dump_field(config, tmp),
                     "rates": cmd_rates(config, tmp, synthetic="powerlaw:-0.5"),
                     "mc": cmd_mc(mc_config, tmp)}
        failed = [f"{name} exited {code}" for name, code in codes.items() if code != EXIT_OK]
        if failed:
            return False, ", ".join(failed)
        for schema, golden in GOLDEN_HEADERS.items():
            lines = (Path(tmp) / f"{schema}.csv").read_text().splitlines()
            header = next(line for line in lines if not line.startswith("#"))
            if header != golden:
                return False, f"{schema}.csv header drifted: {header!r}"
    return True, f"{len(GOLDEN_HEADERS)} headers match"


def cmd_validate():
    checks = [
        ("oracle_equivalence_d2", lambda: _check_oracle(2, "saint-venant-kirchhoff")),
        ("oracle_equivalence_d3", lambda: _check_oracle(3, "neo-hookean")),
        ("single_invariants", _check_single_invariants),
        ("covariance_spectra", _check_spectra),
        ("determinism", _check_determinism),
        ("negative_control_loose_tolerance", _check_negative_control),
        ("golden_headers", _check_golden_headers),
    ]
    failures = []
    for name, fn in checks:
        try:
            ok, detail = fn()
        except Exception as exc:  # noqa: BLE001 - report, do not crash the gate
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        print(f"{name}: {'pass' if ok else 'FAIL'} ({detail})")
        if not ok:
            failures.append(name)
    if failures:
        _error_line(EXIT_INVARIANT, "invariant", f"validate failed: {', '.join(failures)}")
        return EXIT_INVARIANT
    print(f"validate: {len(checks)} checks passed")
    return EXIT_OK


# =====================================================================
# argument plumbing
# =====================================================================


def _workers(args):
    """The worker count of --workers or LAMINHOM_WORKERS, or None when neither is set."""
    if args.workers is not None:
        return args.workers
    env = os.environ.get("LAMINHOM_WORKERS")
    if env:
        try:
            return int(env)
        except ValueError as exc:
            raise ConfigError(f"LAMINHOM_WORKERS={env!r} is not an integer") from exc
    return None


def _prepare(args):
    """The config of the command line, validated once with its overrides, and the output dir."""
    config = load_config(args.config, seed=args.seed, workers=_workers(args))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return config, out


def _add_common(sub):
    sub.add_argument("--config", required=True, help="experiment config file")
    sub.add_argument("--seed", type=int, default=None, help="override run.seed")
    sub.add_argument("--workers", type=int, default=None,
                     help="worker processes (default: LAMINHOM_WORKERS or config)")
    sub.add_argument("--out", required=True, help="output directory")


def build_parser():
    parser = argparse.ArgumentParser(prog="laminhom",
                                     description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("single", help="solve one sample and write quantities")
    _add_common(s)
    s.set_defaults(func=lambda a: cmd_single(*_prepare(a)))

    s = subs.add_parser("rates", help="fluctuation and systematic rate tables")
    _add_common(s)
    s.add_argument("--synthetic", default=None, metavar="SPEC",
                   help="bypass solves with exact synthetic data (powerlaw:EXP)")
    s.set_defaults(func=lambda a: cmd_rates(*_prepare(a), synthetic=a.synthetic))

    s = subs.add_parser("mc", help="Monte Carlo total-error table")
    _add_common(s)
    s.set_defaults(func=lambda a: cmd_mc(*_prepare(a)))

    s = subs.add_parser("dump-field", help="write one sampled material field")
    _add_common(s)
    s.set_defaults(func=lambda a: cmd_dump_field(*_prepare(a)))

    s = subs.add_parser("validate", help="run built-in cross-checks")
    s.set_defaults(func=lambda a: cmd_validate())
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, PeriodizationError, SpectrumError, StatisticsError,
            DegenerateFitError, DomainError) as exc:
        _error_line(EXIT_CONFIG, "config", exc)
        return EXIT_CONFIG
    except (ConvergenceError, SingularityError, EnsembleError) as exc:
        _error_line(EXIT_SOLVER, "solver", exc)
        return EXIT_SOLVER
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    sys.exit(main())
