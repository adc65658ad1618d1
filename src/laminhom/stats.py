"""Monte Carlo ensembles of cell problems and empirical error rates.

The estimation targets are the two error components of the periodic
representative-volume approximation: random fluctuations of the per-sample
effective quantities about their mean (expected to decay like L^{-1/2} in
the period L) and the systematic deviation of that mean from the infinite-
volume limit (expected to decay like ln L / L), plus the combined Monte
Carlo error of an N-sample average, whose natural envelope is
1/sqrt(N L) + ln(L)/L with the balanced choice N ~ L / ln^2 L.

`run_ensemble` is the orchestration entry point: embarrassingly parallel
over (L, sample index), deterministic regardless of worker count because
every sample is a pure function of (seed, L, index) and reductions run in
fixed index order.  One call solves every period of a plan; it allows each
period failures below 1% of its planned samples, and an interrupt keeps
the periods that completed.  The samples of one L are solved in blocks of
at most BLOCK_CELLS cells (`cell.SampleBlock`), which are also the jobs of the
process pool; a sample's bits do not depend on its block.  The results of
one L are kept as columns (`cell.SampleColumns`: one array per quantity and
per metadata key), which read as a sequence of per-sample records
(`cell.HomogenizedQuantities`).  The estimators (`fluctuation_estimate`,
`systematic_estimate`, `mc_total_error`, `fit_rate`) are plain
deterministic reductions with seeded bootstrap confidence intervals.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .cell import (
    ConvergenceError,
    SampleBlock,
    SampleColumns,
    SingularityError,
    SolverOptions,
    _column,
    _read_only,
    assemble,
)
from .fields import (
    _spectral_root,
    check_grid,
    periodize_covariance,  # noqa: F401 (the benchmark traces stats.periodize_covariance)
    sample_periodic_field,
)

__all__ = [
    "EnsembleError",
    "StatisticsError",
    "DegenerateFitError",
    "EnsemblePlan",
    "EnsembleRun",
    "FluctuationEstimate",
    "SystematicEstimate",
    "McRow",
    "RateFit",
    "run_ensemble",
    "fluctuation_estimate",
    "systematic_estimate",
    "mc_total_error",
    "fit_envelope_scale",
    "balanced_count",
    "fit_rate",
    "decompose_error",
    "cells_for",
    "period_cells",
    "REFERENCE_STRATEGIES",
    "reference_lengths",
]

FAILURE_BUDGET = 0.01
# cells per block of samples solved together (see _blocks)
BLOCK_CELLS = 8192
# the heap hint of run_ensemble, in (d, d) float matrices per cell of a full
# block: at least half of one block's Newton working memory
HEAP_HINT_MATRICES = 5
BOOTSTRAP_RESAMPLES = 1000
# references of systematic_estimate made from the run itself (see reference_lengths)
REFERENCE_STRATEGIES = ("largest_L_mean", "extrapolated")


class EnsembleError(RuntimeError):
    """Too many per-sample solver failures: 1% of one period's planned samples."""


class StatisticsError(RuntimeError):
    """Estimator preconditions violated (too few samples, missing order...)."""


class DegenerateFitError(ValueError):
    """Rate fit impossible: nonpositive values or too few distinct points."""


@dataclass(frozen=True)
class EnsemblePlan:
    """What to run: material, covariance, deformation, grid, sample counts."""

    material: object
    covariance: object
    F: np.ndarray
    spacing: float
    counts: dict               # L -> number of samples; its keys are the periods, in solve order
    seed: int
    order: int = 2
    options: SolverOptions = field(default_factory=SolverOptions)
    workers: int = 1


@dataclass
class EnsembleRun:
    """Solved ensemble: per-sample effective quantities keyed by period L.

    samples[L] is a `SampleColumns`: the solved samples in sample-index
    order (the index is a metadata column), read as a sequence of records.
    Any sample is reproducible from (seed, L, index) alone, by
    `sample_periodic_field` and `assemble` (both importable from here).
    failures[L] lists (index, reason) of the samples that failed, fewer
    than 1% of counts[L].  timing[L] is wall seconds from the start of the
    ensemble until that L completed; it never enters data files.  An
    interrupted run holds only the periods that completed: lengths lists
    them, and every dict is keyed by them alone.
    """

    lengths: tuple
    counts: dict
    F: np.ndarray
    order: int
    seed: int
    samples: dict
    failures: dict
    timing: dict

    def count(self, L):
        return len(self.samples[L])

    def values(self, L, order):
        """Per-sample quantities of one derivative order, flattened: a
        read-only (N, k) view of the columns."""
        if not 0 <= order <= self.order:
            raise StatisticsError(
                f"run holds derivatives of order 0 to {self.order}, asked for {order}")
        columns = self.samples[L]
        N = len(columns)
        if not N:
            raise StatisticsError(f"no successful samples at L = {L}")
        if order == 0:
            return columns.energy.reshape(N, 1)
        return (columns.stress if order == 1 else columns.tangent).reshape(N, -1)


@dataclass
class FluctuationEstimate:
    sd: float
    ci_low: float
    ci_high: float
    count: int


@dataclass
class SystematicEstimate:
    order: int
    strategy: str
    reference: np.ndarray
    biases: dict               # L -> |mean_L - reference|
    ses: dict                  # L -> propagated standard error of the bias
    underpowered: dict         # L -> not bias >= 3 * SE (also for a NaN SE)
    excluded: tuple            # lengths that served as reference (skip in fits)


@dataclass
class McRow:
    L: int
    N: int
    groups: int
    total: float               # sqrt(mean_j |group_mean_j - reference|^2)
    scatter: float             # fluctuation part
    bias: float                # |overall mean - reference|
    envelope: float            # 1/sqrt(NL) + ln(L)/L, unscaled


@dataclass
class RateFit:
    slope: float
    intercept: float
    ci_low: float
    ci_high: float
    count: int


# =====================================================================
# ensemble orchestration
# =====================================================================


def cells_for(length, spacing):
    """Cell count L / h, requiring a positive spacing that divides the period."""
    if not spacing > 0.0:
        raise ValueError(f"spacing must be positive, got {spacing}")
    ratio = float(length) / float(spacing)
    n = int(round(ratio)) if np.isfinite(ratio) else 0
    if n < 1 or abs(ratio - n) > 1e-9 * max(1.0, ratio):
        raise ValueError(f"spacing {spacing} does not divide period {length}")
    return n


def period_cells(covariance, length, spacing):
    """Cell count of period `length` at cell width `spacing`, checked before
    any sample is drawn: the grid must suit the covariance (`check_grid`,
    first, so a coarse spacing reads as coarse whether or not it divides
    the period), the spacing must divide the period (`cells_for`), and the
    periodized spectrum must be nonnegative (`periodize_covariance`).  The
    spectrum is checked through the cache that `sample_periodic_field`
    draws from, under its key, so each grid is periodized once."""
    check_grid(covariance, length, spacing)
    n = cells_for(length, spacing)
    _spectral_root(covariance, float(length), n)
    return n


def _solve_batch(args):
    """Solve one block of samples of one period: (L, SampleColumns, failures);
    the columns are the solved rows of the block's, indexed by "index"."""
    plan, L, n, indices = args
    samples = [sample_periodic_field(plan.covariance, L, n, plan.seed, idx) for idx in indices]
    block = SampleBlock(plan.material, samples, plan.F, plan.options)
    solved, failures = [], []
    for row, sample in enumerate(samples):
        try:
            assemble(plan.material, sample, plan.F, order=plan.order, opts=plan.options,
                     block=block)
        except (ConvergenceError, SingularityError) as exc:
            failures.append((sample.index, f"{type(exc).__name__}: {exc}"))
        else:
            solved.append(row)
    columns = block.assembled(plan.order)[0].take(solved)
    columns.metadata["index"] = _column(np.asarray(indices)[solved])
    return L, columns, failures


def _blocks(count, n):
    """Consecutive sample-index ranges of one period, one per block.

    A block holds at most BLOCK_CELLS cells (at least one sample), whatever
    the worker count: the pool solves the serial run's blocks, since small
    blocks pay more per-call overhead than a worker gains.
    """
    size = max(1, BLOCK_CELLS // n)
    return [range(lo, min(lo + size, count)) for lo in range(0, count, size)]


def run_ensemble(plan):
    """Solve counts[L] independent samples per L; returns an EnsembleRun.

    The periods, the keys of plan.counts, are solved in that order, the
    samples of each in blocks (`_blocks`, `SampleBlock`).  Per-sample
    solver failures are recorded and tolerated while they stay below 1% of
    the period's planned samples counts[L]; once a period reaches 1% the
    run stops after that block and raises EnsembleError.  On
    KeyboardInterrupt the run returns the periods that completed, with all
    their samples and failures (its lengths are those periods); if none
    completed, the interrupt propagates.  Results and all downstream
    reductions are ordered by sample index, and a sample's bits do not
    depend on its block, so the output is independent of the block size
    and the worker count.  A pool of plan.workers processes, or of one per
    block when there are fewer blocks, solves the same blocks as a serial
    run, in the same order; it starts only for two blocks or more.

    Before any block is solved, and before a pool forks, it allocates
    HEAP_HINT_MATRICES (d, d) float matrices per cell of a full block
    without touching them, and frees them at once.  glibc serves so large a
    request by mmap, and freeing that chunk raises its mmap threshold to the
    chunk's size and its trim threshold to twice that (mallopt(3),
    M_MMAP_THRESHOLD), above one block's Newton working memory.  The
    temporaries each Newton step frees then stay on the heap instead of
    going back to the kernel and faulting in again on the next step.
    Other allocators ignore the hint, and forked workers inherit the
    thresholds.
    """
    d = plan.material.dim
    np.empty((HEAP_HINT_MATRICES, d, d, BLOCK_CELLS))
    # the run's one read-only F: a later write to the plan's F changes no result
    plan = replace(plan, F=_read_only(plan.F))
    counts = {L: int(n) for L, n in plan.counts.items()}
    lengths = tuple(counts)
    grids = {}
    for L in lengths:
        if counts[L] < 1:
            raise ValueError(f"need at least one sample at L = {L}")
        grids[L] = period_cells(plan.covariance, L, plan.spacing)

    parts = {L: [] for L in lengths}
    failures = {L: [] for L in lengths}
    done = {L: 0 for L in lengths}
    timing = {}
    jobs = [(plan, L, grids[L], indices) for L in lengths
            for indices in _blocks(counts[L], grids[L])]
    started = time.perf_counter()

    def absorb(results):
        """Take block results in order; returns the first period over budget."""
        for L, columns, failed in results:
            parts[L].append(columns)
            failures[L].extend(failed)
            done[L] += len(columns) + len(failed)
            if done[L] == counts[L]:
                timing[L] = time.perf_counter() - started
            if failed and len(failures[L]) >= FAILURE_BUDGET * counts[L]:
                return L
        return None

    over = None
    try:
        if plan.workers > 1 and len(jobs) > 1:
            # the pool machinery (about 2 MiB) loads only when a pool starts
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=min(plan.workers, len(jobs))) as pool:
                futures = [pool.submit(_solve_batch, job) for job in jobs]
                try:
                    over = absorb(future.result() for future in futures)
                finally:
                    for future in futures:
                        future.cancel()
        else:
            over = absorb(_solve_batch(job) for job in jobs)
    except KeyboardInterrupt:
        if not timing:
            raise

    if over is not None:
        raise EnsembleError(
            f"{len(failures[over])}/{counts[over]} samples failed at L = {over:g} "
            f"(budget {FAILURE_BUDGET:.0%} per length); first failure: {min(failures[over])[1]}")
    completed = tuple(L for L in lengths if L in timing)
    return EnsembleRun(lengths=completed, counts={L: counts[L] for L in completed}, F=plan.F,
                       order=plan.order, seed=plan.seed,
                       samples={L: SampleColumns.join(parts[L]) for L in completed},
                       failures={L: sorted(failures[L]) for L in completed}, timing=timing)


# =====================================================================
# estimators
# =====================================================================


def _sd(values):
    """Unbiased sample SD with Frobenius norm over components: (N, k) -> float;
    NaN for a single row, without a warning."""
    N = len(values)
    if N < 2:
        return float("nan")
    dev = values - values.mean(axis=0)
    return float(np.sqrt((dev * dev).sum() / (N - 1)))


def _bootstrap_sds(values, rng):
    """SDs of BOOTSTRAP_RESAMPLES bootstrap resamples of the rows of values (N, k).

    The index draws come in blocks of up to 2e6 elements.  Each block
    becomes a resample-count matrix c (b, N), c_ri = how often resample r
    drew row i, so no resample is built: with the rows y_i centred once,
    resample r has the squared deviation
    sum_i c_ri |y_i|^2 - |sum_i c_ri y_i|^2 / N (clipped at 0 against
    rounding).
    """
    N = len(values)
    y = values - values.mean(axis=0)
    y2 = (y * y).sum(axis=1)
    out = np.empty(BOOTSTRAP_RESAMPLES)
    block = max(1, min(BOOTSTRAP_RESAMPLES, int(2e6 // max(1, values.size))))
    done = 0
    while done < BOOTSTRAP_RESAMPLES:
        b = min(block, BOOTSTRAP_RESAMPLES - done)
        idx = rng.integers(0, N, size=(b, N))
        idx += N * np.arange(b)[:, None]
        counts = np.bincount(idx.reshape(-1), minlength=b * N).reshape(b, N).astype(float)
        s1 = counts @ y
        ss = counts @ y2 - (s1 * s1).sum(axis=1) / N
        out[done:done + b] = np.sqrt(np.maximum(ss, 0.0) / (N - 1))
        done += b
    return out


def fluctuation_estimate(run, order):
    """Per-L sample SD of the order-th derivative with bootstrap CI.

    Needs at least 8 samples per L.  Returns {L: FluctuationEstimate}.
    """
    out = {}
    rng = np.random.default_rng(np.random.SeedSequence([run.seed, 101, order]))
    for L in run.lengths:
        vals = run.values(L, order)
        N = len(vals)
        if N < 8:
            raise StatisticsError(f"need >= 8 samples for a fluctuation estimate, got {N}")
        sds = _bootstrap_sds(vals, rng)
        lo, hi = np.percentile(sds, [2.5, 97.5])
        out[L] = FluctuationEstimate(sd=_sd(vals), ci_low=float(lo), ci_high=float(hi),
                                     count=N)
    return out


def reference_lengths(strategy, lengths):
    """The lengths whose means make the reference of `strategy`, largest
    first: the largest length, or for "extrapolated" the two largest, which
    must be in ratio 2.  Raises ValueError for a strategy not in
    REFERENCE_STRATEGIES, StatisticsError when the lengths cannot make it."""
    if strategy not in REFERENCE_STRATEGIES:
        raise ValueError(f"unknown reference_strategy {strategy!r}")
    ordered = sorted(lengths, reverse=True)
    if strategy == "largest_L_mean":
        return tuple(ordered[:1])
    if len(ordered) < 2 or ordered[0] != 2 * ordered[1]:
        raise StatisticsError("extrapolated reference needs the two largest lengths in ratio 2")
    return tuple(ordered[:2])


def _reference(run, order, strategy, reference_run):
    """Reference vector, its standard error, and lengths to exclude from fits."""
    if reference_run is not None:
        vals = reference_run.values(max(reference_run.lengths), order)
        excluded, name = (), "external"
    else:
        excluded, name = reference_lengths(strategy, run.lengths), strategy
        vals = run.values(excluded[0], order)
        if strategy == "extrapolated":
            v2 = run.values(excluded[1], order)
            # Richardson step assuming first-order bias decay
            ref = 2.0 * vals.mean(axis=0) - v2.mean(axis=0)
            se = float(np.sqrt(4.0 * _sd(vals) ** 2 / len(vals) + _sd(v2) ** 2 / len(v2)))
            return ref, se, excluded, name
    # the mean of one ensemble: the external run's largest L, or this run's
    return vals.mean(axis=0), _sd(vals) / np.sqrt(len(vals)), excluded, name


def systematic_estimate(run, order=0, strategy="largest_L_mean", reference_run=None):
    """Per-L bias |mean_L - reference| with propagated MC standard errors.

    The reference is the mean at the largest L (excluded from fits), a
    Richardson extrapolation from the two largest (both excluded), or the
    largest-L mean of a separate reference run.  An L is flagged
    underpowered unless its bias is at least 3 standard errors, so also
    when its SE is NaN (one sample at L or at the reference).
    """
    ref, se_ref, excluded, name = _reference(run, order, strategy, reference_run)
    biases, ses, weak = {}, {}, {}
    for L in run.lengths:
        vals = run.values(L, order)
        bias = float(np.linalg.norm(vals.mean(axis=0) - ref))
        se = float(np.sqrt(_sd(vals) ** 2 / len(vals) + se_ref ** 2))
        biases[L] = bias
        ses[L] = se
        # an SE that is not a number (one sample) powers nothing
        weak[L] = not bias >= 3.0 * se
    return SystematicEstimate(order=order, strategy=name, reference=ref,
                              biases=biases, ses=ses, underpowered=weak,
                              excluded=excluded)


def decompose_error(values, reference):
    """(mse, variance, bias_sq) of samples about a reference.

    mse = variance + bias_sq holds as an exact algebraic identity
    (variance here is the biased 1/N version).
    """
    values = np.asarray(values, dtype=float)
    ref = np.asarray(reference, dtype=float).reshape(-1)
    dev_ref = values - ref
    mse = float((dev_ref * dev_ref).sum() / len(values))
    mean = values.mean(axis=0)
    dev = values - mean
    variance = float((dev * dev).sum() / len(values))
    bias_sq = float(((mean - ref) ** 2).sum())
    return mse, variance, bias_sq


def balanced_count(L, scale=1.0):
    """Sample count N ~ L / ln^2 L balancing the two error components."""
    if L <= 1:
        raise ValueError("balanced count needs L > 1")
    return max(1, int(round(scale * L / np.log(L) ** 2)))


def envelope(L, N):
    """Predicted total-error shape 1/sqrt(NL) + ln(L)/L (unscaled)."""
    return 1.0 / np.sqrt(N * L) + np.log(L) / L


def mc_total_error(run, schedule, reference):
    """Empirical total error of N-sample energy averages along an (L, N) schedule.

    Splits the run's samples at L into consecutive groups of N, measures the
    root mean squared deviation of the group means of W_L from the
    reference, and tabulates it against the unscaled envelope.  total^2 =
    scatter^2 + bias^2 exactly per row.
    """
    ref = np.asarray(reference, dtype=float).reshape(-1)
    rows = []
    for L, N in schedule:
        vals = run.values(L, 0)
        groups = len(vals) // int(N)
        if groups < 2:
            raise StatisticsError(
                f"schedule entry (L={L}, N={N}) needs >= 2N samples, have {len(vals)}")
        means = vals[:groups * N].reshape(groups, N, -1).mean(axis=1)
        mse, scatter_sq, bias_sq = decompose_error(means, ref)
        rows.append(McRow(L=int(L), N=int(N), groups=groups,
                          total=float(np.sqrt(mse)), scatter=float(np.sqrt(scatter_sq)),
                          bias=float(np.sqrt(bias_sq)), envelope=float(envelope(L, N))))
    return rows


def fit_envelope_scale(rows):
    """Least-squares scale c minimizing sum (total - c * envelope)^2."""
    t = np.array([r.total for r in rows])
    e = np.array([r.envelope for r in rows])
    denom = float(e @ e)
    if denom == 0.0:
        raise StatisticsError("degenerate envelope")
    return float(t @ e) / denom


def fit_rate(xs, ys, seed=0):
    """Ordinary least squares in log-log, slope CI from BOOTSTRAP_RESAMPLES residual resamples.

    Needs >= 4 distinct abscissae and strictly positive ordinates; raises
    DegenerateFitError otherwise.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError("xs and ys must be equal-length 1-d arrays")
    if len(np.unique(xs)) < 4:
        raise DegenerateFitError("need at least 4 distinct abscissae")
    if np.any(ys <= 0.0) or np.any(xs <= 0.0):
        raise DegenerateFitError("rate fits need positive data")
    lx = np.log(xs)
    ly = np.log(ys)
    xc = lx - lx.mean()
    sxx = float(xc @ xc)
    slope = float(xc @ (ly - ly.mean())) / sxx
    intercept = float(ly.mean() - slope * lx.mean())
    fitted = intercept + slope * lx
    residuals = ly - fitted
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 202]))
    idx = rng.integers(0, len(xs), size=(BOOTSTRAP_RESAMPLES, len(xs)))
    Y = fitted[None, :] + residuals[idx]
    Yc = Y - Y.mean(axis=1, keepdims=True)
    slopes = (Yc @ xc) / sxx
    lo, hi = np.percentile(slopes, [2.5, 97.5])
    return RateFit(slope=slope, intercept=intercept, ci_low=float(lo), ci_high=float(hi),
                   count=len(xs))
