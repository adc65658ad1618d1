"""Periodic cell problems for random laminates via flux constancy.

For a laminate the material varies only along the last coordinate, so the
periodic cell problem on a period-L cell

    minimize  (1/L) int_0^L W(omega(x), F + p(x) x e_d) dx
    over mean-zero p = phi'

has a first integral: at the minimizer the traction DW(omega(x), F + p(x) x
e_d) e_d is a constant vector sigma.  With omega piecewise constant on n
cells this collapses to n decoupled d-dimensional algebraic systems coupled
only through sigma and the mean-zero constraint:

    DW(omega_i, F + p_i x e_d) e_d = sigma   for every cell i,
    (1/n) sum_i p_i = 0.

One Newton method runs on this whole system, unknowns (p, sigma).  From
an evaluated state with residuals r_i = DW_i e_d - sigma and acoustic
tensors M_i (the Jacobians of the cell fluxes in p_i), the linearized
system gives the flux update and the cell steps in closed form:

    sigma+ = sigma + A^{-1} ((1/n) sum_i M_i^{-1} r_i - (1/n) sum_i p_i),
    dp_i   = M_i^{-1} (sigma+ - DW_i e_d),      A = (1/n) sum_i M_i^{-1},

so that the mean of p + dp is zero to first order.  Each cell then
backtracks on its own (Armijo on |DW_i e_d - sigma+|, with admissibility
guards).  One step costs one flux evaluation per line-search trial.  From
p = 0 the first flux update is the linearized laminate, sigma_1 =
(sum_i M_i^{-1})^{-1} sum_i M_i^{-1} DW(omega_i, F) e_d.

Blocks.  Samples with the same F and cell count n are solved together
(`SampleBlock`): their N = S n cells form one component-major (d, N)
column array, sample after sample.  Each sample takes its own Newton steps,
with its own sigma, and leaves the block when it converges or fails.  A
block costs about as many numpy calls as one sample.  Each cell's
arithmetic is elementwise, the flux update is a closed-form 2x2 / 3x3
solve, and every per-sample reduction runs along that sample's own cells
(a pairwise mean of one contiguous row, or for the stress a sum in cell
order), so a sample's bits, step and backtrack counts, and any error it
raises do not depend on the block it is in.  `solve_corrector` and
`assemble` stay per sample: given a block, the first call that needs the
block's results computes them for every sample, and each call returns its
own sample's row; without one, a sample is the block of one.

Only the last column f_i = F e_d + p_i of a cell varies, so the Newton
method works on the column form of `energy` (`FixedColumns`, `flux_cells`)
with component-major (d, n) arrays.  The flux and the acoustic tensor are
elementwise expressions in f: with C = F[:, :d-1],

    SVK:  DW e_d = m [s f + mu C C^T f],   s = lam tr E + mu (|f|^2 - 1),
    NH:   DW e_d = m [mu f + beta g],      g = n_C / J,  J = n_C . f,

and M^{-1} is the closed-form adjugate over the determinant.  Each
line-search candidate is evaluated once, flux and acoustic tensor together.
The flux and the tensor of an accepted candidate serve the next
convergence test and step, so no point is evaluated twice.  A candidate
outside the domain (J <= 0, or a Gram deviation |F^T F - Id|_F above the
cap) has a NaN flux or fails the cap, and the line search masks it.

Linearizing in a deformation direction G keeps the same structure with the
flux map replaced by its tangent: M_i q_i + b_{G,i} = tau_G with b_{G,i} =
D2W_i[G] e_d, solved in closed form,

    tau_G = (sum_i M_i^{-1})^{-1} sum_i M_i^{-1} b_{G,i},
    q_i   = M_i^{-1} (tau_G - b_{G,i}).

The acoustic inverses M_i^{-1} depend on the base state only, so one set of
them serves every direction: `solve_linearized` takes a stack of directions
against one M^{-1}.  The acoustic tensors are entries of the moduli,
(M_i)_jm = K_i[j, d, m, d], so it and `assemble` read them off the one
moduli evaluation they make anyway.

`assemble` averages the pointwise derivatives along the corrected state to
produce the effective energy, stress and tangent moduli:

    energy   = avg_i W_i
    stress   = avg_i DW_i
    tangent[G,H] = avg_i D2W_i[G, H] + avg_i b_{G,i} . q_{H,i}

The tangent is the symmetric form avg_i D2W_i[G + q_G x e_d, H + q_H x e_d]
reduced by orthogonality: its cross terms are b_G . q_H + b_H . q_G and its
corrector term is q_G . M q_H = q_G . (tau_H - b_H), whose tau_H part
averages to zero against the mean-zero q_G.

For a laminate the tangent needs no corrector at all (the closed form of
layered media, Backus 1962).  Take the elementary directions E_a = e_j x e_l
and per sample A = avg_i M_i^{-1}, B_a = avg_i M_i^{-1} b_{a,i} and
tau_a = A^{-1} B_a.  As M^{-1} is symmetric and q_b = M^{-1} (tau_b - b_b),

    avg_i b_a . q_b = B_a . tau_b - avg_i b_a . M^{-1} b_b.

A normal direction (m, d) has b_(m,d) = M e_m, so M^{-1} b_(m,d) = e_m,
B_(m,d) = e_m, tau_(m,d) = A^{-1} e_m, and K[(m,d), b] = e_m . b_b cancels
against b_(m,d) . M^{-1} b_b.  With a, b in-plane (l < d) this leaves

    tangent[(j,d), (m,d)] = (A^{-1})_jm        the harmonic mean of M
    tangent[a, (m,d)]     = (tau_a)_m
    tangent[a, b]         = avg_i (K_ab - b_a . M^{-1} b_b)
                            + (tau_a . B_b + tau_b . B_a) / 2,

each entry formed once and mirrored, so the tensor is symmetric by
construction (`_laminate_tangent`).  One evaluation of the moduli K_i
(`EnergyDensity.moduli_cells`) per block gives K_ab, the flux rows b_a and
the acoustic tensors, and only the d(d-1) in-plane directions need a
per-cell M^{-1} b_a.

The kernels of `energy` take one layout, component-major, so the cells
F + p_i x e_d of a block are one (d, d, N) array built straight from p
(d, N) (`_deform`), and every kernel result keeps the cell axis last.
"""

from __future__ import annotations

import operator
import sys
from collections.abc import MutableMapping, Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .energy import DomainError, FixedColumns, _matvec, adjugate, dist_to_rotations

__all__ = [
    "ConvergenceError",
    "SingularityError",
    "SolverOptions",
    "CorrectorSolution",
    "HomogenizedQuantities",
    "SampleColumns",
    "solve_corrector",
    "solve_linearized",
    "assemble",
    "SampleBlock",
    "det_identity_residual",
    "fd_derivative_errors",
    "rank_one_minimum",
]


class ConvergenceError(RuntimeError):
    """Newton solver failed to reach the requested residual."""


class SingularityError(RuntimeError):
    """Acoustic tensor (or its harmonic mean) numerically singular."""


# Fixed guards of the Newton solvers (`_solve_block`, `oracle.minimize_direct`).
# A sample takes at most MAX_STEPS Newton steps (the oracle four times as many);
# a line search halves the step (BACKTRACK_FACTOR) at most MAX_BACKTRACKS times.
MAX_STEPS = 50
BACKTRACK_FACTOR = 0.5
MAX_BACKTRACKS = 40
# line-search iterates stay within this distance from the rotations, measured
# through the Gram deviation |F^T F - Id|_F <= GRAM_CAP, which bounds the
# rotation distance from above without per-step SVDs
ADMISSIBLE_DIST = 1.0
GRAM_CAP = ADMISSIBLE_DIST * (2.0 + ADMISSIBLE_DIST)
# solutions with max_i |p_i| > LIPSCHITZ_FACTOR dist(F, SO(d)) are flagged, never failed
LIPSCHITZ_FACTOR = 20.0
# bound on the Frobenius condition number of the acoustic tensors
COND_CAP = 1e12
# a cell flux is evaluated to within a few ulps of |M| |f| (acoustic tensor,
# last column); residuals below this many ulps of it are rounding
ROUNDING_FLOOR = 16.0 * np.finfo(float).eps


@dataclass(frozen=True)
class SolverOptions:
    """Tolerances of the Newton solver of the cell problem.

    tol_inner is relative: each cell's flux residual must satisfy
    |DW e_d - sigma| <= tol_inner * (1 + |sigma|).  tol_outer is the
    acceptance threshold on |mean p|; the iteration actually continues to
    the stagnation floor (near machine precision) so that the final exact
    recentering of p stays within tol_inner.  delta_bar gates the input
    deformation (`check_deformation`: dist(F, SO(d)) < delta_bar).  The
    Newton step budget is the constant MAX_STEPS.
    """

    tol_inner: float = 1e-12
    tol_outer: float = 1e-10
    delta_bar: float = 0.2

    def check_deformation(self, F):
        """dist(F, SO(d)), the gate of every solve: raises DomainError
        unless it is below delta_bar."""
        dist = dist_to_rotations(F)
        if not dist < self.delta_bar:
            raise DomainError(f"deformation too far from rotations: dist(F, SO(d)) = {dist!r} "
                              f"not below delta_bar = {self.delta_bar!r}")
        return dist


@dataclass
class CorrectorSolution:
    """Corrector of one sample at one deformation gradient.

    p (n, d) has exactly zero mean (recentered after convergence); sigma is
    the constant flux.  stats records iteration counts, residuals, and the
    Lipschitz flag.
    """

    p: np.ndarray
    sigma: np.ndarray
    stats: dict = field(default_factory=dict)


# =====================================================================
# results as columns
# =====================================================================

QUANTITIES = ("energy", "stress", "tangent")
# metadata with one value per run, kept once per SampleColumns
RUN_CONSTANTS = ("dist_F", "tol_inner", "tol_outer")
# corrector statistics kept as metadata columns, one value per sample
_STATISTICS = ("outer_iterations", "flux_residual", "mean_residual", "lipschitz_ok")


class HomogenizedQuantities:
    """Effective quantities of one solved sample, a row of its SampleColumns.

    energy W_L (a float), stress DW_L (d, d) and tangent D2W_L (d, d, d, d;
    pair-major symmetric by construction), None above the assembled order.
    metadata is a mapping onto the metadata columns, so a write to it
    changes the columns.  F and the period are not kept: they are the
    caller's (in an ensemble `EnsembleRun.F` and the key of
    `EnsembleRun.samples`).
    """

    __slots__ = ("_columns", "_row")

    def __init__(self, columns, row):
        self._columns = columns
        self._row = row

    def _get(self, name):
        column = getattr(self._columns, name)
        return None if column is None else column[self._row]

    energy = property(lambda self: float(self._columns.energy[self._row]))
    stress = property(lambda self: self._get("stress"))
    tangent = property(lambda self: self._get("tangent"))
    metadata = property(lambda self: _MetadataRow(self._columns.metadata, self._row))


class _MetadataRow(MutableMapping):
    """Row `row` of metadata columns {key: array or run constant}: scalars
    read as Python numbers, vectors as views; writes go to the columns, and
    a run constant cannot be written for one sample."""

    __slots__ = ("_columns", "_row")

    def __init__(self, columns, row):
        self._columns = columns
        self._row = row

    def __getitem__(self, key):
        column = self._columns[key]
        if not isinstance(column, np.ndarray):
            return column
        value = column[self._row]
        return value.item() if np.ndim(value) == 0 else value

    def __setitem__(self, key, value):
        column = self._columns[key]
        if not isinstance(column, np.ndarray):
            raise TypeError(f"metadata {key!r} is one value for the whole run")
        column[self._row] = value

    def __delitem__(self, key):
        raise TypeError("metadata columns cannot be deleted from one sample")

    def __iter__(self):
        return iter(self._columns)

    def __len__(self):
        return len(self._columns)


@dataclass(eq=False)
class SampleColumns(Sequence):
    """Effective quantities of solved samples of one period and F, as columns.

    energy (N,), stress (N, d, d) and tangent (N, d, d, d, d) are
    read-only, None above the assembled order.
    metadata holds the flux sigma (N, d) and one array per corrector
    statistic (integer columns in the smallest unsigned type that holds
    them), in an ensemble also "index", and the RUN_CONSTANTS once as plain
    values.  It reads as a sequence of HomogenizedQuantities, built on
    access.  Only per-sample values are kept: F and the period belong to
    whoever holds the columns.
    """

    energy: np.ndarray
    stress: np.ndarray | None
    tangent: np.ndarray | None
    metadata: dict

    def __post_init__(self):
        for name in QUANTITIES:
            column = getattr(self, name)
            if column is not None:
                column.flags.writeable = False

    def __len__(self):
        return len(self.energy)

    def __getitem__(self, i):
        rows = range(len(self))[i]
        if isinstance(rows, range):
            return [HomogenizedQuantities(self, r) for r in rows]
        return HomogenizedQuantities(self, rows)

    def take(self, rows):
        """The samples `rows` (indices into these columns), as new columns."""
        return self._map(lambda get: get(self)[rows])

    @classmethod
    def join(cls, parts):
        """The samples of several SampleColumns of one period and F, in order."""
        parts = [c for c in parts if len(c)] or parts[:1]
        return parts[0]._map(lambda get: np.concatenate([get(c) for c in parts]))

    def _map(self, combine):
        """Columns with the keys of these, each array made by combine(get),
        where get(c) reads that array of columns c; the run constants are
        these columns'."""
        quantities = {name: (None if getattr(self, name) is None
                             else combine(operator.attrgetter(name)))
                      for name in QUANTITIES}
        # parts unpickled from a pool bring keys of their own: keep the interned ones
        metadata = {sys.intern(k): (v if k in RUN_CONSTANTS
                                    else combine(lambda c, k=k: c.metadata[k]))
                    for k, v in self.metadata.items()}
        return SampleColumns(**quantities, metadata=metadata)


def _column(values):
    """One metadata column; non-negative integers in the smallest unsigned type."""
    column = np.array(values)
    if column.dtype.kind == "i" and column.size and column.min() >= 0:
        column = column.astype(np.min_scalar_type(column.max()))
    return column


# =====================================================================
# helpers
# =====================================================================


def _deform(F, p):
    """The cells F + p_i x e_d, component-major: (d,d), (d,N) -> (d,d,N)."""
    d, N = p.shape
    Fc = np.repeat(F[:, :, None], N, axis=2)
    Fc[:, d - 1] += p
    return Fc


def _read_only(A):
    """A as a read-only float array: A itself if it is one, else a copy."""
    A = np.asarray(A, dtype=float)
    if A.flags.writeable:
        A = A.copy()
        A.flags.writeable = False
    return A


def _per_sample(x, S):
    """View the cell axis (last, N = S n cells, sample-major) of x as (S, n)."""
    return x.reshape(*x.shape[:-1], S, -1)


def _cell_mean(x, S):
    """Per-sample means over the last (cell) axis: (..., S n) -> (..., S).

    Each sample is one contiguous row summed pairwise, so its bits do not
    depend on the other samples of its block.
    """
    return _per_sample(np.ascontiguousarray(x), S).mean(axis=-1)


def _by_cell(x, n):
    """Per-sample values (..., S) repeated over each sample's n cells: (..., S n)."""
    return np.repeat(x, n, axis=-1)


def _solve_small(A, r):
    """A_c^{-1} r_c for every column c by the adjugate: A (d, d, N), r (..., d, N).

    A singular or non-finite A_c gives a non-finite result, with no warning.
    """
    det, adj = adjugate(A)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return _matvec(adj, r) / det


def _inverses(A):
    """Closed-form inverses of component-major matrices A (d, d, N) by the adjugate.

    A singular or non-finite A_c gives non-finite entries, with no warning.
    """
    det, adj = adjugate(A)
    d = len(adj)
    inv = np.empty((d, d, *np.shape(det)))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for j in range(d):
            for m in range(d):
                np.divide(adj[j][m], det, out=inv[j, m])
    return inv


def _sum_of_squares(entries):
    """The sum of x * x over the arrays `entries`, in their order, accumulated in place."""
    entries = iter(entries)
    first = next(entries)
    total = first * first
    for x in entries:
        total += x * x
    return total


def _square_sums(A):
    """Squared Frobenius norms of component-major matrices A (d, d, N) -> (N,),
    the entries summed in row-major order (the order of A.sum(axis=(0, 1)))."""
    return _sum_of_squares(x for row in A for x in row)


def _capped_inverses(M, S):
    """Closed-form inverses of component-major tensors M (d, d, S n) and one error per sample.

    A sample's error is a SingularityError when one of its tensors is
    singular or not finite, or when its worst Frobenius condition number
    exceeds COND_CAP; None otherwise.  A condition number is finite only
    where the inverse is, so only the samples above the cap (or NaN) are
    looked at again.
    """
    Minv = _inverses(M)
    with np.errstate(invalid="ignore", over="ignore"):
        cond = np.sqrt(_square_sums(M) * _square_sums(Minv))
    worst = _per_sample(cond, S).max(axis=1)
    errors = [None] * S
    for s in np.flatnonzero(~(worst <= COND_CAP)):
        if not np.isfinite(_per_sample(Minv, S)[:, :, s]).all():
            errors[s] = SingularityError("acoustic tensor singular or not finite")
        else:
            errors[s] = SingularityError(
                f"acoustic tensor condition {worst[s]:.3e} above cap {COND_CAP:.1e}")
    return Minv, errors


def _norms(x):
    """Euclidean norms of component-major vectors (d, ...) -> (...), the squares
    summed in place in row order: the bits of np.sqrt((x * x).sum(axis=0))."""
    total = _sum_of_squares(x)
    return np.sqrt(total, out=total)


def _residual(x, s):
    """x - _by_cell(s, n) for cells x (..., S n) and per-sample values s (..., S),
    bit for bit: s is broadcast over the (..., S, n) view of x, never repeated."""
    return (_per_sample(x, s.shape[-1]) - s[..., None]).reshape(x.shape)


# =====================================================================
# nonlinear corrector
# =====================================================================


class _Block(NamedTuple):
    """Correctors of a block of S samples with n cells each.

    p (d, S, n) has exactly mean zero per sample and sigma (d, S) is the
    constant flux; stats maps each statistic to an (S,) array; errors[s]
    is the exception sample s raised, or None.  A failed sample's p, sigma
    and stats are not defined.  dist_F is dist(F, SO(d)), one for the block.
    """

    p: np.ndarray
    sigma: np.ndarray
    stats: dict
    errors: list
    dist_F: float


def _solve_block(w, omega, F, opts):
    """Newton on the flux-constancy system of a block of samples omega (S, n)
    that share F; returns a _Block.

    N = S n cells in sample-major order, component-major throughout: p, the
    fluxes and the acoustic tensors M are (d, N) and (d, d, N), sigma is
    (d, S).  From an evaluated state, with r = flux - sigma and A the
    per-sample mean of M^{-1}, a step sets

        sigma+ = sigma + A^{-1} (mean M^{-1} r - mean p),
        dp     = M^{-1} (sigma+ - flux)

    for every cell of the sample, so that mean(p + dp) = 0 to first order,
    and each cell backtracks on its own (Armijo on |flux - sigma+|, with the
    admissibility cap; a candidate outside the domain has a NaN flux and
    fails, one within tol_inner or at the rounding floor passes).  Every
    candidate is evaluated once, flux and acoustic tensor together, and an
    accepted candidate's flux, tensor and residual norm serve the next
    convergence test and step.  The full step is tried on every cell and,
    when all pass (the common case), taken as a whole; otherwise each
    halving evaluates only the cells still waiting and writes back those it
    accepts.  The start p = 0 is one column F e_d shared by every cell, so
    it is evaluated once and scaled by m(omega).  A sample stops once its
    cells are within tol_inner and |mean p| is at the stagnation floor (or
    has stalled below tol_outer), but never at the state where its cells
    first met tol_inner: one more step takes the residuals down to
    rounding.  A sample leaves the block when it stops or fails; it fails
    alone, with the error it raises when solved by itself.
    Raises DomainError when dist(F, SO(d)) >= delta_bar.
    """
    F = np.asarray(F, dtype=float)
    d = w.dim
    if F.shape != (d, d):
        raise ValueError(f"F must be {d}x{d}, got {F.shape}")
    dist_F = opts.check_deformation(F)
    omega = np.asarray(omega, dtype=float)
    S, n = omega.shape
    cols = FixedColumns.of(F)
    f0 = F[:, d - 1:].copy()
    gram_cap2 = GRAM_CAP ** 2
    errors = [None] * S
    failed = np.zeros(S, dtype=bool)
    steps = np.zeros(S, dtype=int)
    backtracks = np.zeros(S, dtype=int)
    best = np.full(S, np.inf)
    met = np.zeros(S, dtype=bool)    # cells within tol_inner at an earlier state
    solved = np.zeros((d, S, n))     # a failed sample keeps p = 0

    def fail(s, error):
        errors[s] = error
        failed[s] = True

    def trial(cand, om):
        """(flux, M, admissible) of the candidate cells cand (d, m)."""
        f = f0 + cand
        flux, M = w.flux_cells(om, cols, f, acoustic=True)
        return flux, M, cols.gram_squared(f) <= gram_cap2

    # the state of the samples in `live`: p, flux, M and res = |flux - sigma|
    live = np.arange(S)
    om = omega.reshape(-1)
    p = np.zeros((d, S * n))
    flux, M = w.flux_cells(om, cols, f0 + p[:, :1], acoustic=True)
    sigma = _cell_mean(flux, S)
    res = _norms(_residual(flux, sigma))
    while True:
        k = live.size
        tol = opts.tol_inner * (1.0 + _norms(sigma))
        rnorm = _per_sample(res, k).max(axis=1)
        within = rnorm <= tol
        R = _cell_mean(p, k)
        rn = _norms(R)
        improved = rn < 0.25 * best[live]
        # the start p = 0 has mean zero exactly; stagnation counts from the first step
        best[live] = np.where(steps[live] > 0, np.minimum(best[live], rn), np.inf)
        # run to the stagnation floor so the exact recentering below is a
        # no-op at working precision
        floor = rn <= 1e-14 * (1.0 + _per_sample(np.abs(p).max(axis=0), k).max(axis=1))
        stop = ~failed[live] & within & met[live] & (floor | (~improved & (rn <= opts.tol_outer)))
        met[live] |= within
        for j in np.flatnonzero(stop & (rn > opts.tol_outer)):
            fail(live[j], ConvergenceError(
                f"Newton stalled at |mean p| = {rn[j]:.3e} > tol_outer = {opts.tol_outer:.1e}"))
        for j in np.flatnonzero(~failed[live] & ~stop & (steps[live] >= MAX_STEPS)):
            fail(live[j], ConvergenceError(
                f"Newton not converged after {MAX_STEPS} steps (flux residual "
                f"{rnorm[j]:.3e}, tol {tol[j]:.1e}; |mean p| = {rn[j]:.3e})"))
        solved[:, live[stop]] = _per_sample(p, k)[:, stop]
        keep = ~failed[live] & ~stop
        if not keep.all():
            cells = _by_cell(keep, n)
            p, flux, M, om = p[:, cells], flux[:, cells], M[:, :, cells], om[cells]
            sigma, R, live = sigma[:, keep], R[:, keep], live[keep]
            k = live.size
            if not k:
                break

        # the Newton step
        steps[live] += 1
        Minv, bad = _capped_inverses(M, k)
        with np.errstate(invalid="ignore", over="ignore"):
            new = sigma + _solve_small(
                _cell_mean(Minv, k), _cell_mean(_matvec(Minv, _residual(flux, sigma)), k) - R)
            dp = _matvec(Minv, (new[..., None] - _per_sample(flux, k)).reshape(d, -1))
        del Minv   # not needed by the line search
        finite = _per_sample(np.isfinite(dp).all(axis=0), k).all(axis=1)
        frozen = None
        if any(bad) or not finite.all():
            # failed samples stand still and count as accepted
            for j in np.flatnonzero(~finite):
                bad[j] = bad[j] or SingularityError("flux Jacobian singular")
            ok = np.array([e is None for e in bad], dtype=bool)
            for j in np.flatnonzero(~ok):
                fail(live[j], bad[j])
            frozen = _by_cell(~ok, n)
            dp[:, frozen] = 0.0
            new = np.where(ok, new, sigma)
        sigma = new
        tol = opts.tol_inner * (1.0 + _norms(sigma))
        rnorm0 = _norms(_residual(flux, sigma))
        cand = p + dp
        fc, Mc, inside = trial(cand, om)
        rcn = _norms(_residual(fc, sigma))
        # a candidate within tol_inner passes: near the solution rounding
        # alone can fail the Armijo test
        good = inside & ((rcn <= (1.0 - 1e-4) * rnorm0)
                         | (_per_sample(rcn, k) <= tol[:, None]).reshape(-1))
        if frozen is not None:
            good |= frozen
        if good.all():
            p, flux, M, res = cand, fc, Mc, rcn
            continue

        # a candidate at the rounding floor of its flux passes too, so that a
        # tolerance below rounding runs to MAX_STEPS; with tol_inner far above
        # the floor (the defaults) the floor decides nothing
        with np.errstate(over="ignore", invalid="ignore"):
            pass_cells = np.maximum(
                _by_cell(tol, n), ROUNDING_FLOOR * np.sqrt(_square_sums(M)) * _norms(f0 + p))
        good |= inside & (rcn <= pass_cells)
        # the waiting cells halve their steps; only they are evaluated again
        wait = np.flatnonzero(~good)
        base, step, om_w, sigma_w = p[:, wait], dp[:, wait], om[wait], sigma[:, wait // n]
        rnorm0_w, pass_w = rnorm0[wait], pass_cells[wait]
        p, flux, M, res = cand, fc, Mc, rcn
        t = 1.0
        for halving in range(MAX_BACKTRACKS + 1):
            waiting = ~_per_sample(good, k).all(axis=1)
            if not waiting.any():
                break
            backtracks[live] += waiting
            if halving == MAX_BACKTRACKS:
                worst = _per_sample(rnorm0, k).max(axis=1)
                for j in np.flatnonzero(waiting):
                    fail(live[j], ConvergenceError(
                        f"Newton line search exhausted {MAX_BACKTRACKS} halvings "
                        f"(worst residual {worst[j]:.3e})"))
                break
            t *= BACKTRACK_FACTOR
            cand = base + t * step
            fc, Mc, inside = trial(cand, om_w)
            rcn = _norms(fc - sigma_w)
            take = inside & ((rcn <= (1.0 - 1e-4 * t) * rnorm0_w) | (rcn <= pass_w))
            at = wait[take]
            p[:, at], flux[:, at], M[:, :, at], res[at] = (
                cand[:, take], fc[:, take], Mc[:, :, take], rcn[take])
            good[at] = True
            rest = ~take
            wait, base, step, om_w, sigma_w = (
                wait[rest], base[:, rest], step[:, rest], om_w[rest], sigma_w[:, rest])
            rnorm0_w, pass_w = rnorm0_w[rest], pass_w[rest]

    p = solved - solved.mean(axis=-1, keepdims=True)
    flux = _per_sample(w.flux_cells(omega.reshape(-1), cols, f0 + p.reshape(d, -1))[0], S)
    sigma = flux.mean(axis=-1)
    pmax = _norms(p).max(axis=-1)
    stats = {
        "outer_iterations": steps,
        "inner_iterations": steps,
        "backtracks": backtracks,
        "mean_residual": _norms(p.mean(axis=-1)),
        "flux_residual": _norms(flux - sigma[..., None]).max(axis=-1),
        "lipschitz_ok": pmax <= LIPSCHITZ_FACTOR * dist_F + 1e-12,
    }
    return _Block(p, sigma, stats, errors, dist_F)


def solve_corrector(w, sample, F, opts=None, block=None):
    """Solve the nonlinear cell problem of one sample at deformation F.

    `block` is a SampleBlock holding the sample, built with the same w, F
    and opts; without one the sample is solved as the block of one.
    Returns a CorrectorSolution with exactly mean-zero p and the constant
    flux sigma.  Raises DomainError when dist(F, SO(d)) >= delta_bar,
    ConvergenceError when the Newton iteration fails, SingularityError on a
    singular acoustic tensor or flux Jacobian.
    """
    opts = opts or SolverOptions()
    block = block or SampleBlock(w, [sample], F, opts)
    return block.corrector(block.row(w, sample, F, opts))


# =====================================================================
# linearized correctors (closed form)
# =====================================================================


def _laminate_tangent(K, b, Minv, S):
    """D2W_L (d^2, d^2, S) of S samples in closed form, and one error per sample.

    K (d^2, d^2, N) are the moduli of the solved cells, b (d^2, d, N) their
    flux rows b_a = D2W[E_a] e_d and Minv (d, d, N) the acoustic inverses.
    With A = avg M^{-1}, B_a = avg M^{-1} b_a and tau_a = A^{-1} B_a per
    sample, the entries are A^{-1} in the normal block, tau_a in the mixed
    one, and avg (K_ab - b_a . M^{-1} b_b) + (tau_a . B_b + tau_b . B_a)/2
    for in-plane a <= b, mirrored (see the module docstring).  The error of
    a sample whose A is singular is a SingularityError.
    """
    k, d = b.shape[:2]
    normal = slice(d - 1, None, d)
    plane = [a for a in range(k) if a % d != d - 1]
    Ainv = _inverses(_cell_mean(Minv, S))
    # M^{-1} b_a of the in-plane directions, in the order of `plane`
    Mb = _matvec(Minv, b.reshape(d, d, d, -1)[:, :d - 1]).reshape(len(plane), d, -1)
    B = _cell_mean(Mb, S)
    tau = _matvec(Ainv, B)
    errors = [None if ok else SingularityError("harmonic-mean matrix singular")
              for ok in np.isfinite(tau).all(axis=(0, 1))]
    mat = np.empty((k, k, S))
    mat[normal, normal] = Ainv
    for x, a in enumerate(plane):
        mat[a, normal] = mat[normal, a] = tau[x]
        for y in range(x, len(plane)):
            c = plane[y]
            cells = K[a, c] - sum(b[a, j] * Mb[y, j] for j in range(d))
            mat[a, c] = mat[c, a] = _cell_mean(cells, S) + 0.5 * (
                (tau[x] * B[y]).sum(axis=0) + (tau[y] * B[x]).sum(axis=0))
    return mat, errors


def _flux_rows(w, om, Fc, S):
    """(K, b, Minv, errors) of the cells Fc (d, d, S n): the moduli K[a, c] =
    D2W[E_a, E_c] for E_(j d + l) = e_j x e_l, the flux rows b[a] = D2W[E_a] e_d,
    and the acoustic inverses with one error per sample (`_capped_inverses`)."""
    d = w.dim
    K = w.moduli_cells(om, Fc).reshape(d * d, d * d, -1)
    # b[a]_j = K[a, (j, d)], by the major symmetry of the moduli
    b = K[:, d - 1::d]
    # the acoustic tensors M_jm = D2W[e_j x e_d, e_m x e_d] are rows (j, d) of b
    Minv, errors = _capped_inverses(b[d - 1::d], S)
    return K, b, Minv, errors


def solve_linearized(w, sample, F, base, G):
    """Linearized correctors in the directions G around a solved base state.

    G is one direction (d,d) or a stack (k,d,d); all directions share one
    set of acoustic inverses.  With the flux columns b_i = D2W_i[G] e_d,

        tau = (sum_i M_i^{-1})^{-1} sum_i M_i^{-1} b_i,   q_i = M_i^{-1} (tau - b_i),

    q recentered to exactly mean zero.  Returns (q, tau): the per-cell
    gradients q_i and the constant linearized flux tau with M_i q_i + b_i =
    tau, shaped (n,d) and (d,) for one direction, (k,n,d) and (k,d) for a
    stack.  Raises SingularityError on a singular acoustic tensor or
    harmonic mean.
    """
    F = np.asarray(F, dtype=float)
    G = np.asarray(G, dtype=float)
    omega = np.asarray(sample.values, dtype=float)
    d = w.dim
    _, b_all, Minv, errors = _flux_rows(w, omega, _deform(F, base.p.T), 1)
    if errors[0] is not None:
        raise errors[0]
    # the flux column of D2W[G] is sum_a G_a D2W[E_a] e_d
    b = _matvec(np.moveaxis(b_all, 0, 1), G.reshape(-1, d * d, 1))
    # one sample: the per-sample means (k, d, 1) broadcast over its cells
    tau = _solve_small(_cell_mean(Minv, 1), _cell_mean(_matvec(Minv, b), 1))
    if not np.isfinite(tau).all():
        raise SingularityError("harmonic-mean matrix singular")
    q = _matvec(Minv, tau - b)
    q, tau = np.moveaxis(q - _cell_mean(q, 1), 1, -1), tau[..., 0]
    return (q[0], tau[0]) if G.ndim == 2 else (q, tau)


# =====================================================================
# assembly
# =====================================================================


def _elementary(d, j, k):
    E = np.zeros((d, d))
    E[j, k] = 1.0
    return E


def _assemble_block(w, omega, F, p, order):
    """Effective quantities of solved samples omega (S, n) with correctors p (d, S, n).

    Returns (quantities, errors): quantities maps each of QUANTITIES to
    per-sample arrays (S,), (S,d,d), ... (None above `order`); errors[s] is
    the error of sample s in its tangent (a singular acoustic tensor or
    harmonic mean), or None.  A failed sample's
    quantities are not defined.  Every per-sample reduction is a mean along
    the cell axis.
    """
    d = w.dim
    S, n = omega.shape
    om = omega.reshape(-1)
    Fc = _deform(F, p.reshape(d, -1))
    out = {"energy": _cell_mean(w.energy_cells(om, Fc), S), "stress": None, "tangent": None}
    errors = [None] * S
    if order >= 1:
        # each sample's cells summed one after another in cell order
        stress = np.cumsum(w.stress_cells(om, Fc).reshape(d, d, S, n), axis=-1)[..., -1] / n
        out["stress"] = np.moveaxis(stress, -1, 0)
    if order < 2:
        return out, errors
    K, b_all, Minv, errors = _flux_rows(w, om, Fc, S)
    # non-finite inverses belong to samples that fail here
    with np.errstate(**({"all": "ignore"} if any(errors) else {})):
        mat, errs = _laminate_tangent(K, b_all, Minv, S)
    errors = [a or b for a, b in zip(errors, errs)]
    out["tangent"] = np.moveaxis(mat, -1, 0).reshape(S, d, d, d, d)
    return out, errors


class SampleBlock:
    """Samples of one cell count, solved and assembled together at one F.

    Pass it as `block` to `solve_corrector` or `assemble` for each of its
    samples.  The first call that needs the correctors solves every sample
    of the block at once (`_solve_block`), and the first `assemble` at an
    order assembles every sample at once (`_assemble_block`) into one
    SampleColumns.  Each call returns its own sample's corrector or row of
    those columns, or raises the error that sample raises when solved alone.
    """

    def __init__(self, w, samples, F, opts=None):
        self.w = w
        # held, so that no other object takes the id of a sample in _rows
        self.samples = list(samples)
        # read-only: every solve and assembly of the block reads it
        self.F = _read_only(F)
        self.opts = opts or SolverOptions()
        self.omega = np.stack([np.asarray(s.values, dtype=float) for s in self.samples])
        self._rows = {id(s): r for r, s in enumerate(self.samples)}
        self._solved = None
        self._stats = None
        self._assembled = {}

    def row(self, w, sample, F, opts):
        """The row of `sample`; ValueError unless the block holds it and was
        built with the same w, F and opts."""
        row = self._rows.get(id(sample))
        if (row is None or w is not self.w or opts != self.opts
                or (F is not self.F and not np.array_equal(F, self.F))):
            raise ValueError("the sample block does not hold this sample, or was built "
                             "with another material, F or solver options")
        return row

    def _solution(self):
        if self._solved is None:
            self._solved = _solve_block(self.w, self.omega, self.F, self.opts)
            # each statistic as a list of Python numbers, made once for all rows
            self._stats = {k: v.tolist() for k, v in self._solved.stats.items()}
        return self._solved

    def corrector(self, row):
        """CorrectorSolution of sample `row`; raises the error of its solve."""
        solved = self._solution()
        if solved.errors[row] is not None:
            raise solved.errors[row]
        return CorrectorSolution(p=solved.p[:, row].T.copy(), sigma=solved.sigma[:, row].copy(),
                                 stats={k: v[row] for k, v in self._stats.items()})

    def assembled(self, order):
        """(SampleColumns, errors) of every sample of the block up to `order`:
        errors[s] is the error of sample s in its tangent, or None.
        The row of a sample whose solve failed is not defined."""
        if order not in self._assembled:
            solved = self._solution()
            # a failed sample's p is zero: assembling it is harmless
            quantities, errors = _assemble_block(self.w, self.omega, self.F, solved.p, order)
            metadata = {"sigma": solved.sigma.T, "dist_F": solved.dist_F,
                        **{k: _column(solved.stats[k]) for k in _STATISTICS},
                        "tol_inner": self.opts.tol_inner, "tol_outer": self.opts.tol_outer}
            self._assembled[order] = SampleColumns(**quantities, metadata=metadata), errors
        return self._assembled[order]


def assemble(w, sample, F, order=2, opts=None, block=None):
    """Effective quantities of one sample at F, up to derivative `order`.

    order 0: energy only; 1: + stress; 2: + tangent moduli (the laminate
    closed form, see the module docstring); any other order is a ValueError.
    The sample is solved (`solve_corrector`) and assembled inside `block`, or
    as the block of one.  Returns its row of the block's columns, a
    HomogenizedQuantities; raises the error of its solve or its assembly.
    """
    opts = opts or SolverOptions()
    if order not in (0, 1, 2):
        raise ValueError(f"order must be 0..2, got {order!r}")
    block = block or SampleBlock(w, [sample], F, opts)
    solve_corrector(w, sample, F, opts, block=block)
    columns, errors = block.assembled(order)
    row = block.row(w, sample, F, opts)
    if errors[row] is not None:
        raise errors[row]
    return columns[row]


# =====================================================================
# structural checks
# =====================================================================

# random rank-one directions of rank_one_minimum; step of fd_derivative_errors
RANK_ONE_DIRECTIONS = 100
FD_STEP = 1e-4


def det_identity_residual(p, F):
    """|avg_i det(F + p_i x e_d) - det F|.

    det is a null Lagrangian: det(F + u x v) = det F (1 + v^T F^{-1} u), so a
    mean-zero p leaves the cell average of the determinant exactly at det F.
    """
    F = np.asarray(F, dtype=float)
    dets = adjugate(_deform(F, np.asarray(p, dtype=float).T))[0]
    return float(abs(dets.mean() - adjugate(F)[0]))


def rank_one_minimum(tangent, rng):
    """min over RANK_ONE_DIRECTIONS random rank-one directions of D2W_L[a x b, a x b]/|a x b|^2."""
    d = tangent.shape[0]
    worst = np.inf
    for _ in range(RANK_ONE_DIRECTIONS):
        a = rng.standard_normal(d)
        b = rng.standard_normal(d)
        G = np.outer(a, b)
        val = float(np.einsum("jklm,jk,lm->", tangent, G, G) / np.einsum("jk,jk->", G, G))
        worst = min(worst, val)
    return worst


def fd_derivative_errors(w, sample, F, opts=None):
    """{"stress_rel_error", "tangent_rel_error"}: relative Frobenius errors
    of the assembled stress/tangent against central finite differences
    (step FD_STEP) of the energy/stress on the same sample."""
    opts = opts or SolverOptions()
    F = np.asarray(F, dtype=float)
    d = w.dim
    quantities = assemble(w, sample, F, order=2, opts=opts)
    stress_fd = np.empty((d, d))
    tangent_fd = np.empty((d, d, d, d))
    for j in range(d):
        for k in range(d):
            E = _elementary(d, j, k)
            hi = assemble(w, sample, F + FD_STEP * E, order=1, opts=opts)
            lo = assemble(w, sample, F - FD_STEP * E, order=1, opts=opts)
            stress_fd[j, k] = (hi.energy - lo.energy) / (2.0 * FD_STEP)
            tangent_fd[:, :, j, k] = (hi.stress - lo.stress) / (2.0 * FD_STEP)
    err_stress = float(np.linalg.norm(stress_fd - quantities.stress)
                       / np.linalg.norm(quantities.stress))
    err_tangent = float(np.linalg.norm((tangent_fd - quantities.tangent).reshape(-1))
                        / np.linalg.norm(quantities.tangent.reshape(-1)))
    return {"stress_rel_error": err_stress, "tangent_rel_error": err_tangent}
