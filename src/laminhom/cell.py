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
and `assemble` solves all d^2 elementary directions against one M^{-1}.  The
acoustic tensors are entries of the moduli, (M_i)_jm = K_i[j, d, m, d], so
both read them off the one moduli evaluation they make anyway.

`assemble` averages the pointwise derivatives along the corrected state to
produce the effective energy, stress, tangent moduli and (on demand) the
third-order moduli:

    energy   = avg_i W_i
    stress   = avg_i DW_i
    tangent[G,H] = avg_i D2W_i[G, H] + avg_i b_{G,i} . q_{H,i}
    third[G,H,K] = avg_i D3W_i[G + q_G x e_d, H + q_H x e_d, K + q_K x e_d]

The tangent is the symmetric form avg_i D2W_i[G + q_G x e_d, H + q_H x e_d]
reduced by orthogonality: its cross terms are b_G . q_H + b_H . q_G and its
corrector term is q_G . M q_H = q_G . (tau_H - b_H), whose tau_H part
averages to zero against the mean-zero q_G.  One evaluation of the moduli
K_i (`EnergyDensity.moduli_cells`) per block gives both D2W_i[G, H] and
b_G = D2W_i[G] e_d; the result is symmetrized so the declared tensor
symmetries hold by construction.  The same orthogonality makes the
third-order formula equivalent to differentiating the tangent
representation: the terms that would involve the derivative of q (the
second-linearized corrector) pair a mean-zero cell field with a constant
linearized flux and vanish, so the third-order moduli need only the
first-order correctors q.

The kernels of `energy` take one layout, component-major, so the cells
F + p_i x e_d of a block are one (d, d, N) array built straight from p
(d, N) (`_deform`), and every kernel result keeps the cell axis last.
"""

from __future__ import annotations

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
    "solve_corrector",
    "solve_linearized",
    "assemble",
    "SampleBlock",
    "det_identity_residual",
    "quadratic_expansion_table",
    "fd_derivative_errors",
    "rank_one_minimum",
]


class ConvergenceError(RuntimeError):
    """Newton solver failed to reach the requested residual."""


class SingularityError(RuntimeError):
    """Acoustic tensor (or its harmonic mean) numerically singular."""


@dataclass(frozen=True)
class SolverOptions:
    """Tolerances and guards for the Newton solver of the cell problem.

    tol_inner is relative: each cell's flux residual must satisfy
    |DW e_d - sigma| <= tol_inner * (1 + |sigma|).  tol_outer is the
    acceptance threshold on |mean p|; the iteration actually continues to
    the stagnation floor (near machine precision) so that the final exact
    recentering of p stays within tol_inner.  max_outer caps the Newton
    steps of a sample and max_backtracks the halvings of one step's line
    search.  delta_bar gates the input deformation (`check_deformation`:
    dist(F, SO(d)) < delta_bar); admissible_dist caps the line-search
    iterates, measured through the Gram deviation |F^T F - Id|_F which
    bounds the rotation distance from above without per-step SVDs.
    cond_cap bounds the Frobenius condition number of the acoustic
    tensors.  lipschitz_factor only flags (never fails) solutions with
    max_i |p_i| > lipschitz_factor * dist(F, SO(d)).
    """

    tol_inner: float = 1e-12
    tol_outer: float = 1e-10
    max_outer: int = 50
    backtrack_factor: float = 0.5
    max_backtracks: int = 40
    delta_bar: float = 0.2
    admissible_dist: float = 1.0
    lipschitz_factor: float = 20.0
    cond_cap: float = 1e12

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


@dataclass(slots=True)
class HomogenizedQuantities:
    """Effective quantities of one sample: energy W_L, stress DW_L, tangent
    D2W_L (pair-major symmetric by construction), optional third-order
    moduli (fully symmetric in the three directions).  F is read-only; the
    samples of one ensemble share a single array."""

    energy: float
    stress: np.ndarray            # (d, d)
    tangent: np.ndarray | None    # (d, d, d, d)
    third: np.ndarray | None      # (d, d, d, d, d, d)
    F: np.ndarray
    period: float
    n: int
    metadata: dict = field(default_factory=dict)


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
    """A read-only copy of A."""
    A = np.array(A, dtype=float)
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


def _capped_inverses(M, S, opts):
    """Closed-form inverses of component-major tensors M (d, d, S n) and one error per sample.

    A sample's error is a SingularityError when one of its tensors is
    singular or not finite, or when its worst Frobenius condition number
    exceeds opts.cond_cap; None otherwise.
    """
    det, adj = adjugate(M)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        Minv = np.array(adj) / det
        cond = np.sqrt((M * M).sum(axis=(0, 1)) * (Minv * Minv).sum(axis=(0, 1)))
    finite = _per_sample(np.isfinite(Minv).all(axis=(0, 1)), S).all(axis=1)
    worst = _per_sample(cond, S).max(axis=1)
    errors = []
    for ok, c in zip(finite, worst):
        if not ok:
            errors.append(SingularityError("acoustic tensor singular or not finite"))
        elif c > opts.cond_cap:
            errors.append(SingularityError(
                f"acoustic tensor condition {c:.3e} above cap {opts.cond_cap:.1e}"))
        else:
            errors.append(None)
    return Minv, errors


def _norms(x):
    """Euclidean norms of component-major vectors (d, ...) -> (...)."""
    return np.sqrt((x * x).sum(axis=0))


# =====================================================================
# nonlinear corrector
# =====================================================================


class _Block(NamedTuple):
    """Correctors of a block of S samples with n cells each.

    p (d, S, n) has exactly mean zero per sample and sigma (d, S) is the
    constant flux; stats maps each statistic to an (S,) array; errors[s]
    is the exception sample s raised, or None.  A failed sample's p, sigma
    and stats are not defined.
    """

    p: np.ndarray
    sigma: np.ndarray
    stats: dict
    errors: list


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
    fails).  Every candidate is evaluated once, flux and acoustic tensor
    together, and an accepted candidate's values serve the next step.  A
    sample stops once its cells are within tol_inner and |mean p| is at the
    stagnation floor (or has stalled below tol_outer), but never at the
    state where its cells first met tol_inner: one more step takes the
    residuals down to rounding.  A sample leaves the block when it stops or
    fails; it fails alone, with the error it raises when solved by itself.
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
    gram_cap2 = (opts.admissible_dist * (2.0 + opts.admissible_dist)) ** 2
    errors = [None] * S
    steps = np.zeros(S, dtype=int)
    backtracks = np.zeros(S, dtype=int)
    best = np.full(S, np.inf)
    met = np.zeros(S, dtype=bool)    # cells within tol_inner at an earlier state
    solved = np.zeros((d, S, n))     # a failed sample keeps p = 0

    # the state of the samples in `live`
    live = np.arange(S)
    om = omega.reshape(-1)
    p = np.zeros((d, S * n))
    flux, M = w.flux_cells(om, cols, f0 + p, acoustic=True)
    sigma = _cell_mean(flux, S)
    while True:
        k = live.size
        sigma_cells = _by_cell(sigma, n)
        tol = opts.tol_inner * (1.0 + _norms(sigma))
        rnorm = _per_sample(_norms(flux - sigma_cells), k).max(axis=1)
        within = rnorm <= tol
        R = _cell_mean(p, k)
        rn = _norms(R)
        improved = rn < 0.25 * best[live]
        # the start p = 0 has mean zero exactly; stagnation counts from the first step
        best[live] = np.where(steps[live] > 0, np.minimum(best[live], rn), np.inf)
        # run to the stagnation floor so the exact recentering below is a
        # no-op at working precision
        floor = rn <= 1e-14 * (1.0 + _per_sample(np.abs(p).max(axis=0), k).max(axis=1))
        failed = np.array([errors[s] is not None for s in live], dtype=bool)
        stop = ~failed & within & met[live] & (floor | (~improved & (rn <= opts.tol_outer)))
        met[live] |= within
        for j in np.flatnonzero(stop & (rn > opts.tol_outer)):
            errors[live[j]] = ConvergenceError(
                f"Newton stalled at |mean p| = {rn[j]:.3e} > tol_outer = {opts.tol_outer:.1e}")
        for j in np.flatnonzero(~failed & ~stop & (steps[live] >= opts.max_outer)):
            errors[live[j]] = ConvergenceError(
                f"Newton not converged after {opts.max_outer} steps (flux residual "
                f"{rnorm[j]:.3e}, tol {tol[j]:.1e}; |mean p| = {rn[j]:.3e})")
        solved[:, live[stop]] = _per_sample(p, k)[:, stop]
        keep = np.array([errors[s] is None for s in live], dtype=bool) & ~stop
        if not keep.all():
            cells = _by_cell(keep, n)
            p, flux, M, om = p[:, cells], flux[:, cells], M[:, :, cells], om[cells]
            sigma, R, live = sigma[:, keep], R[:, keep], live[keep]
            k = live.size
            if not k:
                break
            sigma_cells = _by_cell(sigma, n)

        # the Newton step
        steps[live] += 1
        Minv, bad = _capped_inverses(M, k, opts)
        with np.errstate(invalid="ignore", over="ignore"):
            new = sigma + _solve_small(_cell_mean(Minv, k),
                                       _cell_mean(_matvec(Minv, flux - sigma_cells), k) - R)
            dp = _matvec(Minv, _by_cell(new, n) - flux)
        finite = _per_sample(np.isfinite(dp).all(axis=0), k).all(axis=1)
        for j in range(k):
            if bad[j] is None and not finite[j]:
                bad[j] = SingularityError("flux Jacobian singular")
            errors[live[j]] = bad[j]
        # failed samples stand still and count as accepted
        ok = np.array([e is None for e in bad], dtype=bool)
        frozen = _by_cell(~ok, n)
        dp[:, frozen] = 0.0
        sigma = np.where(ok, new, sigma)
        sigma_cells = _by_cell(sigma, n)
        tol_cells = _by_cell(opts.tol_inner * (1.0 + _norms(sigma)), n)
        rnorm0 = _norms(flux - sigma_cells)
        t = np.ones(len(om))
        accepted = frozen
        for _ in range(opts.max_backtracks + 1):
            cand = p + t * dp
            fc_cols = f0 + cand
            fc, Mc = w.flux_cells(om, cols, fc_cols, acoustic=True)
            rcn = _norms(fc - sigma_cells)
            # a candidate within tol_inner passes: near the solution rounding
            # alone can fail the Armijo test
            good = (cols.gram_squared(fc_cols) <= gram_cap2) & (
                (rcn <= (1.0 - 1e-4 * t) * rnorm0) | (rcn <= tol_cells))
            take = good & ~accepted
            p = np.where(take, cand, p)
            flux = np.where(take, fc, flux)
            M = np.where(take, Mc, M)
            accepted = accepted | good
            waiting = ~_per_sample(accepted, k).all(axis=1)
            if not waiting.any():
                break
            t = np.where(accepted, t, t * opts.backtrack_factor)
            backtracks[live] += waiting
        else:
            worst = _per_sample(rnorm0, k).max(axis=1)
            for j in np.flatnonzero(waiting):
                errors[live[j]] = ConvergenceError(
                    f"Newton line search exhausted {opts.max_backtracks} halvings "
                    f"(worst residual {worst[j]:.3e})")

    p = solved - solved.mean(axis=-1, keepdims=True)
    flux = _per_sample(w.flux_cells(omega.reshape(-1), cols, f0 + p.reshape(d, -1))[0], S)
    sigma = flux.mean(axis=-1)
    pmax = _norms(p).max(axis=-1)
    if dist_F > 0.0:
        ratio = pmax / dist_F
    else:
        ratio = np.where(pmax <= 1e-12, 0.0, np.inf)
    stats = {
        "outer_iterations": steps,
        "inner_iterations": steps,
        "backtracks": backtracks,
        "mean_residual": _norms(p.mean(axis=-1)),
        "flux_residual": _norms(flux - sigma[..., None]).max(axis=-1),
        "dist_F": np.full(S, dist_F),
        "lipschitz_ratio": ratio,
        "lipschitz_ok": pmax <= opts.lipschitz_factor * dist_F + 1e-12,
    }
    return _Block(p, sigma, stats, errors)


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
    if block is None:
        return SampleBlock(w, [sample], F, opts).corrector(0)
    return block.corrector(block.row(w, sample, F, opts))


# =====================================================================
# linearized correctors (closed form)
# =====================================================================


def _linearized_block(Minv, b, S):
    """Linearized correctors of S samples in k directions, all closed form.

    Minv (d, d, N) are the acoustic inverses of the solved cells and b
    (k, d, N) the columns b_c = D2W_c[G] e_d of the directions G.  Per sample:

        tau = (sum_c M_c^{-1})^{-1} sum_c M_c^{-1} b_c,   q_c = M_c^{-1} (tau - b_c),

    recentered to exactly mean zero.  Returns q (k, d, N), tau (k, d, S) and
    one error per sample (SingularityError for a singular harmonic mean).
    """
    n = b.shape[-1] // S
    tau = _solve_small(_cell_mean(Minv, S), _cell_mean(_matvec(Minv, b), S))
    errors = [None if ok else SingularityError("harmonic-mean matrix singular")
              for ok in np.isfinite(tau).all(axis=(0, 1))]
    q = _matvec(Minv, _by_cell(tau, n) - b)
    return q - _by_cell(_cell_mean(q, S), n), tau, errors


def solve_linearized(w, sample, F, base, G, opts=None):
    """Linearized correctors in the directions G around a solved base state.

    G is one direction (d,d) or a stack (k,d,d); all directions share one
    set of acoustic inverses.  Returns (q, tau): per-cell gradients q_i
    (exactly mean zero) and the constant linearized flux tau with
    M_i q_i + D2W_i[G] e_d = tau, shaped (n,d) and (d,) for one direction,
    (k,n,d) and (k,d) for a stack.
    """
    opts = opts or SolverOptions()
    F = np.asarray(F, dtype=float)
    G = np.asarray(G, dtype=float)
    omega = np.asarray(sample.values, dtype=float)
    d = w.dim
    # K[a, b] = D2W[E_a, E_b] for E_(j d + l) = e_j x e_l; row (j, d) maps a
    # direction to its flux column b_j
    K_flux = w.moduli_cells(omega, _deform(F, base.p.T)).reshape(d * d, d * d, -1)[d - 1::d]
    Minv, errors = _capped_inverses(K_flux[:, d - 1::d], 1, opts)
    if errors[0] is None:
        b = _matvec(K_flux, G.reshape(-1, d * d, 1))
        q, tau, errors = _linearized_block(Minv, b, 1)
    if errors[0] is not None:
        raise errors[0]
    q, tau = np.moveaxis(q, 1, -1), tau[..., 0]
    return (q[0], tau[0]) if G.ndim == 2 else (q, tau)


# =====================================================================
# assembly
# =====================================================================


def _elementary(d, j, k):
    E = np.zeros((d, d))
    E[j, k] = 1.0
    return E


def _assemble_block(w, omega, F, p, order, opts):
    """Effective quantities of solved samples omega (S, n) with correctors p (d, S, n).

    Returns (quantities, errors): quantities maps energy, stress, tangent
    and third to per-sample arrays (S,), (S,d,d), ... (None above `order`);
    errors[s] is the error of sample s in the linearized solve.  A failed
    sample's quantities are not defined.  Every per-sample reduction is a
    mean along the cell axis.
    """
    d = w.dim
    S, n = omega.shape
    om = omega.reshape(-1)
    Fc = _deform(F, p.reshape(d, -1))
    out = {"energy": _cell_mean(w.energy_cells(om, Fc), S),
           "stress": None, "tangent": None, "third": None}
    errors = [None] * S
    if order >= 1:
        # each sample's cells summed one after another in cell order
        stress = np.cumsum(w.stress_cells(om, Fc).reshape(d, d, S, n), axis=-1)[..., -1] / n
        out["stress"] = np.moveaxis(stress, -1, 0)
    if order < 2:
        return out, errors
    k = d * d
    # K[a, b] = D2W[E_a, E_b] for the elementary directions E_(j d + l) = e_j x e_l
    K = w.moduli_cells(om, Fc).reshape(k, k, -1)
    # b_all[a] = D2W[E_a] e_d, by the major symmetry of the moduli
    b_all = K[:, d - 1::d]
    # the acoustic tensors M_jm = D2W[e_j x e_d, e_m x e_d] are rows (j, d) of b_all
    Minv, errors = _capped_inverses(b_all[d - 1::d], S, opts)
    # non-finite inverses belong to samples that fail here
    with np.errstate(**({"all": "ignore"} if any(errors) else {})):
        q, _, errs = _linearized_block(Minv, b_all, S)
    errors = [a or b for a, b in zip(errors, errs)]
    # D2W_L[a, b] = avg_c (K_c[a, b] + b_{a,c} . q_{b,c}), summed in a fixed order
    mat = _cell_mean(K + sum(b_all[:, None, j] * q[None, :, j] for j in range(d)), S)
    mat = 0.5 * (mat + mat.transpose(1, 0, 2))
    out["tangent"] = np.moveaxis(mat, -1, 0).reshape(S, d, d, d, d)
    if order >= 3:
        A_all = np.stack([_deform(E, q[a]) for a, E in enumerate(np.eye(k).reshape(k, d, d))])
        Ac = A_all.reshape(k, k, -1)
        cube = np.empty((k, k, k, S))
        for a in range(k):
            for b in range(a, k):
                U = w.third_apply_cells(om, Fc, A_all[a], A_all[b]).reshape(k, -1)
                row = _cell_mean(sum(U[c] * Ac[:, c] for c in range(k)), S)
                cube[a, b] = row
                cube[b, a] = row
        cube = (cube + np.transpose(cube, (0, 2, 1, 3)) + np.transpose(cube, (1, 0, 2, 3))
                + np.transpose(cube, (1, 2, 0, 3)) + np.transpose(cube, (2, 0, 1, 3))
                + np.transpose(cube, (2, 1, 0, 3))) / 6.0
        out["third"] = np.moveaxis(cube, -1, 0).reshape(S, *(d,) * 6)
    return out, errors


def _metadata(sigma, stats, tol_inner, tol_outer):
    """The metadata record of assembled quantities: the corrector's flux and
    iteration and residual statistics, and the solver tolerances."""
    keys = ("dist_F", "outer_iterations", "inner_iterations", "flux_residual",
            "mean_residual", "lipschitz_ok")
    return {"sigma": sigma, **{k: stats.get(k) for k in keys},
            "tol_inner": tol_inner, "tol_outer": tol_outer}


class SampleBlock:
    """Samples with one cell count, solved and assembled together at one F.

    Pass it as `block` to `solve_corrector` or `assemble` for each of its
    samples.  The first call that needs the correctors solves every sample
    of the block at once (`_solve_block`), the first `assemble` at an order
    assembles every sample at once (`_assemble_block`), and each call
    returns its own sample's results, or raises the error that sample
    raises when solved alone.
    """

    def __init__(self, w, samples, F, opts=None):
        self.w = w
        # held, so that no other object takes the id of a sample in _rows
        self.samples = list(samples)
        self.F = np.asarray(F, dtype=float)
        self.opts = opts or SolverOptions()
        self.omega = np.stack([np.asarray(s.values, dtype=float) for s in self.samples])
        self._rows = {id(s): r for r, s in enumerate(self.samples)}
        self._solved = None
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

    def corrector(self, row):
        """CorrectorSolution of sample `row`; raises the error of its solve."""
        if self._solved is None:
            self._solved = _solve_block(self.w, self.omega, self.F, self.opts)
        solved = self._solved
        if solved.errors[row] is not None:
            raise solved.errors[row]
        return CorrectorSolution(p=solved.p[:, row].T.copy(), sigma=solved.sigma[:, row].copy(),
                                 stats={k: v[row].item() for k, v in solved.stats.items()})

    def quantities(self, row, order):
        """{energy, stress, tangent, third} of the solved sample `row` (None
        above `order`); raises the error of its linearized solve."""
        if order not in self._assembled:
            # a failed sample's p is zero: assembling it is harmless
            quantities, errors = _assemble_block(self.w, self.omega, self.F,
                                                 self._solved.p, order, self.opts)
            self._assembled[order] = quantities, errors
        quantities, errors = self._assembled[order]
        if errors[row] is not None:
            raise errors[row]
        return {k: (None if v is None else v[row]) for k, v in quantities.items()}


def assemble(w, sample, F, base=None, order=2, opts=None, block=None):
    """Effective quantities of one sample at F, up to derivative `order`.

    order 0: energy only; 1: + stress; 2: + tangent moduli (d^2 linearized
    directions in one stacked solve); 3: + third-order moduli.  Without a
    base solution the sample is solved and assembled inside `block` (see
    `solve_corrector`), or as the block of one.
    """
    opts = opts or SolverOptions()
    if order not in (0, 1, 2, 3):
        raise ValueError(f"order must be 0..3, got {order!r}")
    F = np.asarray(F, dtype=float)
    if F.flags.writeable:
        F = _read_only(F)
    if base is None:
        block = block or SampleBlock(w, [sample], F, opts)
        base = solve_corrector(w, sample, F, opts, block=block)
        row = block.quantities(block.row(w, sample, F, opts), order)
    else:
        omega = np.asarray(sample.values, dtype=float)[None]
        quantities, errors = _assemble_block(w, omega, F, base.p.T[:, None], order, opts)
        if errors[0] is not None:
            raise errors[0]
        row = {k: (None if v is None else v[0]) for k, v in quantities.items()}
    return HomogenizedQuantities(energy=float(row["energy"]), stress=row["stress"],
                                 tangent=row["tangent"], third=row["third"], F=F,
                                 period=sample.period, n=len(sample.values),
                                 metadata=_metadata(base.sigma.copy(), base.stats,
                                                    opts.tol_inner, opts.tol_outer))


# =====================================================================
# structural checks
# =====================================================================


def det_identity_residual(p, F):
    """|avg_i det(F + p_i x e_d) - det F|.

    det is a null Lagrangian: det(F + u x v) = det F (1 + v^T F^{-1} u), so a
    mean-zero p leaves the cell average of the determinant exactly at det F.
    """
    F = np.asarray(F, dtype=float)
    dets = adjugate(_deform(F, np.asarray(p, dtype=float).T))[0]
    return float(abs(dets.mean() - adjugate(F)[0]))


def rank_one_minimum(tangent, rng, count=100):
    """min over random rank-one directions of D2W_L[a x b, a x b]/|a x b|^2."""
    d = tangent.shape[0]
    worst = np.inf
    for _ in range(count):
        a = rng.standard_normal(d)
        b = rng.standard_normal(d)
        G = np.outer(a, b)
        val = float(np.einsum("jklm,jk,lm->", tangent, G, G) / np.einsum("jk,jk->", G, G))
        worst = min(worst, val)
    return worst


def quadratic_expansion_table(w, sample, G, scales, opts=None):
    """Remainder ratios |W_L(Id + tG) - t^2/2 D2W_L(Id)[G,G]| / t^2 per scale t.

    At the identity the corrector vanishes and the energy is exactly zero, so
    the ratio isolates the quadratic-expansion remainder; it decays linearly
    in t when the third-order term is the leading correction.
    """
    opts = opts or SolverOptions()
    G = np.asarray(G, dtype=float)
    d = w.dim
    eye = np.eye(d)
    basequad = assemble(w, sample, eye, order=2, opts=opts)
    quad = 0.5 * float(np.einsum("jklm,jk,lm->", basequad.tangent, G, G))
    rows = []
    for t in scales:
        t = float(t)
        qt = assemble(w, sample, eye + t * G, order=0, opts=opts)
        rows.append((t, abs(qt.energy - t * t * quad) / (t * t)))
    return rows


def fd_derivative_errors(w, sample, F, opts=None, step=1e-4):
    """Relative Frobenius errors of the assembled stress/tangent against
    central finite differences of the energy/stress on the same sample."""
    opts = opts or SolverOptions()
    F = np.asarray(F, dtype=float)
    d = w.dim
    quantities = assemble(w, sample, F, order=2, opts=opts)
    stress_fd = np.empty((d, d))
    tangent_fd = np.empty((d, d, d, d))
    for j in range(d):
        for k in range(d):
            E = _elementary(d, j, k)
            hi = assemble(w, sample, F + step * E, order=1, opts=opts)
            lo = assemble(w, sample, F - step * E, order=1, opts=opts)
            stress_fd[j, k] = (hi.energy - lo.energy) / (2.0 * step)
            tangent_fd[:, :, j, k] = (hi.stress - lo.stress) / (2.0 * step)
    err_stress = float(np.linalg.norm(stress_fd - quantities.stress)
                       / np.linalg.norm(quantities.stress))
    err_tangent = float(np.linalg.norm((tangent_fd - quantities.tangent).reshape(-1))
                        / np.linalg.norm(quantities.tangent.reshape(-1)))
    return {"stress_rel_error": err_stress, "tangent_rel_error": err_tangent,
            "quantities": quantities}
