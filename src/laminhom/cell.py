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

`solve_corrector` runs a nested Newton on exactly this structure: the inner
solver inverts the per-cell flux map (monotone near SO(d), acoustic-tensor
Jacobian, Armijo backtracking with admissibility guards), the outer solver
drives the mean R(sigma) = (1/n) sum_i p_i(sigma) to zero with Jacobian
(1/n) sum_i M_i^{-1}.  Starting guess sigma_0 = (1/n) sum_i DW(omega_i,F)e_d.

Only the last column f_i = F e_d + p_i of a cell varies, so both Newton
levels work on the column form of `energy` (`FixedColumns`, `flux_cells`)
with component-major (d, n) arrays.  The flux and the acoustic tensor are
elementwise expressions in f: with C = F[:, :d-1],

    SVK:  DW e_d = m [s f + mu C C^T f],   s = lam tr E + mu (|f|^2 - 1),
    NH:   DW e_d = m [mu f + beta g],      g = n_C / J,  J = n_C . f,

and the step is the closed-form M^{-1} r.  Each line-search candidate is
evaluated once, flux and acoustic tensor together.  The residual and the
tensor of an accepted candidate serve the next convergence test and step,
and at the inner solution the outer Jacobian, so no point is evaluated
twice.  A candidate outside the domain (J <= 0, or a Gram deviation
|F^T F - Id|_F above the cap) has a NaN flux or fails the cap, and the
line search masks it.

Linearizing in a deformation direction G keeps the same structure with the
flux map replaced by its tangent: M_i q_i + b_{G,i} = tau_G with b_{G,i} =
D2W_i[G] e_d, solved in closed form,

    tau_G = (sum_i M_i^{-1})^{-1} sum_i M_i^{-1} b_{G,i},
    q_i   = M_i^{-1} (tau_G - b_{G,i}).

The acoustic inverses M_i^{-1} depend on the base state only, so one set of
them serves every direction: `solve_linearized` takes a stack of directions
and `assemble` solves all d^2 elementary directions against one M^{-1}.  The
2x2 / 3x3 inverses (and the inner Newton step M^{-1} r) are the closed-form
adjugate over the determinant, as are the acoustic tensors themselves (see
`energy`).

`assemble` averages the pointwise derivatives along the corrected state to
produce the effective energy, stress, tangent moduli and (on demand) the
third-order moduli:

    energy   = avg_i W_i
    stress   = avg_i DW_i
    tangent[G,H] = avg_i D2W_i[G + q_G x e_d, H + q_H x e_d]
    third[G,H,K] = avg_i D3W_i[G + q_G x e_d, H + q_H x e_d, K + q_K x e_d]

The two tangent representations (with and without the test-direction
corrector) coincide because the linearized flux is constant and q has mean
zero; the symmetric form is used so the declared tensor symmetries hold by
construction.  The same orthogonality makes the third-order formula
equivalent to differentiating the tangent representation: the terms that
would involve the derivative of q (the second-linearized corrector) pair a
mean-zero cell field with a constant linearized flux and vanish, so the
third-order moduli need only the first-order correctors q.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .energy import DomainError, FixedColumns, adjugate, det_inverse, dist_to_rotations

__all__ = [
    "ConvergenceError",
    "SingularityError",
    "SolverOptions",
    "CorrectorSolution",
    "HomogenizedQuantities",
    "solve_corrector",
    "solve_linearized",
    "assemble",
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
    """Tolerances and guards for the nested Newton solver.

    tol_inner is relative: each cell's flux residual must satisfy
    |DW e_d - sigma| <= tol_inner * (1 + |sigma|).  tol_outer is the
    acceptance threshold on |mean p|; the outer iteration actually continues
    to the stagnation floor (near machine precision) so that the final exact
    recentering of p stays within tol_inner.  delta_bar gates the input
    deformation (dist(F, SO(d)) < delta_bar); admissible_dist caps the
    line-search iterates, measured through the Gram deviation |F^T F - Id|_F
    which bounds the rotation distance from above without per-step SVDs.
    lipschitz_factor only flags (never fails) solutions with
    max_i |p_i| > lipschitz_factor * dist(F, SO(d)).
    """

    tol_inner: float = 1e-12
    tol_outer: float = 1e-10
    max_outer: int = 50
    max_inner: int = 40
    backtrack_factor: float = 0.5
    max_backtracks: int = 40
    delta_bar: float = 0.2
    admissible_dist: float = 1.0
    lipschitz_factor: float = 20.0
    cond_cap: float = 1e12


@dataclass
class CorrectorSolution:
    """Corrector of one sample at one deformation gradient.

    p has exactly zero mean (recentered after convergence); sigma is the
    constant flux.  q / tau cache linearized correctors and their constant
    fluxes for elementary directions (j, k).  stats records iteration
    counts, residuals, and the Lipschitz flag.
    """

    p: np.ndarray
    sigma: np.ndarray
    q: dict = field(default_factory=dict)
    tau: dict = field(default_factory=dict)
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
    """F + p_i x e_d per cell: (d,d), (n,d) -> (n,d,d)."""
    n, d = p.shape
    Fc = np.broadcast_to(F, (n, d, d)).copy()
    Fc[:, :, d - 1] += p
    return Fc


def _embed(G, q):
    """G + q_i x e_d per cell."""
    return _deform(np.asarray(G, dtype=float), q)


def _read_only(A):
    """A read-only copy of A."""
    A = np.array(A, dtype=float)
    A.flags.writeable = False
    return A


def _check_sample(sample):
    if not getattr(sample, "periodic", True):
        raise ValueError("cell problems need a periodic sample")


def _frob_cond(M, Minv):
    return np.sqrt(np.einsum("nij,nij->n", M, M) * np.einsum("nij,nij->n", Minv, Minv))


def _checked_inverse(M):
    """Closed-form M_i^{-1}; SingularityError when any M_i is singular or not finite."""
    Minv = det_inverse(M)[1]
    if not np.isfinite(Minv).all():
        raise SingularityError("acoustic tensor singular or not finite")
    return Minv


def _capped_inverse(M, opts):
    """_checked_inverse plus the condition-number cap opts.cond_cap."""
    Minv = _checked_inverse(M)
    worst = float(np.max(_frob_cond(M, Minv)))
    if worst > opts.cond_cap:
        raise SingularityError(
            f"acoustic tensor condition {worst:.3e} above cap {opts.cond_cap:.1e}")
    return Minv


def _acoustic_inverses(w, omega, Fc, opts):
    return _capped_inverse(w.acoustic_cells(omega, Fc), opts)


def _newton_step(M, r):
    """-M_i^{-1} r_i in closed form, component-major: M (d, d, n), r (d, n).

    SingularityError when any M_i is singular or not finite.
    """
    det, adj = adjugate(M)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        step = np.array([sum(a * x for a, x in zip(row, r)) for row in adj]) / -det
    if not np.isfinite(step).all():
        raise SingularityError("acoustic tensor singular or not finite")
    return step


def _norms(x):
    """Per-cell Euclidean norms of component-major vectors (d, n) -> (n,)."""
    return np.sqrt((x * x).sum(axis=0))


# =====================================================================
# nonlinear corrector
# =====================================================================


def _inner_flux_solve(w, omega, cols, f0, sigma, state, opts):
    """Vectorized per-cell Newton for DW(omega_i, F + p_i x e_d) e_d = sigma.

    Component-major throughout: f0 = F e_d is (d, 1) and sigma (d, 1);
    state = (p, flux, M) holds the start (d, n), its fluxes (d, n) and
    acoustic tensors (d, d, n).  The same triple at the solution is returned
    with the iteration and backtrack counts.  Every line-search candidate is
    evaluated once, flux and acoustic tensor together, and an accepted
    candidate's values are kept, so no cell is evaluated twice at one point.
    """
    p, flux, M = state
    n = len(omega)
    tol = opts.tol_inner * (1.0 + float(np.linalg.norm(sigma)))
    gram_cap2 = (opts.admissible_dist * (2.0 + opts.admissible_dist)) ** 2
    res = flux - sigma
    rnorm = _norms(res)
    iters = 0
    backtracks = 0
    while not (settled := rnorm <= tol).all():
        if iters == opts.max_inner:
            raise ConvergenceError(
                f"inner Newton not converged after {opts.max_inner} iterations "
                f"(residual {float(np.max(rnorm)):.3e}, tol {tol:.1e})")
        iters += 1
        dp = _newton_step(M, res)
        dp[:, settled] = 0.0
        rnorm0 = rnorm
        t = np.ones(n)
        accepted = settled.copy()
        for trial in range(opts.max_backtracks + 1):
            cand = p + t * dp
            fc, Mc = w.flux_cells(omega, cols, f0 + cand, acoustic=True)
            rc = fc - sigma
            rcn = _norms(rc)
            # a candidate outside the domain has a NaN flux and fails the Armijo test
            good = ((cols.gram_squared(f0 + cand) <= gram_cap2)
                    & (rcn <= (1.0 - 1e-4 * t) * rnorm0)) | settled
            take = good & ~accepted
            if take.any():
                p = np.where(take, cand, p)
                flux = np.where(take, fc, flux)
                res = np.where(take, rc, res)
                rnorm = np.where(take, rcn, rnorm)
                M = np.where(take, Mc, M)
                accepted |= good
            if accepted.all():
                break
            t = np.where(accepted, t, t * opts.backtrack_factor)
            backtracks += 1
        else:
            raise ConvergenceError(
                f"inner line search exhausted {opts.max_backtracks} halvings "
                f"(worst residual {float(np.max(rnorm0)):.3e})")
    return (p, flux, M), iters, backtracks


def solve_corrector(w, sample, F, opts=None):
    """Solve the nonlinear cell problem of one sample at deformation F.

    Returns a CorrectorSolution with exactly mean-zero p and the constant
    flux sigma.  Raises DomainError when dist(F, SO(d)) >= delta_bar,
    ConvergenceError when either Newton level fails.
    """
    opts = opts or SolverOptions()
    _check_sample(sample)
    F = np.asarray(F, dtype=float)
    d = w.dim
    dd = d - 1
    if F.shape != (d, d):
        raise ValueError(f"F must be {d}x{d}, got {F.shape}")
    dist_F = dist_to_rotations(F)
    if not dist_F < opts.delta_bar:
        raise DomainError(
            f"dist(F, SO(d)) = {dist_F:.4f} not below delta_bar = {opts.delta_bar}")
    omega = np.asarray(sample.values, dtype=float)
    n = len(omega)
    cols = FixedColumns.of(F)
    f0 = F[:, dd:].copy()

    # component-major (d, n) state, see _inner_flux_solve
    p = np.zeros((d, n))
    state = (p, *w.flux_cells(omega, cols, f0 + p, acoustic=True))
    sigma = state[1].mean(axis=1, keepdims=True)
    inner_total = 0
    backtracks = 0
    best = np.inf
    outer = 0
    while True:
        state, it, bt = _inner_flux_solve(w, omega, cols, f0, sigma, state, opts)
        inner_total += it
        backtracks += bt
        R = state[0].mean(axis=1, keepdims=True)
        rn = float(np.linalg.norm(R))
        improved = rn < 0.25 * best
        best = min(best, rn)
        outer += 1
        # run to the stagnation floor so the exact recentering below is a
        # no-op at working precision
        if rn <= 1e-14 * (1.0 + float(np.abs(state[0]).max())):
            break
        if outer >= opts.max_outer or (not improved and rn <= opts.tol_outer):
            break
        # the inner solve returns the acoustic tensors at its solution
        Minv = _capped_inverse(np.moveaxis(state[2], -1, 0), opts)
        try:
            sigma = sigma - np.linalg.solve(Minv.mean(axis=0), R)
        except np.linalg.LinAlgError as exc:
            raise SingularityError(f"outer Jacobian singular: {exc}") from exc
    if best > opts.tol_outer:
        raise ConvergenceError(
            f"outer Newton stalled at |mean p| = {best:.3e} > tol_outer = {opts.tol_outer:.1e}")

    p = state[0].T.copy()
    p = p - p.mean(axis=0)
    flux = w.flux_cells(omega, cols, f0 + p.T)[0].T
    sigma = flux.mean(axis=0)
    flux_residual = float(np.max(np.linalg.norm(flux - sigma, axis=1)))
    pmax = float(np.max(np.linalg.norm(p, axis=1))) if n else 0.0
    ratio = pmax / dist_F if dist_F > 0.0 else (0.0 if pmax <= 1e-12 else np.inf)
    stats = {
        "outer_iterations": outer,
        "inner_iterations": inner_total,
        "backtracks": backtracks,
        "mean_residual": float(np.linalg.norm(p.mean(axis=0))),
        "flux_residual": flux_residual,
        "dist_F": dist_F,
        "lipschitz_ratio": ratio,
        "lipschitz_ok": bool(pmax <= opts.lipschitz_factor * dist_F + 1e-12),
    }
    return CorrectorSolution(p=p, sigma=sigma, stats=stats)


# =====================================================================
# linearized correctors (closed form)
# =====================================================================


def _flux_constant_solve(Minv, b):
    """Stacked closed-form solve of M_i q_i + b_i = tau with mean-zero q.

    Minv: (n,d,d) acoustic inverses; b: (k,n,d) per-direction fluxes.
    Returns q (k,n,d) with exactly zero mean and tau (k,d).
    """
    A = Minv.mean(axis=0)
    rhs = _apply_cells(Minv, b).mean(axis=1)
    try:
        tau = np.linalg.solve(A, rhs.T).T
    except np.linalg.LinAlgError as exc:
        raise SingularityError(f"harmonic-mean matrix singular: {exc}") from exc
    q = _apply_cells(Minv, tau[:, None, :] - b)
    return q - q.mean(axis=1, keepdims=True), tau


def _apply_cells(Minv, b):
    """Minv_i b_{a,i} for every cell i and direction a: (n,d,d), (k,n,d) -> (k,n,d).

    Summed over j as (k,n,d) products: numpy runs these several times
    faster than the einsum "nij,anj->ani" on d = 2 or 3 matrices.
    """
    out = Minv[:, :, 0] * b[..., None, 0]
    for j in range(1, Minv.shape[-1]):
        out += Minv[:, :, j] * b[..., None, j]
    return out


def solve_linearized(w, sample, F, base, G, opts=None):
    """Linearized correctors in the directions G around a solved base state.

    G is one direction (d,d) or a stack (k,d,d); all directions share one
    set of acoustic inverses.  Returns (q, tau): per-cell gradients q_i
    (exactly mean zero) and the constant linearized flux tau with
    M_i q_i + D2W_i[G] e_d = tau, shaped (n,d) and (d,) for one direction,
    (k,n,d) and (k,d) for a stack.
    """
    opts = opts or SolverOptions()
    _check_sample(sample)
    F = np.asarray(F, dtype=float)
    G = np.asarray(G, dtype=float)
    Gs = G[None] if G.ndim == 2 else G
    dd = w.dim - 1
    omega = np.asarray(sample.values, dtype=float)
    Fc = _deform(F, base.p)
    Minv = _acoustic_inverses(w, omega, Fc, opts)
    n, d = base.p.shape
    b = w.tangent_apply_cells(omega, Fc, np.broadcast_to(Gs[:, None], (len(Gs), n, d, d)))[..., dd]
    q, tau = _flux_constant_solve(Minv, b)
    return (q[0], tau[0]) if G.ndim == 2 else (q, tau)


# =====================================================================
# assembly
# =====================================================================


def _elementary(d, j, k):
    E = np.zeros((d, d))
    E[j, k] = 1.0
    return E


def assemble(w, sample, F, base=None, order=2, opts=None):
    """Effective quantities of one sample at F, up to derivative `order`.

    order 0: energy only; 1: + stress; 2: + tangent moduli (d^2 linearized
    directions in one stacked solve, cached on the base solution); 3: +
    third-order moduli.
    """
    opts = opts or SolverOptions()
    if order not in (0, 1, 2, 3):
        raise ValueError(f"order must be 0..3, got {order!r}")
    if base is None:
        base = solve_corrector(w, sample, F, opts)
    F = np.asarray(F, dtype=float)
    if F.flags.writeable:
        F = _read_only(F)
    d = w.dim
    omega = np.asarray(sample.values, dtype=float)
    n = len(omega)
    Fc = _deform(F, base.p)

    energy = float(w.energy_cells(omega, Fc).mean())
    stress = w.stress_cells(omega, Fc).mean(axis=0) if order >= 1 else None
    tangent = None
    third = None
    if order >= 2:
        pairs = [(j, k) for j in range(d) for k in range(d)]
        missing = [pair for pair in pairs if pair not in base.q]
        if missing:
            q, tau = solve_linearized(
                w, sample, F, base, np.stack([_elementary(d, *pair) for pair in missing]), opts)
            for a, pair in enumerate(missing):
                base.q[pair], base.tau[pair] = q[a], tau[a]
        A_all = np.empty((d * d, n, d, d))
        for a, (j, k) in enumerate(pairs):
            A_all[a] = _embed(_elementary(d, j, k), base.q[(j, k)])
        T_all = w.tangent_apply_cells(omega, Fc, A_all)
        mat = np.einsum("anjk,bnjk->ab", T_all, A_all) / n
        mat = 0.5 * (mat + mat.T)
        tangent = mat.reshape(d, d, d, d)
        if order >= 3:
            cube = np.empty((d * d, d * d, d * d))
            for a in range(d * d):
                for b in range(a, d * d):
                    U = w.third_apply_cells(omega, Fc, A_all[a], A_all[b])
                    row = np.einsum("njk,cnjk->c", U, A_all) / n
                    cube[a, b] = row
                    cube[b, a] = row
            cube = (cube + np.transpose(cube, (0, 2, 1)) + np.transpose(cube, (1, 0, 2))
                    + np.transpose(cube, (1, 2, 0)) + np.transpose(cube, (2, 0, 1))
                    + np.transpose(cube, (2, 1, 0))) / 6.0
            third = cube.reshape(d, d, d, d, d, d)

    meta = {
        "sigma": base.sigma.copy(),
        "dist_F": base.stats.get("dist_F"),
        "outer_iterations": base.stats.get("outer_iterations"),
        "inner_iterations": base.stats.get("inner_iterations"),
        "flux_residual": base.stats.get("flux_residual"),
        "mean_residual": base.stats.get("mean_residual"),
        "lipschitz_ok": base.stats.get("lipschitz_ok"),
        "tol_inner": opts.tol_inner,
        "tol_outer": opts.tol_outer,
    }
    return HomogenizedQuantities(energy=energy, stress=stress, tangent=tangent,
                                 third=third, F=F, period=sample.period,
                                 n=n, metadata=meta)


# =====================================================================
# structural checks
# =====================================================================


def det_identity_residual(p, F):
    """|avg_i det(F + p_i x e_d) - det F|.

    det is a null Lagrangian: det(F + u x v) = det F (1 + v^T F^{-1} u), so a
    mean-zero p leaves the cell average of the determinant exactly at det F.
    """
    F = np.asarray(F, dtype=float)
    dets = np.linalg.det(_deform(F, np.asarray(p, dtype=float)))
    return float(abs(dets.mean() - np.linalg.det(F)))


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
