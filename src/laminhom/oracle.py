"""Direct nodal minimization of the discrete cell energy.

Independent verification route for the flux-constancy solver in `cell`: keep
the potential phi as the unknown instead of the cell gradients.  phi is
piecewise linear and periodic on the n-cell grid with phi_0 pinned (constant
gauge), cell i carries p_i = (phi_{i+1} - phi_i)/h, and mean-zero of p holds
automatically by telescoping.  Newton on the (n-1)*d nodal values with a
dense tridiagonal-block Hessian and an Armijo line search on the energy.
O((n d)^3) per step; meant for cross-checks at modest n, not production.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cell import (
    BACKTRACK_FACTOR,
    GRAM_CAP,
    MAX_BACKTRACKS,
    MAX_STEPS,
    ConvergenceError,
    SolverOptions,
    _deform,
)
from .energy import _gram, _inner

__all__ = [
    "DiscreteEnergyProblem",
    "OracleSolution",
    "minimize_direct",
    "linear_solve_direct",
]


def _gram_deviation(Fc):
    """|F^T F - Id|_F per cell: cheap upper bound proxy for dist(F, SO(d))."""
    G = _gram(Fc) - np.eye(len(Fc))[:, :, None]
    return np.sqrt(_inner(G, G))


@dataclass
class OracleSolution:
    p: np.ndarray          # (n, d) per-cell gradients, mean zero
    energy: float
    gradient_norm: float


class DiscreteEnergyProblem:
    """Nodal energy, gradient and Hessian of one sample at deformation F.

    The unknown vector stacks phi_1 .. phi_{n-1} row-wise; node 0 is pinned
    at zero.  Gradient entries are traction jumps across nodes, the Hessian
    is block tridiagonal in the acoustic tensors (the pinned node removes the
    periodic corner blocks).
    """

    def __init__(self, w, sample, F):
        self.w = w
        self.omega = np.asarray(sample.values, dtype=float)
        self.F = np.asarray(F, dtype=float)
        self.n = len(self.omega)
        self.d = w.dim
        self.h = sample.period / self.n
        if self.n < 2:
            raise ValueError("need at least two cells")

    def phi_from(self, u):
        phi = np.zeros((self.n, self.d))
        phi[1:] = np.asarray(u, dtype=float).reshape(self.n - 1, self.d)
        return phi

    def cell_gradients(self, phi):
        return (np.roll(phi, -1, axis=0) - phi) / self.h

    def deformations(self, u):
        """The cells, component-major (d, d, n)."""
        return _deform(self.F, self.cell_gradients(self.phi_from(u)).T)

    def energy(self, u):
        return float(self.w.energy_cells(self.omega, self.deformations(u)).mean())

    def tractions(self, u):
        """DW_i e_d of the cells, (d, n)."""
        return self.w.stress_cells(self.omega, self.deformations(u))[:, self.d - 1]

    def nodal(self, t):
        """Jumps of the cell columns t (d, n) across nodes 1 .. n-1, as one nodal vector."""
        # node j sits between cells j-1 and j
        g = (np.roll(t, 1, axis=-1) - t) / (self.n * self.h)
        return g[:, 1:].T.ravel()

    def gradient(self, u):
        return self.nodal(self.tractions(u))

    def hessian(self, u):
        return self._stiffness(self.w.acoustic_cells(self.omega, self.deformations(u)))

    def _stiffness(self, M):
        """Block-tridiagonal nodal matrix of per-cell acoustic tensors M (d, d, n), node 0 removed."""
        n, d = self.n, self.d
        scale = 1.0 / (n * self.h * self.h)
        K = np.zeros((n, d, n, d))
        nxt = (np.arange(n) + 1) % n
        for i in range(n):
            Mi = scale * M[..., i]
            K[i, :, i, :] += Mi
            K[nxt[i], :, nxt[i], :] += Mi
            K[i, :, nxt[i], :] -= Mi
            K[nxt[i], :, i, :] -= Mi
        return K.reshape(n * d, n * d)[d:, d:]

    def admissible(self, u):
        Fc = self.deformations(u)
        # the line-search guard of the cell solver
        return bool(self.w.admissible_cells(Fc).all()
                    and (_gram_deviation(Fc) <= GRAM_CAP).all())


def minimize_direct(w, sample, F, opts=None):
    """Minimize the nodal energy by damped Newton.  Returns OracleSolution."""
    opts = opts or SolverOptions()
    prob = DiscreteEnergyProblem(w, sample, F)
    opts.check_deformation(prob.F)
    u = np.zeros((prob.n - 1) * prob.d)
    t0 = prob.tractions(u)
    tol = 2.0 * opts.tol_inner * (1.0 + float(np.abs(t0).max())) / (prob.n * prob.h)
    e = prob.energy(u)
    for _ in range(MAX_STEPS * 4):
        g = prob.gradient(u)
        gnorm = float(np.abs(g).max()) if g.size else 0.0
        if gnorm <= tol:
            break
        K = prob.hessian(u)
        try:
            du = -np.linalg.solve(K, g)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"nodal Hessian singular: {exc}") from exc
        slope = float(g @ du)
        if slope >= 0.0:
            du = -g
            slope = -float(g @ g)
        step = 1.0
        noise = 1e-14 * max(1.0, abs(e))
        for _bt in range(MAX_BACKTRACKS + 1):
            cand = u + step * du
            if prob.admissible(cand):
                ec = prob.energy(cand)
                accept = ec <= e + 1e-4 * step * slope
                if not accept and 1e-4 * step * abs(slope) <= noise:
                    # the required decrease is below the energy's roundoff
                    # floor; finish the endgame on gradient contraction
                    accept = float(np.abs(prob.gradient(cand)).max()) <= 0.9 * gnorm
                if accept:
                    u, e = cand, ec
                    break
            step *= BACKTRACK_FACTOR
        else:
            raise ConvergenceError("nodal line search exhausted")
    else:
        raise ConvergenceError(
            f"nodal Newton not converged (|grad| = {gnorm:.3e}, tol = {tol:.1e})")
    p = prob.cell_gradients(prob.phi_from(u))
    p = p - p.mean(axis=0)
    g = prob.gradient(u)
    return OracleSolution(p=p, energy=prob.energy(u),
                          gradient_norm=float(np.abs(g).max()) if g.size else 0.0)


def linear_solve_direct(w, sample, F, p, G):
    """Linearized corrector in direction G by the direct nodal route.

    Solves the stationarity system of the quadratic form
    (1/n) sum_i  D2W_i[G + q_i x e_d, G + q_i x e_d] / 2  over nodal psi
    and returns the per-cell gradients q (mean zero by telescoping).
    """
    prob = DiscreteEnergyProblem(w, sample, F)
    Fc = _deform(prob.F, np.asarray(p, dtype=float).T)
    K = prob._stiffness(w.acoustic_cells(prob.omega, Fc))
    b = w.tangent_apply_cells(prob.omega, Fc, np.asarray(G, dtype=float))[:, prob.d - 1]
    psi = prob.phi_from(np.linalg.solve(K, -prob.nodal(b)))
    q = prob.cell_gradients(psi)
    return q - q.mean(axis=0)
