"""Single-point evaluation of an EnergyDensity through its batched kernels,
random deformation gradients near SO(d), and the quadratic-expansion
remainders of the effective energy.

Test helper: the frozen symbolic values and the finite-difference checks
compare W and its full derivative tensors at one deformation gradient.
"""

import numpy as np

from laminhom.cell import SolverOptions, assemble
from laminhom.energy import SAINT_VENANT_KIRCHHOFF


def evaluate(w, omega, F):
    """W(omega, F) at a single deformation gradient."""
    W = w.energy_cells(np.atleast_1d(float(omega)), np.asarray(F, dtype=float)[:, :, None])
    return float(W[0])


def derivative(w, omega, F, order=1):
    """Full derivative tensor of W in F at a single point.

    order 1 -> (d,d); order 2 -> (d,d,d,d).
    Entries are D^kW contracted with elementary matrices e_j x e_k, so
    e.g. derivative(...,2)[j,k,l,m] = D2W[e_j x e_k, e_l x e_m].
    """
    d = w.dim
    om = np.atleast_1d(float(omega))
    Fc = np.asarray(F, dtype=float)[:, :, None]
    if order == 1:
        return w.stress_cells(om, Fc)[..., 0]
    if order == 2:
        T = np.empty((d, d, d, d))
        for l in range(d):
            for m in range(d):
                E = np.zeros((d, d))
                E[l, m] = 1.0
                T[:, :, l, m] = w.tangent_apply_cells(om, Fc, E)[..., 0]
        return T
    raise ValueError(f"derivative order must be 1 or 2, got {order!r}")


def tangent_reference(w, omega, Fc, A):
    """D2W(omega_i, F_i)[A] over cell-major cells (n, d, d) by the matrix-product formulas

    SVK:  lam (F:A) F + lam tr E A + 2 mu F sym(F^T A) + 2 mu A E,
    NH:   mu A + lam tr(F^{-1} A) F^{-T} - beta (F^{-1} A F^{-1})^T,

    E = (F^T F - Id)/2, beta = lam ln J - mu; the reference for the
    elementwise moduli of `EnergyDensity.moduli_cells`.
    """
    lam, mu = w.lam, w.mu
    Fc = np.asarray(Fc, dtype=float)
    A = np.broadcast_to(np.asarray(A, dtype=float), Fc.shape)
    if w.family == SAINT_VENANT_KIRCHHOFF:
        Et = 0.5 * (np.swapaxes(Fc, 1, 2) @ Fc - np.eye(w.dim))
        tr = np.trace(Et, axis1=1, axis2=2)
        FA = np.einsum("nij,nij->n", Fc, A)
        FtA = np.swapaxes(Fc, 1, 2) @ A
        symFA = 0.5 * (FtA + np.swapaxes(FtA, 1, 2))
        T = (lam * FA[:, None, None] * Fc + lam * tr[:, None, None] * A
             + 2.0 * mu * (Fc @ symFA) + 2.0 * mu * (A @ Et))
    else:
        X = np.linalg.inv(Fc)
        beta = lam * np.log(np.linalg.det(Fc)) - mu
        thA = np.einsum("nij,nji->n", X, A)
        XAX = X @ A @ X
        T = (mu * A + lam * thA[:, None, None] * np.swapaxes(X, 1, 2)
             - beta[:, None, None] * np.swapaxes(XAX, 1, 2))
    return w.factor(omega)[:, None, None] * T


def random_rotation(rng, dim):
    """Haar-ish random rotation via QR with sign fix (det = +1)."""
    A = rng.standard_normal((dim, dim))
    Q, R = np.linalg.qr(A)
    Q = Q * np.sign(np.diag(R))
    if np.linalg.det(Q) < 0.0:
        Q[:, 0] = -Q[:, 0]
    return Q


def random_near_identity(rng, dim, dist):
    """Random F = R(Id + dist*S), |S|_F = 1 symmetric: dist(F,SO(d)) ~ dist."""
    S = rng.standard_normal((dim, dim))
    S = 0.5 * (S + S.T)
    S /= np.linalg.norm(S)
    return random_rotation(rng, dim) @ (np.eye(dim) + dist * S)


def quadratic_expansion_table(w, sample, G, scales, opts=None):
    """Remainder ratios |W_L(Id + tG) - t^2/2 D2W_L(Id)[G,G]| / t^2 per scale t.

    At the identity the corrector vanishes and the energy is exactly zero, so
    the ratio isolates the quadratic-expansion remainder; it decays linearly
    in t when the cubic term of the expansion is the leading correction.
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
