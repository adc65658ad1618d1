"""Single-point evaluation of an EnergyDensity through its batched kernels,
and random deformation gradients near SO(d).

Test helper: the frozen symbolic values and the finite-difference checks
compare W and its full derivative tensors at one deformation gradient.
"""

import numpy as np


def evaluate(w, omega, F):
    """W(omega, F) at a single deformation gradient."""
    W = w.energy_cells(np.atleast_1d(float(omega)), np.asarray(F, dtype=float)[None])
    return float(W[0])


def derivative(w, omega, F, order=1):
    """Full derivative tensor of W in F at a single point.

    order 1 -> (d,d); order 2 -> (d,d,d,d); order 3 -> (d,d,d,d,d,d).
    Entries are D^kW contracted with elementary matrices e_j x e_k, so
    e.g. derivative(...,2)[j,k,l,m] = D2W[e_j x e_k, e_l x e_m].
    """
    d = w.dim
    om = np.atleast_1d(float(omega))
    Fc = np.asarray(F, dtype=float)[None]
    if order == 1:
        return w.stress_cells(om, Fc)[0]
    if order == 2:
        T = np.empty((d, d, d, d))
        for l in range(d):
            for m in range(d):
                E = np.zeros((d, d))
                E[l, m] = 1.0
                T[:, :, l, m] = w.tangent_apply_cells(om, Fc, E)[0]
        return T
    if order == 3:
        T = np.empty((d, d, d, d, d, d))
        for l in range(d):
            for m in range(d):
                A = np.zeros((d, d))
                A[l, m] = 1.0
                for u in range(d):
                    for v in range(d):
                        B = np.zeros((d, d))
                        B[u, v] = 1.0
                        T[:, :, l, m, u, v] = w.third_apply_cells(om, Fc, A, B)[0]
        return T
    raise ValueError(f"derivative order must be 1, 2 or 3, got {order!r}")


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
