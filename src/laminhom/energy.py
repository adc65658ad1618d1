"""Stored-energy densities for randomly modulated hyperelastic laminates.

Two material families, both frame indifferent with a stress-free natural
state at the identity:

* Saint Venant-Kirchhoff:  W0(F) = lam/2 tr(E)^2 + mu tr(E^2),
  E = (F^T F - Id)/2.  A quartic polynomial in F, so every derivative below
  is exact (no series truncation anywhere).
* Compressible neo-Hookean:  W0(F) = mu/2 (|F|^2 - d) - mu ln J
  + lam/2 (ln J)^2,  J = det F > 0.

The local material parameter omega enters through a bounded positive
modulation of the density,

    W(omega, F) = m(omega) * W0(F),      m(omega) = 1 + a*tanh(omega),

with amplitude a in [0, 1), so W inherits all structural properties of W0
uniformly in omega.  Derivatives in F up to third order are implemented in
closed form.

The acoustic tensor M_jk = D2W[e_j x e_d, e_k x e_d] of the laminate axis
e_d is built directly rather than read off d tangent applications:

* Saint Venant-Kirchhoff, f = F e_d:
  M = m(omega) [(lam+mu) f f^T + mu F F^T + (lam tr E + mu(|f|^2 - 1)) Id];
* neo-Hookean, g = F^{-T} e_d and beta = lam ln J - mu:
  M = m(omega) [mu Id + (lam - beta) g g^T].

Determinants and inverses of the small (2x2 or 3x3) matrices are the
closed-form adjugate over the determinant (`det_inverse`).

Each family is one small class (`_SaintVenantKirchhoff`, `_NeoHookean`)
holding only the unmodulated W0 and its derivatives.  `EnergyDensity` picks
one and defines the public batched kernels (`*_cells`) once, applying
m(omega); they operate on per-cell arrays of deformation gradients, shape
(n, d, d).  The cell-problem solvers are built entirely on those kernels, so
a full corrector solve is a handful of vectorized numpy calls per Newton
iteration rather than a Python loop over cells.

Conventions: matrices are numpy arrays of shape (d, d); the colon product
A:B is sum_ij A_ij B_ij; D2W[A] denotes the matrix (D2W[A])_jk =
D2W[A, e_j x e_k], similarly D3W[A,B]; the laminate axis is the last
coordinate e_d.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "DomainError",
    "EnergyDensity",
    "SAINT_VENANT_KIRCHHOFF",
    "NEO_HOOKEAN",
    "det_inverse",
    "dist_to_rotations",
    "rotation_from_angle",
    "random_rotation",
    "random_near_identity",
]

SAINT_VENANT_KIRCHHOFF = "saint-venant-kirchhoff"
NEO_HOOKEAN = "neo-hookean"

_FAMILY_ALIASES = {
    "svk": SAINT_VENANT_KIRCHHOFF,
    "saint-venant-kirchhoff": SAINT_VENANT_KIRCHHOFF,
    "saint_venant_kirchhoff": SAINT_VENANT_KIRCHHOFF,
    "saintvenantkirchhoff": SAINT_VENANT_KIRCHHOFF,
    "neo-hookean": NEO_HOOKEAN,
    "nh": NEO_HOOKEAN,
    "neo_hookean": NEO_HOOKEAN,
    "neohookean": NEO_HOOKEAN,
    "compressible-neo-hookean": NEO_HOOKEAN,
    "compressible_neo_hookean": NEO_HOOKEAN,
    "compressibleneohookean": NEO_HOOKEAN,
}


class DomainError(ValueError):
    """Deformation gradient outside the admissible domain of the family."""


# =====================================================================
# small tensor helpers
# =====================================================================


def _as_cells(A, n, d):
    """Broadcast a single (d,d) matrix or pass through an (n,d,d) stack."""
    A = np.asarray(A, dtype=float)
    if A.shape == (d, d):
        return np.broadcast_to(A, (n, d, d))
    if A.shape == (n, d, d):
        return A
    raise ValueError(f"expected shape {(d, d)} or {(n, d, d)}, got {A.shape}")


def _dot(A, B):
    """Per-cell colon product A:B, shapes (n,d,d) -> (n,)."""
    return np.einsum("nij,nij->n", A, B)


def _T(A):
    """Per-cell transpose, made contiguous so that `@` takes its fast path."""
    return np.ascontiguousarray(np.swapaxes(A, -1, -2))


def _tAB(A, B):
    """Per-cell A^T B, shapes (n,d,d)."""
    return _T(A) @ B


def _sym(A):
    return 0.5 * (A + np.swapaxes(A, -1, -2))


def det_inverse(A):
    """Closed-form determinants and inverses of stacked 2x2 or 3x3 matrices.

    Returns (det, inv) with shapes (...,) and (..., d, d); inv is the
    adjugate over the determinant, so a singular matrix gives non-finite
    entries (no warning, no exception) and callers test np.isfinite.
    """
    A = np.asarray(A, dtype=float)
    adj = np.empty_like(A)
    if A.shape[-1] == 2:
        a, b, c, e = A[..., 0, 0], A[..., 0, 1], A[..., 1, 0], A[..., 1, 1]
        det = a * e - b * c
        adj[..., 0, 0] = e
        adj[..., 0, 1] = -b
        adj[..., 1, 0] = -c
        adj[..., 1, 1] = a
    elif A.shape[-1] == 3:
        m = [[A[..., i, j] for j in range(3)] for i in range(3)]
        adj[..., 0, 0] = m[1][1] * m[2][2] - m[1][2] * m[2][1]
        adj[..., 0, 1] = m[0][2] * m[2][1] - m[0][1] * m[2][2]
        adj[..., 0, 2] = m[0][1] * m[1][2] - m[0][2] * m[1][1]
        adj[..., 1, 0] = m[1][2] * m[2][0] - m[1][0] * m[2][2]
        adj[..., 1, 1] = m[0][0] * m[2][2] - m[0][2] * m[2][0]
        adj[..., 1, 2] = m[0][2] * m[1][0] - m[0][0] * m[1][2]
        adj[..., 2, 0] = m[1][0] * m[2][1] - m[1][1] * m[2][0]
        adj[..., 2, 1] = m[0][1] * m[2][0] - m[0][0] * m[2][1]
        adj[..., 2, 2] = m[0][0] * m[1][1] - m[0][1] * m[1][0]
        det = m[0][0] * adj[..., 0, 0] + m[0][1] * adj[..., 1, 0] + m[0][2] * adj[..., 2, 0]
    else:
        raise ValueError(f"closed-form inverse needs 2x2 or 3x3 matrices, got {A.shape}")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return det, adj / det[..., None, None]


def dist_to_rotations(F):
    """Frobenius distance of a matrix to SO(d).

    With singular values s_i, dist^2 = sum (s_i - 1)^2 when det F > 0;
    for det F <= 0 the nearest rotation flips the smallest singular value,
    adding 4*s_min to dist^2.
    """
    F = np.asarray(F, dtype=float)
    s = np.linalg.svd(F, compute_uv=False)
    dist2 = np.sum((s - 1.0) ** 2)
    if np.linalg.det(F) <= 0.0:
        dist2 += 4.0 * np.min(s)
    return float(np.sqrt(dist2))


def rotation_from_angle(angle, dim):
    """Rotation by `angle` in the (e1, e2) plane; identity elsewhere."""
    R = np.eye(dim)
    c, s = np.cos(angle), np.sin(angle)
    R[0, 0] = c
    R[0, 1] = -s
    R[1, 0] = s
    R[1, 1] = c
    return R


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
    S = _sym(S[None])[0]
    S /= np.linalg.norm(S)
    return random_rotation(rng, dim) @ (np.eye(dim) + dist * S)


# =====================================================================
# material families (unmodulated base density W0)
# =====================================================================


class _SaintVenantKirchhoff:
    """W0(F) = lam/2 tr(E)^2 + mu tr(E^2) and its F-derivatives over cells."""

    def __init__(self, lam, mu, dim):
        self.lam, self.mu, self.dim = lam, mu, dim

    def admissible(self, Fc):
        return np.ones(Fc.shape[0], dtype=bool)

    def acoustic(self, Fc):
        d = self.dim
        f = Fc[:, :, d - 1]
        trE = 0.5 * (_dot(Fc, Fc) - d)
        diag = (self.lam * trE + self.mu * (np.sum(f * f, axis=1) - 1.0))[:, None]
        M = ((self.lam + self.mu) * f[:, :, None] * f[:, None, :]
             + self.mu * (Fc @ _T(Fc)))
        M[:, np.arange(d), np.arange(d)] += diag
        return M

    def energy(self, Fc):
        Et = 0.5 * (_tAB(Fc, Fc) - np.eye(self.dim))
        tr = np.trace(Et, axis1=1, axis2=2)
        return 0.5 * self.lam * tr * tr + self.mu * _dot(Et, Et)

    def stress(self, Fc):
        Et = 0.5 * (_tAB(Fc, Fc) - np.eye(self.dim))
        tr = np.trace(Et, axis1=1, axis2=2)
        return self.lam * tr[:, None, None] * Fc + 2.0 * self.mu * (Fc @ Et)

    def tangent(self, Fc, A):
        Et = 0.5 * (_tAB(Fc, Fc) - np.eye(self.dim))
        tr = np.trace(Et, axis1=1, axis2=2)
        FA = _dot(Fc, A)
        symFA = _sym(_tAB(Fc, A))
        return (self.lam * FA[:, None, None] * Fc
                + self.lam * tr[:, None, None] * A
                + 2.0 * self.mu * (Fc @ symFA)
                + 2.0 * self.mu * (A @ Et))

    def third(self, Fc, A, B):
        FA = _dot(Fc, A)
        FB = _dot(Fc, B)
        AB = _dot(A, B)
        symFA = _sym(_tAB(Fc, A))
        symFB = _sym(_tAB(Fc, B))
        symAB = _sym(_tAB(A, B))
        return (self.lam * (A * FB[:, None, None] + B * FA[:, None, None] + Fc * AB[:, None, None])
                + 2.0 * self.mu * (np.einsum("nij,njk->nik", A, symFB)
                                   + np.einsum("nij,njk->nik", B, symFA)
                                   + np.einsum("nij,njk->nik", Fc, symAB)))


class _NeoHookean:
    """W0(F) = mu/2 (|F|^2 - d) - mu ln J + lam/2 (ln J)^2 and its F-derivatives over cells."""

    def __init__(self, lam, mu, dim):
        self.lam, self.mu, self.dim = lam, mu, dim

    def admissible(self, Fc):
        return det_inverse(Fc)[0] > 0.0

    def acoustic(self, Fc):
        d = self.dim
        X, lnJ = self._inv_log(Fc)
        g = X[:, d - 1, :]
        beta = self.lam * lnJ - self.mu
        M = (self.lam - beta)[:, None, None] * g[:, :, None] * g[:, None, :]
        M[:, np.arange(d), np.arange(d)] += self.mu
        return M

    def energy(self, Fc):
        _, lnJ = self._inv_log(Fc)
        frob2 = _dot(Fc, Fc)
        return 0.5 * self.mu * (frob2 - self.dim) - self.mu * lnJ + 0.5 * self.lam * lnJ * lnJ

    def stress(self, Fc):
        X, lnJ = self._inv_log(Fc)
        beta = self.lam * lnJ - self.mu
        return self.mu * Fc + beta[:, None, None] * np.swapaxes(X, 1, 2)

    def tangent(self, Fc, A):
        X, lnJ = self._inv_log(Fc)
        beta = self.lam * lnJ - self.mu
        thA = np.einsum("nij,nji->n", X, A)
        XAX = X @ A @ X
        return (self.mu * A
                + self.lam * thA[:, None, None] * np.swapaxes(X, 1, 2)
                - beta[:, None, None] * np.swapaxes(XAX, 1, 2))

    def third(self, Fc, A, B):
        X, lnJ = self._inv_log(Fc)
        beta = self.lam * lnJ - self.mu
        XT = np.swapaxes(X, 1, 2)
        thA = np.einsum("nij,nji->n", X, A)
        thB = np.einsum("nij,nji->n", X, B)
        XAX = np.einsum("nij,njk,nkl->nil", X, A, X)
        XBX = np.einsum("nij,njk,nkl->nil", X, B, X)
        trAB = np.einsum("nij,nji->n", XAX, B)
        XAXBX = np.einsum("nij,njk->nik", XAX, np.einsum("nij,njk->nik", B, X))
        XBXAX = np.einsum("nij,njk->nik", XBX, np.einsum("nij,njk->nik", A, X))
        return (-self.lam * (thB[:, None, None] * np.swapaxes(XAX, 1, 2)
                             + thA[:, None, None] * np.swapaxes(XBX, 1, 2)
                             + trAB[:, None, None] * XT)
                + beta[:, None, None] * (np.swapaxes(XAXBX, 1, 2) + np.swapaxes(XBXAX, 1, 2)))

    def _inv_log(self, Fc):
        J, X = det_inverse(Fc)
        if np.any(J <= 0.0):
            raise DomainError("neo-Hookean density needs det F > 0")
        return X, np.log(J)


# =====================================================================
# energy density
# =====================================================================


class EnergyDensity:
    """Stored-energy density W(omega, F) = m(omega) W0(F) of one material family.

    Parameters
    ----------
    family : str
        'saint-venant-kirchhoff' (alias 'svk') or 'neo-hookean'
        (aliases 'nh', 'compressible-neo-hookean').
    lame : (float, float)
        Base Lame constants (lam0, mu0), both > 0.
    modulation : float
        Amplitude a in [0, 1) of m(omega) = 1 + a*tanh(omega).
    dim : int
        Spatial dimension, 2 or 3.
    """

    def __init__(self, family, lame, modulation=0.0, dim=2):
        key = str(family).strip().lower()
        if key not in _FAMILY_ALIASES:
            raise ValueError(f"unknown material family {family!r}")
        self.family = family = _FAMILY_ALIASES[key]
        self.lam, self.mu = float(lame[0]), float(lame[1])
        if self.lam <= 0.0 or self.mu <= 0.0:
            raise ValueError(f"Lame constants must be positive, got {lame!r}")
        self.modulation = float(modulation)
        if not 0.0 <= self.modulation < 1.0:
            raise ValueError(f"modulation amplitude must be in [0,1), got {modulation!r}")
        self.dim = int(dim)
        if self.dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {dim!r}")
        law = _NeoHookean if family == NEO_HOOKEAN else _SaintVenantKirchhoff
        self._law = law(self.lam, self.mu, self.dim)

    def factor(self, omega):
        """m(omega) = 1 + a*tanh(omega), elementwise."""
        return 1.0 + self.modulation * np.tanh(np.asarray(omega, dtype=float))

    # -- batched kernels (per-cell arrays) -------------------------------

    def admissible_cells(self, Fcells):
        """Per-cell admissibility of the deformation gradients."""
        return self._law.admissible(np.asarray(Fcells, dtype=float))

    def energy_cells(self, omega, Fcells):
        """W(omega_i, F_i) over cells: (n,), (n,d,d) -> (n,)."""
        return self.factor(omega) * self._law.energy(np.asarray(Fcells, dtype=float))

    def stress_cells(self, omega, Fcells):
        """DW(omega_i, F_i) over cells: -> (n,d,d)."""
        return self.factor(omega)[:, None, None] * self._law.stress(np.asarray(Fcells, dtype=float))

    def tangent_apply_cells(self, omega, Fcells, A):
        """Matrix D2W(omega_i, F_i)[A_i] over cells; A is (d,d) or (n,d,d)."""
        Fcells = np.asarray(Fcells, dtype=float)
        A = _as_cells(A, Fcells.shape[0], self.dim)
        return self.factor(omega)[:, None, None] * self._law.tangent(Fcells, A)

    def third_apply_cells(self, omega, Fcells, A, B):
        """Matrix D3W(omega_i, F_i)[A_i, B_i] over cells (symmetric in A, B)."""
        Fcells = np.asarray(Fcells, dtype=float)
        n = Fcells.shape[0]
        A = _as_cells(A, n, self.dim)
        B = _as_cells(B, n, self.dim)
        return self.factor(omega)[:, None, None] * self._law.third(Fcells, A, B)

    def acoustic_cells(self, omega, Fcells):
        """Acoustic tensors M_i with (M_i)_jk = D2W(omega_i,F_i)[e_j x e_d, e_k x e_d].

        Closed form, with f = F e_d for Saint Venant-Kirchhoff and
        g = F^{-T} e_d, beta = lam ln J - mu for neo-Hookean:

            SVK:  M = m [(lam+mu) f f^T + mu F F^T + (lam tr E + mu(|f|^2-1)) Id]
            NH:   M = m [mu Id + (lam - beta) g g^T]
        """
        return self.factor(omega)[:, None, None] * self._law.acoustic(np.asarray(Fcells, dtype=float))

    def __repr__(self):
        return (f"EnergyDensity({self.family!r}, lame=({self.lam}, {self.mu}), "
                f"modulation={self.modulation}, dim={self.dim})")
