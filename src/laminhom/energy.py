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

All batched kernels (`EnergyDensity.*_cells`) take their cells
component-major: the deformation gradients as one (d, d, n) array, entry
(j, l) of cell i at [j, l, i], and directions likewise as (d, d, n), or as a
stack (k, d, d, n) of k of them.  Each formula is then a handful of
elementwise operations on contiguous length-n component arrays; only the
matrix products of D3W are `np.matmul` over the first two axes.
Determinants and inverses of the small (2x2 or 3x3) matrices are the
closed-form adjugate over the determinant (`adjugate`).

Column form.  In a laminate cell F_i = F + p_i x e_d: the first d-1 columns
C = F[:, :d-1] are the same in every cell and only the last column
f_i = F e_d + p_i varies.  `FixedColumns` forms the invariants of C once
(C C^T, |C|^2, |C^T C - Id|^2 and the cofactor normal n_C, for which
det[C | f] = n_C . f), and `EnergyDensity.flux_cells` maps the columns f
(d, n) to the flux DW e_d (d, n) and, when asked, the acoustic tensor
M_jk = D2W[e_j x e_d, e_k x e_d] (d, d, n):

* Saint Venant-Kirchhoff, tr E = (|C|^2 + |f|^2 - d)/2 and
  s = lam tr E + mu(|f|^2 - 1):
  DW e_d = m [s f + mu C C^T f],  M = m [(lam+2mu) f f^T + mu C C^T + s Id];
* neo-Hookean, J = n_C . f, g = n_C / J, beta = lam ln J - mu:
  DW e_d = m [mu f + beta g],  M = m [mu Id + (lam - beta) g g^T].

A column with J <= 0 (outside the neo-Hookean domain) gets a NaN flux and
tensor, without a warning or DomainError, so a line search can mask it.
In the same terms the Gram deviation of a cell is |F^T F - Id|^2 =
|C^T C - Id|^2 + 2|C^T f|^2 + (|f|^2 - 1)^2 (`FixedColumns.gram_squared`).

Tangent moduli.  `EnergyDensity.moduli_cells` returns the full moduli
K_jlmr = D2W[e_j x e_l, e_m x e_r] of component-major cells F (d, d, n) as
one (d, d, d, d, n) array, built elementwise (no batched matrix products):

* Saint Venant-Kirchhoff, E = (F^T F - Id)/2:  K = m [lam F_jl F_mr
  + mu F_jr F_ml + mu delta_lr (F F^T)_jm + delta_jm (2 mu E_lr + lam tr E delta_lr)];
* neo-Hookean, X = F^{-1} (`adjugate`), beta = lam ln J - mu:
  K = m [mu delta_jm delta_lr + lam X_lj X_rm - beta X_lm X_rj].

Each of the d^2 (d^2 + 1)/2 entries with (j, l) <= (m, r) is formed once as
one length-n array, multiplied by m(omega) once, and stored also as its
partner K_mrjl, so the major symmetry holds exactly.  The tangent is a
contraction of the moduli, (D2W[A])_jl = sum_mr K_jlmr A_mr
(`tangent_apply_cells`), and the acoustic tensor is an entry of them,
M_jk = K_jdkd (`acoustic_cells`), so D2W has this one home.

Each family is one small class (`_SaintVenantKirchhoff`, `_NeoHookean`)
holding only the unmodulated W0 and its derivatives.  `EnergyDensity` picks
one and defines the public batched kernels once, applying m(omega).  The
cell-problem solvers are built entirely on those kernels, so a full
corrector solve is a handful of vectorized numpy calls per Newton iteration
rather than a Python loop over cells.

Conventions: matrices are numpy arrays of shape (d, d); the colon product
A:B is sum_ij A_ij B_ij; D2W[A] denotes the matrix (D2W[A])_jk =
D2W[A, e_j x e_k], similarly D3W[A,B]; the laminate axis is the last
coordinate e_d.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = [
    "DomainError",
    "EnergyDensity",
    "FixedColumns",
    "SAINT_VENANT_KIRCHHOFF",
    "NEO_HOOKEAN",
    "adjugate",
    "dist_to_rotations",
    "rotation_from_angle",
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


def _inner(A, B):
    """Per-cell colon products A:B of component-major matrices (d, d, n) -> (n,),
    summed entry by entry in a fixed order, so a cell's bits do not depend on n."""
    d = len(A)
    return sum(A[j, l] * B[j, l] for j in range(d) for l in range(d))


def _gram(F):
    """Per-cell F^T F of component-major matrices (d, d, n), entry by entry."""
    return sum(F[k, :, None] * F[k, None, :] for k in range(len(F)))


def _trace(A):
    """Per-cell traces of component-major matrices (d, d, n) -> (n,)."""
    return sum(A[j, j] for j in range(len(A)))


def _product(A, B, transpose=False):
    """Per-cell matrix products A B, or A^T B with `transpose`, of
    component-major matrices (d, d, n) -> (d, d, n)."""
    return np.matmul(A, B, axes=[(1, 0) if transpose else (0, 1), (0, 1), (0, 1)])


def _directions(A, F):
    """Directions A for the cells F (d, d, n): a constant (d, d) or per-cell
    (d, d, n), or a stack (k, d, d, n) of them, broadcast over the cells."""
    A = np.asarray(A, dtype=float)
    if A.ndim == 2:
        A = A[:, :, None]
    return np.broadcast_to(A, A.shape[:-3] + F.shape)


def _diagonal(M):
    """The diagonal entries of component-major matrices M (d, d, n), as a writable (d, n) view."""
    d = M.shape[0]
    return M.reshape(d * d, -1)[::d + 1]


def _matvec(A, x):
    """A x per column, as elementwise products summed in a fixed order.

    A is r x d: a matrix, or per-column matrices (r, d, N) (also as nested
    rows of arrays); x is (..., d, N); returns (..., r, N).  A column's bits
    do not depend on N, which BLAS does not promise for A @ x.
    """
    A = np.asarray(A)
    if A.ndim == 2:
        A = A[..., None]
    out = A[:, 0] * x[..., None, 0, :]
    for j in range(1, A.shape[1]):
        out = out + A[:, j] * x[..., None, j, :]
    return out


def _mirrored(entry, m, d):
    """Moduli (d, d, d, d, n) with the major symmetry by construction: each
    entry K_jlir with (j, l) <= (i, r) is entry(j, l, i, r) (n,) times m,
    formed once and also stored as K_irjl."""
    pairs = [(j, l) for j in range(d) for l in range(d)]
    K = np.empty((d, d, d, d, len(m)))
    for a, (j, l) in enumerate(pairs):
        for i, r in pairs[a:]:
            K[j, l, i, r] = K[i, r, j, l] = m * entry(j, l, i, r)
    return K


def adjugate(m):
    """Determinant and adjugate of a 2x2 or 3x3 matrix given by its entries.

    m[i][j] are arrays of one shape (any indexable works: a nested list, or
    a component-major array (d, d, n)); returns det and the adjugate as a
    nested list of arrays of that shape.  The inverse is the adjugate over
    det, so a singular matrix gives non-finite entries (no exception).
    """
    if len(m) not in (2, 3):
        raise ValueError(f"closed-form adjugate needs 2x2 or 3x3 matrices, got {len(m)} rows")
    if len(m) == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0], [[m[1][1], -m[0][1]], [-m[1][0], m[0][0]]]
    adj = [[m[1][1] * m[2][2] - m[1][2] * m[2][1],
            m[0][2] * m[2][1] - m[0][1] * m[2][2],
            m[0][1] * m[1][2] - m[0][2] * m[1][1]],
           [m[1][2] * m[2][0] - m[1][0] * m[2][2],
            m[0][0] * m[2][2] - m[0][2] * m[2][0],
            m[0][2] * m[1][0] - m[0][0] * m[1][2]],
           [m[1][0] * m[2][1] - m[1][1] * m[2][0],
            m[0][1] * m[2][0] - m[0][0] * m[2][1],
            m[0][0] * m[1][1] - m[0][1] * m[1][0]]]
    return m[0][0] * adj[0][0] + m[0][1] * adj[1][0] + m[0][2] * adj[2][0], adj


def dist_to_rotations(F):
    """Frobenius distance of a matrix to SO(d).

    With singular values s_i, dist^2 = sum (s_i - 1)^2 when det F > 0;
    for det F <= 0 the nearest rotation flips the smallest singular value,
    adding 4*s_min to dist^2.
    """
    F = np.asarray(F, dtype=float)
    s = np.linalg.svd(F, compute_uv=False)
    dist2 = np.sum((s - 1.0) ** 2)
    if adjugate(F)[0] <= 0.0:
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


class FixedColumns(NamedTuple):
    """Invariants of the columns C = F[:, :d-1] that every laminate cell shares.

    A cell deformation F + p_i x e_d differs from F only in its last column
    f_i = F e_d + p_i, so the column-form kernels take these invariants,
    formed once per solve, together with the columns f, component-major
    (d, n).
    """

    C: np.ndarray        # (d, d-1)
    CCt: np.ndarray      # (d, d), C C^T
    C2: float            # |C|^2
    gram2: float         # |C^T C - Id|^2
    normal: np.ndarray   # (d,), cofactor normal n_C: det[C | f] = n_C . f

    @classmethod
    def of(cls, F):
        F = np.asarray(F, dtype=float)
        d = F.shape[-1]
        C = F[:, :d - 1].copy()
        G = C.T @ C - np.eye(d - 1)
        normal = np.array([-C[1, 0], C[0, 0]]) if d == 2 else np.cross(C[:, 0], C[:, 1])
        return cls(C, C @ C.T, float(np.sum(C * C)), float(np.sum(G * G)), normal)

    def gram_squared(self, f):
        """|F^T F - Id|_F^2 of the cells with last columns f: (d, n) -> (n,)."""
        ff = (f * f).sum(axis=0) - 1.0
        Cf = _matvec(self.C.T, f)
        return self.gram2 + 2.0 * (Cf * Cf).sum(axis=0) + ff * ff


# =====================================================================
# material families (unmodulated base density W0)
# =====================================================================


class _SaintVenantKirchhoff:
    """W0(F) = lam/2 tr(E)^2 + mu tr(E^2) and its F-derivatives over cells."""

    def __init__(self, lam, mu, dim):
        self.lam, self.mu, self.dim = lam, mu, dim

    def admissible(self, F):
        return np.ones(F.shape[-1], dtype=bool)

    def column(self, cols, f, acoustic):
        ff = (f * f).sum(axis=0)
        # s = lam tr E + mu(|f|^2 - 1), tr E = (|C|^2 + |f|^2 - d)/2
        s = (0.5 * self.lam + self.mu) * ff + (0.5 * self.lam * (cols.C2 - self.dim) - self.mu)
        flux = s * f + _matvec(self.mu * cols.CCt, f)
        if not acoustic:
            return flux, None
        M = f[:, None] * f[None]
        M *= self.lam + 2.0 * self.mu
        M += (self.mu * cols.CCt)[:, :, None]
        _diagonal(M)[...] += s
        return flux, M

    def energy(self, F):
        E = 0.5 * (_gram(F) - np.eye(self.dim)[:, :, None])
        tr = _trace(E)
        return 0.5 * self.lam * tr * tr + self.mu * _inner(E, E)

    def stress(self, F):
        E = 0.5 * (_gram(F) - np.eye(self.dim)[:, :, None])
        FE = sum(F[:, k, None] * E[None, k] for k in range(self.dim))
        return self.lam * _trace(E) * F + 2.0 * self.mu * FE

    def moduli(self, F, m):
        d = self.dim
        muFFt = self.mu * sum(F[:, None, k] * F[None, :, k] for k in range(d))
        D = _gram(F)
        trE = 0.5 * (_trace(D) - d)
        D *= self.mu
        _diagonal(D)[...] += self.lam * trE - self.mu   # 2 mu E + lam tr E Id

        def entry(j, l, i, r):
            K = self.lam * (F[j, l] * F[i, r]) + self.mu * (F[j, r] * F[i, l])
            if l == r:
                K += muFFt[j, i]
            if j == i:
                K += D[l, r]
            return K

        return _mirrored(entry, m, d)

    def third(self, F, A, B):
        def sym(X, Y):   # sym(X^T Y)
            P = _product(X, Y, transpose=True)
            return 0.5 * (P + P.transpose(1, 0, 2))

        return (self.lam * (A * _inner(F, B) + B * _inner(F, A) + F * _inner(A, B))
                + 2.0 * self.mu * (_product(A, sym(F, B)) + _product(B, sym(F, A))
                                   + _product(F, sym(A, B))))


class _NeoHookean:
    """W0(F) = mu/2 (|F|^2 - d) - mu ln J + lam/2 (ln J)^2 and its F-derivatives over cells."""

    def __init__(self, lam, mu, dim):
        self.lam, self.mu, self.dim = lam, mu, dim

    def admissible(self, F):
        return adjugate(F)[0] > 0.0

    def column(self, cols, f, acoustic):
        J = _matvec(cols.normal[None], f)[0]
        J = np.where(J > 0.0, J, np.nan)   # outside the domain: NaN flux, no warning
        g = cols.normal[:, None] / J
        beta = self.lam * np.log(J) - self.mu
        flux = self.mu * f + beta * g
        if not acoustic:
            return flux, None
        M = g[:, None] * g[None]
        M *= self.lam - beta
        _diagonal(M)[...] += self.mu
        return flux, M

    def energy(self, F):
        _, lnJ = self._inverse_log(F)
        return 0.5 * self.mu * (_inner(F, F) - self.dim) - self.mu * lnJ + 0.5 * self.lam * lnJ * lnJ

    def stress(self, F):
        X, lnJ = self._inverse_log(F)
        return self.mu * F + (self.lam * lnJ - self.mu) * X.transpose(1, 0, 2)

    def moduli(self, F, m):
        X, lnJ = self._inverse_log(F)
        beta = self.lam * lnJ - self.mu

        def entry(j, l, i, r):
            K = self.lam * (X[l, j] * X[r, i]) - beta * (X[l, i] * X[r, j])
            if j == i and l == r:
                K += self.mu
            return K

        return _mirrored(entry, m, self.dim)

    def third(self, F, A, B):
        X, lnJ = self._inverse_log(F)
        XT = X.transpose(1, 0, 2)
        XAX = _product(_product(X, A), X)
        XBX = _product(_product(X, B), X)
        # the transpose of D3W[A, B], tr(X A) = X^T : A
        T = (-self.lam * (_inner(XT, B) * XAX + _inner(XT, A) * XBX
                          + _inner(XAX.transpose(1, 0, 2), B) * X)
             + (self.lam * lnJ - self.mu) * (_product(XAX, _product(B, X))
                                             + _product(XBX, _product(A, X))))
        return T.transpose(1, 0, 2)

    def _inverse_log(self, F):
        """F^{-1} and ln J of cells inside the domain; DomainError otherwise."""
        J, adj = adjugate(F)
        if np.any(J <= 0.0):
            raise DomainError("neo-Hookean density needs det F > 0")
        return np.array(adj) / J, np.log(J)


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

    # -- batched kernels (component-major cells F (d, d, n)) -------------

    def admissible_cells(self, F):
        """Per-cell admissibility of the deformation gradients: (d,d,n) -> (n,)."""
        return self._law.admissible(np.asarray(F, dtype=float))

    def energy_cells(self, omega, F):
        """W(omega_i, F_i) over cells: (n,), (d,d,n) -> (n,)."""
        return self.factor(omega) * self._law.energy(np.asarray(F, dtype=float))

    def stress_cells(self, omega, F):
        """DW(omega_i, F_i) over cells: -> (d,d,n)."""
        return self.factor(omega) * self._law.stress(np.asarray(F, dtype=float))

    def moduli_cells(self, omega, F):
        """Tangent moduli of the cells as (d, d, d, d, n), see
        `tangent_apply_cells`.  A neo-Hookean cell with J <= 0 raises
        DomainError."""
        return self._law.moduli(np.asarray(F, dtype=float), self.factor(omega))

    def tangent_apply_cells(self, omega, F, A):
        """Matrices D2W(omega_i, F_i)[A_i] over cells; A is one direction (d,d),
        per-cell directions (d,d,n) or a stack (k,d,d,n) of them (k,d,d,1 for
        constant ones), which share one evaluation of the moduli.

        The tangent is the contraction (D2W[A])_jl = sum_mr K_jlmr A_mr of the
        moduli K_jlmr = D2W[e_j x e_l, e_m x e_r] of `moduli_cells`, one
        (d, d, d, d, n) array per call, with E = (F^T F - Id)/2, X = F^{-1}
        and beta = lam ln J - mu:

            SVK:  K = m [lam F_jl F_mr + mu F_jr F_ml + mu delta_lr (F F^T)_jm
                         + delta_jm (2 mu E_lr + lam tr E delta_lr)]
            NH:   K = m [mu delta_jm delta_lr + lam X_lj X_rm - beta X_lm X_rj]
        """
        F = np.asarray(F, dtype=float)
        return np.einsum("jlmrn,...mrn->...jln", self.moduli_cells(omega, F), _directions(A, F))

    def third_apply_cells(self, omega, F, A, B):
        """Matrices D3W(omega_i, F_i)[A_i, B_i] over cells (symmetric in A, B);
        A and B are (d,d) or (d,d,n)."""
        F = np.asarray(F, dtype=float)
        return self.factor(omega) * self._law.third(F, _directions(A, F), _directions(B, F))

    def flux_cells(self, omega, cols, f, acoustic=False):
        """Flux DW(omega_i, F_i) e_d of the cells F_i = [C | f_i], in column form.

        cols are the `FixedColumns` of C and f the last columns,
        component-major (d, n).  Returns (flux, M): the fluxes (d, n) and,
        when `acoustic` is set, the acoustic tensors (d, d, n) (None
        otherwise); see the module docstring for the formulas.  A
        neo-Hookean cell with J <= 0 gets NaN in both, with no warning and
        no DomainError.
        """
        m = self.factor(omega)
        flux, M = self._law.column(cols, np.asarray(f, dtype=float), acoustic)
        flux *= m
        if M is not None:
            M *= m
        return flux, M

    def acoustic_cells(self, omega, F):
        """Acoustic tensors (M_i)_jk = D2W(omega_i,F_i)[e_j x e_d, e_k x e_d] over
        cells, (d,d,n): the entries K_jdkd of the moduli."""
        d = self.dim
        return self.moduli_cells(omega, F)[:, d - 1, :, d - 1]

    def __repr__(self):
        return (f"EnergyDensity({self.family!r}, lame=({self.lam}, {self.mu}), "
                f"modulation={self.modulation}, dim={self.dim})")
