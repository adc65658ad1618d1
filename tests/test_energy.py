"""Energy-density tests: frozen oracle values, finite-difference consistency,
structural invariants of the material class.

Frozen constants were computed with an independent symbolic derivation
(sympy, exact rationals where possible) of the same densities; regenerate by
symbolically differentiating W and substituting the quoted points.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from laminhom.energy import (
    NEO_HOOKEAN,
    SAINT_VENANT_KIRCHHOFF,
    DomainError,
    EnergyDensity,
    FixedColumns,
    _matvec,
    adjugate,
    dist_to_rotations,
    rotation_from_angle,
)
from pointwise import derivative, evaluate, random_near_identity, random_rotation, tangent_reference

LAME = (1.2, 0.8)
FAMILIES = [SAINT_VENANT_KIRCHHOFF, NEO_HOOKEAN]
DIMS = [2, 3]


def make(family, dim, modulation=0.5):
    return EnergyDensity(family, LAME, modulation=modulation, dim=dim)


# ===================================================================
# frozen values from the independent symbolic oracle
# ===================================================================


class TestFrozenValues:
    def test_svk_point_value(self):
        """W0(Id + 0.01 e1xe2) = 80007/2000000000 exactly; modulated at omega=0.3."""
        w = make(SAINT_VENANT_KIRCHHOFF, 2)
        F = np.eye(2)
        F[0, 1] = 0.01
        assert evaluate(w, 0.3, F) == pytest.approx(4.5830262046103608400e-05, abs=1e-12, rel=1e-12)
        # unmodulated exact rational
        w0 = EnergyDensity(SAINT_VENANT_KIRCHHOFF, LAME, modulation=0.0, dim=2)
        assert evaluate(w0, 0.0, F) == pytest.approx(80007 / 2000000000, abs=0, rel=1e-15)

    def test_neo_hookean_point_value(self):
        w = make(NEO_HOOKEAN, 2)
        F = np.array([[1.03, 0.02], [-0.01, 0.98]])
        assert evaluate(w, -0.7, F) == pytest.approx(7.8950883135701965301e-04, rel=1e-12)


# ===================================================================
# natural state and frame indifference
# ===================================================================


class TestStructure:
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("dim", DIMS)
    def test_natural_state_rotations(self, family, dim):
        """W and DW vanish on SO(d) for every omega."""
        w = make(family, dim)
        rng = np.random.default_rng(41)
        for _ in range(25):
            R = random_rotation(rng, dim)
            om = rng.normal()
            assert abs(evaluate(w, om, R)) <= 1e-12
            assert np.max(np.abs(derivative(w, om, R, 1))) <= 1e-12

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("dim", DIMS)
    def test_frame_indifference(self, family, dim):
        """W(omega, R F) = W(omega, F)."""
        w = make(family, dim)
        rng = np.random.default_rng(42)
        for _ in range(50):
            F = random_near_identity(rng, dim, 0.15)
            R = random_rotation(rng, dim)
            om = rng.normal()
            a, b = evaluate(w, om, R @ F), evaluate(w, om, F)
            assert abs(a - b) <= 1e-12 * max(1.0, abs(b))

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("dim", DIMS)
    def test_tensor_symmetries(self, family, dim):
        """Major symmetry of D2W."""
        w = make(family, dim)
        rng = np.random.default_rng(43)
        F = random_near_identity(rng, dim, 0.1)
        T2 = derivative(w, 0.2, F, 2)
        assert np.max(np.abs(T2 - np.transpose(T2, (2, 3, 0, 1)))) <= 1e-12

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("dim", DIMS)
    def test_quadratic_lower_bound_near_rotations(self, family, dim):
        """W(omega,F) >= alpha*dist^2(F,SO(d)) sampled on dist <= alpha/2.

        alpha = min(1/2, mu0*(1-a)/2) follows from the expansion
        W >= (1-a)*mu0*(1 - dist/2)^2 * dist^2 near SO(d), valid for both
        families; checked here by sampling, not proved globally.
        """
        w = make(family, dim)
        alpha = min(0.5, 0.5 * LAME[1] * (1.0 - w.modulation))
        rng = np.random.default_rng(44)
        for _ in range(100):
            F = random_near_identity(rng, dim, rng.uniform(0.0, 0.5 * alpha))
            om = rng.normal()
            dist = dist_to_rotations(F)
            assert evaluate(w, om, F) >= alpha * dist**2 - 1e-15

    def test_modulation_bounds_and_identity(self):
        w = make(SAINT_VENANT_KIRCHHOFF, 2, modulation=0.9)
        om = np.linspace(-5, 5, 11)
        m = w.factor(om)
        assert np.all(m > 0.1 - 1e-12) and np.all(m < 1.9 + 1e-12)

    def test_neo_hookean_domain_error(self):
        w = make(NEO_HOOKEAN, 2)
        with pytest.raises(DomainError):
            evaluate(w, 0.0, np.diag([1.0, -1.0]))
        with pytest.raises(DomainError):
            derivative(w, 0.0, np.diag([0.0, 1.0]), 1)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            EnergyDensity("unobtainium", LAME)
        with pytest.raises(ValueError):
            EnergyDensity(SAINT_VENANT_KIRCHHOFF, (0.0, 1.0))
        with pytest.raises(ValueError):
            EnergyDensity(SAINT_VENANT_KIRCHHOFF, LAME, modulation=1.0)
        with pytest.raises(ValueError):
            EnergyDensity(SAINT_VENANT_KIRCHHOFF, LAME, dim=4)


# ===================================================================
# finite-difference oracle for the analytic derivatives
# ===================================================================


def fd_tensor(fun, F, step):
    """Central finite difference of a (tensor-valued) function of F."""
    d = F.shape[0]
    base = np.asarray(fun(F))
    out = np.empty(base.shape + (d, d))
    for i in range(d):
        for j in range(d):
            Fp, Fm = F.copy(), F.copy()
            Fp[i, j] += step
            Fm[i, j] -= step
            out[..., i, j] = (np.asarray(fun(Fp)) - np.asarray(fun(Fm))) / (2 * step)
    return out


class TestFiniteDifferenceConsistency:
    STEP = 1e-6
    RTOL = 1e-5

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("dim", DIMS)
    @pytest.mark.parametrize("order", [1, 2])
    def test_fd_matches_analytic(self, family, dim, order):
        w = make(family, dim)
        rng = np.random.default_rng(100 + order)
        for k in range(5):
            F = random_near_identity(rng, dim, 0.12)
            om = rng.normal()
            if order == 1:
                fd = fd_tensor(lambda G: evaluate(w, om, G), F, self.STEP)
            else:
                fd = fd_tensor(lambda G: derivative(w, om, G, order - 1), F, self.STEP)
                fd = np.moveaxis(fd, (-2, -1), (0, 1))
            exact = derivative(w, om, F, order)
            scale = max(np.max(np.abs(exact)), 1e-8)
            assert np.max(np.abs(fd - exact)) / scale <= self.RTOL


# ===================================================================
# batched kernels
# ===================================================================


def random_cells(rng, dim, n, dist=0.1):
    """n deformation gradients near SO(d), component-major (d, d, n)."""
    return np.stack([random_near_identity(rng, dim, dist) for _ in range(n)], axis=-1)


class TestBatchedKernels:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_cells_match_pointwise(self, family):
        w = make(family, 3)
        rng = np.random.default_rng(5)
        n = 17
        om = rng.normal(size=n)
        Fc = random_cells(rng, 3, n)
        Wv = w.energy_cells(om, Fc)
        Sv = w.stress_cells(om, Fc)
        A = rng.standard_normal((3, 3))
        Tv = w.tangent_apply_cells(om, Fc, A)
        for i in range(n):
            Fi = Fc[..., i]
            assert Wv[i] == pytest.approx(evaluate(w, om[i], Fi), rel=1e-14, abs=1e-16)
            np.testing.assert_allclose(Sv[..., i], derivative(w, om[i], Fi, 1), rtol=1e-13, atol=1e-16)
            np.testing.assert_allclose(Tv[..., i], np.einsum("jklm,lm->jk", derivative(w, om[i], Fi, 2), A),
                                       rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("dim", DIMS)
    def test_acoustic_tensor_symmetric_positive(self, family, dim):
        """M_i near SO(d) is symmetric positive definite (strong ellipticity)."""
        w = make(family, dim)
        rng = np.random.default_rng(6)
        om = rng.normal(size=8)
        M = w.acoustic_cells(om, random_cells(rng, dim, 8))
        np.testing.assert_allclose(M, M.transpose(1, 0, 2), atol=1e-13)
        assert np.all(np.linalg.eigvalsh(np.moveaxis(M, -1, 0)) > 0.0)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("dim", DIMS)
    def test_acoustic_closed_form_matches_tangent_columns(self, family, dim):
        """M_jk, entries of the moduli, equal d tangent applications D2W[e_k x e_d] e_d."""
        w = make(family, dim)
        rng = np.random.default_rng(9)
        n = 64
        om = rng.normal(size=n)
        Fc = random_cells(rng, dim, n, 0.15)
        columns = np.empty((dim, dim, n))
        for k in range(dim):
            E = np.zeros((dim, dim))
            E[k, dim - 1] = 1.0
            columns[:, k] = w.tangent_apply_cells(om, Fc, E)[:, dim - 1]
        M = w.acoustic_cells(om, Fc)
        assert np.abs(M - columns).max() <= 1e-13 * np.abs(columns).max()


class TestModuli:
    """moduli_cells, one elementary direction E_mr = e_m x e_r at a time."""

    @staticmethod
    def cells(family, dim, n=16):
        w = make(family, dim)
        rng = np.random.default_rng(31)
        om = rng.normal(size=n)
        Fc = random_cells(rng, dim, n, 0.15)
        return w, om, Fc, w.moduli_cells(om, Fc)

    @staticmethod
    def elementary(dim, m, r):
        E = np.zeros((dim, dim))
        E[m, r] = 1.0
        return E

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("dim", DIMS)
    def test_matches_the_matrix_product_formulas(self, family, dim):
        w, om, Fc, K = self.cells(family, dim)
        assert K.shape == (dim,) * 4 + (len(om),)
        for m in range(dim):
            for r in range(dim):
                expected = tangent_reference(w, om, np.moveaxis(Fc, -1, 0),
                                             self.elementary(dim, m, r))
                got = np.moveaxis(K[:, :, m, r], -1, 0)
                assert np.abs(got - expected).max() <= 1e-14 * np.abs(expected).max()

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("dim", DIMS)
    def test_major_symmetry_is_exact(self, family, dim):
        _, _, _, K = self.cells(family, dim)
        assert np.array_equal(K, np.transpose(K, (2, 3, 0, 1, 4)))

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("dim", DIMS)
    def test_central_differences_of_the_stress(self, family, dim):
        w, om, Fc, K = self.cells(family, dim)
        step = 1e-5
        for m in range(dim):
            for r in range(dim):
                E = self.elementary(dim, m, r)[:, :, None]
                fd = (w.stress_cells(om, Fc + step * E) - w.stress_cells(om, Fc - step * E)) / (2 * step)
                assert np.abs(K[:, :, m, r] - fd).max() <= 1e-8 * np.abs(K).max()

    @pytest.mark.parametrize("dim", DIMS)
    def test_neo_hookean_outside_domain_raises(self, dim):
        w = make(NEO_HOOKEAN, dim)
        F = np.stack([np.eye(dim), np.diag([1.0] * (dim - 1) + [-1.0])], axis=-1)
        with pytest.raises(DomainError):
            w.moduli_cells(np.zeros(2), F)


# ===================================================================
# column form: cells that differ only in their last column
# ===================================================================


def laminate_cells(rng, dim, n, shift=0.15):
    """A deformation F near SO(d) and the cells F + p_i x e_d (d, d, n), plus their last columns (d, n)."""
    F = random_near_identity(rng, dim, 0.1)
    Fc = np.repeat(F[:, :, None], n, axis=2)
    Fc[:, dim - 1] += shift * rng.standard_normal((dim, n))
    return F, Fc, Fc[:, dim - 1].copy()


class TestColumnForm:
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("dim", DIMS)
    def test_matches_general_kernels(self, family, dim):
        w = make(family, dim)
        rng = np.random.default_rng(21)
        n = 64
        om = rng.normal(size=n)
        F, Fc, f = laminate_cells(rng, dim, n)
        cols = FixedColumns.of(F)
        flux, M = w.flux_cells(om, cols, f, acoustic=True)
        stress = w.stress_cells(om, Fc)[:, dim - 1]
        acoustic = w.acoustic_cells(om, Fc)
        assert np.linalg.norm(flux - stress) <= 1e-13 * np.linalg.norm(stress)
        assert np.linalg.norm(M - acoustic) <= 1e-13 * np.linalg.norm(acoustic)
        only, none = w.flux_cells(om, cols, f)
        assert none is None and np.array_equal(only, flux)
        gram = np.einsum("jin,jkn->ikn", Fc, Fc) - np.eye(dim)[:, :, None]
        np.testing.assert_allclose(cols.gram_squared(f), np.einsum("ijn,ijn->n", gram, gram),
                                   rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("dim", DIMS)
    def test_cofactor_normal_gives_det(self, dim):
        rng = np.random.default_rng(22)
        F, Fc, f = laminate_cells(rng, dim, 16)
        np.testing.assert_allclose(FixedColumns.of(F).normal @ f,
                                   np.linalg.det(np.moveaxis(Fc, -1, 0)), rtol=1e-13)

    @pytest.mark.parametrize("dim", DIMS)
    def test_neo_hookean_outside_domain_is_nan_without_warning(self, dim):
        w = make(NEO_HOOKEAN, dim)
        rng = np.random.default_rng(23)
        F, _, f = laminate_cells(rng, dim, 6)
        cols = FixedColumns.of(F)
        # flip the last column of cells 1 and 4 (J < 0) and zero that of cell 2 (J = 0)
        f[:, [1, 4]] *= -1.0
        f[:, 2] = 0.0
        om = rng.normal(size=6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            flux, M = w.flux_cells(om, cols, f, acoustic=True)
        outside = np.array([False, True, True, False, True, False])
        assert np.isnan(flux[:, outside]).all() and np.isnan(M[..., outside]).all()
        assert np.isfinite(flux[:, ~outside]).all() and np.isfinite(M[..., ~outside]).all()


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(np.ascontiguousarray(a).view(np.uint64),
                                                 np.ascontiguousarray(b).view(np.uint64))


class TestCellIndependence:
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("dim", DIMS)
    def test_slices_give_the_same_bits(self, family, dim):
        """A cell's results do not depend on the other cells of the call: n
        cells at once give the bits of slices of 1 and of 7 cells."""
        w = make(family, dim)
        rng = np.random.default_rng(26)
        n = 23
        om = rng.normal(size=n)
        Fc = random_cells(rng, dim, n)
        A = rng.standard_normal((dim * dim, dim, dim, n))
        F, _, f = laminate_cells(rng, dim, n)
        cols = FixedColumns.of(F)
        kernels = {
            "energy": lambda s: (w.energy_cells(om[s], Fc[..., s]),),
            "stress": lambda s: (w.stress_cells(om[s], Fc[..., s]),),
            "acoustic": lambda s: (w.acoustic_cells(om[s], Fc[..., s]),),
            "moduli": lambda s: (w.moduli_cells(om[s], Fc[..., s]),),
            "tangent_apply": lambda s: (w.tangent_apply_cells(om[s], Fc[..., s], A[..., s]),),
            "flux": lambda s: w.flux_cells(om[s], cols, f[:, s], acoustic=True),
        }
        for name, kernel in kernels.items():
            whole = kernel(slice(None))
            for size in (1, 7):
                parts = [kernel(slice(lo, lo + size)) for lo in range(0, n, size)]
                for k, expected in enumerate(whole):
                    joined = np.concatenate([part[k] for part in parts], axis=-1)
                    assert same_bits(joined, expected), (name, size)


def matvec_loop(A, x):
    """A x per column: for each output row, row[0] x_0 + row[1] x_1 + ... in order."""
    out = np.empty((*x.shape[:-2], len(A), x.shape[-1]))
    for i, row in enumerate(A):
        out[..., i, :] = row[0] * x[..., 0, :]
        for j in range(1, len(row)):
            out[..., i, :] += row[j] * x[..., j, :]
    return out


class TestMatvec:
    @pytest.mark.parametrize("dim", DIMS)
    @pytest.mark.parametrize("N", [1, 2, 7, 64])
    def test_bits_match_the_ordered_loop(self, dim, N):
        rng = np.random.default_rng(25)
        x = rng.standard_normal((4, dim, N))
        x[:, 0, :1] = -0.0
        for A in (rng.standard_normal((dim, dim)), rng.standard_normal((1, dim)),
                  rng.standard_normal((dim, dim, N))):
            for xs in (x, x[0]):
                expected = matvec_loop(A, xs)
                got = _matvec(A, xs)
                assert got.shape == expected.shape
                assert np.array_equal(got.view(np.int64), expected.view(np.int64))
        # the adjugate's nested rows of per-column arrays
        _, adj = adjugate(rng.standard_normal((dim, dim, N)))
        assert np.array_equal(_matvec(adj, x[0]), matvec_loop(adj, x[0]))


class TestStackedTangent:
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("dim", DIMS)
    def test_matches_per_direction_loop(self, family, dim):
        w = make(family, dim)
        rng = np.random.default_rng(24)
        n = 32
        om = rng.normal(size=n)
        Fc = random_cells(rng, dim, n)
        A = rng.standard_normal((dim * dim, dim, dim, n))
        stacked = w.tangent_apply_cells(om, Fc, A)
        looped = np.stack([w.tangent_apply_cells(om, Fc, Aa) for Aa in A])
        assert stacked.shape == A.shape
        assert np.abs(stacked - looped).max() <= 1e-14 * np.abs(looped).max()
        # a stack of constant directions, broadcast over the cells
        G = rng.standard_normal((3, dim, dim))
        stacked = w.tangent_apply_cells(om, Fc, G[..., None])
        looped = np.stack([w.tangent_apply_cells(om, Fc, Ga) for Ga in G])
        assert np.abs(stacked - looped).max() <= 1e-14 * np.abs(looped).max()

    def test_rejects_misshaped_directions(self):
        w = make(SAINT_VENANT_KIRCHHOFF, 2)
        Fc = np.repeat(np.eye(2)[:, :, None], 4, axis=2)
        with pytest.raises(ValueError):
            w.tangent_apply_cells(np.zeros(4), Fc, np.zeros((3, 2, 2)))


# ===================================================================
# closed-form small-matrix determinant and inverse (the adjugate)
# ===================================================================


class TestDetInverse:
    @pytest.mark.parametrize("dim", DIMS)
    def test_matches_numpy(self, dim):
        rng = np.random.default_rng(10)
        A = rng.standard_normal((dim, dim, 50)) + 2.0 * np.eye(dim)[:, :, None]
        det, adj = adjugate(A)
        cells = np.moveaxis(A, -1, 0)
        np.testing.assert_allclose(det, np.linalg.det(cells), rtol=1e-12)
        np.testing.assert_allclose(np.moveaxis(np.array(adj) / det, -1, 0), np.linalg.inv(cells),
                                   rtol=1e-12, atol=1e-13)

    @pytest.mark.parametrize("dim", DIMS)
    def test_singular_and_non_finite_give_non_finite_inverse(self, dim):
        A = np.stack([np.eye(dim), np.ones((dim, dim)), np.full((dim, dim), np.nan)], axis=-1)
        det, adj = adjugate(A)
        with np.errstate(divide="ignore", invalid="ignore"):
            inv = np.array(adj) / det
        assert det[1] == 0.0
        assert np.isfinite(inv[..., 0]).all()
        assert not np.isfinite(inv[..., 1]).any() and not np.isfinite(inv[..., 2]).any()

    def test_rejects_other_sizes(self):
        with pytest.raises(ValueError):
            adjugate(np.eye(4))

    @pytest.mark.parametrize("dim", DIMS)
    def test_adjugate_of_component_major_stack(self, dim):
        # a stack gives every matrix the bits it has alone
        rng = np.random.default_rng(14)
        A = rng.standard_normal((dim, dim, 20)) + 2.0 * np.eye(dim)[:, :, None]
        det, adj = adjugate(A)
        for i in range(A.shape[-1]):
            ref_det, ref_adj = adjugate(A[..., i])
            assert det[i] == ref_det
            np.testing.assert_array_equal(np.array(adj)[..., i], np.array(ref_adj))


# ===================================================================
# distance to the rotation group
# ===================================================================


class TestDistance:
    def test_zero_on_rotations(self):
        rng = np.random.default_rng(11)
        for d in DIMS:
            for _ in range(10):
                assert dist_to_rotations(random_rotation(rng, d)) <= 1e-12

    def test_pure_stretch(self):
        assert dist_to_rotations(np.diag([1.3, 1.0])) == pytest.approx(0.3, abs=1e-14)
        assert dist_to_rotations(np.diag([1.1, 0.9, 1.0])) == pytest.approx(np.sqrt(0.02), abs=1e-14)

    def test_reflection(self):
        # nearest rotation to diag(-1,1) is at Frobenius distance 2
        assert dist_to_rotations(np.diag([-1.0, 1.0])) == pytest.approx(2.0, abs=1e-12)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(12)
        F = random_near_identity(rng, 3, 0.2)
        R = random_rotation(rng, 3)
        assert dist_to_rotations(R @ F) == pytest.approx(dist_to_rotations(F), abs=1e-12)

    def test_brute_force_upper_bound(self):
        """dist equals the minimum over SO(d); sampled rotations can't beat it."""
        rng = np.random.default_rng(13)
        F = random_near_identity(rng, 2, 0.15)
        dist = dist_to_rotations(F)
        angles = np.linspace(0, 2 * np.pi, 20001)
        vals = [np.linalg.norm(F - rotation_from_angle(t, 2)) for t in angles]
        assert min(vals) >= dist - 1e-12
        assert min(vals) <= dist + 1e-6
