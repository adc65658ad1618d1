"""Direct nodal-route tests: discrete calculus, stationarity, and the
harmonic-mean identity for the flux-column tangent block."""

import numpy as np
import pytest

from laminhom.cell import SampleBlock, _deform, assemble, solve_corrector
from laminhom.energy import EnergyDensity
from laminhom.fields import CovarianceSpec, sample_periodic_field
from laminhom.oracle import DiscreteEnergyProblem, linear_solve_direct, minimize_direct

LAME = (1.2, 0.8)


def make_sample(seed, n=12, period=8.0):
    cov = CovarianceSpec(kind="triangle", variance=1.0, correlation_length=2.0)
    return sample_periodic_field(cov, period=period, n=n, seed=seed, index=0)


def svk2():
    return EnergyDensity("saint-venant-kirchhoff", lame=LAME, modulation=0.3, dim=2)


def shear(magnitude):
    F = np.eye(2)
    F[0, 1] += magnitude
    return F


class TestDiscreteProblem:
    def test_gradient_matches_fd(self):
        w = svk2()
        prob = DiscreteEnergyProblem(w, make_sample(seed=1, n=8), shear(0.05))
        rng = np.random.default_rng(2)
        u = 0.01 * rng.standard_normal((prob.n - 1) * prob.d)
        g = prob.gradient(u)
        step = 1e-6
        for _ in range(5):
            v = rng.standard_normal(u.shape)
            v /= np.linalg.norm(v)
            fd = (prob.energy(u + step * v) - prob.energy(u - step * v)) / (2 * step)
            assert fd == pytest.approx(float(g @ v), rel=1e-5, abs=1e-12)

    def test_hessian_symmetric_and_matches_fd(self):
        w = svk2()
        prob = DiscreteEnergyProblem(w, make_sample(seed=2, n=8), shear(0.05))
        rng = np.random.default_rng(3)
        u = 0.01 * rng.standard_normal((prob.n - 1) * prob.d)
        K = prob.hessian(u)
        assert np.abs(K - K.T).max() <= 1e-14
        step = 1e-6
        v = rng.standard_normal(u.shape)
        fd = (prob.gradient(u + step * v) - prob.gradient(u - step * v)) / (2 * step)
        assert np.abs(K @ v - fd).max() <= 1e-5 * (1.0 + np.abs(K @ v).max())

    def test_cell_gradients_mean_zero(self):
        w = svk2()
        prob = DiscreteEnergyProblem(w, make_sample(seed=3, n=10), shear(0.05))
        rng = np.random.default_rng(4)
        phi = prob.phi_from(rng.standard_normal((prob.n - 1) * prob.d))
        p = prob.cell_gradients(phi)
        assert np.abs(p.mean(axis=0)).max() <= 1e-13 * (1.0 + np.abs(p).max())


class TestMinimizeDirect:
    def test_stationary_and_flux_constant(self):
        w = svk2()
        sample = make_sample(seed=5, n=16)
        F = shear(0.06)
        sol = minimize_direct(w, sample, F)
        assert sol.gradient_norm <= 1e-10
        flux = w.stress_cells(sample.values, _deform(F, sol.p.T))[:, 1]
        sigma = flux.mean(axis=-1, keepdims=True)
        assert np.abs(flux - sigma).max() <= 1e-9 * (1.0 + np.abs(sigma).max())

    def test_energy_not_above_flux_route(self):
        # both routes hit the same minimum; energies agree to solver precision
        w = svk2()
        sample = make_sample(seed=6, n=16)
        F = shear(0.05)
        direct = minimize_direct(w, sample, F)
        flux_route = assemble(w, sample, F, order=0).energy
        assert direct.energy == pytest.approx(flux_route, rel=1e-11)


class TestHarmonicMeanIdentity:
    def test_flux_column_block(self):
        # contracted with pairs e_j x e_d, e_k x e_d the effective tangent is
        # the harmonic mean of the per-cell acoustic tensors
        w = svk2()
        sample = make_sample(seed=7, n=16)
        F = shear(0.05)
        block = SampleBlock(w, [sample], F)
        base = solve_corrector(w, sample, F, block=block)
        q = assemble(w, sample, F, order=2, block=block)
        M = w.acoustic_cells(sample.values, _deform(F, base.p.T))
        harmonic = np.linalg.inv(np.linalg.inv(np.moveaxis(M, -1, 0)).mean(axis=0))
        block = q.tangent[:, 1, :, 1]
        assert np.abs(block - harmonic).max() <= 1e-11 * (1.0 + np.abs(harmonic).max())

    def test_linear_solve_mean_zero(self):
        w = svk2()
        sample = make_sample(seed=8, n=12)
        F = shear(0.05)
        base = solve_corrector(w, sample, F)
        G = np.array([[0.3, -0.2], [0.7, 0.1]])
        qd = linear_solve_direct(w, sample, F, base.p, G)
        assert np.abs(qd.mean(axis=0)).max() <= 1e-13 * (1.0 + np.abs(qd).max())
