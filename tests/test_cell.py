"""Cell-problem solver tests: frozen two-phase values, oracle equivalence,
structural identities, derivative consistency."""

import gc
import tracemalloc
import warnings

import numpy as np
import pytest

import laminhom.cell as cell
from laminhom.cell import (
    ConvergenceError,
    SingularityError,
    SampleBlock,
    SolverOptions,
    assemble,
    det_identity_residual,
    fd_derivative_errors,
    rank_one_minimum,
    solve_corrector,
    solve_linearized,
    _assemble_block,
    _deform,
    _capped_inverses,
    _elementary,
    _solve_block,
)
from laminhom.energy import DomainError, EnergyDensity, FixedColumns, _matvec, rotation_from_angle
from laminhom.fields import CovarianceSpec, MaterialSample, sample_periodic_field
from laminhom.oracle import linear_solve_direct, minimize_direct
from pointwise import derivative, evaluate, quadratic_expansion_table

LAME = (1.2, 0.8)

# two cells, omega = (-1, +1), SVK with modulation 0.3, F = Id + 0.05 e1 x e2,
# solved independently at 50 digits (mean-zero ansatz, symbolic stationarity)
TWO_PHASE_P1 = np.array([0.0113742502068589635438928993445,
                         -0.000267993050883936437242277795379])
TWO_PHASE_ENERGY = 9.50092247440924504348938539967e-4
TWO_PHASE_SIGMA = np.array([0.0380954377156162440545271392290,
                            0.00348884129905023958920243560204])
TWO_PHASE_STRESS = np.array([
    [0.00339081516153236085119442491700, 0.0380954377156162440545271392290],
    [0.0379209956506637320750670174489, 0.00348884129905023958920243560204]])
TWO_PHASE_TANGENT_0101 = 0.769245831153654964036026152496  # FD, O(1e-12)


def two_phase_sample():
    return MaterialSample(values=np.array([-1.0, 1.0]), period=2.0, seed=0, index=0)


def svk2():
    return EnergyDensity("saint-venant-kirchhoff", lame=LAME, modulation=0.3, dim=2)


def nh2():
    return EnergyDensity("neo-hookean", lame=LAME, modulation=0.3, dim=2)


def shear(d, magnitude):
    F = np.eye(d)
    F[0, 1] += magnitude
    return F


def random_sample(seed, n=32, period=8.0, kind="triangle"):
    cov = CovarianceSpec(kind=kind, variance=1.0, correlation_length=1.0)
    return sample_periodic_field(cov, period=period, n=n, seed=seed, index=0)


class TestFrozenTwoPhase:
    def test_corrector(self):
        w = svk2()
        sol = solve_corrector(w, two_phase_sample(), shear(2, 0.05))
        assert np.allclose(sol.p[0], TWO_PHASE_P1, atol=1e-12, rtol=0)
        assert np.allclose(sol.p[1], -TWO_PHASE_P1, atol=1e-12, rtol=0)
        assert np.allclose(sol.sigma, TWO_PHASE_SIGMA, atol=1e-12, rtol=0)
        assert sol.stats["mean_residual"] <= 1e-14
        assert sol.stats["flux_residual"] <= 1e-11

    def test_assembled_quantities(self):
        w = svk2()
        q = assemble(w, two_phase_sample(), shear(2, 0.05), order=2)
        assert q.energy == pytest.approx(TWO_PHASE_ENERGY, rel=1e-12)
        assert np.allclose(q.stress, TWO_PHASE_STRESS, atol=1e-12, rtol=0)
        assert q.tangent[0, 1, 0, 1] == pytest.approx(TWO_PHASE_TANGENT_0101, abs=5e-10)
        # the flux column of the averaged stress is the constant flux itself
        assert np.allclose(q.stress[:, 1], q.metadata["sigma"], atol=1e-13, rtol=0)


class TestOracleEquivalence:
    @pytest.mark.parametrize("make_w", [svk2, nh2])
    def test_nonlinear(self, make_w):
        w = make_w()
        sample = random_sample(seed=11)
        F = shear(2, 0.06)
        block = SampleBlock(w, [sample], F)
        sol = solve_corrector(w, sample, F, block=block)
        direct = minimize_direct(w, sample, F)
        assert np.abs(sol.p - direct.p).max() <= 1e-8
        energy = assemble(w, sample, F, order=0, block=block).energy
        assert energy == pytest.approx(direct.energy, rel=1e-11)

    def test_linearized(self):
        w = svk2()
        sample = random_sample(seed=12)
        F = shear(2, 0.05)
        sol = solve_corrector(w, sample, F)
        G = np.array([[0.3, -0.7], [0.2, 0.4]])
        q, tau = solve_linearized(w, sample, F, sol, G)
        q_direct = linear_solve_direct(w, sample, F, sol.p, G)
        assert np.abs(q - q_direct).max() <= 1e-9
        # linearized flux is constant across cells
        Fc = _deform(F, sol.p.T)
        flux = w.tangent_apply_cells(sample.values, Fc, _deform(G, q.T))[:, 1]
        assert np.abs(flux - tau[:, None]).max() <= 1e-10


class TestStructure:
    def test_minimizer_beats_perturbations(self):
        w = svk2()
        sample = random_sample(seed=3, n=16)
        F = shear(2, 0.05)
        sol = solve_corrector(w, sample, F)
        base = w.energy_cells(sample.values, _deform(F, sol.p.T)).mean()
        rng = np.random.default_rng(0)
        for _ in range(20):
            dp = 1e-3 * rng.standard_normal(sol.p.shape)
            dp -= dp.mean(axis=0)
            perturbed = w.energy_cells(sample.values, _deform(F, (sol.p + dp).T)).mean()
            assert perturbed >= base - 1e-15

    def test_frame_indifference(self):
        w = nh2()
        sample = random_sample(seed=4, n=24)
        F = shear(2, 0.05)
        R = rotation_from_angle(0.7, 2)
        qa = assemble(w, sample, F, order=1)
        qb = assemble(w, sample, R @ F, order=1)
        assert abs(qb.energy - qa.energy) <= 1e-10 * (1.0 + abs(qa.energy))
        solA = solve_corrector(w, sample, F)
        solB = solve_corrector(w, sample, R @ F)
        assert np.abs(solB.p - solA.p @ R.T).max() <= 1e-8
        assert np.abs(qb.stress - R @ qa.stress).max() <= 1e-9

    def test_constant_sample_is_pointwise(self):
        w = svk2()
        sample = MaterialSample(np.full(8, 0.4), 4.0, 0, 0)
        F = shear(2, 0.07)
        q = assemble(w, sample, F, order=2)
        assert q.energy == pytest.approx(evaluate(w, 0.4, F), rel=1e-13)
        assert np.allclose(q.stress, derivative(w, 0.4, F, order=1), atol=1e-13)
        assert np.allclose(q.tangent, derivative(w, 0.4, F, order=2), atol=1e-12)

    def test_rotation_state_is_stress_free(self):
        w = nh2()
        sample = random_sample(seed=5, n=16)
        R = rotation_from_angle(-0.3, 2)
        block = SampleBlock(w, [sample], R)
        sol = solve_corrector(w, sample, R, block=block)
        assert np.abs(sol.p).max() <= 1e-12
        q = assemble(w, sample, R, order=1, block=block)
        assert abs(q.energy) <= 1e-15
        assert np.abs(q.stress).max() <= 1e-12

    def test_det_identity(self):
        w = svk2()
        sample = random_sample(seed=6, n=32)
        F = shear(2, 0.08)
        sol = solve_corrector(w, sample, F)
        assert det_identity_residual(sol.p, F) <= 1e-14

    def test_rank_one_positive_and_lipschitz(self):
        w = svk2()
        sample = random_sample(seed=7, n=32)
        q = assemble(w, sample, shear(2, 0.05), order=2)
        assert rank_one_minimum(q.tangent, np.random.default_rng(1)) > 0.0
        sol = solve_corrector(w, sample, shear(2, 0.05))
        assert sol.stats["lipschitz_ok"]


class TestDerivativeConsistency:
    def test_fd_stress_and_tangent(self):
        w = svk2()
        sample = random_sample(seed=8, n=16)
        report = fd_derivative_errors(w, sample, shear(2, 0.05))
        assert report["stress_rel_error"] <= 1e-6
        assert report["tangent_rel_error"] <= 1e-6

    def test_stacked_directions_match_single_calls(self):
        w = svk2()
        sample = random_sample(seed=15, n=16)
        F = shear(2, 0.05)
        sol = solve_corrector(w, sample, F)
        rng = np.random.default_rng(3)
        G = rng.standard_normal((3, 2, 2))
        q, tau = solve_linearized(w, sample, F, sol, G)
        assert q.shape == (3, 16, 2) and tau.shape == (3, 2)
        for a in range(3):
            qa, taua = solve_linearized(w, sample, F, sol, G[a])
            np.testing.assert_allclose(q[a], qa, rtol=0, atol=1e-15 * np.abs(qa).max())
            np.testing.assert_allclose(tau[a], taua, rtol=0, atol=1e-15 * np.abs(taua).max())

    def test_one_acoustic_inverse_per_assembly(self, monkeypatch):
        # the acoustic tensors are read off the moduli and inverted once for
        # all d^2 directions; the separate acoustic kernel is not called
        w = svk2()
        sample = random_sample(seed=16, n=16)
        F = shear(2, 0.05)
        block = SampleBlock(w, [sample], F)
        solve_corrector(w, sample, F, block=block)
        calls = []
        original = cell._capped_inverses

        def counted(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(cell, "_capped_inverses", counted)
        monkeypatch.setattr(EnergyDensity, "acoustic_cells", None)
        assemble(w, sample, F, order=2, block=block)
        assert len(calls) == 1

    @pytest.mark.parametrize("family", ["saint-venant-kirchhoff", "neo-hookean"])
    def test_assembly_goes_through_kernel_patch_points(self, monkeypatch, family):
        # perfbench/run.py times the kernels by wrapping these EnergyDensity
        # class attributes; kernels moved onto a subclass would bypass it
        w = EnergyDensity(family, lame=LAME, modulation=0.3, dim=2)
        calls = {"stress_cells": 0, "moduli_cells": 0, "acoustic_cells": 0}
        for name in calls:
            def counted(self, *args, _name=name, _original=getattr(EnergyDensity, name)):
                calls[_name] += 1
                return _original(self, *args)
            monkeypatch.setattr(EnergyDensity, name, counted)
        assemble(w, random_sample(seed=17, n=16), shear(2, 0.05), order=2)
        # the acoustic tensors come from the moduli
        assert calls["stress_cells"] > 0 and calls["moduli_cells"] > 0
        assert calls["acoustic_cells"] == 0


class TestColumnNewton:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_newton_step_is_minus_solve(self, dim):
        # a cell's step M^{-1} (sigma - flux) goes through the capped inverses
        rng = np.random.default_rng(18)
        M = rng.standard_normal((10, dim, dim)) + 3.0 * np.eye(dim)
        r = rng.standard_normal((10, dim))
        Minv, errors = _capped_inverses(np.moveaxis(M, 0, -1), 1)
        assert errors == [None]
        step = _matvec(Minv, -r.T)
        np.testing.assert_allclose(step.T, -np.linalg.solve(M, r[..., None])[..., 0],
                                   rtol=1e-13, atol=1e-15)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("n", [1, 7, 64])
    def test_broadcast_residual_bits(self, dim, n):
        # three samples of n cells; a -0.0 column and a NaN column in x, a
        # -0.0 and a NaN sample value in s
        rng = np.random.default_rng(26)
        x = rng.standard_normal((dim, 3 * n))
        s = rng.standard_normal((dim, 3))
        x[:, 0] = -0.0
        x[:, -1] = np.nan
        s[0, 1] = -0.0
        s[1, 2] = np.nan
        expected = x - cell._by_cell(s, n)
        got = cell._residual(x, s)
        assert got.shape == expected.shape
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("N", [1, 7, 64])
    def test_in_place_norms_bits(self, dim, N):
        rng = np.random.default_rng(27)
        x = rng.standard_normal((dim, 3, N)) * np.logspace(-8, 8, dim)[:, None, None]
        x[:, 0, 0] = -0.0
        x[0, -1, -1] = np.nan
        for xs in (x, x[:, 0], x[:, :, 0]):
            expected = np.sqrt((xs * xs).sum(axis=0))
            got = cell._norms(xs)
            assert got.shape == expected.shape
            assert np.array_equal(got.view(np.int64), expected.view(np.int64))

    def test_neo_hookean_candidates_outside_domain_are_masked(self):
        # one soft cell among stiff ones under compression: a full Newton step
        # takes J = det(F + p x e_2) of the soft cell below zero, where the
        # density is undefined
        w = EnergyDensity("neo-hookean", lame=LAME, modulation=0.85, dim=2)
        F = np.diag([1.0, 0.85])
        cols = FixedColumns.of(F)
        omega = np.full(32, 3.0)
        omega[0] = -3.0
        sample = MaterialSample(omega, 16.0, 0, 0)
        column = w.flux_cells
        outside = []

        def watched(om, cols_, f, acoustic=False):
            outside.append(int((cols.normal @ f <= 0.0).sum()))
            return column(om, cols_, f, acoustic)

        w.flux_cells = watched
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve_corrector(w, sample, F)
        assert sum(outside) > 0
        assert sol.stats["backtracks"] > 0
        assert (cols.normal @ (F[:, 1:] + sol.p.T) > 0.0).all()
        assert sol.stats["flux_residual"] <= 1e-12 * (1.0 + np.linalg.norm(sol.sigma))


class TestAssembledRecord:
    def test_assembled_record_is_slotted(self):
        q = assemble(svk2(), two_phase_sample(), shear(2, 0.05), order=0)
        assert not hasattr(q, "__dict__")
        assert set(q.metadata) == {"sigma", "dist_F", "outer_iterations",
                                   "flux_residual", "mean_residual", "lipschitz_ok",
                                   "tol_inner", "tol_outer"}


class TestQuadraticExpansion:
    def test_remainder_ratio_scales_linearly(self):
        # needs a generic direction: for pure (1,2) shear the cellwise cubic
        # vanishes and the remainder is quartic
        w = svk2()
        sample = random_sample(seed=14, n=16)
        G = np.array([[0.6, 0.8], [0.3, -0.2]])
        G /= np.linalg.norm(G)
        rows = quadratic_expansion_table(w, sample, G, scales=(0.01, 0.04))
        r_small = rows[0][1]
        r_large = rows[1][1]
        assert r_small > 0.0
        assert 2.5 <= r_large / r_small <= 6.0


class TestErrors:
    def test_far_deformation_rejected(self):
        w = svk2()
        with pytest.raises(DomainError):
            solve_corrector(w, two_phase_sample(), 1.5 * np.eye(2))

    @pytest.mark.parametrize("order", [-1, 3, 5])
    def test_bad_order(self, order):
        w = svk2()
        with pytest.raises(ValueError):
            assemble(w, two_phase_sample(), shear(2, 0.05), order=order)

    @pytest.mark.parametrize("bad", [0.0, np.nan])
    def test_singular_acoustic_tensor(self, monkeypatch, bad):
        w = svk2()
        sample = two_phase_sample()
        F = shear(2, 0.05)
        sol = solve_corrector(w, sample, F)
        # the linearized solve reads its acoustic tensors off the moduli
        monkeypatch.setattr(w, "moduli_cells",
                            lambda omega, Fc: np.full((2, 2, 2, 2, len(omega)), bad))
        with pytest.raises(SingularityError):
            solve_linearized(w, sample, F, sol, np.eye(2))
        # the first Newton step of a fresh solve needs M^{-1} at once; its
        # acoustic tensors come from the column-form kernel
        column = w.flux_cells

        def broken(omega, cols, f, acoustic=False):
            flux, M = column(omega, cols, f, acoustic)
            return flux, (None if M is None else np.full_like(M, bad))

        monkeypatch.setattr(w, "flux_cells", broken)
        with pytest.raises(SingularityError):
            solve_corrector(w, sample, F)

    def test_inner_budget_exhausted(self, monkeypatch):
        # one Newton step from p = 0 leaves the flux residuals above tol_inner
        w = svk2()
        monkeypatch.setattr(cell, "MAX_STEPS", 1)
        with pytest.raises(ConvergenceError):
            solve_corrector(w, two_phase_sample(), shear(2, 0.05))


def contrast_block(family, dim, count=16):
    """High-contrast samples (modulation 0.85, variance 6): 16 periods of 32 cells."""
    w = EnergyDensity(family, lame=LAME, modulation=0.85, dim=dim)
    cov = CovarianceSpec("triangle", 6.0, 4.0)
    return w, [sample_periodic_field(cov, 16.0, 32, 7, i) for i in range(count)]


def assemble_in_block(w, samples, F, order):
    """assemble of every sample inside one SampleBlock: its quantities or its error."""
    block = SampleBlock(w, samples, F)
    out = []
    for sample in samples:
        try:
            out.append(assemble(w, sample, F, order=order, block=block))
        except (ConvergenceError, SingularityError) as exc:
            out.append(exc)
    return out


def stretch(d, shear_, normal):
    F = np.eye(d)
    F[0, d - 1] += shear_
    F[d - 1, 0] += shear_
    F[d - 1, d - 1] += normal
    return F


# deformations at which every sample of contrast_block converges after backtracking
BACKTRACKING = {"saint-venant-kirchhoff": (-0.08, -0.04), "neo-hookean": (0.0, -0.12)}


def same_quantities(a, b):
    return (a.energy == b.energy and np.array_equal(a.stress, b.stress)
            and (a.tangent is None) == (b.tangent is None)
            and (a.tangent is None or np.array_equal(a.tangent, b.tangent))
            and a.metadata.keys() == b.metadata.keys()
            and all(np.array_equal(a.metadata[k], b.metadata[k]) for k in a.metadata))


class TestBlocks:
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("family", ["saint-venant-kirchhoff", "neo-hookean"])
    def test_block_size_does_not_change_bits(self, family, dim):
        w, samples = contrast_block(family, dim)
        omega = np.stack([s.values for s in samples])
        F = stretch(dim, *BACKTRACKING[family])
        opts = SolverOptions()
        whole = _solve_block(w, omega, F, opts)
        assert whole.errors == [None] * len(omega)
        assert whole.stats["backtracks"].sum() > 0
        assert len(set(whole.stats["inner_iterations"])) > 1
        q_whole = assemble_in_block(w, samples, F, order=2)
        for size in (1, 7):
            for lo in range(0, len(omega), size):
                part = slice(lo, lo + size)
                block = _solve_block(w, omega[part], F, opts)
                assert np.array_equal(block.p, whole.p[:, part])
                for key, column in block.stats.items():
                    assert np.array_equal(column, whole.stats[key][part]), key
                for q, expected in zip(assemble_in_block(w, samples[part], F, order=2),
                                       q_whole[part]):
                    assert same_quantities(q, expected)

    def test_block_member_reads_its_own_row(self):
        w, samples = contrast_block("saint-venant-kirchhoff", 2, count=3)
        F = stretch(2, *BACKTRACKING["saint-venant-kirchhoff"])
        block = SampleBlock(w, samples, F)
        for sample in reversed(samples):
            sol = solve_corrector(w, sample, F, block=block)
            alone = solve_corrector(w, sample, F)
            assert np.array_equal(sol.p, alone.p) and np.array_equal(sol.sigma, alone.sigma)
            assert sol.stats == alone.stats
            assert same_quantities(assemble(w, sample, F, order=2, block=block),
                                   assemble(w, sample, F, order=2))
        # a block answers only for its own samples, material, F and options
        stranger = MaterialSample(samples[0].values.copy(), 16.0, 7, 0)
        for args in ((w, stranger, F, SolverOptions()), (w, samples[0], np.eye(2), None),
                     (w, samples[0], F, SolverOptions(tol_inner=1e-10)),
                     (EnergyDensity("saint-venant-kirchhoff", lame=LAME, modulation=0.85),
                      samples[0], F, None)):
            with pytest.raises(ValueError, match="sample block"):
                solve_corrector(*args, block=block)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_failing_samples_leave_the_others_as_solved_alone(self, dim):
        # the corrector of sample 14 leaves the admissible set |F^T F - Id| <= 3
        w, samples = contrast_block("neo-hookean", dim)
        F = stretch(dim, 0.1, 0.1)
        inside = assemble_in_block(w, samples, F, order=1)
        failed = [s for s, q in enumerate(inside) if isinstance(q, Exception)]
        assert 0 < len(failed) < len(samples)
        for sample, q in zip(samples, inside):
            if isinstance(q, Exception):
                with pytest.raises(type(q)) as alone:
                    assemble(w, sample, F, order=1)
                assert str(alone.value) == str(q)
            else:
                assert same_quantities(q, assemble(w, sample, F, order=1))

    def test_forced_failure_stays_in_its_sample(self, monkeypatch):
        w, samples = contrast_block("saint-venant-kirchhoff", 2, count=6)
        F = stretch(2, *BACKTRACKING["saint-venant-kirchhoff"])
        expected = assemble_in_block(w, samples, F, order=2)
        column = w.flux_cells
        target = samples[4].values

        def broken(om, cols, f, acoustic=False):
            # the acoustic tensors of sample 4's cells are NaN
            flux, M = column(om, cols, f, acoustic)
            return flux, (None if M is None else np.where(np.isin(om, target), np.nan, M))

        monkeypatch.setattr(w, "flux_cells", broken)
        inside = assemble_in_block(w, samples, F, order=2)
        with pytest.raises(SingularityError) as alone:
            assemble(w, samples[4], F, order=2)
        assert isinstance(inside[4], SingularityError) and str(inside[4]) == str(alone.value)
        for s in (0, 1, 2, 3, 5):
            assert same_quantities(inside[s], expected[s])


class TestLineSearchWork:
    # contrast_block cases with backtracking, and the flux cells their block
    # evaluated when every halving evaluated every cell of the block again
    CASES = [
        pytest.param("saint-venant-kirchhoff", 2, (-0.1, -0.1), 93_760, id="svk-2-compressed"),
        pytest.param("saint-venant-kirchhoff", 3, (-0.1, -0.1), 99_008, id="svk-3-compressed"),
        pytest.param("saint-venant-kirchhoff", 2, BACKTRACKING["saint-venant-kirchhoff"], 10_464,
                     id="svk-2-backtracking"),
        pytest.param("neo-hookean", 2, (0.1, 0.1), 25_536, id="nh-2-stretched"),
    ]

    @pytest.mark.parametrize("family,dim,deformation,whole_block", CASES)
    def test_halvings_evaluate_only_the_waiting_cells(self, monkeypatch, family, dim,
                                                      deformation, whole_block):
        w, samples = contrast_block(family, dim)
        column = w.flux_cells
        evaluated = []

        def counted(om, cols, f, acoustic=False):
            evaluated.append(np.shape(f)[-1])
            return column(om, cols, f, acoustic)

        monkeypatch.setattr(w, "flux_cells", counted)
        omega = np.stack([s.values for s in samples])
        block = _solve_block(w, omega, stretch(dim, *deformation), SolverOptions())
        assert block.stats["backtracks"].sum() > 0
        # p = 0 is one column for all cells; halvings evaluate single cells
        assert evaluated[0] == 1 and any(m % 32 for m in evaluated[1:])
        assert sum(evaluated) <= whole_block // 2

    @pytest.mark.parametrize("family,dim,deformation,whole_block", CASES)
    def test_block_members_match_solo_solves(self, family, dim, deformation, whole_block):
        w, samples = contrast_block(family, dim)
        F = stretch(dim, *deformation)
        for sample, q in zip(samples, assemble_in_block(w, samples, F, order=2)):
            if isinstance(q, Exception):
                with pytest.raises(type(q)) as alone:
                    assemble(w, sample, F, order=2)
                assert str(alone.value) == str(q)
            else:
                assert same_quantities(q, assemble(w, sample, F, order=2))


def symmetric_form(w, sample, F, sol):
    """avg_i D2W_i[E_a + q_a x e_d, E_b + q_b x e_d], symmetrized, over the
    elementary directions E_a with their linearized correctors q_a."""
    d = w.dim
    E = np.stack([_elementary(d, j, l) for j in range(d) for l in range(d)])
    q, _ = solve_linearized(w, sample, F, sol, E)
    A = np.stack([_deform(Ea, qa.T) for Ea, qa in zip(E, q)])
    T = w.tangent_apply_cells(sample.values, _deform(F, sol.p.T), A)
    mat = np.einsum("ajln,bjln->ab", T, A) / len(sample.values)
    return (0.5 * (mat + mat.T)).reshape(d, d, d, d)


class TestReducedTangent:
    """D2W_L = avg_i D2W_i[G, H] + avg_i b_G . q_H, from one moduli evaluation."""

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("family", ["saint-venant-kirchhoff", "neo-hookean"])
    def test_matches_the_symmetric_form(self, family, dim):
        w, samples = contrast_block(family, dim, count=6)
        F = stretch(dim, *BACKTRACKING[family])
        for sample, in_block in zip(samples, assemble_in_block(w, samples, F, order=2)):
            block = SampleBlock(w, [sample], F)
            sol = solve_corrector(w, sample, F, block=block)
            given_base = assemble(w, sample, F, order=2, block=block)
            expected = symmetric_form(w, sample, F, sol)
            for q in (in_block, given_base):
                assert np.abs(q.tangent - expected).max() <= 1e-12 * np.abs(expected).max()

    @pytest.mark.parametrize("family", ["saint-venant-kirchhoff", "neo-hookean"])
    def test_one_moduli_evaluation_per_block(self, monkeypatch, family):
        w, samples = contrast_block(family, 2, count=4)
        calls = {"moduli_cells": 0, "tangent_apply_cells": 0}
        for name in calls:
            def counted(self, *args, _name=name, _original=getattr(EnergyDensity, name)):
                calls[_name] += 1
                return _original(self, *args)
            monkeypatch.setattr(EnergyDensity, name, counted)
        quantities = assemble_in_block(w, samples, stretch(2, *BACKTRACKING[family]), order=2)
        assert all(q.tangent is not None for q in quantities)
        assert calls == {"moduli_cells": 1, "tangent_apply_cells": 0}


class TestLaminateTangent:
    """The closed form of D2W_L: the normal block is the harmonic mean
    avg(M^{-1})^{-1} and the mixed block the linearized fluxes tau."""

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("family", ["saint-venant-kirchhoff", "neo-hookean"])
    def test_normal_and_mixed_blocks(self, family, dim):
        w, samples = contrast_block(family, dim, count=6)
        F = stretch(dim, *BACKTRACKING[family])
        t = dim - 1
        E = np.stack([_elementary(dim, j, l) for j in range(dim) for l in range(dim)])
        for sample, q in zip(samples, assemble_in_block(w, samples, F, order=2)):
            sol = solve_corrector(w, sample, F)
            M = np.moveaxis(w.acoustic_cells(sample.values, _deform(F, sol.p.T)), -1, 0)
            harmonic = np.linalg.inv(np.linalg.inv(M).mean(axis=0))
            normal = q.tangent[:, t, :, t]
            assert np.abs(normal - harmonic).max() <= 1e-13 * np.abs(harmonic).max()
            _, tau = solve_linearized(w, sample, F, sol, E)
            mixed = q.tangent[:, :, :, t].reshape(dim * dim, dim)
            assert np.abs(mixed - tau).max() <= 1e-13 * np.abs(tau).max()

    def test_peak_memory_of_one_block(self):
        # 16 samples of 512 cells, SVK at d = 2; with per-cell correctors q it peaked at 4.0 MiB
        w = svk2()
        cov = CovarianceSpec("triangle", 1.0, 1.0)
        omega = np.stack([sample_periodic_field(cov, 64.0, 512, 1, i).values for i in range(16)])
        F = shear(2, 0.05)
        p = _solve_block(w, omega, F, SolverOptions()).p
        _assemble_block(w, omega, F, p, 2)
        gc.collect()
        tracemalloc.start()
        try:
            _assemble_block(w, omega, F, p, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20
