"""Ensemble orchestration and estimator tests.

Real (small) ensembles cover determinism, worker invariance and the
degenerate cases; hand-built runs with synthetic sample values cover the
estimator algebra where solver output would only add noise.
"""

import dataclasses
import gc
import multiprocessing
import os
import pickle
import platform
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import laminhom.cell as cell
import laminhom.stats as stats
from laminhom.cell import SolverOptions, assemble
from laminhom.energy import EnergyDensity
from laminhom.fields import CovarianceSpec, sample_periodic_field
from laminhom.stats import (
    BOOTSTRAP_RESAMPLES,
    DegenerateFitError,
    EnsembleError,
    EnsemblePlan,
    EnsembleRun,
    SampleColumns,
    StatisticsError,
    balanced_count,
    cells_for,
    decompose_error,
    envelope,
    fit_envelope_scale,
    fit_rate,
    fluctuation_estimate,
    mc_total_error,
    run_ensemble,
    systematic_estimate,
    McRow,
    _bootstrap_sds,
)


def material():
    return EnergyDensity("saint-venant-kirchhoff", lame=(1.2, 0.8), modulation=0.3, dim=2)


def make_plan(lengths, count, seed=7, order=0, workers=1, variance=1.0, magnitude=0.05):
    F = np.eye(2)
    F[0, 1] += magnitude
    F[1, 0] += magnitude
    return EnsemblePlan(material=material(),
                        covariance=CovarianceSpec("triangle", variance, 1.0),
                        F=F, spacing=0.25, counts={L: count for L in lengths},
                        seed=seed, order=order, workers=workers)


def fake_run(values_by_L, seed=0):
    """EnsembleRun around plain scalar sample values (order-0 estimators)."""
    samples = {L: SampleColumns(energy=np.array(vals, dtype=float), stress=None, tangent=None,
                                metadata={})
               for L, vals in values_by_L.items()}
    lengths = tuple(values_by_L)
    return EnsembleRun(lengths=lengths,
                       counts={L: len(values_by_L[L]) for L in lengths},
                       F=np.eye(2), order=0, seed=seed, samples=samples,
                       failures={L: [] for L in lengths}, timing={})


def fail_sample(monkeypatch, period, index):
    """Give sample `index` at `period` a NaN field, so that its solve fails."""
    draw = stats.sample_periodic_field

    def one_nan_field(cov, L, n, seed, i):
        sample = draw(cov, L, n, seed, i)
        if (L, i) == (period, index):
            return dataclasses.replace(sample, values=np.full(n, np.nan))
        return sample

    monkeypatch.setattr(stats, "sample_periodic_field", one_nan_field)


class TestRunEnsemble:
    def test_deterministic_rerun(self):
        plan = make_plan([8, 16], count=4)
        a = run_ensemble(plan)
        b = run_ensemble(plan)
        for L in (8, 16):
            assert np.array_equal(a.values(L, 0), b.values(L, 0))
        assert a.failures == b.failures == {8: [], 16: []}

    def test_worker_count_does_not_change_results(self):
        serial = run_ensemble(make_plan([8, 16], count=6, order=1))
        pooled = run_ensemble(make_plan([8, 16], count=6, order=1, workers=2))
        for L in (8, 16):
            assert np.array_equal(serial.values(L, 1), pooled.values(L, 1))

    def test_zero_variance_all_samples_identical(self):
        run = run_ensemble(make_plan([8], count=3, order=2, variance=0.0))
        vals = run.values(8, 2)
        assert np.array_equal(vals[0], vals[1])
        assert np.array_equal(vals[0], vals[2])

    def test_failure_budget(self, monkeypatch):
        monkeypatch.setattr(cell, "MAX_STEPS", 1)
        with pytest.raises(EnsembleError):
            run_ensemble(make_plan([8], count=4))

    def test_failure_budget_is_per_period(self, monkeypatch):
        fail_sample(monkeypatch, 8, 3)
        plan = dataclasses.replace(make_plan([8, 16], count=1), counts={8: 50, 16: 150})
        # 1 failure is 2% of L = 8's 50 samples, though 0.5% of the run's 200
        with pytest.raises(EnsembleError, match="1/50 samples failed at L = 8 "):
            run_ensemble(plan)

    def test_interrupt_keeps_the_completed_periods(self, monkeypatch, interrupt_at):
        fail_sample(monkeypatch, 8, 3)
        monkeypatch.setattr(stats, "BLOCK_CELLS", 40 * 32)   # 3 blocks at L = 8
        plan = make_plan([8, 12, 16], count=101)
        full = run_ensemble(plan)
        interrupt_at(16)
        run = run_ensemble(plan)
        assert run.lengths == (8, 12)
        assert set(run.counts) == set(run.samples) == set(run.failures) == set(run.timing) \
            == {8, 12}
        assert [index for index, _ in run.failures[8]] == [3] and run.failures[12] == []
        assert run.count(8) == 100 and run.count(12) == 101
        for L in (8, 12):
            assert np.array_equal(run.values(L, 0), full.values(L, 0))

    def test_interrupt_in_the_first_period_propagates(self, interrupt_at):
        interrupt_at(8)
        with pytest.raises(KeyboardInterrupt):
            run_ensemble(make_plan([8, 12, 16], count=5))

    def test_one_draw_assembly_and_solve_per_sample(self, monkeypatch):
        # perfbench/run.py traces these module attributes and counts one call
        # of each per sample; a refactor that went round them would break its
        # contract line
        calls = {}
        for owner, name in ((stats, "sample_periodic_field"), (stats, "assemble"),
                            (cell, "solve_corrector")):
            def counted(*args, _name=name, _original=getattr(owner, name), **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _original(*args, **kwargs)
            monkeypatch.setattr(owner, name, counted)
        run = run_ensemble(make_plan([8, 16], count=5, order=2))
        assert run.count(8) + run.count(16) == 10
        assert calls == {"sample_periodic_field": 10, "assemble": 10, "solve_corrector": 10}

    def test_order_guard(self):
        run = run_ensemble(make_plan([8], count=2, order=1))
        with pytest.raises(StatisticsError):
            run.values(8, 2)

    @pytest.mark.parametrize("order", [-1, -3])
    def test_negative_order_is_rejected(self, order):
        # a negative order must not index back to the highest order the run holds
        run = run_ensemble(make_plan([8, 16], count=2, order=2))
        with pytest.raises(StatisticsError):
            run.values(8, order)
        with pytest.raises(StatisticsError):
            systematic_estimate(run, order=order)

    def test_periods_are_the_keys_of_counts(self):
        # each period once, in the order of counts, with counts[L] distinct samples
        plan = dataclasses.replace(make_plan([8], count=1), counts={16.0: 2, 8.0: 3})
        run = run_ensemble(plan)
        assert run.lengths == (16.0, 8.0) and run.counts == {16.0: 2, 8.0: 3}
        for L, count in plan.counts.items():
            assert run.count(L) == count
            assert list(run.samples[L].metadata["index"]) == list(range(count))

    def test_split_seed_consistency(self):
        ga = run_ensemble(make_plan([16], count=96, seed=100))
        gb = run_ensemble(make_plan([16], count=96, seed=200))
        va, vb = ga.values(16, 0), gb.values(16, 0)
        se = np.sqrt(va.var(ddof=1) / len(va) + vb.var(ddof=1) / len(vb))
        assert abs(va.mean() - vb.mean()) <= 3.0 * se

    def test_sample_reproducible_from_seed_and_index(self):
        plan = make_plan([8], count=3, order=0)
        run = run_ensemble(plan)
        n = cells_for(8, plan.spacing)
        sample = sample_periodic_field(plan.covariance, 8, n, plan.seed, 1)
        redo = assemble(plan.material, sample, plan.F, order=0)
        assert redo.energy == run.samples[8][1].energy
        assert run.samples[8][1].metadata["index"] == 1

    @pytest.mark.parametrize("workers", [1, 2])
    def test_samples_share_one_read_only_F(self, workers):
        plan = make_plan([8, 16], count=3, order=0, workers=workers)
        run = run_ensemble(plan)
        qs = [*run.samples[8], *run.samples[16]]
        assert not run.F.flags.writeable
        assert np.array_equal(run.F, plan.F) and plan.F.flags.writeable
        assert all("seed" not in q.metadata for q in qs)

    @pytest.mark.parametrize("samples_per_block", [1, 7, None])
    def test_block_size_does_not_change_results(self, monkeypatch, samples_per_block):
        plan = make_plan([8, 16], count=9, order=2, variance=4.0)
        reference = run_ensemble(plan)
        if samples_per_block is not None:
            # blocks of at most samples_per_block samples at L = 8 (32 cells)
            monkeypatch.setattr(stats, "BLOCK_CELLS", 32 * samples_per_block)
        run = run_ensemble(plan)
        for L in (8, 16):
            a, b = run.samples[L], reference.samples[L]
            for name in ("energy", "stress", "tangent"):
                assert np.array_equal(getattr(a, name), getattr(b, name)), name
            for key in b.metadata:
                assert np.array_equal(a.metadata[key], b.metadata[key]), key

    def test_record_contract(self):
        run = run_ensemble(make_plan([8], count=5, order=2))
        columns = run.samples[8]
        q = columns[2]
        assert set(q.metadata) == {"sigma", "dist_F", "outer_iterations",
                                   "flux_residual", "mean_residual", "lipschitz_ok",
                                   "tol_inner", "tol_outer", "index"}
        assert q.metadata["index"] == 2
        assert q.energy == run.values(8, 0)[2, 0]
        assert np.array_equal(q.tangent.reshape(-1), run.values(8, 2)[2])
        assert q.stress.shape == (2, 2)
        assert not run.values(8, 1).flags.writeable
        assert [r.metadata["index"] for r in columns[1:4]] == [1, 2, 3]
        q.metadata["flux_residual"] = 1e-6
        assert run.samples[8][2].metadata["flux_residual"] == 1e-6
        assert columns.metadata["flux_residual"][2] == 1e-6
        with pytest.raises(KeyError):
            q.metadata["unknown"] = 1.0
        copy = dataclasses.replace(run, counts=dict(run.counts), samples=dict(run.samples),
                                   failures=dict(run.failures), timing=dict(run.timing))
        assert copy.samples[8][2].metadata["flux_residual"] == 1e-6
        assert np.array_equal(copy.values(8, 2), run.values(8, 2))
        thawed = pickle.loads(pickle.dumps(run))
        assert np.array_equal(thawed.values(8, 1), run.values(8, 1))

    def test_metadata_columns_are_compact(self):
        # blocks of 2 samples solved in a pool: the columns join unpickled parts
        run = run_ensemble(make_plan([8], count=5, order=0, workers=2))
        columns = run.samples[8]
        for key in cell.RUN_CONSTANTS:
            assert isinstance(columns.metadata[key], float)
            assert columns[4].metadata[key] == columns[0].metadata[key] == columns.metadata[key]
            with pytest.raises(TypeError):
                columns[0].metadata[key] = 1.0
        for key in ("outer_iterations", "index"):
            assert columns.metadata[key].dtype == np.uint8
        assert [q.metadata["index"] for q in columns] == [0, 1, 2, 3, 4]
        assert all(sys.intern(key) is key for key in columns.metadata)

    def test_retained_bytes_per_order0_sample(self):
        plan = make_plan([8], count=512, order=0)
        run_ensemble(plan)          # first-call allocations do not count
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            run = run_ensemble(plan)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert run.count(8) == 512
        assert retained / 512 <= 200

    def test_one_percent_of_failures_stops_the_pool_early(self, monkeypatch, tmp_path):
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("the patched field draw reaches pool workers only by fork")
        draw = stats.sample_periodic_field

        def marked(cov, period, n, seed, index):
            # sample 0 gets a NaN field and fails at once; the other blocks are slow
            (tmp_path / f"block{index // 5}").touch()
            sample = draw(cov, period, n, seed, index)
            if index == 0:
                return dataclasses.replace(sample, values=np.full(n, np.nan))
            time.sleep(0.04)
            return sample

        monkeypatch.setattr(stats, "sample_periodic_field", marked)
        # blocks of 5 samples (32 cells each at L = 8)
        monkeypatch.setattr(stats, "BLOCK_CELLS", 5 * 32)
        with pytest.raises(EnsembleError, match="1/100 samples failed"):
            run_ensemble(make_plan([8], count=100, workers=2))
        blocks = stats._blocks(100, 32, 2)
        assert [len(b) for b in blocks] == [5] * 20
        assert len(list(tmp_path.iterdir())) < len(blocks)

    def test_spacing_must_divide_period(self):
        with pytest.raises(ValueError):
            cells_for(10.0, 0.3)
        assert cells_for(8.0, 0.25) == 32


# a second order-0 ensemble of four full 8192-cell SVK blocks at d = 2, in a
# fresh interpreter whose malloc thresholds no other test has moved
FAULTS_SCRIPT = """
import resource
import numpy as np
from laminhom import stats
from laminhom.energy import EnergyDensity
from laminhom.fields import CovarianceSpec
plan = stats.EnsemblePlan(
    material=EnergyDensity("svk", (1.2, 0.8), 0.3, 2),
    covariance=CovarianceSpec("triangle", 1.0, 1.0), F=np.array([[1.0, 0.05], [0.05, 1.0]]),
    spacing=0.125, counts={64.0: 4 * stats.BLOCK_CELLS // 512}, seed=3, order=0)
stats.run_ensemble(plan)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
stats.run_ensemble(plan)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                    reason="the heap hint acts through glibc's dynamic malloc thresholds")
def test_newton_steps_keep_their_heap():
    # without the heap hint each Newton step returned its temporaries to the
    # kernel and faulted them in again: about 300 minor faults per block
    src = str(Path(stats.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", FAULTS_SCRIPT], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    assert int(done.stdout) < 100


class TestHighContrast:
    """Modulation 0.95, where a nested Newton started from the mean flux failed
    49 to 50 of these 50 samples in every setting ("inner line search
    exhausted").  The seed is fixed, not chosen."""

    @pytest.mark.parametrize("variance", [6.0, 12.0])
    @pytest.mark.parametrize("family", ["saint-venant-kirchhoff", "neo-hookean"])
    def test_no_sample_fails(self, family, variance):
        F = np.array([[1.0, 0.05], [0.05, 1.0]])
        plan = EnsemblePlan(
            material=EnergyDensity(family, lame=(1.2, 0.8), modulation=0.95, dim=2),
            covariance=CovarianceSpec("triangle", variance, 4.0), F=F, spacing=0.5,
            counts={64.0: 50}, seed=11, order=0)
        run = run_ensemble(plan)
        assert run.failures[64.0] == [] and run.count(64.0) == 50
        opts = plan.options
        for q in run.samples[64.0]:
            md = q.metadata
            assert md["flux_residual"] <= opts.tol_inner * (1.0 + np.linalg.norm(md["sigma"]))
            assert md["mean_residual"] <= opts.tol_outer


def one_block_bootstrap_sds(values, rng, resamples=BOOTSTRAP_RESAMPLES):
    """Each draw block's arithmetic in one piece: the reference for _bootstrap_sds."""
    N = len(values)
    out = np.empty(resamples)
    block = max(1, min(resamples, int(2e6 // max(1, values.size))))
    done = 0
    while done < resamples:
        b = min(block, resamples - done)
        x = values[rng.integers(0, N, size=(b, N))]
        dev = x - x.mean(axis=1, keepdims=True)
        out[done:done + b] = np.sqrt((dev * dev).sum(axis=(1, 2)) / (N - 1))
        done += b
    return out


def traced_peak(call):
    """Peak bytes allocated while call() runs (earlier allocations are not traced)."""
    gc.collect()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBootstrap:
    @pytest.mark.parametrize("N,k", [(9, 1), (63, 16), (1001, 3), (5001, 1)])
    def test_counts_match_resampled_rows(self, N, k):
        # (1001, 3) and (5001, 1) draw the 1000 resamples in two and three blocks
        values = np.random.default_rng(N).standard_normal((N, k))
        got = _bootstrap_sds(values, np.random.default_rng(5))
        ref = one_block_bootstrap_sds(values, np.random.default_rng(5))
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("N", [9, 1001, 5001])
    def test_constant_values_give_exactly_zero(self, N):
        values = np.full((N, 3), 0.1)
        assert not _bootstrap_sds(values, np.random.default_rng(5)).any()

    def test_peak_memory(self):
        # resample counts instead of resampled rows, which peaked at 5.2 MiB
        values = np.random.default_rng(0).standard_normal((64, 16))
        _bootstrap_sds(values, np.random.default_rng(1))
        assert traced_peak(lambda: _bootstrap_sds(values, np.random.default_rng(1))) < 2 * 2**20


class TestFluctuationEstimate:
    def test_identity_deformation_is_exact_natural_state(self):
        plan = make_plan([8], count=8, order=2, magnitude=0.0)
        run = run_ensemble(plan)
        assert fluctuation_estimate(run, 0)[8].sd == 0.0
        assert fluctuation_estimate(run, 1)[8].sd == 0.0
        assert fluctuation_estimate(run, 2)[8].sd > 0.0

    def test_zero_variance_zero_sd(self):
        run = run_ensemble(make_plan([8], count=8, variance=0.0))
        est = fluctuation_estimate(run, 0)[8]
        assert est.sd == 0.0 and est.ci_low == 0.0 and est.ci_high == 0.0

    def test_minimum_count(self):
        run = run_ensemble(make_plan([8], count=7))
        with pytest.raises(StatisticsError):
            fluctuation_estimate(run, 0)

    def test_ci_brackets_sd_and_deterministic(self):
        run = run_ensemble(make_plan([8], count=16))
        a = fluctuation_estimate(run, 0)[8]
        b = fluctuation_estimate(run, 0)[8]
        assert a.ci_low <= a.sd <= a.ci_high
        assert (a.sd, a.ci_low, a.ci_high) == (b.sd, b.ci_low, b.ci_high)

    def test_decays_with_period(self):
        run = run_ensemble(make_plan([8, 64], count=32, seed=21))
        est = fluctuation_estimate(run, 0)
        assert est[8].sd > est[64].sd


class TestSystematicEstimate:
    def test_zero_variance_zero_bias(self):
        run = run_ensemble(make_plan([8, 16], count=2, variance=0.0))
        est = systematic_estimate(run, order=0)
        # same constant material at both L: identical cell problems
        assert est.biases[8] <= 1e-15
        assert est.biases[16] == 0.0

    def test_largest_reference_excluded(self):
        run = fake_run({8: [1.0, 1.2, 0.8, 1.1], 16: [0.9, 1.0, 1.1, 1.0]})
        est = systematic_estimate(run, order=0, strategy="largest_L_mean")
        assert est.excluded == (16,)
        assert est.reference[0] == pytest.approx(1.0)
        assert est.biases[16] == pytest.approx(0.0, abs=1e-15)

    def test_extrapolated_reference(self):
        run = fake_run({8: [2.0, 2.2], 16: [1.4, 1.6], 32: [1.2, 1.3]})
        est = systematic_estimate(run, order=0, strategy="extrapolated")
        assert set(est.excluded) == {16, 32}
        assert est.reference[0] == pytest.approx(2 * 1.25 - 1.5)

    def test_extrapolated_requires_ratio_two(self):
        run = fake_run({8: [1.0, 1.1], 12: [0.9, 1.0]})
        with pytest.raises(StatisticsError):
            systematic_estimate(run, order=0, strategy="extrapolated")

    def test_external_reference_run(self):
        run = fake_run({8: [1.5, 1.7]})
        ref = fake_run({64: [1.0, 1.0, 1.0, 1.0]})
        est = systematic_estimate(run, order=0, reference_run=ref)
        assert est.strategy == "external"
        assert est.excluded == ()
        assert est.biases[8] == pytest.approx(0.6)

    def test_underpowered_flag(self):
        rng = np.random.default_rng(3)
        noisy = 1.0 + 0.5 * rng.standard_normal(16)
        ref = fake_run({64: list(1.0 + 0.01 * rng.standard_normal(4096))})
        est = systematic_estimate(fake_run({8: list(noisy)}), reference_run=ref)
        assert est.underpowered[8]
        far = fake_run({8: list(10.0 + 0.01 * rng.standard_normal(16))})
        est2 = systematic_estimate(far, reference_run=ref)
        assert not est2.underpowered[8]

    @pytest.mark.filterwarnings("error")
    def test_one_sample_has_no_error_bar_and_is_underpowered(self):
        run = fake_run({8: [1.5], 16: [1.2], 32: [1.0]})
        est = systematic_estimate(run, order=0, strategy="extrapolated")
        assert all(np.isnan(est.ses[L]) for L in run.lengths)
        assert all(est.underpowered[L] for L in run.lengths)

    def test_unknown_strategy(self):
        run = fake_run({8: [1.0, 1.1]})
        with pytest.raises(ValueError):
            systematic_estimate(run, strategy="median")


class TestMcTotalError:
    def test_row_decomposition_identity(self):
        rng = np.random.default_rng(11)
        run = fake_run({16: list(0.5 + 0.2 * rng.standard_normal(256))})
        rows = mc_total_error(run, [(16, 4)], reference=np.array([0.45]))
        row = rows[0]
        assert row.groups == 64
        assert row.total ** 2 == pytest.approx(row.scatter ** 2 + row.bias ** 2,
                                               rel=1e-12)

    def test_single_sample_groups_measure_fluctuation(self):
        rng = np.random.default_rng(12)
        s = 0.3
        run = fake_run({16: list(1.0 + s * rng.standard_normal(4096))})
        row = mc_total_error(run, [(16, 1)], reference=np.array([1.0]))[0]
        assert row.total == pytest.approx(s, rel=0.1)

    def test_large_groups_measure_bias(self):
        rng = np.random.default_rng(13)
        s, b = 0.3, 0.1
        run = fake_run({16: list(1.0 + b + s * rng.standard_normal(4096))})
        row = mc_total_error(run, [(16, 1024)], reference=np.array([1.0]))[0]
        assert row.total == pytest.approx(b, rel=0.15)

    def test_doubling_n_scales_scatter(self):
        rng = np.random.default_rng(14)
        run = fake_run({16: list(rng.standard_normal(8192))})
        rows = mc_total_error(run, [(16, 2), (16, 4)], reference=np.array([0.0]))
        assert rows[0].scatter / rows[1].scatter == pytest.approx(np.sqrt(2), rel=0.2)

    def test_needs_two_groups(self):
        run = fake_run({16: [1.0, 1.1, 0.9]})
        with pytest.raises(StatisticsError):
            mc_total_error(run, [(16, 3)], reference=np.array([1.0]))

    def test_envelope_scale_recovers_exact_multiple(self):
        rows = [McRow(L=L, N=balanced_count(L), groups=8,
                      total=3.0 * envelope(L, balanced_count(L)), scatter=0.0,
                      bias=0.0, envelope=envelope(L, balanced_count(L)))
                for L in (16, 32, 64, 128)]
        assert fit_envelope_scale(rows) == pytest.approx(3.0, rel=1e-12)

    def test_balanced_schedule_envelope_monotone(self):
        Ls = [16, 32, 64, 128, 256, 512, 1024]
        env = [envelope(L, balanced_count(L)) for L in Ls]
        assert all(a > b for a, b in zip(env, env[1:]))

    def test_balanced_count_values(self):
        assert balanced_count(16) == 2
        assert balanced_count(256) == 8
        assert balanced_count(256, scale=2.0) == 17
        with pytest.raises(ValueError):
            balanced_count(1)


class TestDecomposeError:
    def test_exact_identity(self):
        rng = np.random.default_rng(15)
        values = rng.standard_normal((64, 5))
        ref = rng.standard_normal(5)
        mse, var, bias_sq = decompose_error(values, ref)
        assert mse == pytest.approx(var + bias_sq, rel=1e-12)


class TestFitRate:
    def test_exact_inverse_sqrt(self):
        xs = np.array([16.0, 32.0, 64.0, 128.0, 256.0])
        fit = fit_rate(xs, xs ** -0.5)
        assert fit.slope == pytest.approx(-0.5, abs=1e-12)
        assert fit.ci_high - fit.ci_low <= 2e-12

    def test_log_over_x_slope_window(self):
        # the raw model ln(x)/x fits at about -0.75 on this range (local
        # exponent 1/ln x - 1); measured against a finite reference at 1024,
        # the way the systematic estimator sees it, the curve steepens past
        # -0.8
        xs = np.array([16.0, 32.0, 64.0, 128.0, 256.0])
        raw = fit_rate(xs, np.log(xs) / xs)
        assert -0.80 < raw.slope < -0.70
        vs_ref = fit_rate(xs, np.log(xs) / xs - np.log(1024.0) / 1024.0)
        assert -1.0 < vs_ref.slope < -0.8

    def test_constant_slope_zero(self):
        xs = np.array([16.0, 32.0, 64.0, 128.0])
        fit = fit_rate(xs, np.full(4, 2.5))
        assert fit.slope == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_inputs(self):
        with pytest.raises(DegenerateFitError):
            fit_rate([16, 32, 64], [1.0, 0.5, 0.25])
        with pytest.raises(DegenerateFitError):
            fit_rate([16, 32, 64, 128], [1.0, 0.5, 0.0, 0.25])
        with pytest.raises(DegenerateFitError):
            fit_rate([16, 16, 32, 64], [1.0, 1.0, 0.5, 0.25])

    def test_bootstrap_ci_and_determinism(self):
        rng = np.random.default_rng(18)
        xs = np.array([16.0, 32.0, 64.0, 128.0, 256.0, 512.0])
        ys = xs ** -0.5 * np.exp(0.05 * rng.standard_normal(6))
        a = fit_rate(xs, ys)
        b = fit_rate(xs, ys)
        assert a.ci_low <= a.slope <= a.ci_high
        assert (a.ci_low, a.ci_high) == (b.ci_low, b.ci_high)
        assert a.ci_low < -0.5 < a.ci_high
