"""Field-synthesis tests: covariance kinds, periodization spectra, sampler
distribution and determinism.

The cosine-bump frozen values come from numerically integrating the
autocorrelation of the half-period cosine pulse (trapezoid rule, 2e5 nodes),
independent of the closed form implemented in the package.
"""

from __future__ import annotations

import numpy as np
import pytest

import laminhom.fields as fields
from laminhom.fields import (
    CovarianceSpec,
    MaterialSample,
    PeriodizationError,
    SpectrumError,
    periodize_covariance,
    sample_periodic_field,
)


# ===================================================================
# covariance kinds
# ===================================================================


class TestCovarianceSpec:
    def test_triangle_values(self):
        cov = CovarianceSpec("triangle", variance=2.0, correlation_length=1.0)
        assert cov.support_radius == 0.5
        assert cov(0.0) == pytest.approx(2.0)
        assert cov(0.25) == pytest.approx(1.0)
        assert cov(0.5) == 0.0
        assert cov(-0.25) == pytest.approx(1.0)
        assert np.all(cov(np.array([0.6, 5.0])) == 0.0)

    def test_cosine_bump_frozen_values(self):
        """Frozen from the numeric autocorrelation integral of the pulse."""
        cov = CovarianceSpec("cosine-bump", variance=2.25, correlation_length=1.0)
        assert cov(0.0) == pytest.approx(2.25, abs=1e-12)
        assert cov(0.125) == pytest.approx(1.6996706210906711, abs=1e-9)
        assert cov(0.25) == pytest.approx(0.71619724391352912, abs=1e-9)
        assert cov(0.375) == pytest.approx(0.10868036342093927, abs=1e-9)
        assert cov(0.5) == pytest.approx(0.0, abs=1e-15)

    def test_cosine_bump_monotone_smooth(self):
        cov = CovarianceSpec("cosine-bump", variance=1.0, correlation_length=2.0)
        s = np.linspace(0.0, 1.0, 401)
        v = cov(s)
        assert np.all(np.diff(v) <= 1e-12)
        # flat at the origin (differentiable even extension)
        assert cov(1e-6) == pytest.approx(1.0, abs=1e-9)

    def test_kind_aliases_and_validation(self):
        assert CovarianceSpec("Triangle", 1.0, 1.0).kind == "triangle"
        assert CovarianceSpec("Cosine-Bump", 1.0, 1.0).kind == "cosine-bump"
        with pytest.raises(ValueError):
            CovarianceSpec("gaussian", 1.0, 1.0)
        with pytest.raises(ValueError):
            CovarianceSpec("triangle", -0.5, 1.0)
        with pytest.raises(ValueError):
            CovarianceSpec("triangle", 1.0, -2.0)

    def test_zero_variance_degenerates_to_constant(self):
        cov = CovarianceSpec("triangle", 0.0, 1.0)
        sample = sample_periodic_field(cov, period=8.0, n=32, seed=5, index=0)
        assert np.all(sample.values == 0.0)


# ===================================================================
# periodization
# ===================================================================


class TestPeriodization:
    def test_triangle_spectrum_is_fejer_kernel(self):
        """DFT of the sampled triangle is the Fejer kernel (independent closed
        form): lambda_k = var/m * (sin(pi k m/n)/sin(pi k/n))^2, m = r/h."""
        var, ell, L, n = 1.7, 1.0, 8.0, 64
        cov = CovarianceSpec("triangle", var, ell)
        per = periodize_covariance(cov, L, n)
        h = L / n
        m = round(cov.support_radius / h)
        assert m * h == pytest.approx(cov.support_radius)
        k = np.arange(1, n)
        expected = np.empty(n)
        expected[0] = var * m
        expected[1:] = var / m * (np.sin(np.pi * k * m / n) / np.sin(np.pi * k / n)) ** 2
        np.testing.assert_allclose(per.spectrum, expected, atol=1e-10)

    @pytest.mark.parametrize("kind", ["triangle", "cosine-bump"])
    @pytest.mark.parametrize("L,n", [(8.0, 64), (16.0, 256), (32.0, 129), (4.0, 32)])
    def test_spectrum_nonnegative(self, kind, L, n):
        cov = CovarianceSpec(kind, 1.3, 1.0)
        per = periodize_covariance(cov, L, n)
        assert np.all(per.spectrum >= 0.0)

    def test_entries_match_plain_covariance_inside_window(self):
        """C_L(s) = C(s) for |s| <= L/2: periodization only wraps the far tail."""
        cov = CovarianceSpec("cosine-bump", 1.0, 2.0)
        L, n = 8.0, 128
        per = periodize_covariance(cov, L, n)
        h = L / n
        j = np.arange(n)
        lag = np.where(j * h >= L / 2, j * h - L, j * h)
        np.testing.assert_array_equal(per.entries, cov(lag))
        # even symmetry of the circulant row
        np.testing.assert_allclose(per.entries[1:], per.entries[1:][::-1], atol=0)

    def test_period_too_small_raises(self):
        cov = CovarianceSpec("triangle", 1.0, 1.0)
        with pytest.raises(PeriodizationError):
            periodize_covariance(cov, 3.9, 64)

    def test_resolution_too_coarse_raises(self):
        cov = CovarianceSpec("triangle", 1.0, 1.0)
        with pytest.raises(PeriodizationError):
            periodize_covariance(cov, 64.0, 64)  # h = 1 > ell/2

    def test_non_positive_definite_covariance_raises(self):
        """A rectangle pulse is not a covariance: Dirichlet spectrum goes
        negative far beyond the roundoff clamp."""
        with pytest.raises(SpectrumError):
            periodize_covariance(Rectangle(), 8.0, 64)


class Rectangle:
    """Indicator of |s| < 1/2: not positive semidefinite."""

    variance = 1.0
    correlation_length = 1.0
    support_radius = 0.5

    def __call__(self, s):
        return np.where(np.abs(np.asarray(s, dtype=float)) < 0.5, 1.0, 0.0)


# ===================================================================
# sampling
# ===================================================================


class TestSampling:
    def test_deterministic_streams(self):
        cov = CovarianceSpec("triangle", 1.0, 1.0)
        a = sample_periodic_field(cov, 8.0, 64, seed=123, index=7)
        b = sample_periodic_field(cov, 8.0, 64, seed=123, index=7)
        c = sample_periodic_field(cov, 8.0, 64, seed=123, index=8)
        d = sample_periodic_field(cov, 8.0, 64, seed=124, index=7)
        np.testing.assert_array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)
        assert not np.array_equal(a.values, d.values)
        assert a.n == 64 and a.grid()[1] == pytest.approx(0.125)

    def test_empirical_covariance_periodic(self):
        """Sample covariance at lags {0, l/4, l/2, l} within 3 SE of C."""
        cov = CovarianceSpec("triangle", 1.0, 1.0)
        L, n, M = 8.0, 64, 100_000
        h = L / n
        lags = [0, int(round(0.25 / h)), int(round(0.5 / h)), int(round(1.0 / h))]
        V = np.stack([sample_periodic_field(cov, L, n, seed=2024, index=k).values
                      for k in range(M)])
        acc = np.stack([np.mean(V * np.roll(V, -j, axis=1), axis=1) for j in lags], axis=1)
        for c, j in enumerate(lags):
            est = acc[:, c].mean()
            se = acc[:, c].std(ddof=1) / np.sqrt(M)
            assert abs(est - cov(j * h)) <= 3.0 * se + 1e-12, (j, est, cov(j * h), se)

    def test_material_sample_grid(self):
        s = MaterialSample(values=np.zeros(4), period=2.0, seed=0, index=0)
        np.testing.assert_allclose(s.grid(), [0.0, 0.5, 1.0, 1.5])


# ===================================================================
# the per-grid spectral cache
# ===================================================================


def uncached_draw(cov, period, n, seed, index):
    """The circulant synthesis of sample_periodic_field, its spectrum formed afresh."""
    per = periodize_covariance(cov, period, n)
    z = fields._stream(seed, fields._length_key(period), index).standard_normal(2 * n)
    return np.sqrt(n) * np.fft.ifft(np.sqrt(per.spectrum) * (z[:n] + 1j * z[n:])).real


class TestSpectralCache:
    @pytest.mark.parametrize("kind", ["triangle", "cosine-bump"])
    def test_cold_and_warm_draws_are_bit_identical(self, kind):
        cov = CovarianceSpec(kind, 1.3, 1.0)
        fields._spectral_root.cache_clear()
        cold = sample_periodic_field(cov, 8.0, 64, seed=11, index=3)
        warm = sample_periodic_field(cov, 8, 64, seed=11, index=3)
        info = fields._spectral_root.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert cold.values.tobytes() == warm.values.tobytes()
        assert cold.values.tobytes() == uncached_draw(cov, 8.0, 64, 11, 3).tobytes()
        assert warm.period == 8.0 and isinstance(warm.period, float)

    def test_cached_root_is_read_only(self):
        root = fields._spectral_root(CovarianceSpec("triangle", 1.0, 1.0), 8.0, 64)
        assert not root.flags.writeable
        with pytest.raises(ValueError):
            root[0] = 0.0

    @pytest.mark.parametrize("cov,L,n,error", [
        (CovarianceSpec("triangle", 1.0, 1.0), 3.9, 64, PeriodizationError),
        (CovarianceSpec("triangle", 1.0, 1.0), 64.0, 64, PeriodizationError),
        (Rectangle(), 8.0, 64, SpectrumError),
    ])
    def test_errors_are_raised_on_every_call(self, cov, L, n, error):
        for index in range(3):
            with pytest.raises(error):
                sample_periodic_field(cov, L, n, seed=1, index=index)

    def test_distinct_grids_never_share_a_spectrum(self):
        covs = [CovarianceSpec("triangle", 1.0, 1.0), CovarianceSpec("triangle", 2.0, 1.0),
                CovarianceSpec("triangle", 1.0, 2.0), CovarianceSpec("cosine-bump", 1.0, 1.0)]
        keys = [(cov, L, n) for cov in covs for L, n in [(8.0, 64), (16.0, 64), (8.0, 128)]]
        roots = [fields._spectral_root(*key) for key in keys]
        for key, root in zip(keys, roots):
            assert np.array_equal(root, np.sqrt(periodize_covariance(*key).spectrum))
        assert len({id(root) for root in roots}) == len(keys)
        # an equal specification is the same key
        assert fields._spectral_root(CovarianceSpec("Triangle", 1.0, 1.0), 8.0, 64) is roots[0]
