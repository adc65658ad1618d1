"""Stationary Gaussian material fields on 1D periodic grids.

The laminate's material parameter omega(x) is a zero-mean stationary
Gaussian process with a compactly supported covariance C, evaluated on a
uniform grid and held piecewise constant per cell.  Two covariance kinds:

* triangle:     C(s) = var * (1 - |s|/r)_+            (autocorrelation of an
                indicator pulse, hence positive semidefinite by construction)
* cosine-bump:  C(s) = var * [(1-u) cos(pi u) + sin(pi u)/pi],  u = |s|/r
                (normalized autocorrelation of a half-period cosine pulse;
                the naive raised cosine is NOT positive semidefinite, its
                Fourier transform has negative lobes)

with support radius r = correlation_length / 2, so C vanishes for
|s| >= correlation_length / 2.

Periodic fields of period L are obtained by periodizing the covariance,
C_L(s) = C(wrap(s)) with wrap(s) in [-L/2, L/2), which requires L >= 4 *
correlation_length; the periodized covariance then agrees with C for all
|s| <= L/2, so the field restricted to any window of that width has exactly
the unperiodized distribution.  Sampling uses the circulant spectral method:
the DFT of the covariance entries is the (nonnegative) circulant spectrum,
and shaping complex white noise with its square root yields an exact sample.
The square root depends on (covariance, L, n) only, so it is formed once per
grid and cached (read-only); every sample of an ensemble period reuses it.

Streams are counter-based (numpy Philox keyed through SeedSequence by
(seed, fixed-point L, index)), so every sample is a pure function of
(seed, L, index): bit-reproducible, order-independent, parallel-safe.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PeriodizationError",
    "SpectrumError",
    "CovarianceSpec",
    "PeriodizedCovariance",
    "MaterialSample",
    "check_grid",
    "periodize_covariance",
    "sample_periodic_field",
    "PRNG_NAME",
]

PRNG_NAME = "philox4x64(numpy)"

# negative spectral values within this fraction of the variance are clamped
# to zero (DFT roundoff); anything below is a genuine positivity violation
SPECTRUM_CLAMP = 1e-10

TRIANGLE = "triangle"
COSINE_BUMP = "cosine-bump"

_KINDS = (TRIANGLE, COSINE_BUMP)


class PeriodizationError(ValueError):
    """Period or resolution incompatible with the covariance support."""


class SpectrumError(ValueError):
    """Covariance spectrum negative beyond roundoff: not positive semidefinite."""


@dataclass(frozen=True)
class CovarianceSpec:
    """Compactly supported covariance C(s) with C(0) = variance.

    support_radius = correlation_length / 2; C(s) = 0 for |s| >= support_radius.
    """

    kind: str
    variance: float
    correlation_length: float

    def __post_init__(self):
        key = str(self.kind).strip().lower()
        if key not in _KINDS:
            raise ValueError(f"unknown covariance kind {self.kind!r}")
        object.__setattr__(self, "kind", key)
        # variance 0 is allowed: degenerate deterministic field
        if not 0.0 <= self.variance < np.inf:
            raise ValueError(f"variance must be finite and nonnegative, got {self.variance!r}")
        if not self.correlation_length > 0.0:
            raise ValueError(f"correlation length must be positive, got {self.correlation_length!r}")

    @property
    def support_radius(self):
        return 0.5 * self.correlation_length

    def __call__(self, s):
        s = np.abs(np.asarray(s, dtype=float))
        u = s / self.support_radius
        if self.kind == TRIANGLE:
            return self.variance * np.clip(1.0 - u, 0.0, None)
        vals = (1.0 - u) * np.cos(np.pi * u) + np.sin(np.pi * u) / np.pi
        return self.variance * np.where(u < 1.0, vals, 0.0)


@dataclass(frozen=True)
class PeriodizedCovariance:
    """Covariance of one period-L grid: circulant entries and their spectrum."""

    entries: np.ndarray      # (n,) C_L(j*h)
    spectrum: np.ndarray     # (n,) DFT of entries, clamped to >= 0


@dataclass(frozen=True)
class MaterialSample:
    """One realization of the material field on a uniform grid.

    values[i] is omega at x_i = i*period/n, held constant on the cell
    [x_i, x_{i+1}); the field continues period-L periodically.  seed/index
    identify the PRNG_NAME stream that generated the sample.
    """

    values: np.ndarray
    period: float
    seed: int
    index: int

    @property
    def n(self):
        return len(self.values)

    def grid(self):
        return np.arange(self.n) * (self.period / self.n)


# =====================================================================
# periodization
# =====================================================================


def check_grid(cov, period, spacing):
    """Raise PeriodizationError unless a period-L grid of cells of width
    `spacing` suits the covariance: period >= 4*correlation_length (the
    matching-window guarantee needs slack around the support) and at least
    two cells per correlation length."""
    if period < 4.0 * cov.correlation_length:
        raise PeriodizationError(
            f"period {period} < 4*correlation_length = {4.0 * cov.correlation_length}")
    if spacing > 0.5 * cov.correlation_length:
        raise PeriodizationError(
            f"spacing {spacing} too coarse: need at least two cells per correlation length "
            f"{cov.correlation_length}")


def periodize_covariance(cov, period, n):
    """Wrap a compactly supported covariance onto a period-L grid.

    Entry j is C(wrap(j*h)) with wrap into [-L/2, L/2) and h = L/n.  The
    spectrum is the DFT of the entries (the circulant eigenvalues); it is
    nonnegative up to roundoff because the periodization of a positive
    semidefinite C supported inside [-L/2, L/2] has nonnegative Fourier
    coefficients and discrete sampling only aliases them together.

    Raises PeriodizationError when the grid does not suit the covariance
    (`check_grid`); SpectrumError when a spectral value is more negative
    than -SPECTRUM_CLAMP*variance.
    """
    period = float(period)
    n = int(n)
    h = period / n
    check_grid(cov, period, h)
    x = np.arange(n) * h
    x = np.where(x >= 0.5 * period, x - period, x)
    entries = cov(x)
    spectrum = np.fft.fft(entries)
    # entries are even around 0 so the spectrum is real
    spectrum = spectrum.real
    floor = -SPECTRUM_CLAMP * cov.variance
    smin = float(spectrum.min())
    if smin < floor:
        raise SpectrumError(
            f"covariance spectrum has value {smin:.3e} below {floor:.3e}: "
            "not positive semidefinite")
    spectrum = np.where(spectrum < 0.0, 0.0, spectrum)
    return PeriodizedCovariance(entries=entries, spectrum=spectrum)


# =====================================================================
# sampling
# =====================================================================


def _length_key(length):
    # fixed-point encoding at 1/4096 so the stream key is integral
    return int(round(float(length) * 4096.0))


def _stream(seed, *keys):
    seq = np.random.SeedSequence([int(seed), *map(int, keys)])
    return np.random.Generator(np.random.Philox(seed=seq))


@functools.lru_cache(maxsize=32)
def _spectral_root(cov, period, n):
    """Square root of the periodized spectrum of (cov, period, n), read-only.

    Cached per grid; a grid that does not suit the covariance raises on
    every call, since an exception is never cached.
    """
    root = np.sqrt(periodize_covariance(cov, period, n).spectrum)
    root.flags.writeable = False
    return root


def sample_periodic_field(cov, period, n, seed, index):
    """Draw one periodic field sample; pure function of (seed, period, index).

    Circulant spectral synthesis: with spectrum lambda and complex standard
    normals z, sqrt(n) * Re ifft(sqrt(lambda) * z) has covariance matrix
    circulant(entries) exactly.  sqrt(lambda) comes from the per-grid cache
    (`_spectral_root`), so the covariance is periodized once per (cov, period,
    n), not once per sample.
    """
    period, n = float(period), int(n)
    root = _spectral_root(cov, period, n)
    rng = _stream(seed, _length_key(period), index)
    z = rng.standard_normal(2 * n)
    noise = z[:n] + 1j * z[n:]
    values = np.sqrt(n) * np.fft.ifft(root * noise).real
    return MaterialSample(values=values, period=period, seed=int(seed), index=int(index))
