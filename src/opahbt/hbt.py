"""Correlation, noise and SNR-ratio algebra of the intensity interferometer.

The SNR enters only as the amplified-over-plain ratio at peak signal
(:func:`snr_ratio`), the quantity the figures and the fit report.  Two
routes to the noise coexist deliberately.  The "printed" operations
evaluate the published closed-form polynomials verbatim (plain
interferometer and its amplified version).  The "substitution" operations
evaluate the generic noise polynomial in arbitrary moments, so the
printed forms can be recomputed independently.  Those laws take each
source's moments as the ``(4, ...)`` array of
:func:`~opahbt.photon_stats.thermal_moments`.  Every phase ``delta`` may be
any finite real or array of them, and broadcasts against the means.  Where
the published algebra is internally inconsistent, the discrepancy is
quantified by :func:`consistency_report` rather than papered over.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ._domain import FloatOrArray, finite_real, nonnegative, powers, unwrap
from .errors import DomainError
from .opa import OpaParams, coeffs, equivalent_thermal_mean, propagate_moments
from .photon_stats import thermal_moments


def _means(n_bar: FloatOrArray, m_bar: FloatOrArray) -> tuple[np.ndarray, np.ndarray]:
    return nonnegative("n_bar", n_bar), nonnegative("m_bar", m_bar)


def _nonzero(n: np.ndarray, m: np.ndarray, what: str) -> None:
    if np.any((n == 0.0) | (m == 0.0)):
        raise DomainError(f"{what} undefined for a zero mean photon number")


def correlation_full(nm: np.ndarray, mm: np.ndarray, delta: FloatOrArray) -> FloatOrArray:
    """Full correlator output <n^2> + <m^2> + 2<n><m>(1 + cos(delta))."""
    n1, n2, _, _ = nm
    m1, m2, _, _ = mm
    return unwrap(n2 + m2 + 2.0 * n1 * m1 * (1.0 + np.cos(finite_real("phase", delta))))


def correlation_ac(n_bar: FloatOrArray, m_bar: FloatOrArray, delta: FloatOrArray) -> FloatOrArray:
    """Phase-dependent signal 2 * n_bar * m_bar * cos(delta) after DC subtraction."""
    n, m = _means(n_bar, m_bar)
    return unwrap(2.0 * n * m * np.cos(finite_real("phase", delta)))


def _phase_free_noise(nm: np.ndarray, mm: np.ndarray) -> FloatOrArray:
    # Generic phase-averaged squared noise in the eight moment components.
    # The +6 cross coefficient makes the thermal reduction identical to
    # noise_avg_printed; the published general form carries -6 there, which
    # is inconsistent with its own quartic law (see consistency_report).
    n1, n2, n3, n4 = nm
    m1, m2, m3, m4 = mm
    return (
        n4
        - np.float_power(n2, 2)
        + m4
        - np.float_power(m2, 2)
        + 8.0 * n3 * m1
        + 8.0 * n1 * m3
        - 4.0 * n2 * n1 * m1
        - 4.0 * n1 * m1 * m2
        + 16.0 * n2 * m2
        + 6.0 * np.float_power(n1 * m1, 2)
    )


def noise_full(nm: np.ndarray, mm: np.ndarray, delta: FloatOrArray) -> FloatOrArray:
    """Squared correlator noise including the cos(delta) and cos(2*delta) terms."""
    n1, n2, n3, _ = nm
    m1, m2, m3, _ = mm
    delta = finite_real("phase", delta)
    nm_sq = np.float_power(n1 * m1, 2)
    cos_group = 4.0 * (
        2.0 * (n3 * m1 + 2.0 * n2 * m2 + n1 * m3)
        - n2 * n1 * m1
        - 2.0 * nm_sq
        - n1 * m1 * m2
    )
    cos2_group = 2.0 * (n2 * m2 - 2.0 * nm_sq)
    return unwrap(
        _phase_free_noise(nm, mm)
        + cos_group * np.cos(delta)
        + cos2_group * np.cos(2.0 * delta)
    )


def noise_avg_substitution(nm: np.ndarray, mm: np.ndarray) -> FloatOrArray:
    """Phase-averaged squared noise, generic in the moments.

    This is the recomputation route: feeding it thermal moments reproduces
    :func:`noise_avg_printed`, and feeding it amplifier-propagated moments
    gives the value the published amplified noise law should have had.
    """
    return unwrap(_phase_free_noise(nm, mm))


def noise_avg_printed(n_bar: FloatOrArray, m_bar: FloatOrArray) -> FloatOrArray:
    """Published phase-averaged squared noise of the plain interferometer.

    Quartic polynomial in the two mean photon numbers, evaluated with the
    coefficients exactly as published.
    """
    n, m = _means(n_bar, m_bar)
    n2, n3, n4 = powers(n)
    m2, m3, m4 = powers(m)
    return unwrap(
        n
        + 13.0 * n2
        + 32.0 * n3
        + 20.0 * n4
        + m
        + 13.0 * m2
        + 32.0 * m3
        + 20.0 * m4
        + 32.0 * n * m
        + 76.0 * n2 * m
        + 76.0 * n * m2
        + 40.0 * n3 * m
        + 40.0 * n * m3
        + 70.0 * n2 * m2
    )


def opa_correlation_ac(
    n_bar: FloatOrArray, m_bar: FloatOrArray, params: OpaParams, delta: FloatOrArray
) -> FloatOrArray:
    """Amplified AC signal 2(mu^2 n + nu^2)(mu^2 m + nu^2) cos(delta)."""
    n, m = _means(n_bar, m_bar)
    n_out, m_out = equivalent_thermal_mean(n, params), equivalent_thermal_mean(m, params)
    return unwrap(2.0 * n_out * m_out * np.cos(finite_real("phase", delta)))


def opa_noise_avg_printed(
    n_bar: FloatOrArray, m_bar: FloatOrArray, params: OpaParams
) -> FloatOrArray:
    """Published phase-averaged squared noise of the amplified interferometer.

    Evaluated verbatim, grouped by powers mu^8, mu^6 nu^2, mu^4 nu^4,
    mu^2 nu^6 and nu^8 with exactly the published coefficients.  Note that
    the published polynomial is not symmetric under swapping the two source
    means and does not reduce to :func:`noise_avg_printed` at zero gain;
    both deviations are quantified by the consistency checks.
    """
    n, m = _means(n_bar, m_bar)
    n2, n3, n4 = powers(n)
    m2, m3, m4 = powers(m)
    mu, nu = coeffs(params)
    u, v = mu * mu, nu * nu
    u2, u3, u4 = powers(u)
    v2, v3, v4 = powers(v)
    group_u4 = (
        n
        + 13.0 * n2
        + 32.0 * n3
        + 20.0 * n4
        + m
        + 13.0 * m2
        + 32.0 * m3
        + 20.0 * m4
        + 28.0 * n * m
        + 68.0 * n2 * m
        + 68.0 * n * m2
        + 42.0 * n2 * m2
        + 40.0 * n * m3
        + 40.0 * n3 * m
    )
    group_u3v = (
        2.0
        + 51.0 * n
        + 138.0 * n2
        + 88.0 * n3
        + 51.0 * m
        + 138.0 * m2
        + 88.0 * m3
        + 216.0 * n * m
        + 136.0 * n2 * m
        + 136.0 * n * m2
    )
    group_u2v2 = 46.0 + 199.0 * n + 131.0 * n2 + 195.0 * m + 164.0 * n * m + 131.0 * m2
    group_uv3 = 93.0 + 73.0 * n + 77.0 * m
    return unwrap(
        u4 * group_u4
        + u3 * v * group_u3v
        + u2 * v2 * group_u2v2
        + u * v3 * group_uv3
        + 14.0 * v4
    )


def signal_ratio(n_bar: FloatOrArray, m_bar: FloatOrArray, params: OpaParams) -> FloatOrArray:
    """Amplified over plain signal amplitude, (mu^2 n + nu^2)(mu^2 m + nu^2)/(n m)."""
    # Not the quotient of the AC laws: their factor 2 overflows first.
    n, m = _means(n_bar, m_bar)
    _nonzero(n, m, "signal ratio")
    n_out, m_out = equivalent_thermal_mean(n, params), equivalent_thermal_mean(m, params)
    return unwrap(n_out * m_out / (n * m))


def snr_ratio(n_bar: FloatOrArray, m_bar: FloatOrArray, params: OpaParams) -> FloatOrArray:
    """Amplified over plain SNR at peak signal (cos of the phase set to 1).

    Each SNR is its AC law at zero phase over the root of its published
    phase-averaged noise law.  Where either noise law overflows, the ratio
    is nan, not the 0 or inf its quotient would give.
    """
    n, m = _means(n_bar, m_bar)
    _nonzero(n, m, "SNR ratio")
    amplified_noise = opa_noise_avg_printed(n, m, params)
    plain_noise = noise_avg_printed(n, m)
    amplified = opa_correlation_ac(n, m, params, 0.0) / np.sqrt(amplified_noise)
    plain = correlation_ac(n, m, 0.0) / np.sqrt(plain_noise)
    finite = np.isfinite(amplified_noise) & np.isfinite(plain_noise)
    return unwrap(np.where(finite, amplified / plain, np.nan))


def relative_deviation(x: FloatOrArray, y: FloatOrArray) -> FloatOrArray:
    """|x - y| / max(|x|, |y|) elementwise, with 0 where both vanish."""
    scale = np.maximum(np.abs(x), np.abs(y))
    with np.errstate(invalid="ignore"):  # 0/0 where both vanish, zeroed below
        deviation = np.abs(np.subtract(x, y)) / scale
    return unwrap(np.where(scale == 0.0, 0.0, deviation))


def consistency_report(
    params: OpaParams, grid: Sequence[tuple[float, float]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Quantify the internal consistency of the published noise laws on a grid.

    Returns the per-pair relative deviations ``(plain_vs_substitution,
    amplified_vs_substitution, zero_gain_reduction)``, one entry per grid
    pair; the oracle checks reduce them.  The first should vanish: the
    generic phase-averaged noise with thermal moments reproduces the plain
    quartic law exactly.  The other two are expected to be nonzero; they
    quantify how far the published amplified noise law sits from its own
    substitution route and from the plain law at zero gain (about 10.3
    percent at unit means).  The whole grid is evaluated as one array
    expression per law.

    Raises:
        DomainError: if the grid is empty or not a sequence of pairs.
    """
    pairs = nonnegative("grid", grid)
    if pairs.ndim != 2 or pairs.shape[1] != 2 or len(pairs) == 0:
        raise DomainError("consistency report requires a nonempty grid of (n_bar, m_bar) pairs")
    n, m = pairs.T
    nm, mm = thermal_moments(n), thermal_moments(m)
    plain = noise_avg_printed(n, m)
    plain_dev = relative_deviation(plain, noise_avg_substitution(nm, mm))
    amp_dev = relative_deviation(
        opa_noise_avg_printed(n, m, params),
        noise_avg_substitution(propagate_moments(nm, params), propagate_moments(mm, params)),
    )
    g0_dev = relative_deviation(opa_noise_avg_printed(n, m, OpaParams(0.0)), plain)
    return plain_dev, amp_dev, g0_dev
