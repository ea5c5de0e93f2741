"""Correlation, noise and SNR-ratio algebra of the intensity interferometer.

The SNR enters only as the amplified-over-plain ratio at peak signal
(:func:`snr_ratio`), the quantity the figures and the fit report.  Two
routes to the noise coexist deliberately.  The "printed" operations
evaluate the published closed-form polynomials verbatim (plain
interferometer and its amplified version).  The "substitution" operations
evaluate the generic noise polynomial in arbitrary moment vectors, so the
printed forms can be recomputed independently.  Where the published
algebra is internally inconsistent, the discrepancy is quantified by
:func:`consistency_report` rather than papered over.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._domain import FloatOrArray, nonnegative, nonnegative_scalar, powers, unwrap
from .errors import DomainError
from .opa import OpaParams, coeffs, propagate_moments
from .photon_stats import MomentVector, thermal_moments


def _means(n_bar: FloatOrArray, m_bar: FloatOrArray) -> tuple[np.ndarray, np.ndarray]:
    return nonnegative("n_bar", n_bar), nonnegative("m_bar", m_bar)


def _nonzero(n: np.ndarray, m: np.ndarray, what: str) -> None:
    if np.any((n == 0.0) | (m == 0.0)):
        raise DomainError(f"{what} undefined for a zero mean photon number")


def correlation_full(nm: MomentVector, mm: MomentVector, delta: float) -> float:
    """Full correlator output <n^2> + <m^2> + 2<n><m>(1 + cos(delta))."""
    delta = nonnegative_scalar("phase", delta)
    return nm.m2 + mm.m2 + 2.0 * nm.m1 * mm.m1 * (1.0 + math.cos(delta))


def correlation_ac(n_bar: FloatOrArray, m_bar: FloatOrArray, delta: float) -> FloatOrArray:
    """Phase-dependent signal 2 * n_bar * m_bar * cos(delta) after DC subtraction."""
    n, m = _means(n_bar, m_bar)
    return unwrap(2.0 * n * m * math.cos(nonnegative_scalar("phase", delta)))


def _phase_free_noise(nm: MomentVector, mm: MomentVector) -> FloatOrArray:
    # Generic phase-averaged squared noise in the eight moment components.
    # The +6 cross coefficient makes the thermal reduction identical to
    # noise_avg_printed; the published general form carries -6 there, which
    # is inconsistent with its own quartic law (see consistency_report).
    n1, n2, n3, n4 = nm.m1, nm.m2, nm.m3, nm.m4
    m1, m2, m3, m4 = mm.m1, mm.m2, mm.m3, mm.m4
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


def noise_full(nm: MomentVector, mm: MomentVector, delta: float) -> FloatOrArray:
    """Squared correlator noise including the cos(delta) and cos(2*delta) terms."""
    n1, n2, n3 = nm.m1, nm.m2, nm.m3
    m1, m2, m3 = mm.m1, mm.m2, mm.m3
    delta = nonnegative_scalar("phase", delta)
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
        + cos_group * math.cos(delta)
        + cos2_group * math.cos(2.0 * delta)
    )


def noise_avg_substitution(nm: MomentVector, mm: MomentVector) -> FloatOrArray:
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
    n_bar: FloatOrArray, m_bar: FloatOrArray, params: OpaParams, delta: float
) -> FloatOrArray:
    """Amplified AC signal 2(mu^2 n + nu^2)(mu^2 m + nu^2) cos(delta)."""
    n, m = _means(n_bar, m_bar)
    c = coeffs(params)
    delta = nonnegative_scalar("phase", delta)
    return unwrap(2.0 * (c.mu2 * n + c.nu2) * (c.mu2 * m + c.nu2) * math.cos(delta))


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
    c = coeffs(params)
    u, v = c.mu2, c.nu2  # mu^2 and nu^2
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
    n, m = _means(n_bar, m_bar)
    _nonzero(n, m, "signal ratio")
    c = coeffs(params)
    return unwrap((c.mu2 * n + c.nu2) * (c.mu2 * m + c.nu2) / (n * m))


def snr_ratio(n_bar: FloatOrArray, m_bar: FloatOrArray, params: OpaParams) -> FloatOrArray:
    """Amplified over plain SNR at peak signal (cos of the phase set to 1).

    Both SNRs use the published phase-averaged noise laws.  Where either
    law overflows to a non-finite value the ratio is nan, not the 0 or inf
    its quotient would give.
    """
    n, m = _means(n_bar, m_bar)
    _nonzero(n, m, "SNR ratio")
    c = coeffs(params)
    amplified_noise = opa_noise_avg_printed(n, m, params)
    plain_noise = noise_avg_printed(n, m)
    amplified = 2.0 * (c.mu2 * n + c.nu2) * (c.mu2 * m + c.nu2) / np.sqrt(amplified_noise)
    plain = 2.0 * n * m / np.sqrt(plain_noise)
    finite = np.isfinite(amplified_noise) & np.isfinite(plain_noise)
    return unwrap(np.where(finite, amplified / plain, np.nan))


def relative_deviation(x: FloatOrArray, y: FloatOrArray) -> FloatOrArray:
    """|x - y| / max(|x|, |y|) elementwise, with 0 where both vanish."""
    scale = np.maximum(np.abs(x), np.abs(y))
    with np.errstate(invalid="ignore"):  # 0/0 where both vanish, zeroed below
        deviation = np.abs(np.subtract(x, y)) / scale
    return unwrap(np.where(scale == 0.0, 0.0, deviation))


@dataclass(frozen=True)
class ConsistencyReport:
    """Grid of published-versus-recomputed noise deviations.

    ``plain_vs_substitution`` should vanish: the generic phase-averaged
    noise with thermal moments reproduces the plain quartic law exactly.
    ``amplified_vs_substitution`` and ``zero_gain_reduction`` are expected
    to be nonzero; they quantify how far the published amplified noise law
    sits from its own substitution route and from the plain law at zero
    gain (about 10.3 percent at unit means).  The grid and the three
    deviations are arrays with one entry per grid pair; the report takes
    no maxima, the oracle checks reduce them.
    """

    params: OpaParams
    n_bar: np.ndarray
    m_bar: np.ndarray
    plain_vs_substitution: np.ndarray
    amplified_vs_substitution: np.ndarray
    zero_gain_reduction: np.ndarray


def consistency_report(
    params: OpaParams, grid: Sequence[tuple[float, float]]
) -> ConsistencyReport:
    """Quantify the internal consistency of the published noise laws on a grid.

    The whole grid is evaluated as one array expression per law.

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
    return ConsistencyReport(
        params=params,
        n_bar=n,
        m_bar=m,
        plain_vs_substitution=plain_dev,
        amplified_vs_substitution=amp_dev,
        zero_gain_reduction=g0_dev,
    )
