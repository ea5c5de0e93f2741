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

from ._domain import FloatOrArray, finite_real, four_moments, kernel, nonnegative, unwrap
from .errors import DomainError
from .opa import OpaParams, coeffs, equivalent_thermal_mean, propagate_moments
from .photon_stats import thermal_moments


# Each law is a table of (coefficient, powers) rows in the published order
# (see _domain.kernel).  The plain law, in (n_bar, m_bar).
PLAIN_NOISE = (
    (1, (1, 0)), (13, (2, 0)), (32, (3, 0)), (20, (4, 0)),
    (1, (0, 1)), (13, (0, 2)), (32, (0, 3)), (20, (0, 4)),
    (32, (1, 1)), (76, (2, 1)), (76, (1, 2)), (40, (3, 1)), (40, (1, 3)), (70, (2, 2)),
)

# The amplified law: five groups, each a table in (n_bar, m_bar), times
# mu^2a nu^2b with powers (a, b) of (mu^2, nu^2).
AMPLIFIED_NOISE = (
    ((
        (1, (1, 0)), (13, (2, 0)), (32, (3, 0)), (20, (4, 0)),
        (1, (0, 1)), (13, (0, 2)), (32, (0, 3)), (20, (0, 4)),
        (28, (1, 1)), (68, (2, 1)), (68, (1, 2)), (42, (2, 2)), (40, (1, 3)), (40, (3, 1)),
    ), (4, 0)),
    ((
        (2, (0, 0)), (51, (1, 0)), (138, (2, 0)), (88, (3, 0)),
        (51, (0, 1)), (138, (0, 2)), (88, (0, 3)), (216, (1, 1)), (136, (2, 1)), (136, (1, 2)),
    ), (3, 1)),
    ((
        (46, (0, 0)), (199, (1, 0)), (131, (2, 0)), (195, (0, 1)), (164, (1, 1)), (131, (0, 2)),
    ), (2, 2)),
    (((93, (0, 0)), (73, (1, 0)), (77, (0, 1))), (1, 3)),
    (((14, (0, 0)),), (0, 4)),
)

# The generic noise in (n1, n2, n3, n4, m1, m2, m3, m4, cos delta, cos 2 delta),
# the sources' moments <n^j>, <m^j> and the phase.  The +6 on (n1 m1)^2 makes
# the thermal reduction identical to noise_avg_printed; the published general
# form carries -6 there, inconsistent with its own quartic law.
NOISE_FULL = (
    (1, (0, 0, 0, 1, 0, 0, 0, 0, 0, 0)), (-1, (0, 2, 0, 0, 0, 0, 0, 0, 0, 0)),
    (1, (0, 0, 0, 0, 0, 0, 0, 1, 0, 0)), (-1, (0, 0, 0, 0, 0, 2, 0, 0, 0, 0)),
    (8, (0, 0, 1, 0, 1, 0, 0, 0, 0, 0)), (8, (1, 0, 0, 0, 0, 0, 1, 0, 0, 0)),
    (-4, (1, 1, 0, 0, 1, 0, 0, 0, 0, 0)), (-4, (1, 0, 0, 0, 1, 1, 0, 0, 0, 0)),
    (16, (0, 1, 0, 0, 0, 1, 0, 0, 0, 0)), (6, (2, 0, 0, 0, 2, 0, 0, 0, 0, 0)),
    (8, (0, 0, 1, 0, 1, 0, 0, 0, 1, 0)), (16, (0, 1, 0, 0, 0, 1, 0, 0, 1, 0)),
    (8, (1, 0, 0, 0, 0, 0, 1, 0, 1, 0)), (-4, (1, 1, 0, 0, 1, 0, 0, 0, 1, 0)),
    (-8, (2, 0, 0, 0, 2, 0, 0, 0, 1, 0)), (-4, (1, 0, 0, 0, 1, 1, 0, 0, 1, 0)),
    (2, (0, 1, 0, 0, 0, 1, 0, 0, 0, 1)), (-4, (2, 0, 0, 0, 2, 0, 0, 0, 0, 1)),
)

# Its phase average, in the eight moments: the rows with no cosine.
NOISE_AVG = tuple((c, powers[:8]) for c, powers in NOISE_FULL if not any(powers[8:]))


def _means(n_bar: FloatOrArray, m_bar: FloatOrArray) -> tuple[np.ndarray, np.ndarray]:
    return nonnegative("n_bar", n_bar), nonnegative("m_bar", m_bar)


def _nonzero(n: np.ndarray, m: np.ndarray, what: str) -> None:
    if np.any((n == 0.0) | (m == 0.0)):
        raise DomainError(f"{what} undefined for a zero mean photon number")


def correlation_full(nm: np.ndarray, mm: np.ndarray, delta: FloatOrArray) -> FloatOrArray:
    """Full correlator output <n^2> + <m^2> + 2<n><m>(1 + cos(delta))."""
    n1, n2, _, _ = four_moments("nm", nm)
    m1, m2, _, _ = four_moments("mm", mm)
    return unwrap(n2 + m2 + 2.0 * n1 * m1 * (1.0 + np.cos(finite_real("phase", delta))))


def correlation_ac(n_bar: FloatOrArray, m_bar: FloatOrArray, delta: FloatOrArray) -> FloatOrArray:
    """Phase-dependent signal 2 * n_bar * m_bar * cos(delta) after DC subtraction."""
    n, m = _means(n_bar, m_bar)
    return unwrap(2.0 * n * m * np.cos(finite_real("phase", delta)))


def noise_full(nm: np.ndarray, mm: np.ndarray, delta: FloatOrArray) -> FloatOrArray:
    """Squared correlator noise including the cos(delta) and cos(2*delta) terms."""
    nm, mm = four_moments("nm", nm), four_moments("mm", mm)
    delta = finite_real("phase", delta)
    return unwrap(kernel(NOISE_FULL)(*nm, *mm, np.cos(delta), np.cos(2.0 * delta)))


def noise_avg_substitution(nm: np.ndarray, mm: np.ndarray) -> FloatOrArray:
    """Phase-averaged squared noise, generic in the moments.

    This is the recomputation route: feeding it thermal moments reproduces
    :func:`noise_avg_printed`, and feeding it amplifier-propagated moments
    gives the value the published amplified noise law should have had.
    """
    return unwrap(kernel(NOISE_AVG)(*four_moments("nm", nm), *four_moments("mm", mm)))


def noise_avg_printed(n_bar: FloatOrArray, m_bar: FloatOrArray) -> FloatOrArray:
    """Published phase-averaged squared noise of the plain interferometer.

    Quartic polynomial in the two mean photon numbers, the table
    :data:`PLAIN_NOISE` with the coefficients exactly as published.
    """
    return unwrap(kernel(PLAIN_NOISE)(*_means(n_bar, m_bar)))


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

    The table :data:`AMPLIFIED_NOISE`, grouped by powers mu^8, mu^6 nu^2,
    mu^4 nu^4, mu^2 nu^6 and nu^8 with exactly the published coefficients.
    Note that the published polynomial is not symmetric under swapping the
    two source means and does not reduce to :func:`noise_avg_printed` at
    zero gain; both deviations are quantified by the consistency checks.
    """
    n, m = _means(n_bar, m_bar)
    mu, nu = coeffs(params)
    return unwrap(kernel(AMPLIFIED_NOISE)(mu * mu, nu * nu, n, m))


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
    mu, nu = coeffs(params)
    amplified_noise = kernel(AMPLIFIED_NOISE)(mu * mu, nu * nu, n, m)
    plain_noise = kernel(PLAIN_NOISE)(n, m)
    n_out, m_out = equivalent_thermal_mean(n, params), equivalent_thermal_mean(m, params)
    amplified = 2.0 * n_out * m_out / np.sqrt(amplified_noise)
    plain = 2.0 * n * m / np.sqrt(plain_noise)
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
        DomainError: if the grid is empty or not a sequence of pairs, or
            the propagated moments overflow.
    """
    pairs = nonnegative("grid", grid)
    if pairs.ndim != 2 or pairs.shape[1] != 2 or len(pairs) == 0:
        raise DomainError("consistency report requires a nonempty grid of (n_bar, m_bar) pairs")
    n, m = pairs.T
    nm, mm = thermal_moments(n), thermal_moments(m)
    plain = noise_avg_printed(n, m)
    plain_dev = relative_deviation(plain, noise_avg_substitution(nm, mm))
    out = propagate_moments(nm, params), propagate_moments(mm, params)
    if not np.isfinite(out).all():
        raise DomainError(f"the moments propagated at gain {params.gain} overflow the float range")
    amp_dev = relative_deviation(opa_noise_avg_printed(n, m, params), noise_avg_substitution(*out))
    g0_dev = relative_deviation(opa_noise_avg_printed(n, m, OpaParams(0.0)), plain)
    return plain_dev, amp_dev, g0_dev
