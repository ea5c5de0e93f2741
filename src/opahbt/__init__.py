"""Amplified intensity interferometry: closed-form laws and their oracles.

The package evaluates the correlation, noise and SNR algebra of a two-
detector intensity interferometer, plain and with optical parametric
amplifiers on the detector inputs, and verifies every closed form against
independent routes: direct summation for thermal moments, truncated
Fock-space numerics for the amplifier, a Gaussian pairing-sum engine, and
a generic substitution path for the noise polynomials.

The Fock-space oracle (``fock``) and the suites built on it
(``oracle_checks``) are imported on first use of one of their names.  A
Fock state is its photon-number population grid, a numpy array; the
package needs only numpy at run time.
"""

from .analysis import (
    FitResult,
    McEstimate,
    PhiEstimate,
    RatioTable,
    Spacing,
    SweepSpec,
    estimate_phi,
    fit_inverse_law,
    monte_carlo_semiclassical,
    sweep_ratios,
    target_ratio_operating_point,
)
from .errors import (
    DegenerateFitError,
    DomainError,
    FringeCoverageError,
    OpaHbtError,
    SummationLimitError,
    TruncationError,
    UnreachableTargetError,
)
from .hbt import (
    ConsistencyReport,
    CorrelationReading,
    Geometry,
    UndefinedSnrWarning,
    consistency_report,
    correlation_ac,
    correlation_dc,
    correlation_full,
    correlation_reading,
    noise_avg_printed,
    noise_avg_substitution,
    noise_full,
    opa_correlation_ac,
    opa_noise_avg_printed,
    signal_ratio,
    snr,
    snr_ratio,
)
from .opa import (
    BogoliubovCoeffs,
    OpaParams,
    coeffs,
    equivalent_thermal_mean,
    propagate_moments,
)
from .photon_stats import (
    MomentConvention,
    MomentVector,
    ThermalSource,
    geometric_summation_moments,
    thermal_moments,
)
from .wick import GaussianSecondMoments, gaussian_wick_moment, number_moments

__version__ = "0.1.0"


def __getattr__(name: str):
    # Every public name not imported above lives in fock or oracle_checks.
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import fock, oracle_checks

    value = getattr(fock, name, None) or getattr(oracle_checks, name)
    globals()[name] = value
    return value


__all__ = [
    "BogoliubovCoeffs",
    "ConsistencyReport",
    "CorrelationReading",
    "DegenerateFitError",
    "DomainError",
    "FitResult",
    "FockSpace",
    "FockState",
    "FringeCoverageError",
    "GaussianSecondMoments",
    "Geometry",
    "McEstimate",
    "MomentConvention",
    "MomentVector",
    "OpaHbtError",
    "OpaParams",
    "OrderingConvention",
    "PhiEstimate",
    "RatioTable",
    "Spacing",
    "SummationLimitError",
    "SweepSpec",
    "ThermalSource",
    "TruncationError",
    "UndefinedSnrWarning",
    "UnreachableTargetError",
    "choose_dim",
    "coeffs",
    "consistency_report",
    "correlation_ac",
    "correlation_dc",
    "correlation_full",
    "correlation_reading",
    "equivalent_thermal_mean",
    "estimate_phi",
    "fit_inverse_law",
    "gaussian_wick_moment",
    "geometric_summation_moments",
    "hbt_two_mode_correlation",
    "moment_truncation_bound",
    "monte_carlo_semiclassical",
    "noise_avg_printed",
    "noise_avg_substitution",
    "noise_full",
    "number_moments",
    "opa_correlation_ac",
    "opa_noise_avg_printed",
    "partial_trace",
    "population_moments",
    "product_state",
    "propagate_moments",
    "reduced_moments",
    "run_oracle_checks",
    "signal_ratio",
    "snr",
    "snr_ratio",
    "space_for_squeezed_thermal",
    "squeeze_populations",
    "sweep_ratios",
    "target_ratio_operating_point",
    "thermal_moments",
    "thermal_populations",
    "thermal_state",
    "two_mode_squeeze",
    "vacuum_state",
]
