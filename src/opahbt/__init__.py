"""Amplified intensity interferometry: closed-form laws and their oracles.

The package evaluates the correlation, noise and SNR algebra of a two-
detector intensity interferometer, plain and with optical parametric
amplifiers on the detector inputs, and verifies every closed form against
independent routes: direct summation for thermal moments, truncated
Fock-space numerics for the amplifier, a Gaussian pairing-sum engine, and
a generic substitution path for the noise polynomials.

The Fock-space oracle (``fock``) and the suites built on it
(``oracle_checks``) are imported on first use of one of their names.  A
Fock state is a numpy array of photon-number populations plus its trace
deficit, truncated at an int number of levels per mode; the package needs
only numpy at run time.
"""

from .analysis import (
    FitResult,
    PhiEstimate,
    RatioTable,
    Spacing,
    SweepSpec,
    estimate_phi,
    fit_inverse_law,
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
    Geometry,
    consistency_report,
    correlation_ac,
    correlation_full,
    noise_avg_printed,
    noise_avg_substitution,
    noise_full,
    opa_correlation_ac,
    opa_noise_avg_printed,
    signal_ratio,
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
    geometric_summation_moments,
    thermal_moments,
)
from .wick import GaussianSecondMoments, gaussian_wick_moment, number_moments

__version__ = "0.1.0"


def __getattr__(name: str):
    # Every public name not imported above lives in fock or oracle_checks.
    if name in __all__:
        from . import fock, oracle_checks

        for module in (fock, oracle_checks):
            if hasattr(module, name):
                globals()[name] = value = getattr(module, name)
                return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BogoliubovCoeffs",
    "ConsistencyReport",
    "DegenerateFitError",
    "DomainError",
    "FitResult",
    "FringeCoverageError",
    "GaussianSecondMoments",
    "Geometry",
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
    "TruncationError",
    "UnreachableTargetError",
    "choose_dim",
    "coeffs",
    "consistency_report",
    "correlation_ac",
    "correlation_full",
    "equivalent_thermal_mean",
    "estimate_phi",
    "fit_inverse_law",
    "gaussian_wick_moment",
    "geometric_summation_moments",
    "hbt_two_mode_correlation",
    "noise_avg_printed",
    "noise_avg_substitution",
    "noise_full",
    "number_moments",
    "opa_correlation_ac",
    "opa_noise_avg_printed",
    "propagate_moments",
    "reduced_moments",
    "run_oracle_checks",
    "signal_ratio",
    "snr_ratio",
    "space_for_squeezed_thermal",
    "squeeze_populations",
    "sweep_ratios",
    "target_ratio_operating_point",
    "thermal_moments",
    "thermal_populations",
    "two_mode_squeeze",
]
