"""Amplified intensity interferometry: closed-form laws and their oracles.

The package evaluates the correlation, noise and SNR algebra of a two-
detector intensity interferometer, plain and with optical parametric
amplifiers on the detector inputs, and verifies every closed form against
independent routes: direct summation for thermal moments, truncated
Fock-space numerics for the amplifier, a Gaussian pairing-sum engine, and
a generic substitution path for the noise polynomials.

``import opahbt`` loads numpy and the law modules every command uses
(``errors``, ``_domain``, ``photon_stats``, ``opa``, ``hbt``).  The other
layers load on first use of one of their names, and each lookup imports
only the module that defines the name: ``analysis`` for the ``fig4``,
``fig5``, ``fit`` and ``estimate-phi`` commands, and ``wick``, ``fock``
and ``oracle_checks`` for ``oracle-check``.  A Fock state is a numpy array
of photon-number populations plus its trace deficit, truncated at an int
number of levels per mode; the package needs only numpy at run time.
"""

from importlib import import_module

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

__version__ = "0.1.0"

# The modules that load on first use, and the public names each defines.
_LAZY = {
    "analysis": (
        "FitResult", "PhiEstimate", "Ratio", "RatioTable", "Spacing", "SweepSpec", "estimate_phi",
        "fit_inverse_law", "sweep_ratios", "target_ratio_operating_point",
    ),
    "fock": (
        "OrderingConvention", "choose_dim", "hbt_two_mode_correlation", "reduced_moments",
        "space_for_squeezed_thermal", "squeeze_populations", "thermal_populations",
        "two_mode_squeeze",
    ),
    "oracle_checks": ("run_oracle_checks",),
    "wick": (
        "amplified_thermal", "gaussian_wick_moment", "number_moments", "thermal_contractions",
    ),
}
_MODULE_OF = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    if name in _MODULE_OF:
        globals()[name] = value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BogoliubovCoeffs",
    "ConsistencyReport",
    "DegenerateFitError",
    "DomainError",
    "FringeCoverageError",
    "MomentConvention",
    "MomentVector",
    "OpaHbtError",
    "OpaParams",
    "SummationLimitError",
    "TruncationError",
    "UnreachableTargetError",
    "coeffs",
    "consistency_report",
    "correlation_ac",
    "correlation_full",
    "equivalent_thermal_mean",
    "geometric_summation_moments",
    "noise_avg_printed",
    "noise_avg_substitution",
    "noise_full",
    "opa_correlation_ac",
    "opa_noise_avg_printed",
    "propagate_moments",
    "signal_ratio",
    "snr_ratio",
    "thermal_moments",
    *_MODULE_OF,
]
