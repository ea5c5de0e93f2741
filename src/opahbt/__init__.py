"""Amplified intensity interferometry: closed-form laws and their oracles.

The package evaluates the correlation, noise and SNR algebra of a two-
detector intensity interferometer, plain and with optical parametric
amplifiers on the detector inputs, and verifies every closed form against
independent routes: direct summation for thermal moments, truncated
Fock-space numerics for the amplifier, a Gaussian pairing-sum engine, and
a generic substitution path for the noise polynomials.

``import opahbt`` loads neither numpy nor any submodule.  Every public
name loads on first use, and each lookup imports only the module that
defines it (with the modules that one imports): the laws in
``photon_stats``, ``opa`` and ``hbt``, ``analysis`` for the ``fig4``,
``fig5``, ``fit`` and ``estimate-phi`` commands, and ``wick``, ``fock``
and ``oracle_checks`` for ``oracle-check``.  A Fock state is one numpy array
of photon-number populations on an int number of levels per mode, short of
the mass truncation dropped; the package needs only numpy at run time.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public module and the public names it defines.
_LAZY = {
    "errors": (
        "DegenerateFitError", "DomainError", "FringeCoverageError", "OpaHbtError",
        "SummationLimitError", "TruncationError",
    ),
    "photon_stats": ("geometric_summation_moments", "thermal_moments"),
    "opa": ("OpaParams", "coeffs", "equivalent_thermal_mean", "propagate_moments"),
    "hbt": (
        "correlation_ac", "correlation_full", "noise_avg_printed", "noise_avg_substitution",
        "noise_full", "opa_correlation_ac", "opa_noise_avg_printed", "signal_ratio", "snr_ratio",
    ),
    "analysis": (
        "FitResult", "PhiEstimate", "RatioTable", "Spacing", "SweepSpec", "estimate_phi",
        "fit_inverse_law", "sweep_ratios",
    ),
    "fock": (
        "OrderingConvention", "choose_dim", "hbt_two_mode_correlation", "reduced_moments",
        "space_for_squeezed_thermal", "squeeze_populations", "thermal_populations",
        "two_mode_squeeze",
    ),
    "wick": (
        "amplified_thermal", "gaussian_wick_moment", "number_moments", "thermal_contractions",
    ),
    "oracle_checks": ("run_oracle_checks",),
}
_MODULE_OF = {name: module for module, names in _LAZY.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name in _MODULE_OF:
        globals()[name] = value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return __all__
