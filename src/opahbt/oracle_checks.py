"""Cross-verification suites behind the ``oracle-check`` command.

Each check compares two independent routes to the same quantity, judged
on the worst relative deviation over its grid.  What each check claims is
one row of the table :data:`CHECKS`; the ``check_*`` functions measure, and
:func:`_check` makes a row and its deviations the report entry.  The known
defects of the published algebra (the thermal third moment misprint, the
amplified noise law's failure to reduce to the plain law at zero gain, and
its mismatch with the substitution route) are expected to fail and never
affect the overall verdict.  So is the law's source-swap asymmetry, but
only where its predicted size relative to the law exceeds the tolerance;
at small gains it rounds away.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from typing import Sequence

import numpy as np

from ._domain import nonnegative
from .errors import DomainError
from .fock import (
    DEFAULT_TAIL,
    OrderingConvention,
    hbt_two_mode_correlation,
    reduced_moments,
    space_for_squeezed_thermal,
    squeeze_populations,
    thermal_populations,
)
from .hbt import (
    consistency_report,
    correlation_full,
    opa_noise_avg_printed,
    relative_deviation,
)
from .opa import OpaParams, coeffs, equivalent_thermal_mean, propagate_moments
from .photon_stats import MomentConvention, geometric_summation_moments, thermal_moments
from .wick import amplified_thermal, number_moments

DEFAULT_N_GRID = (0.0, 0.5, 1.0)
DEFAULT_G_GRID = (0.0, 0.25, 0.5, 1.0)
DEFAULT_DELTA_GRID = (0.0, math.pi / 4, math.pi / 2, math.pi)
_DELTAS = np.array(DEFAULT_DELTA_GRID)

# A check's fixed claim; its note gains ``confirmed`` when its predicted gap is confirmed.
Claim = namedtuple("Claim", "description expected tolerance note confirmed", defaults=("", ""))

# Each check's claim, keyed by its name, in report order.
CHECKS = {
    "thermal-moment-closed-forms": Claim(
        "corrected thermal moment polynomials vs direct summation of the "
        "geometric distribution",
        "pass", 1e-9,
    ),
    "published-third-moment": Claim(
        "as-published thermal third moment vs direct summation",
        "fail", 1e-9,
        "known misprint: the published third moment is low by exactly 5*N^3 "
        "(cubic coefficient 1 instead of 6)",
        "; deviation matches 5*N^3 on the grid",
    ),
    "thermal-closure": Claim(
        "propagated thermal moments vs thermal moments at the amplified mean",
        "pass", 1e-9,
    ),
    "squeeze-moment-propagation": Claim(
        "reduced moments of the squeezed thermal (x) vacuum state vs the "
        "closed-form propagation polynomials",
        "pass", 1e-6,
    ),
    "wick-vs-fock-moments": Claim(
        "Gaussian pairing-sum moments vs truncated-Fock reduced moments of "
        "the amplifier output",
        "pass", 1e-6,
    ),
    "normal-ordered-correlator": Claim(
        "two-mode matrix correlator under the normal-ordered convention vs "
        "the analytic correlation law",
        "pass", 1e-6,
    ),
    "ordering-gap": Claim(
        "literal operator-product correlator vs normal-ordered convention",
        "fail", 1e-9,
        "the literal product keeps commutator terms; the gap equals "
        "(n_bar + m_bar) cos(delta)",
        ", confirmed on the grid",
    ),
    "plain-noise-reconstruction": Claim(
        "published plain quartic noise law vs the generic phase-averaged "
        "noise with thermal moments",
        "pass", 1e-9,
    ),
    "amplified-noise-substitution": Claim(
        "published amplified noise law vs the substitution route through "
        "the propagated moments",
        "fail", 1e-9,
        "documented: the published amplified law is not reproduced by "
        "substituting the propagated moments into the generic noise",
    ),
    "amplified-noise-zero-gain-reduction": Claim(
        "published amplified noise law at zero gain vs the plain law",
        "fail", 1e-9,
        "documented: at zero gain the published amplified law gives 418 "
        "instead of 466 at unit means (about 10.3 percent low)",
    ),
    "amplified-noise-swap-symmetry": Claim(
        "published amplified noise law under swapping the two source means",
        "fail", 1e-9,
        "documented: the published amplified law is asymmetric by "
        "4 (n_bar - m_bar) mu^2 nu^4",
        ", confirmed on the grid",
    ),
}


def _check(name, deviations, gap=None, predicted=None, expected=None):
    """The report entry of check ``name``: its row of :data:`CHECKS`, judged on ``deviations``.

    ``deviations`` is an array or a list of equally shaped per-point arrays,
    and the worst of them counts.  A NaN among them, like an infinity,
    raises :class:`DomainError`, and so does an empty grid, which would
    otherwise pass unseen.  The note gains the row's ``confirmed`` suffix
    when each measured ``gap`` equals its ``predicted`` size to 1e-6,
    relative above 1.  ``expected`` overrides the row's expectation.
    """
    claim = CHECKS[name]
    if not np.size(deviations):
        raise DomainError(f"check {name} compares no grid point")
    worst = float(np.max(deviations))
    if not math.isfinite(worst):
        raise DomainError(f"check {name}: the deviation is {worst}; the inputs overflow")
    confirmed = gap is not None and np.all(
        np.abs(np.subtract(gap, predicted)) <= 1e-6 * np.maximum(1.0, np.abs(predicted))
    )
    expected = expected or claim.expected
    passed = worst <= claim.tolerance
    return {
        "name": name,
        "description": claim.description,
        "expected": expected,
        "tolerance": claim.tolerance,
        "max_rel_deviation": worst,
        "passed": passed,
        "as_expected": passed == (expected == "pass"),
        "note": claim.note + (claim.confirmed if confirmed else ""),
    }


def check_thermal_closed_forms(means: np.ndarray, moments: np.ndarray) -> dict:
    """Corrected closed-form moments against the direct-summation oracle.

    ``moments`` holds the summed moments of ``means``, shape ``(4, means)``.
    """
    closed = thermal_moments(means, MomentConvention.CORRECTED)
    return _check("thermal-moment-closed-forms", relative_deviation(closed, moments))


def check_published_third_moment(means: np.ndarray, moments: np.ndarray) -> dict:
    """The as-published third moment against the summation oracle."""
    printed_m3 = thermal_moments(means, MomentConvention.PAPER_PRINTED)[2]
    return _check(
        "published-third-moment",
        relative_deviation(printed_m3, moments[2]),
        gap=moments[2] - printed_m3,
        predicted=5.0 * np.float_power(means, 3),
    )


def check_thermal_closure(n_grid, g_grid) -> dict:
    """Moment propagation against the equivalent-thermal identity."""
    n = np.asarray(n_grid, dtype=float)
    deviations = []
    for g in g_grid:
        params = OpaParams(g)
        out = propagate_moments(thermal_moments(n), params)
        want = thermal_moments(equivalent_thermal_mean(n, params))
        deviations.append(relative_deviation(out, want))
    return _check("thermal-closure", deviations)


def _squeezed_thermal(n_grid, g_grid) -> dict:
    """Moments of thermal(n) (x) vacuum squeezed at g, keyed by (n, g), for both Fock suites."""
    return {
        (n, g): reduced_moments(
            squeeze_populations(thermal_populations(n, space_for_squeezed_thermal(n, g)), g)
        )
        for n, g in dict.fromkeys(itertools.product(n_grid, g_grid))
    }


def check_squeeze_propagation(squeezed: dict) -> dict:
    """Truncated-Fock reduced moments against the propagation polynomials."""
    want = [propagate_moments(thermal_moments(n), OpaParams(g)) for n, g in squeezed]
    return _check("squeeze-moment-propagation", relative_deviation(list(squeezed.values()), want))


def check_wick_vs_fock(squeezed: dict) -> dict:
    """Pairing-sum Gaussian moments against the truncated-Fock moments."""
    want = [number_moments(amplified_thermal(n, OpaParams(g)), mode=0) for n, g in squeezed]
    return _check("wick-vs-fock-moments", relative_deviation(list(squeezed.values()), want))


def check_normal_ordered_correlator(pairs: np.ndarray, normal: np.ndarray) -> dict:
    """The matrix correlator, one row per (n, m) row of ``pairs``, against the correlation law."""
    n, m = pairs.T[:, :, None]
    want = correlation_full(thermal_moments(n), thermal_moments(m), _DELTAS)
    return _check("normal-ordered-correlator", relative_deviation(normal, want))


def check_ordering_gap(pairs: np.ndarray, normal: np.ndarray) -> dict:
    """Literal versus normal-ordered correlator (documented commutator gap)."""
    lit = pairs.any(axis=1)  # (0, 0) is dark under both orderings
    pairs, normal = pairs[lit], normal[lit]
    literal = np.array([
        hbt_two_mode_correlation(n, m, _DELTAS, OrderingConvention.AS_WRITTEN)[0]
        for n, m in pairs.tolist()
    ])
    return _check(
        "ordering-gap",
        relative_deviation(literal, normal),
        gap=literal - normal,
        predicted=pairs.sum(axis=1)[:, None] * np.cos(_DELTAS),
    )


def check_noise_consistency(params: OpaParams, pair_grid) -> list[dict]:
    """The three substitution checks of the published noise laws."""
    names = (
        "plain-noise-reconstruction",
        "amplified-noise-substitution",
        "amplified-noise-zero-gain-reduction",
    )
    deviations = consistency_report(params, pair_grid)
    return [_check(name, deviation) for name, deviation in zip(names, deviations)]


def check_amplified_noise_swap(params: OpaParams, pair_grid) -> dict:
    """Source-swap symmetry of the published amplified noise law.

    The check is expected to fail only where the predicted asymmetry,
    relative to the law's value, exceeds the tolerance: at a small gain
    it rounds away and the law is symmetric to working precision.
    """
    n, m = np.asarray(pair_grid, dtype=float).T
    direct = opa_noise_avg_printed(n, m, params)
    swapped = opa_noise_avg_printed(m, n, params)
    mu, nu = coeffs(params)
    predicted = 4.0 * (n - m) * (mu * mu) * (nu * nu) ** 2
    predicted_gap = np.max(np.abs(predicted) / np.maximum(np.abs(direct), np.abs(swapped)))
    return _check(
        "amplified-noise-swap-symmetry",
        relative_deviation(direct, swapped),
        gap=direct - swapped,
        predicted=predicted,
        expected="fail" if predicted_gap > 1e-9 else "pass",
    )


def run_oracle_checks(
    n_grid: Sequence[float] = DEFAULT_N_GRID,
    g_grid: Sequence[float] = DEFAULT_G_GRID,
    gain_for_noise: float = 2.0,
) -> dict:
    """Run every verification suite and assemble the JSON-ready report.

    The report lists one entry per row of :data:`CHECKS`, in its order.
    The overall verdict ``all_expected_pass_ok`` covers only the checks
    expected to pass; the documented defects of the published algebra are
    reported but never change the verdict.  The Fock spaces are sized for
    the fixed thermal tail :data:`~opahbt.fock.DEFAULT_TAIL`, which the
    report echoes as ``tail``.

    Raises:
        DomainError: if a grid is not a 1-D array of finite reals >= 0
            (a wrong shape is named), or the gain not one such real; also if
            every mean of ``n_grid`` is zero, so the ordering-gap check would
            compare no pair.
    """
    n_grid = tuple(nonnegative("mean photon number", n_grid, 1).tolist())
    if not any(n_grid):
        raise DomainError(
            "check ordering-gap compares no pair: every mean of the n grid (--n-grid) is 0"
        )
    g_grid = tuple(nonnegative("gain", g_grid, 1).tolist())
    params = OpaParams(gain_for_noise)

    pair_values = np.geomspace(0.05, 20.0, 20)
    pair_grid = [(float(n), float(m)) for n in pair_values for m in pair_values]
    small_pairs = [(1.0, 1.0), (0.5, 1.0), (2.0, 0.25), (5.0, 5.0), (0.1, 3.0)]

    # An overflow shows up as a non-finite deviation, which _check turns
    # into a DomainError; the numpy warnings would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        # Each shared route is computed once, as one array over its grid,
        # just before the first check that reads it, so a grid that breaks
        # several checks raises the error of the earliest one.
        means = np.array(list(dict.fromkeys(n_grid + (2.0, 10.0))))
        moments = np.column_stack([geometric_summation_moments(n) for n in means])
        checks = [
            check_thermal_closed_forms(means, moments),
            check_published_third_moment(means, moments),
            check_thermal_closure(n_grid + (5.0, 50.0), g_grid + (2.0, 3.0)),
        ]
        squeezed = _squeezed_thermal(n_grid, g_grid)
        checks += [check_squeeze_propagation(squeezed), check_wick_vs_fock(squeezed)]
        pairs = np.array(list(itertools.product(dict.fromkeys(n_grid), repeat=2)))
        normal = np.array([
            hbt_two_mode_correlation(n, m, _DELTAS, OrderingConvention.NORMAL_ORDERED)[0]
            for n, m in pairs.tolist()
        ])
        checks += [
            check_normal_ordered_correlator(pairs, normal),
            check_ordering_gap(pairs, normal),
            *check_noise_consistency(params, pair_grid),
            check_amplified_noise_swap(params, small_pairs),
        ]
    verdict = all(c["passed"] for c in checks if c["expected"] == "pass")
    return {
        "n_grid": list(n_grid),
        "g_grid": list(g_grid),
        "delta_grid": list(DEFAULT_DELTA_GRID),
        "tail": DEFAULT_TAIL,
        "gain_for_noise": params.gain,
        "checks": checks,
        "all_expected_pass_ok": verdict,
    }
