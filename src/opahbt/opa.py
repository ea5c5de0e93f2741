"""Optical parametric amplifier model.

An ideal OPA acts on its two input modes as a two-mode squeezer with
hyperbolic coefficients mu = cosh(g), nu = sinh(g).  The pump phase is
taken as zero, as in the published model, so every law depends on the gain
alone.  With vacuum on the idler port, the photon-number moments of the
amplified signal mode follow closed-form propagation rules that are
polynomial in mu, nu and the input moments; those rules are the
coefficient tables :data:`PROPAGATION`, evaluated verbatim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._domain import FloatOrArray, four_moments, kernel, nonnegative, nonnegative_scalar, unwrap
from .errors import DomainError


@dataclass(frozen=True)
class OpaParams:
    """Amplifier settings: the parametric gain g >= 0 of a zero-phase amplifier."""

    gain: float

    def __post_init__(self):
        object.__setattr__(self, "gain", nonnegative_scalar("gain", self.gain))


def coeffs(params: OpaParams) -> tuple[float, float]:
    """Bogoliubov coefficients (mu, nu) = (cosh g, sinh g) of the amplifier.

    Raises:
        DomainError: if cosh(g)^2 overflows the float range.
    """
    try:
        mu = math.cosh(params.gain)
        mu**2
    except OverflowError:
        raise DomainError(f"gain {params.gain} overflows cosh(g)^2") from None
    return mu, math.sinh(params.gain)


def equivalent_thermal_mean(n_bar: FloatOrArray, params: OpaParams) -> FloatOrArray:
    """Mean photon number of the amplified signal mode, mu^2 * n_bar + nu^2.

    A thermal input with vacuum on the idler leaves the amplifier exactly
    thermal at this mean, so the value doubles as the equivalent-thermal
    parameter of the output mode.
    """
    n = nonnegative("mean photon number", n_bar)
    mu, nu = coeffs(params)
    return unwrap(mu * mu * n + nu * nu)


# One table per output moment <n^j>, j = 1..4, in
# (mu^2, nu^2, <n>, <n^2>, <n^3>, <n^4>) of the input, as published.
PROPAGATION = (
    ((1, (1, 0, 1, 0, 0, 0)), (1, (0, 1, 0, 0, 0, 0))),
    ((1, (2, 0, 0, 1, 0, 0)), (3, (1, 1, 1, 0, 0, 0)), (1, (1, 1, 0, 0, 0, 0)),
     (1, (0, 2, 0, 0, 0, 0))),
    ((1, (3, 0, 0, 0, 1, 0)), (6, (2, 1, 0, 1, 0, 0)), (4, (2, 1, 1, 0, 0, 0)),
     (7, (1, 2, 1, 0, 0, 0)), (1, (2, 1, 0, 0, 0, 0)), (4, (1, 2, 0, 0, 0, 0)),
     (1, (0, 3, 0, 0, 0, 0))),
    ((1, (4, 0, 0, 0, 0, 1)), (10, (3, 1, 0, 0, 1, 0)), (10, (3, 1, 0, 1, 0, 0)),
     (25, (2, 2, 0, 1, 0, 0)), (30, (2, 2, 1, 0, 0, 0)), (5, (3, 1, 1, 0, 0, 0)),
     (15, (1, 3, 1, 0, 0, 0)), (11, (2, 2, 0, 0, 0, 0)), (1, (3, 1, 0, 0, 0, 0)),
     (11, (1, 3, 0, 0, 0, 0)), (1, (0, 4, 0, 0, 0, 0))),
)


def propagate_moments(moments: np.ndarray, params: OpaParams) -> np.ndarray:
    """Propagate the moments <n^j>, j = 1..4, on the first axis through the amplifier.

    Evaluates the published propagation polynomials, the tables
    :data:`PROPAGATION`, in mu, nu and the input moments.  For thermal
    input moments in the corrected convention the output equals the
    thermal moments at mean mu^2 * m1 + nu^2 (the thermal-closure identity,
    enforced by tests and by the Fock-space oracle).

    Raises:
        DomainError: unless ``moments`` holds four finite moments >= 0.
    """
    moments = four_moments("moments", moments)
    mu, nu = coeffs(params)
    return np.stack([kernel(table)(mu * mu, nu * nu, *moments) for table in PROPAGATION])
