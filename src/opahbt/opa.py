"""Optical parametric amplifier model.

An ideal OPA acts on its two input modes as a two-mode squeezer with
hyperbolic coefficients mu = cosh(g), nu = sinh(g).  The pump phase is
taken as zero, as in the published model, so every law depends on the gain
alone.  With vacuum on the idler port, the photon-number moments of the
amplified signal mode follow closed-form propagation rules that are
polynomial in mu, nu and the input moments; those rules are implemented
here verbatim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._domain import FloatOrArray, nonnegative, nonnegative_scalar, powers, unwrap
from .errors import DomainError
from .photon_stats import MomentVector


@dataclass(frozen=True)
class OpaParams:
    """Amplifier settings: the parametric gain g >= 0 of a zero-phase amplifier."""

    gain: float

    def __post_init__(self):
        object.__setattr__(self, "gain", nonnegative_scalar("gain", self.gain))


@dataclass(frozen=True)
class BogoliubovCoeffs:
    """Hyperbolic transformation coefficients, satisfying mu^2 - nu^2 = 1."""

    mu: float
    nu: float

    @property
    def mu2(self) -> float:
        return self.mu * self.mu

    @property
    def nu2(self) -> float:
        return self.nu * self.nu


def coeffs(params: OpaParams) -> BogoliubovCoeffs:
    """Bogoliubov coefficients (cosh g, sinh g) of the amplifier.

    Raises:
        DomainError: if cosh(g)^2 overflows the float range.
    """
    try:
        mu = math.cosh(params.gain)
        mu**2
    except OverflowError:
        raise DomainError(f"gain {params.gain} overflows cosh(g)^2") from None
    return BogoliubovCoeffs(mu, math.sinh(params.gain))


def equivalent_thermal_mean(n_bar: FloatOrArray, params: OpaParams) -> FloatOrArray:
    """Mean photon number of the amplified signal mode, mu^2 * n_bar + nu^2.

    A thermal input with vacuum on the idler leaves the amplifier exactly
    thermal at this mean, so the value doubles as the equivalent-thermal
    parameter of the output mode.
    """
    n = nonnegative("mean photon number", n_bar)
    c = coeffs(params)
    return unwrap(c.mu2 * n + c.nu2)


def propagate_moments(moments: MomentVector, params: OpaParams) -> MomentVector:
    """Propagate the first four photon-number moments through the amplifier.

    Evaluates the published propagation polynomials in mu, nu and the input
    moments exactly as printed.  For thermal input moments in the corrected
    convention the output equals the thermal moment vector at mean
    mu^2 * m1 + nu^2 (the thermal-closure identity, enforced by tests and
    by the Fock-space oracle).
    """
    c = coeffs(params)
    u, v = c.mu2, c.nu2  # mu^2 and nu^2
    u2, u3, u4 = powers(u)
    v2, v3, v4 = powers(v)
    m1, m2, m3, m4 = moments.m1, moments.m2, moments.m3, moments.m4
    out1 = u * m1 + v
    out2 = u2 * m2 + 3 * u * v * m1 + u * v + v2
    out3 = (
        u3 * m3
        + 6 * u2 * v * m2
        + (4 * u2 * v + 7 * u * v2) * m1
        + u2 * v
        + 4 * u * v2
        + v3
    )
    out4 = (
        u4 * m4
        + 10 * u3 * v * m3
        + (10 * u3 * v + 25 * u2 * v2) * m2
        + (30 * u2 * v2 + 5 * u3 * v + 15 * u * v3) * m1
        + 11 * u2 * v2
        + u3 * v
        + 11 * u * v3
        + v4
    )
    return MomentVector(*(unwrap(x) for x in (out1, out2, out3, out4)))
