"""Photon-number statistics of thermal (Bose-Einstein) light.

Provides the closed-form first four moments of the thermal distribution in
two conventions (the corrected algebra and the form as published, whose
third moment is a known misprint), together with a direct-summation oracle
that computes the same moments from the geometric distribution itself.
A thermal source is given by its mean photon number alone, and the oracle
sums to the fixed relative tail bound :data:`SUMMATION_TAIL_BOUND`.
Moments are a float64 array ``[<n>, <n^2>, <n^3>, <n^4>]`` of shape
``(4, *means.shape)``, so ``n1, n2, n3, n4 = moments`` unpacks them.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from ._domain import FloatOrArray, nonnegative, nonnegative_scalar, powers
from .errors import DomainError, SummationLimitError

SUMMATION_TERM_CAP = 10_000_000
SUMMATION_TAIL_BOUND = 1e-13
_CHUNK = 4096


class MomentConvention(Enum):
    """Which closed form to use for the thermal third moment."""

    CORRECTED = "corrected"
    PAPER_PRINTED = "paper-printed"


def thermal_moments(
    n_bar: FloatOrArray,
    convention: MomentConvention = MomentConvention.CORRECTED,
) -> np.ndarray:
    """Closed-form moments <n^j>, j = 1..4, of a thermal state, shape ``(4, *n_bar.shape)``.

    Parameters
    ----------
    n_bar : float or array
        The mean photon number N of the source.  For an array of means each
        moment is an array of the same shape.
    convention : MomentConvention
        CORRECTED uses the Bose-Einstein value 6N^3 + 6N^2 + N for the third
        moment.  PAPER_PRINTED reproduces the published closed form
        N^3 + 6N^2 + N, which the direct-summation oracle shows to be a
        misprint (it is low by exactly 5N^3).
    """
    n = nonnegative("mean photon number", n_bar)
    n2, n3, n4 = powers(n)
    m2 = 2 * n2 + n
    if convention is MomentConvention.CORRECTED:
        m3 = 6 * n3 + 6 * n2 + n
    elif convention is MomentConvention.PAPER_PRINTED:
        m3 = n3 + 6 * n2 + n
    else:
        raise DomainError(f"unknown moment convention {convention!r}")
    m4 = 24 * n4 + 36 * n3 + 14 * n2 + n
    return np.stack((n, m2, m3, m4))


def geometric_summation_moments(n_bar: float) -> np.ndarray:
    """Moments <n^j>, j = 1..4, of the thermal distribution by direct summation.

    Sums p_n * n^j over the geometric distribution p_n = N^n / (1+N)^(n+1)
    until the remaining weighted tail, bounded analytically through the
    geometric series, drops below :data:`SUMMATION_TAIL_BOUND` times each
    accumulated moment.  This is the independent oracle for the closed forms
    in :func:`thermal_moments` and stays deliberately free of them.

    Raises:
        DomainError: if ``n_bar`` is not a finite real >= 0.
        SummationLimitError: if :data:`SUMMATION_TERM_CAP` terms do not
            reach the bound; the error reports the relative bound achieved.
    """
    n_mean = nonnegative_scalar("mean photon number", n_bar)
    if n_mean == 0.0:
        return np.zeros(4)

    q = n_mean / (1.0 + n_mean)
    log_q = math.log(q)
    sums = np.zeros(4)
    achieved = math.inf
    start = 0
    while start < SUMMATION_TERM_CAP:
        stop = min(start + _CHUNK, SUMMATION_TERM_CAP)
        n = np.arange(start, stop, dtype=float)
        p = (1.0 - q) * np.exp(n * log_q)
        powers = np.vstack([n, n * n, n**3, n**4])
        sums += powers @ p
        start = stop

        # Tail bound: for n > M the term ratio is below q * (1 + 1/(M+1))^4,
        # so each weighted tail is under p_{M+1} * (M+1)^j / (1 - ratio).
        m_last = stop - 1
        ratio = q * (1.0 + 1.0 / (m_last + 1)) ** 4
        if ratio < 1.0 and np.all(sums > 0):
            p_next = (1.0 - q) * math.exp((m_last + 1) * log_q)
            tails = p_next * (m_last + 1.0) ** np.arange(1, 5) / (1.0 - ratio)
            achieved = float(np.max(tails / sums))
            if achieved <= SUMMATION_TAIL_BOUND:
                return sums

    raise SummationLimitError(
        f"summation cap of {SUMMATION_TERM_CAP} terms reached at mean {n_mean}; "
        f"achieved relative tail bound {achieved:.3e} > {SUMMATION_TAIL_BOUND:.3e}",
        achieved_bound=achieved,
    )
