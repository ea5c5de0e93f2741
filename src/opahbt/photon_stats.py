"""Photon-number statistics of thermal (Bose-Einstein) light.

Provides the closed-form first four moments of the thermal distribution,
the table :data:`CORRECTED` and, for the oracle, :data:`PAPER_PRINTED` (as
published, whose third moment is a known misprint), together with a
direct-summation oracle that computes the same moments from the geometric
distribution itself.
A thermal source is given by its mean photon number alone, and the oracle
sums to the fixed relative tail bound :data:`SUMMATION_TAIL_BOUND`.
Moments are a float64 array ``[<n>, <n^2>, <n^3>, <n^4>]`` of shape
``(4, *means.shape)``, so ``n1, n2, n3, n4 = moments`` unpacks them.
"""

from __future__ import annotations

import math

import numpy as np

from ._domain import FloatOrArray, kernel, nonnegative, nonnegative_scalar
from .errors import SummationLimitError

SUMMATION_TERM_CAP = 10_000_000
SUMMATION_TAIL_BOUND = 1e-13
_CHUNK = 4096
_ORDERS = np.arange(1, 5)
_FACTORIALS = np.array([1.0, 2.0, 6.0, 24.0])


# One table per moment <n^j>, j = 1..4, of (coefficient, (power of N,)) rows.
CORRECTED = (
    ((1, (1,)),),
    ((2, (2,)), (1, (1,))),
    ((6, (3,)), (6, (2,)), (1, (1,))),
    ((24, (4,)), (36, (3,)), (14, (2,)), (1, (1,))),
)
# As published: the cubic row of the third moment has coefficient 1, not 6.
PAPER_PRINTED = (CORRECTED[0], CORRECTED[1], ((1, (3,)),) + CORRECTED[2][1:], CORRECTED[3])


def thermal_moments(n_bar: FloatOrArray) -> np.ndarray:
    """Closed-form moments <n^j>, j = 1..4, of a thermal state, shape ``(4, *n_bar.shape)``.

    The Bose-Einstein table :data:`CORRECTED` (third moment 6N^3 + 6N^2 + N)
    at each mean photon number N of ``n_bar``, a float or an array.
    """
    n = nonnegative("mean photon number", n_bar)
    return np.stack([kernel(rows)(n) for rows in CORRECTED])


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
            reach the bound.  It is raised before any term is summed where
            mean/(1+mean) is too close to 1 for a bound, or where the bound
            predicted at the cap already misses (means from about 2.4e5);
            the error reports the relative bound achieved or predicted.
    """
    n_mean = nonnegative_scalar("mean photon number", n_bar)
    if n_mean == 0.0:
        return np.zeros(4)

    q = n_mean / (1.0 + n_mean)
    log_q = math.log(q)
    tails = _tail_bounds(q, log_q, SUMMATION_TERM_CAP - 1)
    if tails is None:
        raise SummationLimitError(
            f"at mean {n_mean:g}, mean/(1+mean) = {q!r} is too close to 1 for a tail bound "
            f"within the cap of {SUMMATION_TERM_CAP} terms; lower the mean",
            achieved_bound=math.inf,
        )
    # The bound the loop would reach at the cap, with each sum replaced by
    # its upper bound j!/lambda^j, lambda = -log q: n is the floor of an
    # exponential variable of rate lambda, whose moments those are.  A miss
    # here is a miss after summing, so it raises before summing.
    predicted = float(np.max(tails * (-log_q) ** _ORDERS / _FACTORIALS))
    if predicted > SUMMATION_TAIL_BOUND:
        raise SummationLimitError(
            f"summation cap of {SUMMATION_TERM_CAP} terms too small at mean {n_mean}; "
            f"relative tail bound at the cap at least {predicted:.3e} > "
            f"{SUMMATION_TAIL_BOUND:.3e}",
            achieved_bound=predicted,
        )
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

        tails = _tail_bounds(q, log_q, stop - 1)
        if tails is not None and np.all(sums > 0):
            achieved = float(np.max(tails / sums))
            if achieved <= SUMMATION_TAIL_BOUND:
                return sums

    raise SummationLimitError(
        f"summation cap of {SUMMATION_TERM_CAP} terms reached at mean {n_mean}; "
        f"achieved relative tail bound {achieved:.3e} > {SUMMATION_TAIL_BOUND:.3e}",
        achieved_bound=achieved,
    )


def _tail_bounds(q: float, log_q: float, m_last: int) -> np.ndarray | None:
    """Bounds on the tails sum_{n > M} p_n n^j, j = 1..4, of the geometric series.

    For n > M = ``m_last`` the term ratio is below q (1 + 1/(M+1))^4; where
    that ratio is below 1, each tail is under p_{M+1} (M+1)^j / (1 - ratio).
    None where it is not.
    """
    ratio = q * (1.0 + 1.0 / (m_last + 1)) ** 4
    if ratio >= 1.0:
        return None
    p_next = (1.0 - q) * math.exp((m_last + 1) * log_q)
    return p_next * (m_last + 1.0) ** _ORDERS / (1.0 - ratio)
