"""Scalar-or-array helpers shared by the closed-form laws.

Laws accept Python or numpy reals and arrays of them.  They validate their
means with :func:`nonnegative` (the package's one finite-and-non-negative
check), compute on float64 arrays, and hand the result back through
:func:`unwrap`, so a scalar in gives a float out.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from .errors import DomainError

FloatOrArray = Union[float, np.ndarray]


def nonnegative(name: str, value) -> np.ndarray:
    """``value`` as a float64 array (0-d for a scalar), every element finite and >= 0.

    Raises:
        DomainError: for strings, None, complex or ragged input, and for
            any NaN, infinite or negative element (the first one is named).
    """
    try:
        array = np.asarray(value)
    except (TypeError, ValueError):
        array = np.asarray(None)
    if array.dtype.kind not in "biuf":
        raise DomainError(f"{name} must be a finite real >= 0, got {value!r}")
    bad = ~(np.isfinite(array) & (array >= 0))
    if bad.any():
        shown = array[bad][0].item() if array.ndim else value
        raise DomainError(f"{name} must be finite and >= 0, got {shown!r}")
    return array.astype(float, copy=False)


def nonnegative_scalar(name: str, value) -> float:
    """:func:`nonnegative` for a single value, returned as a Python float."""
    array = nonnegative(name, value)
    if array.ndim:
        raise DomainError(f"{name} must be a scalar, got shape {array.shape}")
    return float(array)


def powers(x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """x^2, x^3 and x^4 by ``np.float_power``.

    float_power calls the libm pow that a Python or numpy scalar ``**``
    uses, so an array evaluation matches per-point scalar evaluation bit
    for bit; ndarray ``**`` does not (it differs by an ulp at some points).
    Overflow gives inf rather than raising OverflowError.
    """
    return np.float_power(x, 2), np.float_power(x, 3), np.float_power(x, 4)


def unwrap(value):
    """A 0-d result as a Python float; arrays pass through unchanged."""
    return float(value) if np.ndim(value) == 0 else value
