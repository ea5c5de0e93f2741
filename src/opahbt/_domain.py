"""Scalar-or-array helpers shared by the closed-form laws.

Laws accept Python or numpy reals and arrays of them.  They validate phases
with :func:`finite_real` (the one finite-real check), means with
:func:`nonnegative`, which builds on it, and counts with :func:`integer`,
compute on float64 arrays, and unwrap the result, so a scalar gives a float.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from .errors import DomainError

FloatOrArray = Union[float, np.ndarray]


def _reject(name: str, array: np.ndarray, bad: np.ndarray, rule: str) -> None:
    if bad.any():  # a 0-d mask selects its one element too
        raise DomainError(f"{name} must be {rule}, got {array[bad][0].item()!r}")


def finite_real(name: str, value) -> np.ndarray:
    """``value`` as a float64 array (0-d for a scalar), every element finite.

    Raises:
        DomainError: for strings, None, complex or ragged input, and for
            any NaN or infinite element (the first one is named).
    """
    try:
        array = np.asarray(value)
    except (TypeError, ValueError):
        array = np.asarray(None)
    if array.dtype.kind not in "biuf":
        raise DomainError(f"{name} must be a finite real, got {value!r}")
    _reject(name, array, ~np.isfinite(array), "finite")
    return array.astype(float, copy=False)


def nonnegative(name: str, value) -> np.ndarray:
    """:func:`finite_real` with every element also >= 0."""
    array = finite_real(name, value)
    _reject(name, array, array < 0, ">= 0")
    return array


def nonnegative_scalar(name: str, value) -> float:
    """:func:`nonnegative` for a single value, returned as a Python float."""
    array = nonnegative(name, value)
    if array.ndim:
        raise DomainError(f"{name} must be a scalar, got shape {array.shape}")
    return float(array)


def integer(name: str, value, low: int, high: float = np.inf) -> int:
    """``value`` as a Python int in [low, high]; numpy integers pass, bools do not."""
    whole = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not (whole and low <= value <= high):
        rule = f">= {low}" if high == np.inf else f"in [{low}, {high}]"
        raise DomainError(f"{name} must be an integer {rule}, got {value!r}")
    return int(value)


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
