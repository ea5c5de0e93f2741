"""Scalar-or-array helpers shared by the closed-form laws.

Laws accept Python or numpy reals and arrays of them.  They validate phases
with :func:`finite_real` (the one finite-real check), means with
:func:`nonnegative`, which builds on it, moment arrays with
:func:`four_moments` and counts with :func:`integer`, compute on float64
arrays, and unwrap the result, so a scalar gives a float.  Every polynomial
law is a coefficient table that :func:`evaluator` reads.
"""

from __future__ import annotations

import functools
import math
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


def four_moments(name: str, value) -> np.ndarray:
    """:func:`nonnegative` moments <n^j>, j = 1..4, on a first axis of length 4."""
    array = nonnegative(name, value)
    if array.ndim == 0 or len(array) != 4:
        raise DomainError(f"{name} must hold 4 moments on its first axis, got shape {array.shape}")
    return array


def integer(name: str, value, low: int, high: float = np.inf) -> int:
    """``value`` as a Python int in [low, high]; numpy integers pass, bools do not."""
    whole = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not (whole and low <= value <= high):
        rule = f">= {low}" if high == np.inf else f"in [{low}, {high}]"
        raise DomainError(f"{name} must be an integer {rule}, got {value!r}")
    return int(value)


def evaluator(*variables):
    """The function that evaluates polynomial tables at ``variables``.

    A table is a sequence of rows ``(coefficient, powers)``, one power per
    variable.  Rows add in table order, and a row multiplies its coefficient
    by the variables' powers in argument order, so a law written in its
    published order keeps the bits of its term-by-term form.  A group row's
    coefficient is a table in the later variables, times the row's monomial.

    Each power above 1 is computed once, by ``np.float_power``: its libm pow
    is the one scalar ``**`` uses, so arrays match per-point scalars bit for
    bit (ndarray ``**`` can differ by an ulp), and overflow gives inf.
    """
    power = functools.cache(lambda i, k: variables[i] if k == 1 else np.float_power(variables[i], k))
    # Not a recursive closure: that is a reference cycle, which would hold
    # every power array until the garbage collector runs.
    return functools.partial(_sum_rows, power=power)


def _sum_rows(table, power, first=0):
    total = None
    for coefficient, exponents in table:
        factors = [power(first + i, k) for i, k in enumerate(exponents) if k]
        if isinstance(coefficient, tuple):
            term = math.prod(factors) * _sum_rows(coefficient, power, first + len(exponents))
        else:
            term = math.prod(factors, start=coefficient)
        total = term if total is None else total + term
    return total


def unwrap(value):
    """A 0-d result as a Python float; arrays pass through unchanged."""
    return float(value) if np.ndim(value) == 0 else value
