"""Scalar-or-array helpers shared by the closed-form laws.

Laws accept Python or numpy reals and arrays of them.  They validate phases
with :func:`finite_real` (the one finite-real check), means with
:func:`nonnegative`, which builds on it, moment arrays with
:func:`four_moments` and counts with :func:`integer`, each input once, and
compute on ``np.float64`` scalars or float64 arrays; :func:`unwrap` makes a
scalar result a float.  An input of fixed shape also passes its number of
dimensions, checked after its values.  Every polynomial law is a
coefficient table that :func:`kernel` compiles once.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

FloatOrArray = float | np.ndarray
_KERNELS = {}  # id(table) -> (table, kernel); holding the table keeps its id its own


def _reject(name: str, array: np.ndarray, bad: np.ndarray, rule: str) -> None:
    if bad.any() if bad.ndim else bad:  # a 0-d mask needs no reduce and selects its element too
        raise DomainError(f"{name} must be {rule}, got {array[bad][0].item()!r}")


def _dimensions(name: str, array: np.ndarray, ndim: int | None) -> np.ndarray:
    if ndim is not None and array.ndim != ndim:
        rule = ("a scalar", "1-D", "2-D")[ndim]
        raise DomainError(f"{name} must be {rule}, got shape {array.shape}")
    return array


def finite_real(name: str, value, ndim: int | None = None) -> np.ndarray:
    """``value`` as a float64 array, or ``np.float64`` for a scalar, every element finite.

    numpy upcasts a list that mixes bools with numbers, such as
    ``[True, 0.5]``, to floats before this check sees it, so that list
    passes as ``[1.0, 0.5]``; its elements are not scanned for bools.

    Raises:
        DomainError: for strings, None, bools, complex or ragged input, for
            any NaN or infinite element (the first one is named), and then
            for other than ``ndim`` dimensions, if given, naming the shape.
            The message is one line: it names a rejected scalar, else an
            array's first element that is not a real, else its shape.
    """
    try:
        array = np.asarray(value)
    except (TypeError, ValueError):
        raise DomainError(f"{name} must be a finite real, got a ragged sequence") from None
    if array.dtype.kind not in "iuf":
        raise DomainError(f"{name} must be a finite real, got {_first_nonreal(value, array)}")
    _reject(name, array, ~np.isfinite(array), "finite")
    return _dimensions(name, array.astype(float, copy=False)[()], ndim)


def _first_nonreal(value, array: np.ndarray) -> str:
    if array.ndim == 0:
        return repr(value)
    for index, item in zip(np.ndindex(array.shape), array.ravel().tolist()):
        if np.asarray(item).dtype.kind not in "iuf":
            return f"{item!r} at index {index}"
    return f"an array of dtype {array.dtype} and shape {array.shape}"


def nonnegative(name: str, value, ndim: int | None = None) -> np.ndarray:
    """:func:`finite_real` with every element also >= 0, checked before ``ndim``."""
    array = finite_real(name, value)
    _reject(name, array, array < 0, ">= 0")
    return _dimensions(name, array, ndim)


def nonnegative_scalar(name: str, value) -> float:
    """:func:`nonnegative` for a single value, returned as a Python float."""
    return float(nonnegative(name, value, 0))


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


def kernel(table):
    """``table`` compiled, once per table object, to a function of its variables.

    A table is a sequence of rows ``(coefficient, powers)``, one power per
    variable, and a group row's coefficient is a table in the later ones.
    Rows add in table order, each the coefficient times the powers in order
    (a group row: the powers times the group), so a published law keeps the
    bits of its term-by-term form.  Each power above 1 is computed once, by
    ``np.float_power``: arrays match per-point scalars bit for bit (ndarray
    ``**`` can differ by an ulp), and overflow gives inf.
    """
    if id(table) not in _KERNELS:
        source = f"lambda *x: {_source(table, 0, set())}"
        _KERNELS[id(table)] = table, eval(source, {"float_power": np.float_power})
    return _KERNELS[id(table)][1]


def _source(table, first, seen):
    terms = []
    for coefficient, exponents in table:
        row = [] if isinstance(coefficient, tuple) else [repr(coefficient)]
        for i, k in enumerate(exponents, first):
            if k:  # a power is named where it is first computed
                p = f"x[{i}]" if k == 1 else f"p{i}_{k}"
                row.append(p if k == 1 or p in seen else f"({p} := float_power(x[{i}], {k}))")
                seen.add(p)
        if isinstance(coefficient, tuple):
            row.append(f"({_source(coefficient, first + len(exponents), seen)})")
        terms.append(" * ".join(row))
    return " + ".join(terms)


def unwrap(value):
    """A scalar result as a Python float; arrays pass through unchanged."""
    return float(value) if np.ndim(value) == 0 else value
