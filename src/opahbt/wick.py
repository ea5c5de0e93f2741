"""Moments of zero-mean Gaussian states through Wick's theorem.

Thermal light and the amplifier output are zero-mean Gaussian, so every
ladder-operator moment factorises into a sum over perfect pairings of
second-order contractions.  A k-mode state is its contraction matrix
``K``: a 2k x 2k numpy array over the ladder operators (a_0 ... a_(k-1),
adag_0 ... adag_(k-1)) with ``K[x, y] = <x y>``.  The amplifier output is
derived from the thermal input by its Bogoliubov map, never typed in, and
the pairings are enumerated directly (at most 105 for an eight-operator
monomial), which keeps the engine trivially verifiable and independent of
the truncated-Fock route.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

from ._domain import nonnegative
from .errors import DomainError
from .opa import OpaParams, coeffs
from .photon_stats import MomentVector

#: One ladder operator: (mode index, True for a creation operator).
LadderOp = tuple[int, bool]


def thermal_contractions(means: Sequence[float]) -> np.ndarray:
    """``K`` of independent thermal modes with the given mean photon numbers.

    Raises:
        DomainError: if ``means`` is not a sequence of finite reals >= 0.
    """
    n = nonnegative("mean photon number", means)
    if n.ndim != 1:
        raise DomainError(f"means must be a sequence, got shape {n.shape}")
    zero = np.zeros((n.size, n.size))
    return np.block([[zero, np.diag(n + 1.0)], [np.diag(n), zero]])


def amplified_thermal(n_bar: float, params: OpaParams) -> np.ndarray:
    """``K`` of a zero-phase amplifier's output when fed thermal light and vacuum.

    Mode 0 is the amplified signal, mode 1 the idler output.  The result is
    S K S^T for the thermal(n_bar) x vacuum input K and the Bogoliubov map
    S: a_0 -> mu a_0 + nu adag_1, a_1 -> mu a_1 + nu adag_0.
    """
    c = coeffs(params)
    mu, nu = c.mu, c.nu
    s = np.array([[mu, 0, 0, nu], [0, mu, nu, 0], [0, nu, mu, 0], [nu, 0, 0, mu]])
    return s @ thermal_contractions([n_bar, 0.0]) @ s.T


@lru_cache(maxsize=None)
def _pairings(size: int) -> np.ndarray:
    """Every perfect matching of ``range(size)``, shape (count, size // 2, 2).

    Each pair keeps its positions in left-right order.
    """
    if size == 0:
        matchings = np.zeros((1, 0, 2), dtype=int)
    else:
        blocks = []
        for partner in range(1, size):
            rest = np.delete(np.arange(1, size), partner - 1)[_pairings(size - 2)]
            first = np.broadcast_to([[0, partner]], (len(rest), 1, 2))
            blocks.append(np.concatenate([first, rest], axis=1))
        matchings = np.concatenate(blocks)
    matchings.flags.writeable = False
    return matchings


def gaussian_wick_moment(contractions: np.ndarray, monomial: Sequence[LadderOp]) -> complex:
    """Expectation of an ordered ladder-operator monomial on a Gaussian state.

    Sums over all perfect pairings the product of pairwise contractions,
    each contraction taken with the operators in their original left-right
    order so canonical commutators are kept.  Odd-length monomials have
    zero expectation on a zero-mean state and return 0 rather than raising.
    """
    modes = len(contractions) // 2
    ops = list(monomial)
    for op in ops:
        mode, dag = op
        if not (0 <= int(mode) < modes) or not isinstance(dag, (bool, np.bool_)):
            raise DomainError(f"bad ladder-operator label {op!r}")
    if len(ops) % 2 == 1:
        return 0.0 + 0.0j
    index = np.array([int(mode) + modes * dag for mode, dag in ops], dtype=int)
    pairs = index[_pairings(len(ops))]
    return complex(contractions[pairs[..., 0], pairs[..., 1]].prod(axis=1).sum())


def number_moments(contractions: np.ndarray, mode: int) -> MomentVector:
    """Moments <(adag a)^j>, j = 1..4, of one mode via the pairing sum."""
    pair: list[LadderOp] = [(mode, True), (mode, False)]
    values = []
    for j in range(1, 5):
        value = gaussian_wick_moment(contractions, pair * j)
        if abs(value.imag) > 1e-9 * max(1.0, abs(value.real)):
            raise DomainError(f"number moment came out non-real: {value!r}")
        values.append(value.real)
    return MomentVector(*values)
