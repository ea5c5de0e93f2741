"""Truncated Fock-space numerics: the first-principles verification route.

A state is its photon-number distribution, a numpy array p[n] on ``dim``
levels.  That is all the modelled amplifier needs.  Thermal and vacuum
inputs are diagonal, the two-mode squeezer maps a diagonal input to a
diagonal output, of which only the signal mode's marginal is kept, and on
a thermal product state the two-detector correlator splits into one sum
per mode.  The mass a truncated state lacks, 1 - sum p, is what truncation
dropped: the squeezer bounds it, and every reader takes the normalized
state p / sum p.  The module needs only numpy.

The two-mode squeezer is the exponential of the anti-Hermitian generator
g(adag bdag - a b) in the truncated space.  It keeps the photon-number
difference d between the modes, and the amplifier's idler starts in
vacuum, so each ladder |d + k, k> starts in its bottom level |d, 0> and
only that column of its exponential is needed.  All those columns are
propagated together, in one real array, by one Chebyshev series with
Bessel-function coefficients (:func:`_squeeze_strip`).
"""

from __future__ import annotations

import math
from enum import Enum
from functools import lru_cache

import numpy as np

from ._domain import FloatOrArray, finite_real, integer, nonnegative, nonnegative_scalar, unwrap
from .errors import DomainError, TruncationError
from .opa import OpaParams, equivalent_thermal_mean

DEFAULT_TAIL = 1e-12
DIM_CAP = 1024
# Largest missing mass plus output boundary-shell mass a squeeze may leave.
SQUEEZED_TAIL_BOUND = 1e-9
# Ladders other than 1 with less input weight than this are not propagated.
LADDER_WEIGHT_FLOOR = 1e-18


class OrderingConvention(Enum):
    """Operator ordering used when evaluating the two-detector correlator.

    NORMAL_ORDERED keeps the photon-number (mode-diagonal) part of the
    intensity product as written and puts every mode-mixing interference
    monomial into normal order, which is the quantum evaluation matching
    the classical-field correlation formula.  AS_WRITTEN evaluates the
    literal operator product, commutators and all.
    """

    NORMAL_ORDERED = "normal-ordered"
    AS_WRITTEN = "as-written"


def choose_dim(mean: float) -> int:
    """Smallest per-mode dimension whose thermal tail is below :data:`DEFAULT_TAIL`.

    Uses the geometric tail (mean/(1+mean))^dim of a thermal distribution.

    Raises:
        TruncationError: if the required dimension exceeds :data:`DIM_CAP`,
            or the mean is so large that mean/(1+mean) rounds to 1.
    """
    mean = nonnegative_scalar("mean", mean)
    if mean == 0.0:
        return 8
    q = mean / (1.0 + mean)
    if q == 1.0:
        raise TruncationError(
            f"at mean {mean:g}, mean/(1+mean) rounds to 1 in double precision, so no "
            f"dimension has a thermal tail below {DEFAULT_TAIL:g}; lower the gain or mean",
            achieved=1.0,
        )
    needed = max(8, int(math.ceil(math.log(DEFAULT_TAIL) / math.log(q))))
    if needed > DIM_CAP:
        raise TruncationError(
            f"a thermal tail below {DEFAULT_TAIL:g} at mean {mean:g} needs dim "
            f"{needed}, over the cap of {DIM_CAP}; lower the gain or mean",
            achieved=q**DIM_CAP,
            suggested_dim=needed,
        )
    return needed


def space_for_squeezed_thermal(n_bar: float, g: float) -> int:
    """Per-mode dimension sized a priori for squeezing thermal light against vacuum.

    The output marginal is thermal at the amplified mean
    cosh(g)^2 n + sinh(g)^2 (:func:`~opahbt.opa.equivalent_thermal_mean`),
    so the geometric tail rule applies to that mean.  The sizing is
    a-priori only; the squeezer re-checks the realized boundary mass.

    Raises:
        DomainError: if ``n_bar`` or ``g`` is not a finite real >= 0, or
            cosh(g)^2 overflows.
        TruncationError: as for :func:`choose_dim`.
    """
    return choose_dim(equivalent_thermal_mean(n_bar, OpaParams(g)))


def thermal_populations(n_bar: float, dim: int) -> np.ndarray:
    """Thermal weights p_n = N^n / (1+N)^(n+1), n < dim, short of the tail mass (N/(1+N))^dim.

    Raises:
        DomainError: if ``n_bar`` is not a finite real >= 0, or ``dim`` is
            not an integer >= 2.
    """
    n_bar = nonnegative_scalar("mean photon number", n_bar)
    dim = integer("dim", dim, 2)
    q = n_bar / (1.0 + n_bar)
    return (1.0 - q) * q ** np.arange(dim)


def _bessel_j(z: float) -> np.ndarray:
    """J_k(z) for k = 0, 1, ... up to the last k with |J_k(z)| above 1e-17.

    Miller's algorithm: the recurrence J_(k-1) = (2k/z) J_k - J_(k+1) run
    downward from an order well past z, where J_k(z) is negligible, picks
    out the decaying solution; rescaling keeps it in range, and
    J_0^2 + 2 sum_k J_k^2 = 1 normalizes it, with the sign fixed by
    J_0 + 2 sum_k J_2k = 1.  Past k = z, J_k(z) falls off faster than
    geometrically, so the cut-off tail is of the order of the last term.
    Below z = 1e-8 the sequence is J_0 = 1 and J_1 = z/2, however small:
    there 1 - z^2/4 rounds to 1 and J_2 <= z^2/8 is negligible.
    """
    if z < 1e-8:
        return np.array([1.0, z / 2.0]) if z else np.ones(1)
    top = int(z + 25.0 * z ** (1.0 / 3.0)) + 40
    values = [0.0] * (top + 2)
    values[top] = 1.0
    for k in range(top, 0, -1):
        values[k - 1] = (2.0 * k / z) * values[k] - values[k + 1]
        if abs(values[k - 1]) > 1e250:
            values[k - 1 :] = [v * 1e-250 for v in values[k - 1 :]]
    j = np.array(values[: top + 1])
    j /= np.abs(j).max()
    sign = math.copysign(1.0, j[0] + 2.0 * j[2::2].sum())
    j *= sign / math.sqrt(j[0] ** 2 + 2.0 * (j[1:] ** 2).sum())
    return j[: np.flatnonzero(np.abs(j) > 1e-17)[-1] + 1]


def _squeeze_strip(ladders: np.ndarray, dim: int, g: float) -> np.ndarray:
    """Amplitudes psi[k, i] of exp(g G)|d, 0> on |d + k, k>, for d = ladders[i].

    Along the ladder |d + k, k>, k < dim - d, the generator
    G = adag bdag - a b is real, antisymmetric and tridiagonal, with
    couplings c_k = sqrt((d + k + 1)(k + 1)) from level k to k + 1, and
    its spectrum lies in i[-rho, rho] with rho a Gershgorin bound.  The
    Chebyshev series of the exponential (Tal-Ezer and Kosloff, J. Chem.
    Phys. 81, 3967 (1984)) then stays real:

        exp(g G) v = J_0(g rho) w_0 + 2 sum_k J_k(g rho) w_k,
        w_0 = v,  w_1 = (G/rho) v,  w_(k+1) = 2 (G/rho) w_k + w_(k-1),

    and ||w_k|| <= ||v||, so the series is cut where J_k(g rho) drops below
    1e-17 (:func:`_bessel_j`).  All ladders share rho and the series, so
    they propagate together as the columns of one array, padded with zeros
    past each ladder's top level; w_k reaches level k at most, so term k
    only touches the first k + 1 rows.
    """
    width = dim - int(ladders.min())
    k = np.arange(width, dtype=float)[:, None]
    upper = ladders + k + 1.0  # signal level d + k + 1 at the top of step k
    couplings = np.where(upper < dim, np.sqrt(upper * (k + 1.0)), 0.0)[:-1]
    bound = np.zeros((width, ladders.size))
    bound[:-1] += couplings
    bound[1:] += couplings
    rho = float(bound.max())
    w = np.zeros((width, ladders.size))
    w[0] = 1.0
    if rho == 0.0:  # a lone top-level ladder has no couplings
        return w
    series = _bessel_j(g * rho)
    psi = series[0] * w
    step = couplings * (2.0 / rho)
    w_prev = np.zeros_like(w)
    w_prev[1] = -0.5 * step[0]  # w_(-1) = -w_1, so the recurrence also gives w_1
    for order, coefficient in enumerate(2.0 * series[1:], start=1):
        span = min(order + 1, width)
        w_prev[1:span] += step[: span - 1] * w[: span - 1]
        w_prev[: span - 1] -= step[: span - 1] * w[1:span]
        w_prev, w = w, w_prev
        psi[:span] += coefficient * w[:span]
    return psi


def _check_squeezed_tail(marginal: np.ndarray, g: float) -> None:
    """Raise when missing mass plus output boundary-shell mass exceeds the bound."""
    # The idler k of |d + k, k> never exceeds the signal level, so the whole
    # boundary shell sits on the signal's top retained level.
    tail_estimate = 1.0 - float(marginal.sum()) + float(marginal[-1])
    if tail_estimate <= SQUEEZED_TAIL_BOUND:
        return
    mean_out = float(marginal @ np.arange(marginal.size))
    suggestion = None
    if 0.0 < mean_out:
        q = mean_out / (1.0 + mean_out)
        suggestion = int(math.ceil(math.log(SQUEEZED_TAIL_BOUND / 100.0) / math.log(q)))
    raise TruncationError(
        f"truncation tail estimate {tail_estimate:.3e} exceeds bound "
        f"{SQUEEZED_TAIL_BOUND:.3e} after squeezing at g={g}"
        + (f"; retry with dim >= {suggestion}" if suggestion else ""),
        achieved=tail_estimate,
        suggested_dim=suggestion,
    )


def squeeze_populations(signal: np.ndarray, g: float) -> np.ndarray:
    """Squeeze signal populations p[d] against an idler in vacuum.

    The input |d, 0> starts ladder d in its bottom level, and the squeezer
    keeps the ladder, so the output population of |d + k, k> is p[d]
    times the squared amplitude that :func:`_squeeze_strip` propagates
    from |d, 0>, and the signal level d + k collects it.  Ladders whose
    input weight is below :data:`LADDER_WEIGHT_FLOOR` are not propagated,
    so their mass is absent from the output.  Ladder 1 always is: at a
    thermal mean below about the floor it holds all the excited mass, and
    dropping it would leave every moment zero.  Truncation quality is
    verified a posteriori: the output's missing mass, 1 - sum p (the
    input's own included), plus the realized boundary-shell mass must stay
    below :data:`SQUEEZED_TAIL_BOUND`.

    Returns:
        The signal mode's output populations p[n] on the levels of ``signal``.

    Raises:
        DomainError: for populations not 1-D on >= 2 levels or above unit mass.
        TruncationError: when the combined tail estimate exceeds the
            bound; the error suggests a larger dimension.
    """
    signal = nonnegative("signal populations", signal, 1)
    if signal.size < 2:
        raise DomainError(f"signal populations must have >= 2 levels, got shape {signal.shape}")
    if signal.sum() > 1.0 + SQUEEZED_TAIL_BOUND:
        raise DomainError(f"signal populations must sum to at most 1, got {float(signal.sum())!r}")
    g = nonnegative_scalar("gain", g)
    dim = signal.size
    ladders = np.flatnonzero((signal >= LADDER_WEIGHT_FLOOR) | (np.arange(dim) == 1))
    psi = _squeeze_strip(ladders, dim, g)
    level = ladders + np.arange(psi.shape[0])[:, None]
    inside = level < dim
    weights = (signal[ladders] * psi**2)[inside]
    marginal = np.bincount(level[inside], weights=weights, minlength=dim)
    _check_squeezed_tail(marginal, g)
    return marginal


def two_mode_squeeze(populations: np.ndarray, g: float) -> np.ndarray:
    """Apply the two-mode squeezer with gain ``g`` to a signal (x) vacuum grid.

    ``populations`` is p[n_a, n_b] on a square grid.  See
    :func:`squeeze_populations` for the algorithm, the truncation check
    and the returned signal marginal.

    Raises:
        DomainError: unless the grid is square and mode 1, the idler, is in
            vacuum, or as for :func:`squeeze_populations`.
        TruncationError: when the combined tail estimate exceeds the
            bound; the error suggests a larger dimension.
    """
    populations = nonnegative("populations", populations)
    if populations.ndim != 2 or populations.shape[0] != populations.shape[1]:
        raise DomainError(
            f"two_mode_squeeze expects a square grid, got shape {populations.shape}"
        )
    if populations[:, 1:].any():
        raise DomainError("two_mode_squeeze needs the idler (mode 1) in vacuum")
    return squeeze_populations(populations[:, 0], g)


def reduced_moments(populations: np.ndarray) -> np.ndarray:
    """Moments <n^j>, j = 1..4, of one mode's normalized state p / sum p, shape (4,).

    Raises:
        DomainError: unless ``populations`` is 1-D, finite and >= 0, with a
            positive sum.
    """
    populations = nonnegative("populations", populations)
    if populations.ndim != 1:
        raise DomainError(f"reduced_moments takes p[n] for one mode, got shape {populations.shape}")
    mass = float(populations.sum())
    if not mass > 0.0:
        raise DomainError(f"reduced_moments needs populations with positive mass, got {mass!r}")
    normalized = populations / mass
    occupation = np.arange(populations.size, dtype=float)
    return np.array([normalized @ occupation**j for j in (1, 2, 3, 4)])


# Each correlator is a sum of terms coeff * e^(i k delta) * A (x) B, where A
# and B are words in adag ("d") and a ("a") read as matrix products.
# Detector j sees A_j = a e^(i delta_j) + b with delta_1 = delta, delta_2 = 0,
# so it contributes adag b e^(-i delta_j) + bdag a e^(+i delta_j).
_INTENSITY_1 = (("da", "", 1.0, 0), ("d", "a", 1.0, -1), ("a", "d", 1.0, 1), ("", "da", 1.0, 0))
_INTENSITY_2 = tuple((wa, wb, c, 0) for wa, wb, c, _ in _INTENSITY_1)
# The literal product I1 I2, each term flagged when it holds a mode-transfer
# factor (one letter per mode) from either detector.
_LITERAL = tuple(
    (a1 + a2, b1 + b2, c1 * c2, k1, 1 in (len(a1), len(a2)))
    for a1, b1, c1, k1 in _INTENSITY_1
    for a2, b2, c2, _ in _INTENSITY_2
)


def _creation_first(word: str) -> str:
    return "".join(sorted(word, key="da".index))


# Normal order keeps the number terms (n_a + n_b)^2 as written and sorts the
# words of every mode-mixing term creation ("d") before annihilation ("a").
_CORRELATOR_TERMS = {
    OrderingConvention.AS_WRITTEN: tuple(term[:4] for term in _LITERAL),
    OrderingConvention.NORMAL_ORDERED: tuple(
        (_creation_first(wa), _creation_first(wb), c, k) if mixing else (wa, wb, c, k)
        for wa, wb, c, k, mixing in _LITERAL
    ),
}


def _word_elements(word: str, dim: int) -> tuple[int, np.ndarray]:
    """Shift s and elements <n + s| word |n>, n < dim, of a truncated operator word.

    The word acts right to left; a raising step off the top level gives
    zero, exactly as for the product of truncated matrices.
    """
    level = np.arange(dim)
    amp = np.ones(dim)
    for op in reversed(word):
        if op == "a":
            amp = amp * np.sqrt(np.maximum(level, 0))
            level = level - 1
        else:
            level = level + 1
            amp = amp * np.sqrt(np.maximum(level, 0)) * (level < dim)
    return word.count("d") - word.count("a"), amp


@lru_cache(maxsize=8)
def _correlator_tables(dim: int, ordering: OrderingConvention) -> tuple:
    """Per-mode diagonal rows of the correlator C and of C^2 on thermal states.

    Returns one (rows_a, rows_b, coeff, k) table for C and one for C^2.
    Each row stands for a term coeff * e^(i k delta) * A (x) B that keeps
    both photon numbers, with rows_a[n] = <n| A |n> and rows_b likewise.
    C^2 = sum_(t, u) c_t c_u e^(i (k_t + k_u) delta) A_t A_u (x) B_t B_u,
    and A_t A_u keeps the photon numbers only where the shifts cancel, with
    <n| A_t A_u |n> = <n| A_t |n + s_u> <n + s_u| A_u |n> = amp_t[n + s_u] amp_u[n].
    """
    terms = _CORRELATOR_TERMS[ordering]
    shift_a, amp_a = map(np.array, zip(*(_word_elements(t[0], dim) for t in terms)))
    shift_b, amp_b = map(np.array, zip(*(_word_elements(t[1], dim) for t in terms)))
    coeff, k = np.array([t[2] for t in terms]), np.array([t[3] for t in terms])
    kept = (shift_a == 0) & (shift_b == 0)
    left, right = np.nonzero((shift_a[:, None] == -shift_a) & (shift_b[:, None] == -shift_b))

    def products(amp, shift):
        # amp_u[n] is 0 wherever n + s_u leaves the space, so clipping the
        # index there changes nothing.
        index = np.clip(np.arange(dim) + shift[right][:, None], 0, dim - 1)
        return amp[left[:, None], index] * amp[right]

    mean = (amp_a[kept], amp_b[kept], coeff[kept], k[kept])
    pairs = (coeff[left] * coeff[right], k[left] + k[right])
    return mean, (products(amp_a, shift_a), products(amp_b, shift_b), *pairs)


def hbt_two_mode_correlation(
    n_bar: float,
    m_bar: float,
    delta: FloatOrArray,
    ordering: OrderingConvention = OrderingConvention.NORMAL_ORDERED,
) -> tuple[FloatOrArray, FloatOrArray]:
    """Two-detector intensity correlator on thermal light, from Fock matrix elements.

    Each detector sees the superposition field A_j = a e^(i delta_j) + b
    with delta_1 - delta_2 = ``delta`` and measures I_j = Adag_j A_j.  The
    function returns (<C>, Var C) for C = I1 I2 on thermal(n_bar) x
    thermal(m_bar) under the requested ordering convention:

    * NORMAL_ORDERED evaluates (n_a + n_b)^2 as written and normal-orders
      the mode-mixing interference monomials, reproducing the analytic
      correlation law in the corrected moment convention.
    * AS_WRITTEN evaluates the literal product I1 I2.  Its expectation
      exceeds the normal-ordered one by commutator terms proportional to
      (n_bar + m_bar) cos(delta); the antisymmetric imaginary part of the
      literal product is dropped from the returned reading.  I1 and I2 do
      not commute, so <I1 I2> is complex (5.28 + 0.90i at n_bar = 0.3,
      m_bar = 1.2, delta = pi/2), and the second value returned here,
      Re<C^2> - (Re<C>)^2, is not the variance of any observable.

    The thermal state is a product of diagonal one-mode states, so each
    term's expectation is a product of one sum per mode
    (:func:`_correlator_tables`), and a 1-D array of phases costs one call.
    Both thermal states are truncated at :func:`choose_dim` of the larger
    mean and renormalized to unit trace, so the values are those of
    normalized states.  A scalar ``delta`` gives two floats, a 1-D array
    two arrays.

    Raises:
        DomainError: for a mean that is not a finite real >= 0, or a phase
            that is not a finite real, or phases neither a scalar nor 1-D.
    """
    n_bar, m_bar = nonnegative_scalar("n_bar", n_bar), nonnegative_scalar("m_bar", m_bar)
    if ordering not in _CORRELATOR_TERMS:
        raise DomainError(f"unknown ordering convention {ordering!r}")
    phases = finite_real("delta", delta)
    if phases.ndim > 1:
        raise DomainError(f"delta must be a scalar or 1-D, got shape {phases.shape}")
    dim = choose_dim(max(n_bar, m_bar))
    p_a, p_b = (thermal_populations(mean, dim) for mean in (n_bar, m_bar))
    p_a, p_b = p_a / p_a.sum(), p_b / p_b.sum()
    # The rows and coefficients are real, so Re e^(i k delta) is cos(k delta).
    c0, second = (
        (np.cos(np.multiply.outer(phases, k)) * coeff * (rows_a @ p_a) * (rows_b @ p_b)).sum(-1)
        for rows_a, rows_b, coeff, k in _correlator_tables(dim, ordering)
    )
    return unwrap(c0), unwrap(second - c0 * c0)
