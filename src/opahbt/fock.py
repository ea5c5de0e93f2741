"""Truncated Fock-space numerics: the first-principles verification route.

A state is its photon-number distribution: p[n] for one mode or
p[n_a, n_b] for two, a numpy array held by :class:`FockState`.  That is
all the modelled amplifier needs.  Thermal and vacuum inputs are diagonal,
the two-mode squeezer maps a diagonal input to a diagonal output, and the
two-detector correlator only needs each operator's matrix elements next to
the diagonal.  Every state is subnormalized: the probability mass lost to
truncation is carried explicitly as a trace deficit so trace + deficit = 1
holds exactly.  The module needs only numpy.

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
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from ._domain import nonnegative, nonnegative_scalar
from .errors import DomainError, TruncationError
from .opa import OpaParams, equivalent_thermal_mean
from .photon_stats import MomentVector

DEFAULT_TAIL = 1e-12
DIM_CAP = 1024
# Largest input deficit plus output boundary-shell mass a squeeze may leave.
SQUEEZED_TAIL_BOUND = 1e-9
# Ladders with less input weight than this are not propagated.
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


@dataclass(frozen=True)
class FockSpace:
    """Truncation setup: ``dim`` Fock levels per mode."""

    dim: int

    def __post_init__(self):
        if not isinstance(self.dim, int) or self.dim < 2:
            raise DomainError(f"dim must be an integer >= 2, got {self.dim!r}")


@dataclass(frozen=True, eq=False)
class FockState:
    """Subnormalized photon-number distribution of one or two modes.

    Attributes:
        probs: read-only populations, p[n] for one mode or p[n_a, n_b]
            for two (equal per-mode dims).
        trace_deficit: probability mass lying outside the retained levels.
    """

    probs: np.ndarray
    trace_deficit: float = 0.0

    def __post_init__(self):
        probs = np.array(self.probs, dtype=float)
        if probs.ndim not in (1, 2):
            raise DomainError(
                f"only one- and two-mode states are supported, got shape {probs.shape}"
            )
        if probs.ndim == 2 and probs.shape[0] != probs.shape[1]:
            raise DomainError(f"two-mode states need equal per-mode dims, got {probs.shape}")
        if not (0.0 <= self.trace_deficit <= 1.0):
            raise DomainError(f"trace deficit must be in [0, 1], got {self.trace_deficit}")
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "trace_deficit", float(self.trace_deficit))

    @property
    def dims(self) -> tuple[int, ...]:
        return self.probs.shape

    @property
    def n_modes(self) -> int:
        return self.probs.ndim

    @property
    def dim(self) -> int:
        return self.probs.shape[0]

    @property
    def trace(self) -> float:
        return float(self.probs.sum())

    def populations(self) -> np.ndarray:
        """p[n] for one mode, p[n_a, n_b] for two (read-only)."""
        return self.probs

    def boundary_mass(self) -> float:
        """Population of the top retained Fock level of any mode.

        A small value certifies that truncation barely perturbed the state:
        whatever flux the ideal dynamics would push past the cutoff first
        has to populate this shell.
        """
        return _shell_mass(self.probs)

    def validate(self) -> None:
        """Check that the populations are finite and >= 0 and that trace + deficit = 1."""
        if not (np.isfinite(self.probs).all() and (self.probs >= 0.0).all()):
            raise DomainError("populations must be finite and >= 0")
        if abs(self.trace + self.trace_deficit - 1.0) > 1e-10:
            raise DomainError(
                f"trace {self.trace} plus deficit {self.trace_deficit} is not 1"
            )


def _shell_mass(populations: np.ndarray) -> float:
    # Mass on the top retained level of either mode.
    if populations.ndim == 1:
        return float(populations[-1])
    return float(populations[-1, :].sum() + populations[:-1, -1].sum())


def choose_dim(mean: float, tail: float = DEFAULT_TAIL) -> int:
    """Smallest per-mode dimension whose thermal tail at ``mean`` is below ``tail``.

    Uses the geometric tail (mean/(1+mean))^dim of a thermal distribution.

    Raises:
        TruncationError: if the required dimension exceeds :data:`DIM_CAP`,
            or the mean is so large that mean/(1+mean) rounds to 1.
    """
    mean = nonnegative_scalar("mean", mean)
    if not (0.0 < tail < 1.0):
        raise DomainError(f"tail must be in (0, 1), got {tail!r}")
    if mean == 0.0:
        return 8
    q = mean / (1.0 + mean)
    if q == 1.0:
        raise TruncationError(
            f"at mean {mean:g}, mean/(1+mean) rounds to 1 in double precision, so "
            f"no dimension has a thermal tail below {tail:g}; lower the gain or mean",
            achieved=1.0,
        )
    needed = max(8, int(math.ceil(math.log(tail) / math.log(q))))
    if needed > DIM_CAP:
        raise TruncationError(
            f"a thermal tail below {tail:g} at mean {mean:g} needs dim {needed}, "
            f"over the cap of {DIM_CAP}; lower the gain or mean",
            achieved=q**DIM_CAP,
            suggested_dim=needed,
        )
    return needed


def space_for_squeezed_thermal(n_bar: float, g: float, tail: float = DEFAULT_TAIL) -> FockSpace:
    """Truncation sized a priori for squeezing thermal light against vacuum.

    The output marginal is thermal at the amplified mean
    cosh(g)^2 n + sinh(g)^2 (:func:`~opahbt.opa.equivalent_thermal_mean`),
    so the geometric tail rule applies to that mean.  The sizing is
    a-priori only; the squeezer re-checks the realized boundary mass.

    Raises:
        DomainError: if ``n_bar`` or ``g`` is not a finite real >= 0, or
            cosh(g)^2 overflows.
        TruncationError: as for :func:`choose_dim`.
    """
    return FockSpace(choose_dim(equivalent_thermal_mean(n_bar, OpaParams(g)), tail))


def thermal_populations(n_bar: float, space: FockSpace) -> tuple[np.ndarray, float]:
    """Thermal weights p_n = N^n / (1+N)^(n+1), n < dim, and the tail mass.

    The tail mass (N/(1+N))^dim is what truncation to ``space.dim`` levels
    drops.
    """
    n_bar = nonnegative_scalar("mean photon number", n_bar)
    if n_bar == 0.0:
        probs = np.zeros(space.dim)
        probs[0] = 1.0
        return probs, 0.0
    q = n_bar / (1.0 + n_bar)
    return (1.0 - q) * q ** np.arange(space.dim), q**space.dim


def thermal_state(n_bar: float, space: FockSpace) -> FockState:
    """Single-mode thermal state with the weights of :func:`thermal_populations`.

    The retained block keeps the exact geometric weights; the tail mass is
    reported as the trace deficit.
    """
    return FockState(*thermal_populations(n_bar, space))


def vacuum_state(space: FockSpace) -> FockState:
    return thermal_state(0.0, space)


def product_state(a: FockState, b: FockState) -> FockState:
    """Tensor product of two single-mode states (mode order preserved)."""
    if a.n_modes != 1 or b.n_modes != 1:
        raise DomainError("product_state expects two single-mode states")
    if a.dim != b.dim:
        raise DomainError(f"per-mode dims must match, got {a.dim} and {b.dim}")
    deficit = 1.0 - (1.0 - a.trace_deficit) * (1.0 - b.trace_deficit)
    return FockState(np.outer(a.probs, b.probs), deficit)


def _bessel_j(z: float) -> np.ndarray:
    """J_k(z) for k = 0, 1, ... up to the last k with |J_k(z)| above 1e-17.

    Miller's algorithm: the recurrence J_(k-1) = (2k/z) J_k - J_(k+1) run
    downward from an order well past z, where J_k(z) is negligible, picks
    out the decaying solution; rescaling keeps it in range, and
    J_0^2 + 2 sum_k J_k^2 = 1 normalizes it, with the sign fixed by
    J_0 + 2 sum_k J_2k = 1.  Past k = z, J_k(z) falls off faster than
    geometrically, so the cut-off tail is of the order of the last term.
    """
    if z == 0.0:
        return np.ones(1)
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


def _check_squeezed_tail(populations: np.ndarray, trace_deficit: float, g: float) -> None:
    """Raise when deficit plus output boundary-shell mass exceeds the bound."""
    tail_estimate = trace_deficit + _shell_mass(populations)
    if tail_estimate <= SQUEEZED_TAIL_BOUND:
        return
    dim = populations.shape[0]
    mean_out = float(populations.sum(axis=1) @ np.arange(dim))
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


def squeeze_populations(
    signal: np.ndarray, g: float, trace_deficit: float = 0.0
) -> tuple[np.ndarray, float]:
    """Squeeze signal populations p[d] against an idler in vacuum.

    The input |d, 0> starts ladder d in its bottom level, and the squeezer
    keeps the ladder, so the output population of |d + k, k> is p[d]
    times the squared amplitude that :func:`_squeeze_strip` propagates
    from |d, 0>.  Ladders whose
    input weight is below :data:`LADDER_WEIGHT_FLOOR` are not propagated;
    their mass joins the trace deficit.  Truncation quality is verified a
    posteriori: that deficit, ``trace_deficit`` (the input's) included,
    plus the realized boundary-shell mass must stay below
    :data:`SQUEEZED_TAIL_BOUND`.

    Returns:
        The output populations p[n_a, n_b] on a dim x dim grid, dim the
        length of ``signal``, and the output's trace deficit.

    Raises:
        TruncationError: when the combined tail estimate exceeds the
            bound; the error suggests a larger dimension.
    """
    signal = nonnegative("signal populations", signal)
    if signal.ndim != 1 or signal.size < 2:
        raise DomainError(
            f"signal populations must be 1-D with >= 2 levels, got shape {signal.shape}"
        )
    g = nonnegative_scalar("gain", g)
    dim = signal.size
    kept = signal >= LADDER_WEIGHT_FLOOR
    deficit = trace_deficit + float(signal[~kept].sum())
    out = np.zeros((dim, dim))
    ladders = np.flatnonzero(kept)
    if ladders.size:
        psi = _squeeze_strip(ladders, dim, g)
        idler = np.arange(psi.shape[0])[:, None]
        inside = ladders + idler < dim
        out[(ladders + idler)[inside], np.broadcast_to(idler, psi.shape)[inside]] = (
            signal[ladders] * psi**2
        )[inside]
    _check_squeezed_tail(out, deficit, g)
    return out, deficit


def two_mode_squeeze(state: FockState, g: float) -> FockState:
    """Apply the two-mode squeezer with gain ``g`` to a signal (x) vacuum state.

    See :func:`squeeze_populations` for the algorithm, the trace deficit
    and the truncation check.

    Raises:
        DomainError: unless the state has two modes and mode 1, the idler,
            is in vacuum.
        TruncationError: when the combined tail estimate exceeds the
            bound; the error suggests a larger dimension.
    """
    if state.n_modes != 2:
        raise DomainError("two_mode_squeeze expects a two-mode state")
    if state.probs[:, 1:].any():
        raise DomainError("two_mode_squeeze needs the idler (mode 1) in vacuum")
    return FockState(*squeeze_populations(state.probs[:, 0], g, state.trace_deficit))


def partial_trace(state: FockState, mode: int) -> FockState:
    """Marginal populations of the given mode (0 or 1) of a two-mode state."""
    if state.n_modes != 2:
        raise DomainError("partial_trace expects a two-mode state")
    if mode not in (0, 1):
        raise DomainError(f"mode must be 0 or 1, got {mode!r}")
    return FockState(state.probs.sum(axis=1 - mode), state.trace_deficit)


def population_moments(populations: np.ndarray, mode: int = 0) -> MomentVector:
    """Photon-number moments <n^j>, j = 1..4, of one mode of a population grid.

    ``populations`` is p[n] for one mode or p[n_a, n_b] for two.  The
    moments are those of the subnormalized marginal, as for
    :func:`reduced_moments`.
    """
    if mode not in range(populations.ndim):
        raise DomainError(
            f"a {populations.ndim}-mode state has modes 0..{populations.ndim - 1}, got {mode!r}"
        )
    marginal = populations if populations.ndim == 1 else populations.sum(axis=1 - mode)
    occupation = np.arange(marginal.size, dtype=float)
    return MomentVector(*(float(marginal @ occupation**j) for j in (1, 2, 3, 4)))


def reduced_moments(state: FockState, mode: int = 0) -> MomentVector:
    """Photon-number moments <n^j>, j = 1..4, of one mode of a state.

    The truncation error of the result is bounded by
    :func:`moment_truncation_bound`.
    """
    return population_moments(state.populations(), mode)


def moment_truncation_bound(state: FockState, order: int = 4) -> float:
    """Crude bound on the truncation error of a reduced moment of given order.

    The mass unaccounted for (deficit plus boundary shell) is weighted by
    the largest retained occupation to the moment's power.
    """
    missing = state.trace_deficit + state.boundary_mass()
    return missing * float(state.dim - 1) ** order


# Each correlator is a sum of terms coeff * e^(i k delta) * A (x) B, where A
# and B are words in adag ("d") and a ("a") read as matrix products.
# Detector j sees A_j = a e^(i delta_j) + b with delta_1 = delta, delta_2 = 0,
# so it contributes adag b e^(-i delta_j) + bdag a e^(+i delta_j).
_INTENSITY_1 = (("da", "", 1.0, 0), ("d", "a", 1.0, -1), ("a", "d", 1.0, 1), ("", "da", 1.0, 0))
_INTENSITY_2 = tuple((wa, wb, c, 0) for wa, wb, c, _ in _INTENSITY_1)
_CORRELATOR_TERMS = {
    OrderingConvention.AS_WRITTEN: tuple(
        (a1 + a2, b1 + b2, c1 * c2, k1)
        for a1, b1, c1, k1 in _INTENSITY_1
        for a2, b2, c2, _ in _INTENSITY_2
    ),
    OrderingConvention.NORMAL_ORDERED: (
        # (n_a + n_b)^2 as written
        ("dada", "", 1.0, 0),
        ("da", "da", 2.0, 0),
        ("", "dada", 1.0, 0),
        # double transfers b -> a and a -> b, and the number-number cross term
        ("dd", "aa", 1.0, -1),
        ("aa", "dd", 1.0, 1),
        ("da", "da", 1.0, 1),
        ("da", "da", 1.0, -1),
        # single transfers, from detector 1 (k = -1, +1) and detector 2 (k = 0)
        ("dda", "a", 1.0, -1),
        ("dda", "a", 1.0, 0),
        ("d", "daa", 1.0, -1),
        ("d", "daa", 1.0, 0),
        ("daa", "d", 1.0, 1),
        ("daa", "d", 1.0, 0),
        ("a", "dda", 1.0, 1),
        ("a", "dda", 1.0, 0),
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
def _correlator_elements(dim: int, ordering: OrderingConvention) -> dict:
    """Matrix elements of a correlator, grouped by shift and phase power.

    Returns {(s_a, s_b): {k: M}} with M[n_a, n_b] the coefficient of
    e^(i k delta) in <n_a + s_a, n_b + s_b| C |n_a, n_b>.
    """
    grouped: dict = {}
    for word_a, word_b, coeff, k in _CORRELATOR_TERMS[ordering]:
        shift_a, amp_a = _word_elements(word_a, dim)
        shift_b, amp_b = _word_elements(word_b, dim)
        by_phase = grouped.setdefault((shift_a, shift_b), {})
        by_phase[k] = by_phase.get(k, 0.0) + coeff * np.outer(amp_a, amp_b)
    return grouped


def _window(shift: int, dim: int) -> tuple[slice, slice]:
    # Indices n with 0 <= n + shift < dim, and the indices n + shift.
    return slice(max(0, -shift), dim - max(0, shift)), slice(max(0, shift), dim - max(0, -shift))


def hbt_two_mode_correlation(
    n_bar: float,
    m_bar: float,
    delta: float,
    space: FockSpace | None = None,
    ordering: OrderingConvention = OrderingConvention.NORMAL_ORDERED,
) -> tuple[float, float]:
    """Two-detector intensity correlator on thermal light, from Fock matrix elements.

    Each detector sees the superposition field A_j = a e^(i delta_j) + b
    with delta_1 - delta_2 = ``delta`` and measures I_j = Adag_j A_j.  The
    function returns (<I1 I2>, Var(I1 I2)) on thermal(n_bar) x
    thermal(m_bar) under the requested ordering convention:

    * NORMAL_ORDERED evaluates (n_a + n_b)^2 as written and normal-orders
      the mode-mixing interference monomials, reproducing the analytic
      correlation law in the corrected moment convention.
    * AS_WRITTEN evaluates the literal product I1 I2.  Its expectation
      exceeds the normal-ordered one by commutator terms proportional to
      (n_bar + m_bar) cos(delta); the antisymmetric imaginary part of the
      literal product is dropped from the returned reading.

    The thermal state is diagonal, so <C> = sum_n p_n C_nn and
    <C^2> = sum_n p_n sum_m C_nm C_mn only need the correlator's elements
    on the few shifts m - n it reaches.
    """
    n_bar, m_bar = nonnegative_scalar("n_bar", n_bar), nonnegative_scalar("m_bar", m_bar)
    if ordering not in _CORRELATOR_TERMS:
        raise DomainError(f"unknown ordering convention {ordering!r}")
    if space is None:
        space = FockSpace(choose_dim(max(n_bar, m_bar)))
    dim = space.dim

    prob = np.outer(thermal_populations(n_bar, space)[0], thermal_populations(m_bar, space)[0])
    phase = np.exp(1j * float(delta))
    powers = {-1: np.conj(phase), 0: 1.0, 1: phase}
    elements = {
        shift: sum(powers[k] * m for k, m in by_phase.items())
        for shift, by_phase in _correlator_elements(dim, ordering).items()
    }
    c0 = complex((prob * elements[(0, 0)]).sum()).real
    second = 0.0
    for (shift_a, shift_b), forward in elements.items():
        back = elements[(-shift_a, -shift_b)]
        (rows, rows_to), (cols, cols_to) = _window(shift_a, dim), _window(shift_b, dim)
        second += (prob[rows, cols] * forward[rows, cols] * back[rows_to, cols_to]).sum()
    return c0, float(second.real) - c0**2
