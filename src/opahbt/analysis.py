"""Parameter sweeps, SNR-law fitting and fringe inversion.

Everything here is deterministic given its inputs; the only seed is the one
:func:`estimate_phi` uses to perturb the start of a stalled fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._domain import nonnegative_scalar
from .errors import (
    DegenerateFitError,
    DomainError,
    FringeCoverageError,
    UnreachableTargetError,
)
from .hbt import signal_ratio, snr_ratio
from .opa import OpaParams

PHI_MAX_ITERATIONS = 200
_PERIODOGRAM_BLOCK = 1 << 22  # complex elements per block of the periodogram
_BLOCK_ROWS = 2048  # grid rows per block of a sweep and of a figure writer
# From 2**60 - 1 points on numpy cannot size the grid's arrays and raises
# ValueError or IndexError; up to this bound a grid too large for memory
# raises MemoryError, which the CLI maps to exit 2.
_MAX_POINTS = np.iinfo(np.intp).max // 16


class Spacing(Enum):
    LINEAR = "linear"
    LOG = "log"


@dataclass(frozen=True)
class SweepSpec:
    """Grid settings for a ratio sweep at a fixed gain.

    With ``equal_sources`` both source means track the grid; otherwise the
    companion mean is held at ``m_bar`` while the grid sweeps the other.
    ``points == 1`` is allowed for single-point evaluations and then
    requires ``n_min == n_max``.
    """

    g: float
    n_min: float = 0.15
    n_max: float = 20.0
    points: int = 200
    spacing: Spacing = Spacing.LOG
    equal_sources: bool = True
    m_bar: float | None = None

    def __post_init__(self):
        nonnegative_scalar("gain", self.g)
        nonnegative_scalar("n_min", self.n_min)
        nonnegative_scalar("n_max", self.n_max)
        if not (0.0 < self.n_min <= self.n_max):
            raise DomainError(
                f"need 0 < n_min <= n_max, got [{self.n_min}, {self.n_max}]"
            )
        if not isinstance(self.points, int) or not 1 <= self.points <= _MAX_POINTS:
            raise DomainError(
                f"points must be an integer in [1, {_MAX_POINTS}], got {self.points!r}"
            )
        if self.points == 1 and self.n_min != self.n_max:
            raise DomainError("a single-point sweep requires n_min == n_max")
        if not self.equal_sources:
            if self.m_bar is None or nonnegative_scalar("m_bar", self.m_bar) == 0.0:
                raise DomainError(
                    "an unequal-sources sweep needs a positive fixed m_bar"
                )

    def grid(self) -> np.ndarray:
        # At the largest float numpy's power overflows before it pins the endpoints.
        with np.errstate(over="ignore"):
            if self.spacing is Spacing.LOG:
                return np.geomspace(self.n_min, self.n_max, self.points)
            return np.linspace(self.n_min, self.n_max, self.points)


class Ratio(Enum):
    """A ratio law a sweep can evaluate, named as its :class:`RatioTable` column."""

    SIGNAL = "signal_ratio"
    SNR = "snr_ratio"


@dataclass(frozen=True)
class RatioTable:
    """Sweep output: one row per mean photon number.

    A column the sweep was not asked to evaluate is ``None``.
    """

    n_bar: np.ndarray
    signal_ratio: np.ndarray | None = None
    snr_ratio: np.ndarray | None = None


def sweep_ratios(
    spec: SweepSpec, ratios: tuple[Ratio, ...] = (Ratio.SIGNAL, Ratio.SNR)
) -> RatioTable:
    """Evaluate the requested ratio laws over the sweep grid.

    With ``equal_sources`` both source means track the grid value; rows are
    emitted in grid order and the computation is bit-reproducible.  Only
    the laws in ``ratios`` are evaluated, so a law that is not asked for
    costs nothing and cannot fail the sweep.

    Raises:
        DomainError: if a requested ratio overflows to a non-finite value;
            the first such grid point is named.
    """
    params = OpaParams(spec.g)
    grid = spec.grid()
    # Looked up per call, so a rebinding of the module's names is honoured.
    laws = {Ratio.SIGNAL: signal_ratio, Ratio.SNR: snr_ratio}
    columns = {ratio.value: np.empty_like(grid) for ratio in ratios}
    # Blocks of rows bound the laws' temporaries; each law is elementwise,
    # so a blocked column is bit-identical to a whole one.
    for start in range(0, grid.size, _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        n = grid[rows]
        m = n if spec.equal_sources else np.full_like(n, spec.m_bar)
        with np.errstate(all="ignore"):
            for ratio in ratios:
                columns[ratio.value][rows] = laws[ratio](n, m, params)
        finite = np.isfinite([column[rows] for column in columns.values()]).all(axis=0)
        if not finite.all():
            i = int(np.argmin(finite))
            raise DomainError(
                f"ratios overflow the float range at grid point {start + i} "
                f"(n_bar = {float(n[i])!r}, m_bar = {float(m[i])!r}, g = {spec.g!r})"
            )
    return RatioTable(grid, **columns)


@dataclass(frozen=True)
class FitResult:
    """Two-parameter law A + B / n_bar fitted to an SNR-ratio sweep."""

    A: float
    B: float
    rss: float


def fit_inverse_law(table: RatioTable) -> FitResult:
    """Fit ratio = A + B / n_bar by exact linear least squares.

    The normal equations are solved in the cleared-denominator form
    n_bar * ratio = A * n_bar + B, which weights residuals by n_bar and
    keeps the diverging 1/n_bar regressor from letting the lowest grid
    points dominate the fit.  ``rss`` reports the plain (unweighted)
    residual sum of squares of the fitted law.

    Raises:
        DomainError: for a table without the SNR column or fewer than 3
            points.
        DegenerateFitError: when all abscissae coincide.
    """
    if table.snr_ratio is None:
        raise DomainError("the fit needs a sweep that evaluated the SNR ratio")
    n = np.asarray(table.n_bar, dtype=float)
    y = np.asarray(table.snr_ratio, dtype=float)
    if n.size < 3:
        raise DomainError(f"fit needs at least 3 points, got {n.size}")
    # One work column holds each per-point term in turn, so beyond the
    # table the fit allocates at most two columns at once.
    work = np.multiply(n, n)
    s_nn = float(np.sum(work))
    s_n = float(np.sum(n))
    count = float(n.size)
    det = s_nn * count - s_n * s_n
    if abs(det) <= 1e-12 * max(s_nn * count, s_n * s_n):
        raise DegenerateFitError("all grid points coincide; the fit is degenerate")
    target = np.multiply(n, y, out=work)
    rhs_b = float(np.sum(target))
    rhs_a = float(np.sum(np.multiply(n, target, out=work)))
    a = (rhs_a * count - rhs_b * s_n) / det
    b = (s_nn * rhs_b - s_n * rhs_a) / det
    residual = np.subtract(y, a, out=work)
    residual -= np.divide(b, n)
    rss = float(np.sum(np.square(residual, out=residual)))
    return FitResult(a, b, rss)


def target_ratio_operating_point(fit: FitResult, target: float) -> float:
    """Mean photon number at which the fitted law reaches a given ratio.

    Inverts target = A + B / n_bar.

    Raises:
        DomainError: if the target is not a finite real >= 0.
        UnreachableTargetError: if the target does not exceed the fitted
            asymptote A, or the fitted B is not positive.
    """
    target = nonnegative_scalar("target", target)
    if target <= fit.A:
        raise UnreachableTargetError(
            f"target {target} is at or below the fitted asymptote {fit.A:.6g}"
        )
    if fit.B <= 0:
        raise UnreachableTargetError(
            f"fitted law has no decreasing branch (B = {fit.B:.6g})"
        )
    return fit.B / (target - fit.A)


@dataclass(frozen=True)
class PhiEstimate:
    """Angular size recovered from a baseline scan."""

    phi: float
    stderr: float
    converged: bool
    iterations: int
    amplitude: float


def _periodogram_peak(r: np.ndarray, y: np.ndarray, n_freq: int) -> float:
    span = float(r.max() - r.min())
    gaps = np.diff(np.sort(r))
    min_gap = float(gaps[gaps > 0].min()) if np.any(gaps > 0) else span
    omega_max = math.pi / min_gap
    omega_min = 0.25 * math.pi / span
    omegas = np.linspace(omega_min, omega_max, n_freq)
    # Blocks of frequency rows bound the memory; a scan of up to 512 points
    # at the default 16 n frequencies is one block.  Only the first block
    # calls exp: block b is it shifted by omegas[b rows] - omegas[0], a
    # phase factor per scan point, so all blocks are one matrix product.
    rows = max(1, _PERIODOGRAM_BLOCK // r.size)
    first = np.exp(-1j * np.outer(omegas[:rows], r))
    shifts = np.exp(-1j * np.outer(r, omegas[::rows] - omegas[0]))
    power = np.abs(first @ (y[:, None] * shifts)).T.ravel()[:n_freq]
    return float(omegas[int(np.argmax(power))])


def estimate_phi(
    r0: np.ndarray,
    c_values: np.ndarray,
    k: float,
    amplitude_known: float | None = None,
    seed: int = 0,
) -> PhiEstimate:
    """Recover the angular size from a scan of the AC correlation vs baseline.

    Fits C(r0) = S * cos(k * r0 * phi) by damped Gauss-Newton, with the
    spatial frequency initialised from the dominant peak of the scan's
    discrete spectrum, for at most :data:`PHI_MAX_ITERATIONS` steps.  The
    linearised standard error of phi comes from the residual variance and
    the Jacobian at the solution; a singular Jacobian gives an infinite
    one.  If the damped iteration stalls, a few seeded perturbations of the
    initial frequency are tried before reporting a non-converged estimate.

    Raises:
        DomainError: for fewer than 4 points, non-finite input, a
            wavenumber or known amplitude that is not a finite real > 0, or
            a seed that is not an integer >= 0; also when the fit, its
            covariance or phi = |omega| / k overflows the float range.
        FringeCoverageError: when the scan covers less than half a fringe
            at the detected frequency.
    """
    r = np.asarray(r0, dtype=float).ravel()
    y = np.asarray(c_values, dtype=float).ravel()
    if r.size != y.size:
        raise DomainError(f"scan columns differ in length: {r.size} vs {y.size}")
    if r.size < 4:
        raise DomainError(f"need at least 4 scan points, got {r.size}")
    if not (np.all(np.isfinite(r)) and np.all(np.isfinite(y))):
        raise DomainError("scan contains non-finite values")
    if nonnegative_scalar("wavenumber", k) == 0.0:
        raise DomainError(f"wavenumber must be > 0, got {k!r}")
    if amplitude_known is not None and nonnegative_scalar("amplitude", amplitude_known) == 0.0:
        raise DomainError(f"amplitude must be > 0, got {amplitude_known!r}")
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise DomainError(f"seed must be an integer >= 0, got {seed!r}")
    span = float(r.max() - r.min())
    if span <= 0:
        raise DomainError("scan baselines are all identical")

    omega0 = _periodogram_peak(r, y, n_freq=max(512, 16 * r.size))
    if omega0 * span < math.pi:
        raise FringeCoverageError(
            f"scan spans {omega0 * span / (2 * math.pi):.3f} fringes at the "
            "detected frequency; at least half a fringe is required"
        )

    # p = (S, omega); a known amplitude leaves only omega free.
    free = slice(0, 2) if amplitude_known is None else slice(1, 2)

    def residual(p):
        return y - p[0] * np.cos(p[1] * r)

    def jacobian(p):
        s, w = p
        return np.column_stack((np.cos(w * r), -s * r * np.sin(w * r))[free])

    def solve_from(omega_init):
        if amplitude_known is not None:
            s = float(amplitude_known)
        else:
            basis = np.cos(omega_init * r)
            denom = float(basis @ basis)
            s = float(basis @ y) / denom if denom > 0 else float(np.max(np.abs(y)))
        p = np.array([s, omega_init])
        res = residual(p)
        cost = float(res @ res)
        iterations = 0
        converged = False
        for iterations in range(1, PHI_MAX_ITERATIONS + 1):
            jac = jacobian(p)
            grad = jac.T @ res
            try:
                step = np.linalg.solve(jac.T @ jac, grad)
            except np.linalg.LinAlgError:
                break
            scale = 1.0
            for _ in range(40):
                trial = p.copy()
                trial[free] += scale * step
                trial_res = residual(trial)
                trial_cost = float(trial_res @ trial_res)
                if trial_cost < cost:
                    break
                scale *= 0.5
            else:
                # A stalled line search has converged when the residual is
                # negligible or the Gauss-Newton step predicts no cost
                # reduction above rounding (noisy scans stall at the optimum).
                converged = cost <= 1e-24 * max(1.0, float(y @ y)) or (
                    float(grad @ step) <= 1e-12 * cost
                )
                break
            step_size = scale * float(np.max(np.abs(step)))
            p, res, prev_cost, cost = trial, trial_res, cost, trial_cost
            if step_size <= 1e-12 * max(abs(p[1]), 1e-30) or (
                prev_cost - cost <= 1e-14 * max(prev_cost, 1e-300)
            ):
                converged = True
                break
        return p, cost, iterations, converged

    # Overflow is checked below, so no numpy warning leaks out of the fit.
    with np.errstate(all="ignore"):
        p, cost, iterations, converged = solve_from(omega0)
        if not converged:
            rng = np.random.default_rng(seed)
            for _ in range(5):
                retry = solve_from(omega0 * float(rng.uniform(0.8, 1.25)))
                _, retry_cost, _, retry_converged = retry
                if retry_converged and retry_cost <= cost:
                    p, cost, iterations, converged = retry
                    break

        # Linearised covariance at the solution; None marks a singular Jacobian.
        jac = jacobian(p)
        dof = max(1, r.size - jac.shape[1])
        try:
            variance = float(cost / dof * np.linalg.inv(jac.T @ jac)[-1, -1])
        except np.linalg.LinAlgError:
            variance = None
    s, w = p.tolist()
    if not all(map(math.isfinite, (cost, s, w, 0.0 if variance is None else variance))):
        raise DomainError(
            f"the fit overflows the float range (amplitude {s!r}, residual cost {cost!r}); "
            "rescale the scan or the amplitude"
        )
    phi = abs(w) / k
    # A singular Jacobian reports an infinite stderr, not an error.
    stderr = math.inf if variance is None else math.sqrt(max(variance, 0.0)) / k
    if not (math.isfinite(phi) and (variance is None or math.isfinite(stderr))):
        raise DomainError(f"phi = |omega| / k overflows the float range at k = {k!r}")
    return PhiEstimate(phi, stderr, converged, iterations, s)
