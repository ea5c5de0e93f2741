"""Parameter sweeps, SNR-law fitting and fringe inversion.

Everything here is deterministic given its inputs and draws no random
numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._domain import finite_real, integer, nonnegative_scalar
from .errors import DegenerateFitError, DomainError, FringeCoverageError

# The fit loop's termination guard.  A Newton step that stays inside the
# bracket need not halve it, so the bracket's width bounds no step count.
# 175 scans of the benchmark's phi-scan deck need at most 8 steps and 4,000
# band-edge stress scans at most 20, or 46 on the two that do not converge.  A
# step that leaves omega where it was ends the loop, as every later one would.
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

    With ``equal_sources`` both source means track the grid and ``m_bar``
    must be None; otherwise the companion mean is held at ``m_bar`` while
    the grid sweeps the other.
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
        object.__setattr__(self, "points", integer("points", self.points, 1, _MAX_POINTS))
        if self.points == 1 and self.n_min != self.n_max:
            raise DomainError("a single-point sweep requires n_min == n_max")
        if self.equal_sources:
            if self.m_bar is not None:
                raise DomainError(f"an equal-sources sweep holds no m_bar, got {self.m_bar!r}")
        elif self.m_bar is None or nonnegative_scalar("m_bar", self.m_bar) == 0.0:
            raise DomainError("an unequal-sources sweep needs a positive fixed m_bar")

    def grid(self) -> np.ndarray:
        # At the largest float numpy's power overflows before it pins the endpoints.
        with np.errstate(over="ignore"):
            if self.spacing is Spacing.LOG:
                return np.geomspace(self.n_min, self.n_max, self.points)
            return np.linspace(self.n_min, self.n_max, self.points)


@dataclass(frozen=True)
class RatioTable:
    """Sweep output: one row per mean photon number.

    A column the sweep was not asked to evaluate is ``None``.
    """

    n_bar: np.ndarray
    signal_ratio: np.ndarray | None = None
    snr_ratio: np.ndarray | None = None


def sweep_ratios(
    spec: SweepSpec, ratios: tuple[str, ...] = ("signal_ratio", "snr_ratio")
) -> RatioTable:
    """Evaluate the ratio laws named by their :class:`RatioTable` columns over the sweep grid.

    With ``equal_sources`` both source means track the grid value; rows are
    emitted in grid order and the computation is bit-reproducible.  Only
    the laws in ``ratios`` are evaluated, so a law that is not asked for
    costs nothing and cannot fail the sweep.

    Raises:
        DomainError: for a name other than ``"signal_ratio"`` or
            ``"snr_ratio"``, and if a requested ratio overflows to a
            non-finite value; the first such grid point is named.
    """
    for name in ratios:
        if name not in ("signal_ratio", "snr_ratio"):
            raise DomainError(f"a sweep's columns are 'signal_ratio' and 'snr_ratio', got {name!r}")
    # Imported here, so estimate-phi loads no ratio law; looked up per call,
    # so a rebinding of hbt's names is honoured.
    from .hbt import signal_ratio, snr_ratio
    from .opa import OpaParams

    params = OpaParams(spec.g)
    grid = spec.grid()
    laws = {"signal_ratio": signal_ratio, "snr_ratio": snr_ratio}
    columns = {name: np.empty_like(grid) for name in ratios}
    # Blocks of rows bound the laws' temporaries; each law is elementwise,
    # so a blocked column is bit-identical to a whole one.
    for start in range(0, grid.size, _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        n = grid[rows]
        m = n if spec.equal_sources else np.full_like(n, spec.m_bar)
        with np.errstate(all="ignore"):
            for name in ratios:
                columns[name][rows] = laws[name](n, m, params)
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
            points, and when A, B or ``rss`` overflows the float range; the
            window of n_bar is named.
        DegenerateFitError: when all abscissae coincide.
    """
    if table.snr_ratio is None:
        raise DomainError("the fit needs a sweep that evaluated the SNR ratio")
    n = np.asarray(table.n_bar, dtype=float)
    y = np.asarray(table.snr_ratio, dtype=float)
    if n.size < 3:
        raise DomainError(f"fit needs at least 3 points, got {n.size}")
    # Overflow is checked below, so no numpy warning leaks out of the fit.
    with np.errstate(all="ignore"):
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
    if not all(map(math.isfinite, (a, b, rss))):
        raise DomainError(
            f"the fit over n_bar in [{float(n.min())!r}, {float(n.max())!r}] overflows the "
            f"float range (A = {a!r}, B = {b!r}, rss = {rss!r})"
        )
    return FitResult(a, b, rss)


@dataclass(frozen=True)
class PhiEstimate:
    """Angular size recovered from a baseline scan."""

    phi: float
    stderr: float
    converged: bool
    iterations: int
    amplitude: float


def _periodogram_peak(r: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, int]:
    """The periodogram's frequency grid over its band, and the index of its peak."""
    n_freq = max(512, 16 * r.size)
    span = float(r.max() - r.min())
    gaps = np.diff(np.sort(r))
    min_gap = float(gaps[gaps > 0].min()) if np.any(gaps > 0) else span
    omegas = np.linspace(0.25 * math.pi / span, math.pi / min_gap, n_freq)
    # Blocks of frequency rows bound the memory; a scan of up to 512 points
    # at 16 n frequencies is one block.  Only the first block
    # calls exp: block b is it shifted by omegas[b rows] - omegas[0], a
    # phase factor per scan point, so all blocks are one matrix product.
    rows = max(1, _PERIODOGRAM_BLOCK // r.size)
    first = np.exp(-1j * np.outer(omegas[:rows], r))
    shifts = np.exp(-1j * np.outer(r, omegas[::rows] - omegas[0]))
    power = np.abs(first @ (y[:, None] * shifts)).T.ravel()[:n_freq]
    return omegas, int(np.argmax(power))


def _projected_fit(omega: np.ndarray, r: np.ndarray, y: np.ndarray, amplitude: float | None):
    """Amplitude, cost, slope -cost'/2 and Gauss-Newton curvature at each omega.

    The curvature is the squared omega column of the Jacobian, with the
    amplitude column projected out when S is free.
    """
    phase = omega[:, None] * r
    basis = np.cos(phase)
    norm = np.sum(basis * basis, axis=1, keepdims=True)
    if amplitude is None:
        s = np.sum(basis * y, axis=1, keepdims=True) / norm
    else:
        s = np.full_like(norm, amplitude)
    residual = y - s * basis
    column = -s * r * np.sin(phase)
    slope = np.sum(column * residual, axis=1)
    if amplitude is None:
        column -= basis * (np.sum(basis * column, axis=1, keepdims=True) / norm)
    return s[:, 0], np.sum(residual * residual, axis=1), slope, np.sum(column * column, axis=1)


def estimate_phi(
    r0: np.ndarray,
    c_values: np.ndarray,
    k: float,
    amplitude_known: float | None = None,
) -> PhiEstimate:
    """Recover the angular size from a scan of the AC correlation vs baseline.

    Fits C(r0) = S * cos(omega * r0), omega = k * phi, in omega alone: at
    each trial omega, S is the exact least-squares amplitude or the known
    one.  The bracket is the cell of the periodogram's frequency grid,
    within one main lobe (2 pi / span) of its peak and nearest it, across
    which the cost's slope falls through zero.  In it a Newton iteration
    with Gauss-Newton curvature, bisecting when a step leaves the bracket,
    runs until a step leaves omega unchanged, for at most
    :data:`PHI_MAX_ITERATIONS` steps.  ``converged`` means it stopped at a
    stationary point strictly inside the bracket, fitting at least as well
    as every grid frequency of the lobe.  The fit reads the scan scaled
    exactly by a power of two to unit magnitude.  The linearised standard
    error of phi comes from the residual variance and the Jacobian of (S,
    omega); a singular Jacobian gives an infinite one.

    Raises:
        DomainError: for fewer than 4 points, a scan column that is not 1-D
            or a scan value that is not a finite real (None, a string or a
            complex number, say), a wavenumber or known amplitude that is
            not a finite real > 0; also when the fit, its covariance or
            phi = omega / k overflows the float range.
        FringeCoverageError: when the scan covers less than half a fringe
            at the detected frequency.
    """
    r = finite_real("scan baseline", r0, 1)
    y = finite_real("scan correlation", c_values, 1)
    if r.size != y.size:
        raise DomainError(f"scan columns differ in length: {r.size} vs {y.size}")
    if r.size < 4:
        raise DomainError(f"need at least 4 scan points, got {r.size}")
    if nonnegative_scalar("wavenumber", k) == 0.0:
        raise DomainError(f"wavenumber must be > 0, got {k!r}")
    if amplitude_known is not None and nonnegative_scalar("amplitude", amplitude_known) == 0.0:
        raise DomainError(f"amplitude must be > 0, got {amplitude_known!r}")
    span = float(r.max() - r.min())
    if span <= 0:
        raise DomainError("scan baselines are all identical")

    # Scaling to max |y| in [0.5, 1) by a power of two is exact, so the fit
    # is the scan's own, and a scan near the float limit cannot overflow.
    exponent = math.frexp(float(np.abs(y).max()))[1]
    y = np.ldexp(y, -exponent)
    omegas, peak = _periodogram_peak(r, y)
    if omegas[peak] * span < math.pi:
        raise FringeCoverageError(
            f"scan spans {omegas[peak] * span / (2 * math.pi):.3f} fringes at the "
            "detected frequency; at least half a fringe is required"
        )

    # Overflow is checked below, so no numpy warning leaks out of the fit.
    with np.errstate(all="ignore"):
        amplitude = None if amplitude_known is None else float(np.ldexp(amplitude_known, -exponent))

        def fit_at(omega):
            return [float(v[0]) for v in _projected_fit(np.array([omega]), r, y, amplitude)]

        # The bracket: the cell of the periodogram's grid nearest its peak,
        # within one main lobe, across which the slope falls through zero
        # (a positive slope means the cost falls toward higher omega).
        lobe = np.searchsorted(omegas, omegas[peak] + np.array([-2.0, 2.0]) * math.pi / span)
        grid = omegas[lobe[0]:lobe[1]]
        _, grid_cost, slope, _ = _projected_fit(grid, r, y, amplitude)
        cells = np.flatnonzero((slope[:-1] > 0) & (slope[1:] <= 0))
        omega, iterations, converged = float(omegas[peak]), 0, False
        if cells.size:
            cell = cells[np.argmin(np.abs(cells + lobe[0] + 0.5 - peak))]
            low, high = float(grid[cell]), float(grid[cell + 1])
            omega = 0.5 * (low + high)
            for iterations in range(1, PHI_MAX_ITERATIONS + 1):
                _, _, slope, curvature = fit_at(omega)
                # A curvature that underflows to 0 gives a nan trial, which bisects.
                trial = omega + slope / curvature if curvature > 0 else math.nan
                converged = abs(trial - omega) <= 1e-13 * omega
                low, high = (omega, high) if slope > 0 else (low, omega)
                if not (converged or low < trial < high):
                    trial = 0.5 * (low + high)
                omega, moved = trial, trial != omega
                if converged or not moved:
                    break
        s, cost, _, curvature = fit_at(omega)
        converged = converged and cost <= float(grid_cost.min())
        # cost / curvature, and so the stderr, is the same at every scale of the scan.
        dof = max(1, r.size - (2 if amplitude_known is None else 1))
        variance = cost / dof / curvature if curvature > 0 else None
    try:
        if not all(map(math.isfinite, (cost, s, 0.0 if variance is None else variance))):
            raise OverflowError
        s = math.ldexp(s, exponent) if amplitude is None else float(amplitude_known)
    except OverflowError:
        raise DomainError(
            f"the fit overflows the float range (amplitude {s!r}, residual cost {cost!r} "
            f"of the scan scaled by 2**{-exponent}); rescale the scan or the amplitude"
        ) from None
    phi = omega / k
    # A singular Jacobian reports an infinite stderr, not an error.
    stderr = math.inf if variance is None else math.sqrt(max(variance, 0.0)) / k
    if not (math.isfinite(phi) and (variance is None or math.isfinite(stderr))):
        raise DomainError(f"phi = |omega| / k overflows the float range at k = {k!r}")
    return PhiEstimate(phi, stderr, converged, iterations, s)
