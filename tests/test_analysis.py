import inspect
import math
import re
import tracemalloc

import numpy as np
import pytest

from opahbt import (
    DegenerateFitError,
    DomainError,
    FringeCoverageError,
    OpaParams,
    RatioTable,
    Spacing,
    SweepSpec,
    estimate_phi,
    fit_inverse_law,
    signal_ratio,
    snr_ratio,
    sweep_ratios,
)
import opahbt.analysis
from opahbt.analysis import _BLOCK_ROWS, _MAX_POINTS, _periodogram_peak

K_BLUE = 1.42e7  # rad/m, a 443 nm wavenumber


def test_sweep_spec_validation():
    with pytest.raises(DomainError):
        SweepSpec(g=2.0, n_min=0.0, n_max=1.0)
    with pytest.raises(DomainError):
        SweepSpec(g=2.0, n_min=2.0, n_max=1.0)
    with pytest.raises(DomainError):
        SweepSpec(g=2.0, points=0)
    with pytest.raises(DomainError):
        SweepSpec(g=2.0, points=_MAX_POINTS + 1)
    assert SweepSpec(g=2.0, points=_MAX_POINTS).points == _MAX_POINTS
    # One integer rule: a numpy integer is a count, a bool is not.
    with pytest.raises(DomainError, match=r"points must be an integer in \[1, \d+\], got True"):
        SweepSpec(g=2.0, n_min=1.0, n_max=1.0, points=True)
    spec = SweepSpec(g=2.0, points=np.int64(200))
    assert type(spec.points) is int and spec == SweepSpec(g=2.0)
    with pytest.raises(DomainError):
        SweepSpec(g=2.0, n_min=1.0, n_max=2.0, points=1)
    with pytest.raises(DomainError):
        SweepSpec(g=2.0, equal_sources=False)  # needs m_bar
    # An equal-sources sweep would silently ignore a held companion mean.
    with pytest.raises(DomainError, match="equal-sources sweep holds no m_bar, got 4.0"):
        SweepSpec(g=1.0, n_min=0.5, n_max=2.0, points=3, m_bar=4.0)
    single = SweepSpec(g=2.0, n_min=1.0, n_max=1.0, points=1)
    assert single.grid().tolist() == [1.0]


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0, "0.1"])
def test_sweep_spec_inputs_share_the_domain_validator(bad):
    for field, name in (("g", "gain"), ("n_min", "n_min"), ("n_max", "n_max")):
        settings = {"g": 1.0, "n_min": 0.1, "n_max": 0.1, "points": 1, field: bad}
        with pytest.raises(DomainError, match=name):
            SweepSpec(**settings)
    with pytest.raises(DomainError, match="m_bar"):
        SweepSpec(g=1.0, equal_sources=False, m_bar=bad)


def test_sweep_single_point_worked_values():
    table = sweep_ratios(SweepSpec(g=2.0, n_min=1.0, n_max=1.0, points=1))
    assert table.snr_ratio[0] == pytest.approx(1.660, abs=5e-3)
    table10 = sweep_ratios(SweepSpec(g=2.0, n_min=10.0, n_max=10.0, points=1))
    assert table10.signal_ratio[0] == pytest.approx(239.3, abs=0.1)


def test_zero_gain_sweep_is_flat_at_one():
    table = sweep_ratios(SweepSpec(g=0.0, n_min=0.5, n_max=5.0, points=11))
    np.testing.assert_allclose(table.signal_ratio, 1.0, rtol=1e-12)


def test_sweep_is_deterministic_and_ordered():
    spec = SweepSpec(g=2.0, n_min=0.2, n_max=8.0, points=37)
    first = sweep_ratios(spec)
    second = sweep_ratios(spec)
    assert first.n_bar.tobytes() == second.n_bar.tobytes()
    assert first.snr_ratio.tobytes() == second.snr_ratio.tobytes()
    assert np.all(np.diff(first.n_bar) > 0)


def test_unequal_sources_sweep_uses_fixed_companion():
    spec = SweepSpec(g=1.0, n_min=0.5, n_max=2.0, points=3, equal_sources=False, m_bar=4.0)
    table = sweep_ratios(spec)
    params = OpaParams(1.0)
    assert table.signal_ratio[0] == pytest.approx(signal_ratio(0.5, 4.0, params))
    assert table.snr_ratio[-1] == pytest.approx(snr_ratio(2.0, 4.0, params))


@pytest.mark.parametrize("spacing", [Spacing.LOG, Spacing.LINEAR])
@pytest.mark.parametrize("m_bar", [None, 3.7])
def test_sweep_matches_per_point_scalar_laws_bit_for_bit(spacing, m_bar):
    # Longer than two blocks, so the last block holds a single row.
    spec = SweepSpec(
        g=2.3, n_min=0.07, n_max=41.0, points=2 * _BLOCK_ROWS + 1, spacing=spacing,
        equal_sources=m_bar is None, m_bar=m_bar,
    )
    table = sweep_ratios(spec)
    params = OpaParams(2.3)
    companions = [n if m_bar is None else m_bar for n in table.n_bar]
    signal = [signal_ratio(n, m, params) for n, m in zip(table.n_bar, companions)]
    ratio = [snr_ratio(n, m, params) for n, m in zip(table.n_bar, companions)]
    assert table.signal_ratio.tobytes() == np.array(signal).tobytes()
    assert table.snr_ratio.tobytes() == np.array(ratio).tobytes()
    # A one-law sweep gives the same column and leaves the other unevaluated.
    signal_only = sweep_ratios(spec, ("signal_ratio",))
    snr_only = sweep_ratios(spec, ("snr_ratio",))
    assert signal_only.signal_ratio.tobytes() == table.signal_ratio.tobytes()
    assert snr_only.snr_ratio.tobytes() == table.snr_ratio.tobytes()
    assert signal_only.snr_ratio is None and snr_only.signal_ratio is None


@pytest.mark.parametrize(
    "spec",
    [
        SweepSpec(g=2.0, n_min=1e80, n_max=1e80, points=1),
        SweepSpec(g=200.0, n_min=0.5, n_max=5.0, points=4),
    ],
)
def test_sweep_overflow_raises_domain_error_naming_the_point(spec, recwarn):
    with pytest.raises(DomainError, match="grid point 0"):
        sweep_ratios(spec)
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("m_bar", [None, 2.0])
def test_sweep_overflow_in_a_later_block_names_the_first_such_point(m_bar, recwarn):
    spec = SweepSpec(g=2.0, n_min=1.0, n_max=1e100, points=3 * _BLOCK_ROWS,
                     equal_sources=m_bar is None, m_bar=m_bar)
    params = OpaParams(2.0)
    with np.errstate(all="ignore"):
        finite = [
            math.isfinite(snr_ratio(n, n if m_bar is None else m_bar, params))
            for n in spec.grid()
        ]
    first = finite.index(False)
    assert first >= 2 * _BLOCK_ROWS
    named = f"grid point {first} (n_bar = {float(spec.grid()[first])!r},"
    with pytest.raises(DomainError, match=re.escape(named)):
        sweep_ratios(spec, ("snr_ratio",))
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_one_law_sweep_evaluates_and_checks_only_that_law(monkeypatch):
    # At g = 10 and n = 1e70 the amplified noise overflows, so only the SNR
    # ratio is out of range; the signal ratio is cosh(10)^4.
    spec = SweepSpec(g=10.0, n_min=1e70, n_max=1e70, points=1)
    with pytest.raises(DomainError, match="grid point 0"):
        sweep_ratios(spec, ("snr_ratio",))
    with pytest.raises(DomainError, match="grid point 0"):
        sweep_ratios(spec)

    def unused(*args):
        raise AssertionError("a law the sweep was not asked for was evaluated")

    monkeypatch.setattr("opahbt.hbt.snr_ratio", unused)
    table = sweep_ratios(spec, ("signal_ratio",))
    assert table.signal_ratio[0] == pytest.approx(math.cosh(10.0) ** 4, rel=1e-12)
    assert table.snr_ratio is None
    with pytest.raises(DomainError, match="SNR"):
        fit_inverse_law(sweep_ratios(SweepSpec(g=1.0, points=5), ("signal_ratio",)))


@pytest.mark.parametrize("name", ["ratio", "SNR_RATIO", "n_bar", None, ["snr_ratio"]])
def test_a_sweep_column_that_is_not_a_ratio_raises_naming_the_two(name, monkeypatch):
    def unused(*args):
        raise AssertionError("a law was evaluated before the columns were checked")

    monkeypatch.setattr("opahbt.hbt.snr_ratio", unused)
    message = f"a sweep's columns are 'signal_ratio' and 'snr_ratio', got {name!r}"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        sweep_ratios(SweepSpec(g=2.0, points=5), ("snr_ratio", name))


def test_snr_ratio_decreases_along_positive_gain_sweep():
    table = sweep_ratios(SweepSpec(g=2.0, n_min=0.15, n_max=100.0, points=120))
    assert np.all(np.diff(table.snr_ratio) < 0)


def test_fit_recovers_its_own_model_exactly():
    spec = SweepSpec(g=1.0, n_min=0.2, n_max=30.0, points=50)
    grid = spec.grid()
    table = RatioTable(grid, np.ones_like(grid), 1.082 + 0.584 / grid)
    fit = fit_inverse_law(table)
    assert fit.A == pytest.approx(1.082, abs=1e-9)
    assert fit.B == pytest.approx(0.584, abs=1e-9)
    assert fit.rss <= 1e-18


def test_fit_on_default_sweep_matches_published_constants():
    fit = fit_inverse_law(sweep_ratios(SweepSpec(g=2.0)))
    assert fit.A == pytest.approx(1.082, abs=0.02)
    assert fit.B == pytest.approx(0.584, abs=0.06)
    assert fit.A == pytest.approx(math.sqrt(190.0 / 162.0), abs=0.01)


def test_fit_allocates_at_most_two_columns_beyond_its_table():
    # One reused work column plus the b / n_bar temporary of the residual:
    # 16 bytes per point, where a fresh array per term held 24.
    points = 200_000
    grid = np.geomspace(0.15, 20.0, points)
    table = RatioTable(grid, None, 1.082 + 0.584 / grid)
    tracemalloc.start()
    try:
        fit_inverse_law(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * points + 4096


def test_fit_requires_three_points_and_distinct_abscissae():
    spec = SweepSpec(g=2.0, n_min=1.0, n_max=1.0, points=1)
    with pytest.raises(DomainError):
        fit_inverse_law(sweep_ratios(spec))
    degenerate = RatioTable(np.ones(4), np.ones(4), np.ones(4))
    with pytest.raises(DegenerateFitError):
        fit_inverse_law(degenerate)


@pytest.mark.parametrize(
    "table, window",
    [
        # The SNR ratio near 1e160 at a companion mean of 1e-160 squares to inf.
        (sweep_ratios(SweepSpec(g=2.0, equal_sources=False, m_bar=1e-160), ("snr_ratio",)),
         "[0.15, 20.0]"),
        # n_bar squared overflows before any residual is formed.
        (RatioTable(np.array([1e200, 2e200, 3e200]), snr_ratio=np.ones(3)), "[1e+200, 3e+200]"),
    ],
    ids=["residual", "abscissa"],
)
def test_fit_that_overflows_names_its_window(table, window):
    # Runtime warnings are errors in this suite, so none may leak either.
    with pytest.raises(DomainError, match=re.escape(f"the fit over n_bar in {window} overflows")):
        fit_inverse_law(table)


def _scan(phi, points=64, r_max=40.0, amplitude=0.9):
    r = np.linspace(0.0, r_max, points)
    return r, amplitude * np.cos(K_BLUE * phi * r)


def _jittered(points=64, r_max=40.0):
    step = r_max / (points - 1)
    jitter = np.random.default_rng(3).uniform(-0.3, 0.3, points) * step
    jitter[[0, -1]] = 0.0
    return np.linspace(0.0, r_max, points) + jitter


@pytest.mark.parametrize(
    "phi_true, amplitude_known, r",
    [(1e-8, None, None), (2e-8, 0.9, None), (1e-8, None, _jittered())],
    ids=["free-amplitude", "known-amplitude", "jittered-baseline"],
)
def test_phi_recovery_noiseless(phi_true, amplitude_known, r):
    if r is None:
        r = _scan(phi_true)[0]
    y = 0.9 * np.cos(K_BLUE * phi_true * r)
    estimate = estimate_phi(r, y, K_BLUE, amplitude_known=amplitude_known)
    assert estimate.converged
    assert estimate.phi == pytest.approx(phi_true, rel=1e-12)
    assert estimate.amplitude == pytest.approx(0.9, rel=1e-12)


def test_phi_recovery_with_noise_is_calibrated():
    phi_true = 1e-8
    r, clean = _scan(phi_true)
    hits = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        noisy = clean + 0.05 * 0.9 * rng.standard_normal(clean.size)
        estimate = estimate_phi(r, noisy, K_BLUE)
        if estimate.converged and abs(estimate.phi - phi_true) <= 3.0 * estimate.stderr:
            hits += 1
    assert hits >= 99


@pytest.mark.parametrize("rows", [1, 7, 64])
def test_periodogram_blocks_find_the_one_block_peak(monkeypatch, rows):
    # Every block past the first is the first one shifted by a phase factor
    # per scan point; the peak must stay that of |sum_r y e^(-i omega r)|
    # evaluated at once on the whole frequency grid.  The fringe at
    # 7.1 rad/m puts the peak near row 1450, past the first block.
    r = np.linspace(0.0, 40.0, 200)
    y = 0.9 * np.cos(K_BLUE * 5e-7 * r) + 0.3 * np.random.default_rng(11).standard_normal(r.size)
    n_freq = 16 * r.size  # the function's count; not a multiple of 7 or 64: the last block is cut
    omegas = np.linspace(0.25 * math.pi / 40.0, math.pi / np.diff(r).min(), n_freq)
    whole = omegas[np.argmax(np.abs(np.exp(-1j * np.outer(omegas, r)) @ y))]
    grid, peak = _periodogram_peak(r, y)
    assert np.array_equal(grid, omegas) and grid[peak] == whole
    monkeypatch.setattr(opahbt.analysis, "_PERIODOGRAM_BLOCK", rows * r.size)
    grid, peak = _periodogram_peak(r, y)
    assert grid[peak] == whole


@pytest.mark.parametrize("seed", [120, 123, 124])
def test_phi_stalled_line_search_at_the_optimum_converges(seed):
    # These noisy scans once stalled a damped line search at the optimum,
    # and a residual test alone reported them as not converged.
    phi_true = 1e-8
    r, clean = _scan(phi_true, points=128)
    noisy = clean + 0.1 * np.random.default_rng(seed).standard_normal(r.size)
    estimate = estimate_phi(r, noisy, K_BLUE)
    assert estimate.converged
    assert abs(estimate.phi - phi_true) <= 5.0 * estimate.stderr


def test_phi_recovery_with_known_amplitude_and_noise_is_calibrated():
    # The known-amplitude fit frees only the frequency; its stderr must be
    # as well calibrated on noisy scans as the two-parameter fit's.
    phi_true = 1e-8
    r, clean = _scan(phi_true)
    hits = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        noisy = clean + 0.05 * 0.9 * rng.standard_normal(clean.size)
        estimate = estimate_phi(r, noisy, K_BLUE, amplitude_known=0.9)
        assert estimate.amplitude == 0.9
        if estimate.converged and abs(estimate.phi - phi_true) <= 3.0 * estimate.stderr:
            hits += 1
    assert hits >= 99


def test_phi_stderr_is_calibrated_away_from_the_band_edge():
    # 200 seeded noisy scans at 0.02-0.3 fringes per point, well inside the
    # periodogram's band: z = (phi_hat - phi) / stderr should be standard
    # normal, so a miscalibrated stderr moves its spread and coverage.
    rng = np.random.default_rng(0)
    z = []
    for index in range(200):
        r = np.linspace(0.0, 40.0, rng.choice([64, 128]))
        phi = 2.0 * math.pi * rng.uniform(0.02, 0.3) / (K_BLUE * r[1])
        amplitude = rng.uniform(0.5, 2.0)
        noise = rng.choice([0.01, 0.03, 0.1]) * amplitude
        y = amplitude * np.cos(K_BLUE * phi * r) + noise * rng.standard_normal(r.size)
        estimate = estimate_phi(r, y, K_BLUE)
        assert estimate.converged, index
        z.append((estimate.phi - phi) / estimate.stderr)
    assert 0.85 <= np.std(z) <= 1.15
    assert 0.60 <= np.mean(np.abs(z) <= 1.0) <= 0.80
    assert 0.88 <= np.mean(np.abs(z) <= 2.0) <= 0.99


@pytest.mark.parametrize("seed, converged", [(585, True), (1240, True), (1299, True), (588, False)])
def test_phi_near_the_band_edge_does_not_converge_to_a_far_alias(seed, converged):
    # Integer baselines alias omega to omega + 2 pi m; an unbracketed fit
    # left the periodogram's band [omega_min, pi] on the first three scans
    # and reported phi / omega near 1e9 to 1e11 as converged with a stderr
    # of 1e-12 phi.  On the last the cost is least at the band edge pi
    # itself, so the nearest bracketed minimum, a sidelobe 4 % off, is not
    # reported as converged.
    rng = np.random.default_rng(seed)
    n = int(rng.choice([32, 64, 128]))
    fringes_per_point = rng.uniform(0.3, 0.499)
    noise = rng.uniform(0.03, 0.3)
    r = np.arange(n, dtype=float)
    omega = 2.0 * math.pi * fringes_per_point
    estimate = estimate_phi(r, np.cos(omega * r) + noise * rng.standard_normal(n), 1.0)
    assert estimate.converged is converged
    if converged:
        assert abs(estimate.phi / omega - 1.0) <= 0.01


def test_phi_fit_whose_amplitude_overflows_is_a_domain_error():
    # A square wave of +-1.7e308 fits cleanly in the scaled scan, but its
    # least-squares cosine amplitude, 4 / pi times that, exceeds the float range.
    r, y = _scan(1e-8)
    with pytest.raises(DomainError, match="the fit overflows the float range"):
        estimate_phi(r, np.where(y >= 0.0, 1.7e308, -1.7e308), K_BLUE)


def test_phi_estimation_rejects_short_scans():
    r, y = _scan(1e-8, points=3)
    with pytest.raises(DomainError):
        estimate_phi(r, y, K_BLUE)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0, 0.0, "1"])
def test_phi_wavenumber_shares_the_domain_validator(bad):
    r, y = _scan(1e-8)
    with pytest.raises(DomainError, match="wavenumber"):
        estimate_phi(r, y, k=bad)


@pytest.mark.parametrize("column", [0, 1])
@pytest.mark.parametrize(
    "bad", [["a", "b", "c", "d"], None, [1.0 + 1.0j] * 64, [[1.0], [2.0, 3.0]], [math.nan] * 64]
)
def test_phi_scan_values_share_the_domain_validator(column, bad):
    # Strings, None, complex, ragged and non-finite columns are typed
    # errors naming the column, not ValueError, TypeError or a length mismatch,
    # in one short line however long the column.
    scan = list(_scan(1e-8))
    scan[column] = bad
    name = ("scan baseline", "scan correlation")[column]
    with pytest.raises(DomainError, match=name) as caught:
        estimate_phi(*scan, K_BLUE)
    assert len(str(caught.value)) < 80, str(caught.value)


def test_phi_takes_no_seed():
    # The fit draws no random numbers, so there is no seed to pass.
    assert "seed" not in inspect.signature(estimate_phi).parameters


@pytest.mark.parametrize(
    "points, amplitude, outcome",
    [
        (64, 1e-170, "singular"),
        (64, 1e-300, "singular"),
        (64, 5e-324, "singular"),
        (4, 5e-324, "singular"),
        (64, 1e-160, "overflow"),
        (64, 1e-150, "capped"),
    ],
)
def test_phi_known_amplitude_far_below_the_scan(points, amplitude, outcome):
    # The Gauss-Newton curvature scales as the amplitude squared and
    # underflows to 0; the iteration then bisects instead of dividing by it.
    # A singular Jacobian at the end gives an infinite stderr.
    if points == 4:
        r, y, k = np.arange(4.0), np.array([1.0, 0.5, -0.4, -1.0]), 1.0
    else:
        (r, y), k = _scan(1e-8), K_BLUE
    if outcome == "overflow":
        with pytest.raises(DomainError, match="the fit overflows the float range"):
            estimate_phi(r, y, k, amplitude_known=amplitude)
        return
    estimate = estimate_phi(r, y, k, amplitude_known=amplitude)
    assert not estimate.converged
    assert estimate.amplitude == amplitude
    assert math.isfinite(estimate.phi)
    if outcome == "singular":
        assert estimate.stderr == math.inf
    else:
        # The bisection leaves omega unchanged at step 49, which ends the loop.
        assert estimate.iterations == 49
        assert 1e140 < estimate.stderr < 1e141


def test_phi_estimation_rejects_sub_quarter_fringe():
    r, y = _scan(1e-10)  # far below a quarter fringe over 40 m
    with pytest.raises(FringeCoverageError):
        estimate_phi(r, y, K_BLUE)
