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
    Ratio,
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
    signal_only = sweep_ratios(spec, (Ratio.SIGNAL,))
    snr_only = sweep_ratios(spec, (Ratio.SNR,))
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
        sweep_ratios(spec, (Ratio.SNR,))
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_one_law_sweep_evaluates_and_checks_only_that_law(monkeypatch):
    # At g = 10 and n = 1e70 the amplified noise overflows, so only the SNR
    # ratio is out of range; the signal ratio is cosh(10)^4.
    spec = SweepSpec(g=10.0, n_min=1e70, n_max=1e70, points=1)
    with pytest.raises(DomainError, match="grid point 0"):
        sweep_ratios(spec, (Ratio.SNR,))
    with pytest.raises(DomainError, match="grid point 0"):
        sweep_ratios(spec)

    def unused(*args):
        raise AssertionError("a law the sweep was not asked for was evaluated")

    monkeypatch.setattr("opahbt.analysis.snr_ratio", unused)
    table = sweep_ratios(spec, (Ratio.SIGNAL,))
    assert table.signal_ratio[0] == pytest.approx(math.cosh(10.0) ** 4, rel=1e-12)
    assert table.snr_ratio is None
    with pytest.raises(DomainError, match="SNR"):
        fit_inverse_law(sweep_ratios(SweepSpec(g=1.0, points=5), (Ratio.SIGNAL,)))


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


def _scan(phi, points=64, r_max=40.0, amplitude=0.9):
    r = np.linspace(0.0, r_max, points)
    return r, amplitude * np.cos(K_BLUE * phi * r)


def test_phi_recovery_noiseless():
    phi_true = 1e-8
    r, y = _scan(phi_true)
    estimate = estimate_phi(r, y, K_BLUE)
    assert estimate.converged
    assert estimate.phi == pytest.approx(phi_true, rel=1e-3)
    assert estimate.amplitude == pytest.approx(0.9, rel=1e-6)


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
    assert _periodogram_peak(r, y) == whole
    monkeypatch.setattr(opahbt.analysis, "_PERIODOGRAM_BLOCK", rows * r.size)
    assert _periodogram_peak(r, y) == whole


@pytest.mark.parametrize("seed", [120, 123, 124])
def test_phi_stalled_line_search_at_the_optimum_converges(seed):
    # These noisy scans stall the line search at the optimum; a residual
    # test alone used to report them as not converged.
    phi_true = 1e-8
    r, clean = _scan(phi_true, points=128)
    noisy = clean + 0.1 * np.random.default_rng(seed).standard_normal(r.size)
    estimate = estimate_phi(r, noisy, K_BLUE)
    assert estimate.converged
    assert abs(estimate.phi - phi_true) <= 5.0 * estimate.stderr


def test_phi_recovery_with_known_amplitude():
    phi_true = 2e-8
    r, y = _scan(phi_true)
    estimate = estimate_phi(r, y, K_BLUE, amplitude_known=0.9)
    assert estimate.converged
    assert estimate.phi == pytest.approx(phi_true, rel=1e-3)


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
        estimate = estimate_phi(r, y, K_BLUE, seed=index)
        assert estimate.converged, index
        z.append((estimate.phi - phi) / estimate.stderr)
    assert 0.85 <= np.std(z) <= 1.15
    assert 0.60 <= np.mean(np.abs(z) <= 1.0) <= 0.80
    assert 0.88 <= np.mean(np.abs(z) <= 2.0) <= 0.99


def test_phi_estimation_rejects_short_scans():
    r, y = _scan(1e-8, points=3)
    with pytest.raises(DomainError):
        estimate_phi(r, y, K_BLUE)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0, 0.0, "1"])
def test_phi_wavenumber_shares_the_domain_validator(bad):
    r, y = _scan(1e-8)
    with pytest.raises(DomainError, match="wavenumber"):
        estimate_phi(r, y, k=bad)


@pytest.mark.parametrize("bad", [-1, 1.5, "1", True, None, np.int64(-1), np.bool_(True)])
def test_phi_seed_is_checked_before_fitting(bad):
    # The scan converges without a retry, so the seed would otherwise go unused.
    r, y = _scan(1e-8)
    with pytest.raises(DomainError, match="seed"):
        estimate_phi(r, y, K_BLUE, seed=bad)
    assert estimate_phi(r, y, K_BLUE, seed=np.int64(3)).converged


def test_phi_estimation_rejects_sub_quarter_fringe():
    r, y = _scan(1e-10)  # far below a quarter fringe over 40 m
    with pytest.raises(FringeCoverageError):
        estimate_phi(r, y, K_BLUE)
