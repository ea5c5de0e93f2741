"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Tolerances are fixed here and nowhere else.
"""

import itertools
import math
from contextlib import contextmanager

import numpy as np
import pytest

from opahbt import (
    MomentConvention,
    OpaParams,
    OrderingConvention,
    SweepSpec,
    correlation_full,
    equivalent_thermal_mean,
    fit_inverse_law,
    gaussian_wick_moment,
    geometric_summation_moments,
    hbt_two_mode_correlation,
    noise_avg_printed,
    noise_avg_substitution,
    propagate_moments,
    reduced_moments,
    run_oracle_checks,
    signal_ratio,
    snr_ratio,
    space_for_squeezed_thermal,
    squeeze_populations,
    sweep_ratios,
    target_ratio_operating_point,
    thermal_contractions,
    thermal_moments,
    thermal_populations,
    estimate_phi,
)

G2 = OpaParams(2.0)


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"[criterion {number:02d}] {title}: FAIL")
        raise
    print(f"[criterion {number:02d}] {title}: PASS")


def test_c01_signal_amplification():
    with criterion(1, "signal amplification at g=2"):
        grid = np.geomspace(0.15, 1000.0, 160)
        ratios = np.array([signal_ratio(n, n, G2) for n in grid])
        assert np.all(np.diff(ratios) < 0)  # monotone decrease
        asymptote = math.cosh(2.0) ** 4
        assert asymptote == pytest.approx(200.339, abs=5e-4)
        assert np.all(ratios > asymptote)  # approaches the asymptote from above
        assert ratios[-1] == pytest.approx(asymptote, rel=5e-3)
        assert signal_ratio(10.0, 10.0, G2) == pytest.approx(239.3, abs=0.1)
        high = np.array([signal_ratio(n, n, G2) for n in np.geomspace(10.0, 1000.0, 40)])
        assert np.all((high >= 200.0) & (high <= 240.0))


def test_c02_snr_gain_at_unit_mean():
    with criterion(2, "SNR ratio 1.660 at unit means, g=2"):
        assert snr_ratio(1.0, 1.0, G2) == pytest.approx(1.660, abs=0.005)


def test_c03_fitted_law():
    with criterion(3, "fitted law A + B/n over the default window"):
        fit = fit_inverse_law(sweep_ratios(SweepSpec(g=2.0)))
        assert fit.A == pytest.approx(1.082, abs=0.02)
        assert fit.B == pytest.approx(0.584, abs=0.06)
        # Range sensitivity, as reported by the fit command.
        for n_min, n_max in ((0.1, 10.0), (0.3, 30.0), (0.5, 50.0)):
            alt = fit_inverse_law(
                sweep_ratios(SweepSpec(g=2.0, n_min=n_min, n_max=n_max))
            )
            print(
                f"    fit-range sensitivity [{n_min}, {n_max}]: "
                f"A={alt.A:.4f} B={alt.B:.4f}"
            )


def test_c04_snr_asymptote_is_gain_independent():
    with criterion(4, "large-mean SNR asymptote sqrt(190/162)"):
        asymptote = math.sqrt(190.0 / 162.0)
        assert asymptote == pytest.approx(1.0829, abs=1e-4)
        for g in (1.0, 2.0, 3.0):
            value = snr_ratio(1e6, 1e6, OpaParams(g))
            assert value == pytest.approx(asymptote, abs=1e-3)


def test_c05_four_hundred_percent_operating_point():
    with criterion(5, "operating point for a 400 percent SNR increase"):
        fit = fit_inverse_law(sweep_ratios(SweepSpec(g=2.0)))
        point = target_ratio_operating_point(fit, 5.0)
        assert point == pytest.approx(0.149, abs=0.005)
        exact = snr_ratio(point, point, G2)
        assert abs(exact - 5.0) / 5.0 <= 0.15


def test_c06_moment_propagation_oracle():
    with criterion(6, "Fock oracle confirms the moment propagation rules"):
        for n in (0.0, 0.5, 1.0):
            for g in (0.0, 0.25, 0.5, 1.0):
                probs, deficit = thermal_populations(n, space_for_squeezed_thermal(n, g))
                squeezed, deficit = squeeze_populations(probs, g, trace_deficit=deficit)
                # Boundary-shell certificate: deficit plus the signal's top
                # level, where the whole shell sits (the idler never
                # exceeds the signal).
                assert deficit + squeezed[-1] < 1e-9
                got = reduced_moments(squeezed).as_array()
                want = propagate_moments(thermal_moments(n), OpaParams(g)).as_array()
                np.testing.assert_allclose(
                    got, want * squeezed.sum(), rtol=1e-6, atol=1e-12
                )


def test_c07_thermal_closure():
    with criterion(7, "propagated thermal moments stay thermal"):
        for n in (0.0, 0.01, 0.5, 1.0, 5.0, 50.0):
            for g in (0.0, 0.25, 1.0, 2.0, 3.0):
                params = OpaParams(g)
                out = propagate_moments(thermal_moments(n), params).as_array()
                want = thermal_moments(equivalent_thermal_mean(n, params)).as_array()
                np.testing.assert_allclose(out, want, rtol=1e-9, atol=1e-12)


def test_c08_plain_noise_reconstruction():
    with criterion(8, "generic noise with thermal moments matches the plain law"):
        values = np.geomspace(0.01, 100.0, 20)
        for n in values:
            for m in values:
                printed = noise_avg_printed(n, m)
                recomputed = noise_avg_substitution(
                    thermal_moments(n), thermal_moments(m)
                )
                assert abs(recomputed - printed) <= 1e-9 * printed


def test_c09_misprint_detection():
    with criterion(9, "third-moment misprint detected and flagged"):
        oracle = geometric_summation_moments(1.0)
        assert oracle.m3 == pytest.approx(13.0, rel=1e-9)
        printed = thermal_moments(1.0, MomentConvention.PAPER_PRINTED)
        assert printed.m3 == 8.0
        report = run_oracle_checks()
        check = next(
            c for c in report["checks"] if c["name"] == "published-third-moment"
        )
        assert check["expected"] == "fail" and not check["passed"]
        assert "5*N^3" in check["note"]


def test_c10_documented_amplified_noise_discrepancies():
    with criterion(10, "amplified-noise discrepancies documented, exit unaffected"):
        report = run_oracle_checks()
        by_name = {c["name"]: c for c in report["checks"]}
        zero_gain = by_name["amplified-noise-zero-gain-reduction"]
        assert zero_gain["expected"] == "fail" and not zero_gain["passed"]
        at_unit = abs(466.0 - 418.0) / 466.0
        assert at_unit == pytest.approx(0.103, abs=5e-4)
        assert zero_gain["max_rel_deviation"] >= at_unit - 5e-4
        substitution = by_name["amplified-noise-substitution"]
        assert substitution["expected"] == "fail" and not substitution["passed"]
        assert substitution["max_rel_deviation"] > 0.01
        assert report["all_expected_pass_ok"] is True  # exit code unaffected


def test_c11_quantum_validation_of_the_correlation_law():
    with criterion(11, "matrix correlator reproduces the correlation law"):
        for n in (0.0, 0.5, 1.0):
            for m in (0.0, 0.5, 1.0):
                for delta in (0.0, math.pi / 4, math.pi / 2, math.pi):
                    c0, _ = hbt_two_mode_correlation(
                        n, m, delta, OrderingConvention.NORMAL_ORDERED
                    )
                    want = correlation_full(thermal_moments(n), thermal_moments(m), delta)
                    assert abs(c0 - want) <= 1e-6 * max(1.0, abs(want))


def test_c12_angular_diameter_recovery():
    with criterion(12, "angular size recovered from baseline scans"):
        k = 1.42e7
        phi_true = 1e-8
        r = np.linspace(0.0, 40.0, 64)
        clean = 0.9 * np.cos(k * phi_true * r)
        noiseless = estimate_phi(r, clean, k)
        assert noiseless.converged
        assert abs(noiseless.phi / phi_true - 1.0) <= 1e-3
        hits = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            noisy = clean + 0.05 * 0.9 * rng.standard_normal(clean.size)
            estimate = estimate_phi(r, noisy, k)
            if estimate.converged and abs(estimate.phi - phi_true) <= 3 * estimate.stderr:
                hits += 1
        print(f"    noisy recovery: {hits}/100 within 3 sigma")
        assert hits >= 99


def _normal_ordered_intensity_product(contractions, delta):
    # <:I1 I2:> = <b1^dag b2^dag b2 b1> with detector fields
    # b1 = e^{i delta} a_0 + a_1 and b2 = a_0 + a_1, expanded into
    # normally ordered ladder monomials.
    arm1 = (complex(math.cos(delta), math.sin(delta)), 1.0)
    arm2 = (1.0, 1.0)
    return sum(
        np.conj(arm1[i] * arm2[j])
        * arm2[k]
        * arm1[l]
        * gaussian_wick_moment(contractions, [(i, True), (j, True), (k, False), (l, False)])
        for i, j, k, l in itertools.product(range(2), repeat=4)
    )


def test_c13_semiclassical_diagonal_moment_gap():
    with criterion(13, "classical intensity product sits n + m below the photon law"):
        for n in (0.0, 0.5, 1.0, 3.0):
            for m in (0.0, 1.0, 2.0):
                contractions = thermal_contractions([n, m])
                for delta in (0.0, math.pi / 3, math.pi / 2, math.pi):
                    classical = 2 * n**2 + 2 * m**2 + 2 * n * m * (1.0 + math.cos(delta))
                    # The normally ordered product is the classical-field mean.
                    ordered = _normal_ordered_intensity_product(contractions, delta)
                    assert ordered == pytest.approx(classical, rel=1e-12, abs=1e-12)
                    quantum = correlation_full(thermal_moments(n), thermal_moments(m), delta)
                    assert quantum - classical == pytest.approx(n + m, rel=1e-12, abs=1e-12)
