import gc
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opahbt import (
    DomainError,
    OpaParams,
    OrderingConvention,
    correlation_ac,
    correlation_full,
    equivalent_thermal_mean,
    hbt_two_mode_correlation,
    noise_avg_printed,
    noise_avg_substitution,
    noise_full,
    opa_correlation_ac,
    opa_noise_avg_printed,
    propagate_moments,
    signal_ratio,
    snr_ratio,
    thermal_moments,
)
from opahbt import _domain, hbt, opa, photon_stats
from opahbt.analysis import estimate_phi
from opahbt.fock import squeeze_populations
from opahbt.hbt import consistency_report, relative_deviation
from opahbt.oracle_checks import run_oracle_checks
from opahbt.wick import thermal_contractions

G2 = OpaParams(2.0)

# Frozen from direct evaluation of the published amplified-noise polynomial
# at unit means, gain 2 (its square root is about 9694.6).
AMPLIFIED_NOISE_1_1_G2 = 93985337.33036274
# Frozen constant group of the same polynomial at vacuum inputs, gain 2.
AMPLIFIED_NOISE_0_0_G2 = 5084398.5177281955


def test_correlation_full_worked_values():
    one = thermal_moments(1.0)
    assert correlation_full(one, one, 0.0) == pytest.approx(10.0)
    assert correlation_full(one, one, math.pi) == pytest.approx(6.0)
    zero = thermal_moments(0.0)
    assert correlation_full(zero, zero, 0.0) == 0.0


def test_correlation_ac_values():
    assert correlation_ac(1.0, 1.0, 0.0) == pytest.approx(2.0)
    assert correlation_ac(3.0, 7.0, math.pi / 2) == pytest.approx(
        0.0, abs=1e-12
    )
    assert correlation_ac(2.0, 3.0, math.pi) == pytest.approx(-12.0)


@given(
    st.floats(min_value=0.0, max_value=10.0),
    st.floats(min_value=0.0, max_value=10.0),
    st.floats(min_value=0.0, max_value=7.0),
)
@settings(max_examples=60, deadline=None)
def test_dc_split_identity(n, m, delta):
    # Subtracting the quarter-phase value isolates the cosine part.
    nm, mm = thermal_moments(n), thermal_moments(m)
    full = correlation_full(nm, mm, delta)
    quarter = correlation_full(nm, mm, math.pi / 2)
    assert full - quarter == pytest.approx(
        2 * n * m * math.cos(delta), abs=1e-9 * max(1.0, n * m)
    )


def test_noise_full_single_arm():
    one = thermal_moments(1.0)
    zero = thermal_moments(0.0)
    for delta in (0.0, 1.0, math.pi):
        assert noise_full(one, zero, delta) == pytest.approx(66.0)


def test_noise_full_phase_average_matches_substitution():
    one = thermal_moments(1.0)
    # cos and cos(2x) both average out over {pi/4, 3pi/4}.
    average = 0.5 * (
        noise_full(one, one, math.pi / 4)
        + noise_full(one, one, 3 * math.pi / 4)
    )
    assert average == pytest.approx(466.0, rel=1e-12)
    assert noise_avg_substitution(one, one) == pytest.approx(466.0)


def test_printed_plain_noise_values():
    assert noise_avg_printed(0.0, 0.0) == 0.0
    assert noise_avg_printed(1.0, 1.0) == pytest.approx(466.0)
    assert noise_avg_printed(1.0, 0.0) == pytest.approx(66.0)


def test_substitution_reconstructs_printed_plain_noise():
    values = np.geomspace(0.01, 100.0, 20)
    for n in values:
        for m in values:
            printed = noise_avg_printed(n, m)
            recomputed = noise_avg_substitution(thermal_moments(n), thermal_moments(m))
            assert recomputed == pytest.approx(printed, rel=1e-9)


def test_substitution_with_amplified_vacuum_moments():
    # Propagated vacuum is thermal at sinh(g)^2 in both arms, so the
    # substitution route lands on the plain law at those means, not on the
    # published amplified law.
    vac = thermal_moments(0.0)
    propagated = propagate_moments(vac, G2)
    nu2 = math.sinh(2.0) ** 2
    value = noise_avg_substitution(propagated, propagated)
    assert value == pytest.approx(noise_avg_printed(nu2, nu2), rel=1e-12)
    assert value == pytest.approx(6190226.141266234, rel=1e-9)  # frozen
    assert value != pytest.approx(opa_noise_avg_printed(0.0, 0.0, G2), rel=1e-3)


def test_amplified_correlation_values():
    assert opa_correlation_ac(1.0, 1.0, OpaParams(0.0), 0.0) == pytest.approx(
        correlation_ac(1.0, 1.0, 0.0)
    )
    assert opa_correlation_ac(1.0, 1.0, G2, 0.0) == pytest.approx(1491.479, abs=5e-3)
    assert opa_correlation_ac(10.0, 10.0, G2, 0.0) == pytest.approx(47861.26, abs=0.5)


def test_amplified_noise_frozen_values():
    assert opa_noise_avg_printed(1.0, 1.0, OpaParams(0.0)) == pytest.approx(418.0)
    assert opa_noise_avg_printed(1.0, 1.0, G2) == pytest.approx(
        AMPLIFIED_NOISE_1_1_G2, rel=1e-12
    )
    assert math.sqrt(opa_noise_avg_printed(1.0, 1.0, G2)) == pytest.approx(
        9694.6, abs=0.1
    )
    assert opa_noise_avg_printed(0.0, 0.0, G2) == pytest.approx(
        AMPLIFIED_NOISE_0_0_G2, rel=1e-12
    )


def test_snr_values_and_edge_cases():
    # The paper's unit-mean SNRs at peak signal, from the remaining laws.
    plain = correlation_ac(1.0, 1.0, 0.0) / math.sqrt(noise_avg_printed(1.0, 1.0))
    assert plain == pytest.approx(2.0 / math.sqrt(466.0), rel=1e-12)
    assert plain == pytest.approx(0.092648, abs=1e-6)
    amplified = opa_correlation_ac(1.0, 1.0, G2, 0.0) / math.sqrt(
        opa_noise_avg_printed(1.0, 1.0, G2)
    )
    assert amplified == pytest.approx(0.153846, abs=1e-6)
    assert amplified / plain == pytest.approx(snr_ratio(1.0, 1.0, G2), rel=1e-12)
    assert amplified / plain == pytest.approx(1.660, abs=5e-3)
    # The ratio is undefined, not 0/0 = 0, when a source is dark.
    with pytest.raises(DomainError, match="zero mean"):
        snr_ratio(0.0, 0.0, G2)


def test_readme_ratio_values_are_pinned_to_the_bit():
    assert repr(snr_ratio(1.0, 1.0, G2)) == "1.6605429008071826"
    assert repr(signal_ratio(10.0, 10.0, G2)) == "239.3062983932201"


def test_snr_ratio_validates_each_input_once(monkeypatch):
    # Two means, each checked once by snr_ratio and once more as the input
    # of equivalent_thermal_mean, whose rule it keeps.
    calls, check = [], _domain.finite_real

    def spy(name, value):
        calls.append(name)
        return check(name, value)

    for module in (_domain, hbt, opa, photon_stats):
        if hasattr(module, "finite_real"):
            monkeypatch.setattr(module, "finite_real", spy)
    snr_ratio(1.0, 1.0, G2)
    assert 0 < len(calls) <= 4, calls


def test_consistency_report_validates_its_grid_once(monkeypatch):
    # The grid once; then each source's thermal moments, and each of the two
    # moment arrays propagate_moments reads, under their own rules.  The law
    # tables are evaluated on the validated grid, not through the public laws.
    calls, check = [], _domain.finite_real

    def spy(name, value):
        calls.append(name)
        return check(name, value)

    for module in (_domain, hbt, opa, photon_stats):
        if hasattr(module, "finite_real"):
            monkeypatch.setattr(module, "finite_real", spy)
    consistency_report(G2, [(1.0, 1.0), (0.5, 2.0), (3.0, 0.25)])
    assert calls[0] == "grid" and len(calls) <= 5, calls


def test_ratio_worked_values():
    assert signal_ratio(10.0, 10.0, G2) == pytest.approx(239.306, abs=1e-3)
    assert signal_ratio(1.0, 1.0, OpaParams(0.0)) == 1.0
    assert snr_ratio(1.0, 1.0, G2) == pytest.approx(1.660, abs=5e-3)
    with pytest.raises(DomainError):
        signal_ratio(0.0, 1.0, G2)
    with pytest.raises(DomainError):
        snr_ratio(1.0, 0.0, G2)


def test_large_mean_signal_ratio_approaches_fourth_power_of_cosh():
    asymptote = math.cosh(2.0) ** 4
    assert signal_ratio(1e6, 1e6, G2) == pytest.approx(asymptote, rel=1e-4)


@given(
    st.floats(min_value=1e-3, max_value=50.0),
    st.floats(min_value=1e-3, max_value=50.0),
)
@settings(max_examples=60, deadline=None)
def test_plain_operations_swap_symmetry(n, m):
    nm, mm = thermal_moments(n), thermal_moments(m)
    assert correlation_full(nm, mm, 0.7) == pytest.approx(
        correlation_full(mm, nm, 0.7), rel=1e-12
    )
    assert noise_full(nm, mm, 0.7) == pytest.approx(noise_full(mm, nm, 0.7), rel=1e-12)
    assert noise_avg_printed(n, m) == pytest.approx(noise_avg_printed(m, n), rel=1e-12)


def test_amplified_noise_swap_asymmetry_is_the_documented_one():
    # The published amplified law is asymmetric by 4 (n - m) mu^2 nu^4.
    c_mu2 = math.cosh(2.0) ** 2
    c_nu2 = math.sinh(2.0) ** 2
    for n, m in ((1.0, 0.0), (2.0, 0.5), (0.1, 3.0)):
        gap = opa_noise_avg_printed(n, m, G2) - opa_noise_avg_printed(m, n, G2)
        assert gap == pytest.approx(4.0 * (n - m) * c_mu2 * c_nu2**2, rel=1e-9)


@given(
    st.floats(min_value=0.0, max_value=20.0),
    st.floats(min_value=0.0, max_value=20.0),
    st.floats(min_value=0.0, max_value=3.0),
    st.floats(min_value=0.0, max_value=7.0),
)
@settings(max_examples=60, deadline=None)
def test_amplified_correlation_consistency(n, m, g, delta):
    # The amplified AC signal is the plain one at the amplified means.
    params = OpaParams(g)
    direct = opa_correlation_ac(n, m, params, delta)
    via_means = correlation_ac(
        equivalent_thermal_mean(n, params), equivalent_thermal_mean(m, params), delta
    )
    assert direct == pytest.approx(via_means, rel=1e-12, abs=1e-12)


def test_consistency_report_values():
    routes = consistency_report(G2, [(1.0, 1.0), (0.5, 2.0)])
    plain, amplified, zero_gain = (relative_deviation(*pair) for pair in routes)
    assert plain[0] == pytest.approx(0.0, abs=1e-12)
    assert zero_gain[0] == pytest.approx((466.0 - 418.0) / 466.0, rel=1e-9)
    assert amplified[0] > 0.01
    assert np.all(plain <= 1e-12)


def test_consistency_report_rejects_empty_grid():
    with pytest.raises(DomainError):
        consistency_report(G2, [])


@pytest.mark.parametrize("value", [np.float32(1.0), np.int64(1), np.float64(1.0), 1])
def test_real_numpy_scalars_are_accepted(value):
    assert snr_ratio(value, 1.0, G2) == snr_ratio(1.0, 1.0, G2)
    assert signal_ratio(1.0, value, G2) == signal_ratio(1.0, 1.0, G2)
    gain = OpaParams(value * 2).gain
    assert gain == 2.0 and type(gain) is float
    assert correlation_ac(1.0, 0.5, value) == math.cos(1.0)


@pytest.mark.parametrize(
    "bad", [float("nan"), float("inf"), -float("inf"), -1.0, np.float32(-1.0), "1.0", None, 1j]
)
def test_invalid_means_raise_domain_error(bad):
    with pytest.raises(DomainError):
        snr_ratio(bad, 1.0, G2)
    with pytest.raises(DomainError):
        noise_avg_printed(1.0, bad)
    with pytest.raises(DomainError):
        OpaParams(bad)


MOMENT_LAWS = {
    "correlation_full": lambda moments: correlation_full(thermal_moments(1.0), moments, 0.5),
    "noise_full": lambda moments: noise_full(moments, thermal_moments(1.0), 0.5),
    "noise_avg_substitution": lambda moments: noise_avg_substitution(
        thermal_moments(1.0), moments
    ),
    "propagate_moments": lambda moments: propagate_moments(moments, G2),
}


@pytest.mark.parametrize("law", MOMENT_LAWS.values(), ids=MOMENT_LAWS)
@pytest.mark.parametrize(
    "bad",
    [
        [1.0, 3.0, float("nan"), 75.0],
        [1.0, 3.0, 13.0],
        [1.0, -3.0, 13.0, 75.0],
        np.ones((4, 2)) * float("inf"),
        1.0,
        "1.0",
        None,
    ],
    ids=["nan", "three", "negative", "inf", "scalar", "string", "none"],
)
def test_invalid_moments_raise_domain_error(law, bad):
    # Every law that takes moments shares one rule: four finite moments >= 0
    # on the first axis.
    with pytest.raises(DomainError):
        law(bad)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), "1.0", None, 1j])
def test_invalid_phases_raise_domain_error(bad):
    # The phase shares one finite-real validator: every law rejects a bad one.
    one = thermal_moments(1.0)
    with pytest.raises(DomainError, match="phase"):
        correlation_full(one, one, bad)
    with pytest.raises(DomainError, match="phase"):
        noise_full(one, one, bad)
    with pytest.raises(DomainError, match="phase"):
        correlation_ac(1.0, 1.0, bad)
    with pytest.raises(DomainError, match="phase"):
        opa_correlation_ac(1.0, 1.0, G2, bad)


@pytest.mark.parametrize("bad", [True, np.bool_(False), np.array([True, False])])
def test_bools_are_not_reals(bad):
    # A bool is no more a gain, a mean or a phase than it is a count.
    with pytest.raises(DomainError, match="gain must be a finite real"):
        OpaParams(bad)
    with pytest.raises(DomainError, match="n_bar must be a finite real"):
        snr_ratio(bad, 1.0, G2)
    with pytest.raises(DomainError, match="phase must be a finite real"):
        correlation_ac(1.0, 1.0, bad)


def test_a_list_mixing_bools_with_numbers_is_upcast_before_the_check():
    # numpy makes [True, 0.5] a float array first; finite_real does not scan for bools.
    assert _domain.finite_real("x", [True, 0.5]).tolist() == [1.0, 0.5]


@pytest.mark.parametrize(
    "bad, named",
    [
        (np.linspace(0.0, 1.0, 64) + 1j, "1j at index (0,)"),
        ([0.5, None], "None at index (1,)"),
        (np.full((2, 3), "a"), "'a' at index (0, 0)"),
        ([[0.5, 1.0], [2.0] * 64], "a ragged sequence"),
        (np.array([], dtype=complex), "an array of dtype complex128 and shape (0,)"),
        (np.array([0.5, 1.0], dtype=object), "an array of dtype object and shape (2,)"),
    ],
    ids=["complex", "none", "strings", "ragged", "empty", "object"],
)
def test_a_rejected_array_is_named_in_one_line(bad, named):
    # The first element that is not a real is named, or the shape where none is.
    with pytest.raises(DomainError) as caught:
        _domain.finite_real("scan", bad)
    assert str(caught.value) == f"scan must be a finite real, got {named}"


@pytest.mark.parametrize("bad", ["1.0", None, 1j, np.array(1j), np.complex128(1j)])
def test_a_rejected_scalar_is_named_by_its_repr(bad):
    with pytest.raises(DomainError) as caught:
        _domain.finite_real("phase", bad)
    assert str(caught.value) == f"phase must be a finite real, got {bad!r}"


_SCAN_R = np.linspace(0.0, 40.0, 64)
_SCAN_Y = 0.9 * np.cos(1.42e7 * 1e-8 * _SCAN_R)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: run_oracle_checks(n_grid=np.linspace(0.0, 1.0, 64).reshape(8, 8)),
         "mean photon number must be 1-D, got shape (8, 8)"),
        (lambda: run_oracle_checks(g_grid=0.5), "gain must be 1-D, got shape ()"),
        (lambda: hbt_two_mode_correlation(0.5, 1.0, np.zeros((8, 8))),
         "delta must be a scalar or 1-D, got shape (8, 8)"),
        (lambda: thermal_contractions(np.ones((2, 2))),
         "mean photon number must be 1-D, got shape (2, 2)"),
        (lambda: squeeze_populations(np.full((4, 4), 1.0 / 16), 0.1),
         "signal populations must be 1-D, got shape (4, 4)"),
        (lambda: consistency_report(G2, np.ones((3, 2, 2))), "grid must be 2-D, got shape (3, 2, 2)"),
        (lambda: _domain.nonnegative_scalar("gain", [1.0, 2.0]), "gain must be a scalar, got shape (2,)"),
        # Flattened, this transposed scan fits phi = 8.76e-8 for a 1e-8 scan and "converges".
        (lambda: estimate_phi(_SCAN_R.reshape(8, 8), _SCAN_Y.reshape(8, 8).T, 1.42e7),
         "scan baseline must be 1-D, got shape (8, 8)"),
        (lambda: estimate_phi(_SCAN_R, _SCAN_Y[:, None], 1.42e7),
         "scan correlation must be 1-D, got shape (64, 1)"),
    ],
    ids=["oracle-grid", "oracle-gain", "delta", "contractions", "squeezer", "pair-grid",
         "scalar", "scan", "scan-column"],
)
def test_a_wrong_number_of_dimensions_is_named_by_its_shape_in_one_line(call, message):
    with pytest.raises(DomainError) as caught:
        call()
    assert str(caught.value) == message


def test_the_dimensions_are_checked_after_the_values():
    # A 2-D grid with a negative mean reports the value, as before the shape rule.
    with pytest.raises(DomainError, match=r"^mean photon number must be >= 0, got -1\.0$"):
        run_oracle_checks(n_grid=[[0.5, -1.0]])


def test_phase_arrays_match_scalar_phases_bit_for_bit():
    one, half = thermal_moments(1.0), thermal_moments(0.5)
    deltas = np.array([0.0, math.pi / 4, math.pi / 2, math.pi, -0.7, 10.0])
    for law in (correlation_full, noise_full):
        expected = np.array([law(one, half, float(d)) for d in deltas])
        assert law(one, half, deltas).tobytes() == expected.tobytes()
    expected = np.array([correlation_ac(1.0, 0.5, float(d)) for d in deltas])
    assert correlation_ac(1.0, 0.5, deltas).tobytes() == expected.tobytes()


def test_laws_are_even_in_the_phase_bit_for_bit():
    one, half = thermal_moments(1.0), thermal_moments(0.5)
    deltas = np.array([0.0, 0.7, 1.0, math.pi / 2, 2.5])
    laws = (
        lambda d: correlation_full(one, half, d),
        lambda d: noise_full(one, half, d),
        lambda d: correlation_ac(1.0, 0.5, d),
        lambda d: opa_correlation_ac(1.0, 0.5, G2, d),
        *(
            lambda d, ordering=ordering: hbt_two_mode_correlation(1.0, 0.5, d, ordering)
            for ordering in OrderingConvention
        ),
    )
    for law in laws:
        for delta in (1.0, 0.7):
            assert law(-delta) == law(delta)
        assert np.array_equal(law(-deltas), law(deltas))


def test_invalid_array_element_is_named():
    with pytest.raises(DomainError, match="nan"):
        snr_ratio(np.array([1.0, 2.0, np.nan]), 1.0, G2)
    with pytest.raises(DomainError, match="zero mean"):
        signal_ratio(np.array([1.0, 0.0]), np.array([1.0, 1.0]), G2)


def test_scalar_laws_return_python_floats():
    for value in (
        snr_ratio(1.0, 1.0, G2),
        signal_ratio(1.0, 1.0, G2),
        noise_avg_printed(1.0, 2.0),
        opa_noise_avg_printed(1.0, 2.0, G2),
        noise_avg_substitution(thermal_moments(1.0), thermal_moments(2.0)),
        correlation_full(thermal_moments(1.0), thermal_moments(2.0), 0.5),
        noise_full(thermal_moments(1.0), thermal_moments(2.0), 0.5),
        equivalent_thermal_mean(1.0, G2),
    ):
        assert type(value) is float
    # Moment functions give one float64 array of <n^j>, j = 1..4, per mean.
    moments = thermal_moments(1.0)
    assert moments.dtype == np.float64 and moments.shape == (4,)
    assert thermal_moments(np.ones((2, 3))).shape == (4, 2, 3)


def test_array_laws_match_scalar_laws_bit_for_bit():
    n = np.geomspace(0.05, 50.0, 301)
    m = n[::-1].copy()
    for law in (signal_ratio, snr_ratio, opa_noise_avg_printed):
        expected = np.array([law(float(a), float(b), G2) for a, b in zip(n, m)])
        assert law(n, m, G2).tobytes() == expected.tobytes()
    expected = np.array([noise_avg_printed(float(a), float(b)) for a, b in zip(n, m)])
    assert noise_avg_printed(n, m).tobytes() == expected.tobytes()


def test_laws_leave_no_reference_cycle():
    # A cycle would keep each call's arrays alive until the collector runs,
    # so a blocked sweep's peak memory would grow with its length.
    n = np.geomspace(0.1, 10.0, 2048)
    gc.collect()
    gc.disable()
    try:
        snr_ratio(n, n, G2)
        noise_full(thermal_moments(n), thermal_moments(n), 0.3)
        propagate_moments(thermal_moments(n), G2)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_gain_overflowing_the_coefficients_raises_domain_error():
    for g in (400.0, 800.0):
        with pytest.raises(DomainError, match="overflows"):
            signal_ratio(1.0, 1.0, OpaParams(g))


def test_array_consistency_report_equals_per_pair_scalar_deviations():
    values = np.geomspace(0.05, 20.0, 7).tolist()
    grid = [(n, m) for n in values for m in values]
    routes = consistency_report(G2, grid)
    assert [np.shape(route) for pair in routes for route in pair] == [(len(grid),)] * 6
    plain_dev, amplified_dev, zero_gain_dev = (relative_deviation(*pair) for pair in routes)
    assert plain_dev.shape == amplified_dev.shape == zero_gain_dev.shape == (len(grid),)
    for i, (n, m) in enumerate(grid):
        nm, mm = thermal_moments(n), thermal_moments(m)
        plain = noise_avg_printed(n, m)
        assert plain_dev[i] == relative_deviation(plain, noise_avg_substitution(nm, mm))
        assert amplified_dev[i] == relative_deviation(
            opa_noise_avg_printed(n, m, G2),
            noise_avg_substitution(propagate_moments(nm, G2), propagate_moments(mm, G2)),
        )
        assert zero_gain_dev[i] == relative_deviation(
            opa_noise_avg_printed(n, m, OpaParams(0.0)), plain
        )


def test_relative_deviation_is_elementwise():
    got = relative_deviation(np.array([0.0, 1.0, 2.0]), np.array([0.0, 2.0, 2.0]))
    assert got.tolist() == [0.0, 0.5, 0.0]
    assert relative_deviation(0.0, 0.0) == 0.0
