import numpy as np
import pytest

import opahbt.fock
from opahbt import (
    DomainError,
    GaussianSecondMoments,
    OpaParams,
    gaussian_wick_moment,
    number_moments,
    propagate_moments,
    reduced_moments,
    space_for_squeezed_thermal,
    squeeze_populations,
    thermal_moments,
    thermal_populations,
)

A = (0, False)
AD = (0, True)


def test_single_contraction_is_the_mean():
    table = GaussianSecondMoments.thermal([0.7])
    assert gaussian_wick_moment(table, [AD, A]) == pytest.approx(0.7)


def test_normally_ordered_fourth_moment_has_two_pairings():
    table = GaussianSecondMoments.thermal([1.0])
    value = gaussian_wick_moment(table, [AD, AD, A, A])
    assert value == pytest.approx(2.0)  # 2 N^2 at N = 1
    closed = thermal_moments(1.0)
    assert value == pytest.approx(closed.m2 - closed.m1)


def test_number_squared_matches_closed_form():
    table = GaussianSecondMoments.thermal([1.0])
    assert gaussian_wick_moment(table, [AD, A, AD, A]) == pytest.approx(3.0)


def test_number_moments_match_thermal_closed_forms():
    for n in (0.0, 0.3, 1.0, 4.0):
        table = GaussianSecondMoments.thermal([n])
        np.testing.assert_allclose(
            number_moments(table, 0).as_array(),
            thermal_moments(n).as_array(),
            rtol=1e-12,
            atol=1e-12,
        )


def test_odd_monomial_returns_zero():
    table = GaussianSecondMoments.thermal([1.0])
    assert gaussian_wick_moment(table, [AD, A, A]) == 0.0


def test_empty_monomial_is_one():
    table = GaussianSecondMoments.thermal([1.0])
    assert gaussian_wick_moment(table, []) == 1.0


def test_bad_labels_are_rejected():
    table = GaussianSecondMoments.thermal([1.0])
    with pytest.raises(DomainError):
        gaussian_wick_moment(table, [(2, True), (2, False)])


def test_table_validation():
    with pytest.raises(DomainError):
        GaussianSecondMoments(np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((2, 2)))
    with pytest.raises(DomainError):
        GaussianSecondMoments(np.zeros((2, 2)), np.array([[0.0, 1.0], [0.5, 0.0]]))


@pytest.mark.parametrize("n", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("g", [0.0, 0.25, 0.5, 1.0])
def test_amplified_table_matches_propagation_polynomials(n, g):
    table = GaussianSecondMoments.amplified_thermal(n, OpaParams(g))
    np.testing.assert_allclose(
        number_moments(table, 0).as_array(),
        propagate_moments(thermal_moments(n), OpaParams(g)).as_array(),
        rtol=1e-10,
        atol=1e-12,
    )


def test_amplified_table_agrees_with_fock_oracle():
    # Two independent oracles for the same state.
    n, g = 0.5, 0.5
    table = GaussianSecondMoments.amplified_thermal(n, OpaParams(g))
    probs, deficit = thermal_populations(n, space_for_squeezed_thermal(n, g))
    signal, _ = squeeze_populations(probs, g, trace_deficit=deficit)
    # The squeezer keeps only the signal marginal; the idler's is the strip's
    # weight on idler level k of |d + k, k>, summed over the ladders d.
    ladders = np.flatnonzero(probs >= opahbt.fock.LADDER_WEIGHT_FLOOR)
    idler = opahbt.fock._squeeze_strip(ladders, probs.size, g) ** 2 @ probs[ladders]
    for mode, populations in enumerate((signal, idler)):
        np.testing.assert_allclose(
            reduced_moments(populations).as_array(),
            number_moments(table, mode).as_array() * signal.sum(),
            rtol=1e-6,
        )


def test_cross_mode_contraction_uses_anomalous_block():
    # <a b> on the amplifier output is mu nu (n + 1).
    import math

    n, g = 1.0, 0.7
    table = GaussianSecondMoments.amplified_thermal(n, OpaParams(g))
    value = gaussian_wick_moment(table, [(0, False), (1, False)])
    assert value == pytest.approx(math.cosh(g) * math.sinh(g) * (n + 1.0), rel=1e-12)
