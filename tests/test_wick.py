import math

import numpy as np
import pytest

import opahbt.fock
from opahbt import (
    DomainError,
    OpaParams,
    amplified_thermal,
    coeffs,
    gaussian_wick_moment,
    number_moments,
    propagate_moments,
    reduced_moments,
    space_for_squeezed_thermal,
    squeeze_populations,
    thermal_moments,
    thermal_contractions,
    thermal_populations,
)
from opahbt.wick import _pairings

A = (0, False)
AD = (0, True)


def test_single_contraction_is_the_mean():
    contractions = thermal_contractions([0.7])
    assert gaussian_wick_moment(contractions, [AD, A]) == pytest.approx(0.7)


def test_normally_ordered_fourth_moment_has_two_pairings():
    contractions = thermal_contractions([1.0])
    value = gaussian_wick_moment(contractions, [AD, AD, A, A])
    assert value == pytest.approx(2.0)  # 2 N^2 at N = 1
    m1, m2, _, _ = thermal_moments(1.0)
    assert value == pytest.approx(m2 - m1)


def test_number_squared_matches_closed_form():
    contractions = thermal_contractions([1.0])
    assert gaussian_wick_moment(contractions, [AD, A, AD, A]) == pytest.approx(3.0)


def test_number_moments_match_thermal_closed_forms():
    for n in (0.0, 0.3, 1.0, 4.0):
        contractions = thermal_contractions([n])
        np.testing.assert_allclose(
            number_moments(contractions, 0),
            thermal_moments(n),
            rtol=1e-12,
            atol=1e-12,
        )


def test_odd_monomial_returns_zero():
    contractions = thermal_contractions([1.0])
    assert gaussian_wick_moment(contractions, [AD, A, A]) == 0.0


def test_empty_monomial_is_one():
    contractions = thermal_contractions([1.0])
    assert gaussian_wick_moment(contractions, []) == 1.0


def test_bad_labels_are_rejected():
    contractions = thermal_contractions([1.0])
    with pytest.raises(DomainError):
        gaussian_wick_moment(contractions, [(2, True), (2, False)])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
def test_thermal_contractions_reject_bad_means(bad):
    with pytest.raises(DomainError):
        thermal_contractions([0.5, bad])


@pytest.mark.parametrize("size, count", [(2, 1), (4, 3), (6, 15), (8, 105)])
def test_pairings_are_every_perfect_matching(size, count):
    matchings = _pairings(size)
    assert matchings.shape == (count, size // 2, 2)
    assert len({m.tobytes() for m in matchings}) == count
    for matching in matchings:
        assert sorted(matching.ravel().tolist()) == list(range(size))
        assert (matching[:, 0] < matching[:, 1]).all()


@pytest.mark.parametrize("n", [0.0, 0.5, 3.0])
@pytest.mark.parametrize("g", [0.0, 0.25, 1.0, 2.0])
def test_derived_amplifier_contractions_match_the_closed_table(n, g):
    # S K S^T reproduces the amplifier's closed-form second moments:
    # <adag_0 a_0> = mu^2 n + nu^2, <adag_1 a_1> = nu^2 (n + 1),
    # <a_0 a_1> = <adag_0 adag_1> = mu nu (n + 1); the commutator adds 1
    # to <a_i adag_i>, and every other contraction vanishes.
    mu, nu = coeffs(OpaParams(g))
    signal, idler, cross = mu * mu * n + nu * nu, nu * nu * (n + 1.0), mu * nu * (n + 1.0)
    expected = np.array(
        [
            [0.0, cross, signal + 1.0, 0.0],
            [cross, 0.0, 0.0, idler + 1.0],
            [signal, 0.0, 0.0, cross],
            [0.0, idler, cross, 0.0],
        ]
    )
    np.testing.assert_allclose(amplified_thermal(n, OpaParams(g)), expected, rtol=1e-14, atol=0)


@pytest.mark.parametrize("n", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("g", [0.0, 0.25, 0.5, 1.0])
def test_amplified_table_matches_propagation_polynomials(n, g):
    contractions = amplified_thermal(n, OpaParams(g))
    np.testing.assert_allclose(
        number_moments(contractions, 0),
        propagate_moments(thermal_moments(n), OpaParams(g)),
        rtol=1e-10,
        atol=1e-12,
    )


def test_amplified_table_agrees_with_fock_oracle():
    # Two independent oracles for the same state.
    n, g = 0.5, 0.5
    contractions = amplified_thermal(n, OpaParams(g))
    probs = thermal_populations(n, space_for_squeezed_thermal(n, g))
    signal = squeeze_populations(probs, g)
    # The squeezer keeps only the signal marginal; the idler's is the strip's
    # weight on idler level k of |d + k, k>, summed over the ladders d.
    ladders = np.flatnonzero(probs >= opahbt.fock.LADDER_WEIGHT_FLOOR)
    idler = opahbt.fock._squeeze_strip(ladders, probs.size, g) ** 2 @ probs[ladders]
    for mode, populations in enumerate((signal, idler)):
        np.testing.assert_allclose(
            reduced_moments(populations),
            number_moments(contractions, mode),
            rtol=1e-6,
        )


def test_cross_mode_contraction_uses_anomalous_block():
    # <a b> on the amplifier output is mu nu (n + 1).
    n, g = 1.0, 0.7
    contractions = amplified_thermal(n, OpaParams(g))
    value = gaussian_wick_moment(contractions, [(0, False), (1, False)])
    assert value == pytest.approx(math.cosh(g) * math.sinh(g) * (n + 1.0), rel=1e-12)
