import functools
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.special

import opahbt.fock
from opahbt import (
    DomainError,
    OpaParams,
    OrderingConvention,
    TruncationError,
    choose_dim,
    correlation_full,
    hbt_two_mode_correlation,
    propagate_moments,
    reduced_moments,
    space_for_squeezed_thermal,
    squeeze_populations,
    thermal_moments,
    thermal_populations,
    two_mode_squeeze,
)
from opahbt.oracle_checks import DEFAULT_G_GRID, DEFAULT_N_GRID


def _assert_valid(populations):
    # Every population finite and >= 0, and the mass truncation drops,
    # 1 - sum p, negligible.
    assert np.isfinite(populations).all() and (populations >= 0.0).all()
    assert populations.sum() == pytest.approx(1.0, abs=1e-10)


def _idler_populations(signal, g):
    # The squeezer returns only the signal marginal; the idler's is the
    # strip's weight on idler level k of |d + k, k>, summed over the ladders d.
    ladders = np.flatnonzero(signal >= opahbt.fock.LADDER_WEIGHT_FLOOR)
    return opahbt.fock._squeeze_strip(ladders, signal.size, g) ** 2 @ signal[ladders]


def _thermal_signal_vacuum_grid(n, dim):
    # thermal(n) (x) vacuum as a dim x dim grid.
    grid = np.zeros((dim, dim))
    grid[:, 0] = thermal_populations(n, dim)
    return grid


def test_thermal_state_geometric_weights_and_deficit():
    probs = thermal_populations(1.0, 40)
    assert probs[0] == pytest.approx(0.5)
    assert probs[1] == pytest.approx(0.25)
    # The missing mass is the dropped tail (1/2)^40.
    assert 1.0 - probs.sum() == pytest.approx(2.0**-40, abs=1e-15)
    _assert_valid(probs)


def test_thermal_state_moments_match_closed_forms():
    # At dim 40 the fourth moment carries the genuine weighted tail of the
    # distribution (a few parts in 1e8); dim 56 pushes it below 1e-9.
    probs = thermal_populations(1.0, 40)
    np.testing.assert_allclose(
        reduced_moments(probs), [1.0, 3.0, 13.0, 75.0], rtol=1e-7
    )
    finer = thermal_populations(1.0, 56)
    np.testing.assert_allclose(
        reduced_moments(finer), [1.0, 3.0, 13.0, 75.0], rtol=1e-9
    )


def test_vacuum_state_is_exact():
    probs = thermal_populations(0.0, 8)
    assert probs.sum() == 1.0
    assert reduced_moments(probs).tolist() == [0, 0, 0, 0]


def test_thermal_state_rejects_negative_mean():
    with pytest.raises(DomainError):
        thermal_populations(-1.0, 8)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0, "1.0"])
def test_fock_inputs_share_the_domain_validator(bad):
    with pytest.raises(DomainError):
        choose_dim(bad)
    with pytest.raises(DomainError):
        thermal_populations(bad, 8)
    with pytest.raises(DomainError):
        squeeze_populations(np.full(8, 1.0 / 8), bad)
    with pytest.raises(DomainError):
        hbt_two_mode_correlation(bad, 1.0, 0.0)
    with pytest.raises(DomainError):
        hbt_two_mode_correlation(1.0, bad, 0.0)
    with pytest.raises(DomainError):
        space_for_squeezed_thermal(bad, 1.0)
    with pytest.raises(DomainError):
        space_for_squeezed_thermal(1.0, bad)


def test_squeezed_thermal_sizing_rejects_an_overflowing_gain():
    # cosh(400)^2 overflows: an input error, not an OverflowError.
    with pytest.raises(DomainError, match="overflows"):
        space_for_squeezed_thermal(1.0, 400.0)


def test_squeezed_thermal_sizing_uses_the_amplified_mean():
    # The amplified mean and the hand-written cosh(g)^2 n + sinh(g)^2 differ
    # in the last bit at some points; the chosen dims (or the cap's
    # suggested dims) agree everywhere.
    for n in np.concatenate([np.linspace(0.0, 3.0, 31), [5.0, 50.0]]):
        for g in np.linspace(0.0, 1.6, 33):
            mean = math.cosh(g) ** 2 * n + math.sinh(g) ** 2
            try:
                expected = choose_dim(mean)
            except TruncationError as exc:
                expected = exc.suggested_dim
            try:
                got = space_for_squeezed_thermal(n, g)
            except TruncationError as exc:
                got = exc.suggested_dim
            assert got == expected, (n, g)


def test_squeezer_inputs_must_be_finite_populations_on_a_square_grid():
    for bad in (np.zeros(4), np.ones((2, 2, 2)), np.ones((3, 4))):
        with pytest.raises(DomainError, match="square grid"):
            two_mode_squeeze(bad, 0.1)
    for bad in (np.array([1.5, -0.5]), np.array([0.5, math.nan])):
        with pytest.raises(DomainError):
            squeeze_populations(bad, 0.1)
        with pytest.raises(DomainError):
            two_mode_squeeze(np.diag(bad), 0.1)
    with pytest.raises(DomainError, match="1-D"):
        squeeze_populations(np.full((4, 4), 1.0 / 16), 0.1)


def test_reduced_moments_reject_a_joint_grid():
    probs = thermal_populations(0.5, 8)
    for bad in (np.outer(probs, probs), np.float64(0.5)):
        with pytest.raises(DomainError, match="one mode"):
            reduced_moments(bad)


def test_reduced_moments_read_the_normalized_state():
    probs = thermal_populations(1.0, 40)
    np.testing.assert_array_equal(reduced_moments(0.5 * probs), reduced_moments(probs))
    # Populations with no mass have no normalized state.
    with pytest.raises(DomainError, match="positive mass"):
        reduced_moments(np.zeros(8))


@pytest.mark.parametrize(
    "bad, rule",
    [
        ([2.0, -0.5], ">= 0, got -0.5"),  # sums to 1.5: every moment would read -1/3
        ([np.inf, 1.0], "finite, got inf"),  # the moments would be NaN
    ],
    ids=["negative", "infinite"],
)
def test_reduced_moments_reject_a_non_state(bad, rule):
    with pytest.raises(DomainError, match=f"populations must be {rule}"):
        reduced_moments(np.array(bad))


def test_squeezer_rejects_input_above_unit_mass():
    # The tail estimate derives the missing mass as 1 - sum p, so an excess
    # input mass would offset the boundary shell; it is an input error.
    grid = np.zeros((4, 4))
    grid[:2, 0] = 0.5, 0.5 + 2e-9
    with pytest.raises(DomainError, match="sum to at most 1"):
        squeeze_populations(grid[:, 0], 0.1)
    with pytest.raises(DomainError, match="sum to at most 1"):
        two_mode_squeeze(grid, 0.1)
    # An excess within the bound is accepted as unit mass.
    squeeze_populations(np.array([0.5, 0.5 + 1e-12, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]), 0.01)


def test_choose_dim_rule_and_cap():
    # Smallest dim with (mean/(1+mean))^dim below the tail.
    dim = choose_dim(1.0)
    assert 0.5**dim < 1e-12 <= 0.5 ** (dim - 1)
    with pytest.raises(TruncationError) as excinfo:
        choose_dim(40.0)
    assert excinfo.value.suggested_dim > 1024


def test_choose_dim_rejects_mean_beyond_double_resolution(monkeypatch):
    # mean/(1+mean) rounds to 1.0 here, so no dimension meets the tail.
    with pytest.raises(TruncationError):
        choose_dim(1e17)
    monkeypatch.setattr(opahbt.fock, "DIM_CAP", 10**6)
    assert choose_dim(1e3) == 27645  # the rule below that


def _ladder_generator(difference, length, g):
    # g(adag bdag - a b) on the ladder |difference + k, k>, k < length: adag bdag
    # couples |d+k, k> to |d+k+1, k+1>.
    k = np.arange(length - 1)
    couplings = g * np.sqrt((difference + k + 1.0) * (k + 1.0))
    block = np.zeros((length, length))
    block[k + 1, k] = couplings
    block[k, k + 1] = -couplings
    return block


@pytest.mark.parametrize("z", [0.0, 0.3, 5.0, 77.7, 500.0, 3000.0])
def test_miller_bessel_sequence_matches_scipy(z):
    # Up to z = 3000, about g rho at g = 2 and dim 769.  The sequence stops
    # where |J_k(z)| drops below 1e-17, and everything past it is below that.
    got = opahbt.fock._bessel_j(z)
    order = np.arange(got.size + 40)
    want = scipy.special.jv(order, z)
    np.testing.assert_allclose(got, want[: got.size], rtol=0, atol=1e-13)
    assert np.abs(got[-1]) > 1e-17
    assert np.all(np.abs(want[got.size :]) <= 1e-17)


def test_squeeze_strip_matches_scipy_on_every_ladder():
    # Every ladder of the dim-184 space, the largest the benchmark's oracle
    # grids reach (at g = 1.25): the strip holds column 0 of each ladder's
    # exponential, zero-padded past the ladder's top level.
    dim, g = 184, 1.25
    psi = opahbt.fock._squeeze_strip(np.arange(dim), dim, g)
    assert psi.shape == (dim, dim)
    for d in range(dim):
        length = dim - d
        column = scipy.linalg.expm(_ladder_generator(d, length, g))[:, 0]
        np.testing.assert_allclose(psi[:length, d], column, rtol=0, atol=1e-12)
        assert not psi[length:, d].any()


@pytest.mark.parametrize("difference", [0, 1, 60, 113, 150, 183])
def test_ladder_exponential_matches_scipy(difference, monkeypatch):
    # Ladders of the dim-184 space, the largest the oracle grids reach at
    # g = 1.25.  squeeze_populations moves the signal weight of |d, 0> onto
    # |d + k, k> by |expm(block)[k, 0]|^2.  The whole ladder is compared,
    # boundary shell included, so the tail certificate is lifted here.
    monkeypatch.setattr(opahbt.fock, "SQUEEZED_TAIL_BOUND", math.inf)
    dim, g = 184, 1.25
    length = dim - difference
    k = np.arange(length)
    signal = np.zeros(dim)
    signal[difference] = 1.0
    moved = scipy.linalg.expm(_ladder_generator(difference, length, g))[:, 0] ** 2
    want = np.zeros(dim)
    want[k + difference] = moved
    got = squeeze_populations(signal, g)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    assert got.sum() == pytest.approx(1.0, abs=1e-13)


def test_squeeze_matches_dense_generator_exponential():
    # Independent route: exponentiate the full two-mode generator densely
    # and take the signal marginal of the diagonal of U rho U^T, at a dim
    # where the tail certificate holds.
    g = 0.4
    dim = space_for_squeezed_thermal(0.4, g)
    a = np.diag(np.sqrt(np.arange(1.0, dim)), 1)
    ad = a.T
    unitary = scipy.linalg.expm(g * (np.kron(ad, ad) - np.kron(a, a)))
    grid = _thermal_signal_vacuum_grid(0.4, dim)
    rho = np.diag(grid.ravel())
    expected = np.diag(unitary @ rho @ unitary.T).reshape(dim, dim)
    squeezed = two_mode_squeeze(grid, g)
    np.testing.assert_allclose(squeezed, expected.sum(axis=1), rtol=0, atol=1e-13)


def test_squeezing_a_thermal_idler_is_a_domain_error():
    grid = np.outer(thermal_populations(0.4, 12), thermal_populations(0.2, 12))
    with pytest.raises(DomainError, match="vacuum"):
        two_mode_squeeze(grid, 0.4)


def test_squeeze_matches_the_untruncated_su11_column_at_g2():
    # |<d+j, j| S |d, 0>|^2 = C(d+j, j) tanh(g)^2j / cosh(g)^2(d+1) (Schumaker
    # and Caves, Phys. Rev. A 31, 3068 (1985)), weighted by the thermal
    # input at the oracle's dim for n = 1, g = 2.  The joint distribution is
    # checked on the strip's amplitudes, the returned marginal on the row sums.
    n, g = 1.0, 2.0
    dim = space_for_squeezed_thermal(n, g)
    probs = thermal_populations(n, dim)
    got = squeeze_populations(probs, g)
    ladders = np.flatnonzero(probs >= opahbt.fock.LADDER_WEIGHT_FLOOR)
    psi = opahbt.fock._squeeze_strip(ladders, dim, g)
    joint = np.zeros((dim, dim))
    for i, d in enumerate(ladders):
        joint[d + np.arange(dim - d), np.arange(dim - d)] = probs[d] * psi[: dim - d, i] ** 2
    want = np.zeros((dim, dim))
    for d in range(dim):
        j = np.arange(dim - d)
        log_column = (
            scipy.special.gammaln(d + j + 1.0)
            - scipy.special.gammaln(d + 1.0)
            - scipy.special.gammaln(j + 1.0)
            + 2.0 * j * math.log(math.tanh(g))
            - 2.0 * (d + 1.0) * math.log(math.cosh(g))
        )
        want[d + j, j] = probs[d] * np.exp(log_column)
    assert np.abs(joint - want).sum() <= 1e-10
    assert np.abs(got - want.sum(axis=1)).sum() <= 1e-10


def test_ladders_below_the_weight_floor_join_the_deficit():
    signal = np.array([1e-20, 0.6, 0.4 - 1e-12, 0.0, 0.0, 0.0, 0.0, 0.0])
    got = squeeze_populations(signal, 0.1)
    # Ladder 0, |k, k>, is not propagated, so its mass is absent from the
    # output.  Signal level 0 is reached only by ladder 0 at k = 0, so any
    # weight it carried would show there.
    assert got[0] == 0.0
    without = squeeze_populations(np.where(signal < 1e-18, 0.0, signal), 0.1)
    np.testing.assert_array_equal(got, without)
    # The output lacks the input's missing mass, and no more.
    assert 1.0 - got.sum() == pytest.approx(1e-12, abs=1e-15)


def _ladder_expm_squeeze(populations, g):
    # Reference: |expm(generator block)|^2 @ p on each photon-difference ladder.
    dim = populations.shape[0]
    out = np.zeros_like(populations)
    for d in range(dim):
        length = dim - d
        weights = scipy.linalg.expm(_ladder_generator(d, length, g)) ** 2
        upper, lower = np.arange(d, dim), np.arange(length)
        out[upper, lower] = weights @ populations[upper, lower]
        if d:
            out[lower, upper] = weights @ populations[lower, upper]
    return out


@pytest.mark.parametrize("n", DEFAULT_N_GRID)
@pytest.mark.parametrize("g", DEFAULT_G_GRID)
def test_squeeze_populations_match_full_squeeze_on_oracle_grid(n, g):
    # The oracle's thermal (x) vacuum inputs at their real dims, against the
    # signal marginal of the full per-ladder propagator from scipy.linalg.expm.
    grid = _thermal_signal_vacuum_grid(n, space_for_squeezed_thermal(n, g))
    want = _ladder_expm_squeeze(grid, g).sum(axis=1)
    got = squeeze_populations(grid[:, 0], g)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)
    np.testing.assert_allclose(
        reduced_moments(got), reduced_moments(want), rtol=1e-12
    )
    np.testing.assert_array_equal(two_mode_squeeze(grid, g), got)


def test_zero_gain_squeeze_is_identity():
    probs = thermal_populations(0.7, 40)
    out = squeeze_populations(probs, 0.0)
    np.testing.assert_array_equal(out, probs)
    # At g = 1e-20 the series is J_0 = 1 and J_1 = g rho / 2: |d, 0> keeps
    # amplitude 1 exactly, sends p_d (d + 1) g^2 to |d + 1, 1>, and nothing
    # reaches any other level.  That transfer is far below the last bit of
    # the signal marginal.
    g = 1e-20
    out = squeeze_populations(probs, g)
    np.testing.assert_array_equal(out, probs)
    psi = opahbt.fock._squeeze_strip(np.arange(40), 40, g)
    np.testing.assert_array_equal(psi[0], 1.0)
    d = np.arange(39)
    np.testing.assert_allclose(psi[1, d] ** 2, (d + 1) * g**2, rtol=1e-12)
    psi[0] = psi[1, d] = 0.0
    assert not psi.any()


def test_two_mode_squeezed_vacuum_arm_is_thermal():
    vacuum = thermal_populations(0.0, 30)
    squeezed = squeeze_populations(vacuum, 0.5)
    squeezed_m1, _, _, _ = reduced_moments(squeezed)
    assert squeezed_m1 == pytest.approx(math.sinh(0.5) ** 2, abs=1e-8)
    idler_m1, _, _, _ = reduced_moments(_idler_populations(vacuum, 0.5))
    assert idler_m1 == pytest.approx(math.sinh(0.5) ** 2, abs=1e-8)


def test_squeezed_thermal_mode_means():
    probs = thermal_populations(0.5, 40)
    squeezed = squeeze_populations(probs, 0.5)
    mu2, nu2 = math.cosh(0.5) ** 2, math.sinh(0.5) ** 2
    squeezed_m1, _, _, _ = reduced_moments(squeezed)
    assert squeezed_m1 == pytest.approx(mu2 * 0.5 + nu2, abs=1e-8)
    # Idler output picks up nu^2 (n + 1).
    idler_m1, _, _, _ = reduced_moments(_idler_populations(probs, 0.5))
    assert idler_m1 == pytest.approx(nu2 * 1.5, abs=1e-8)


@pytest.mark.parametrize("n", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("g", [0.0, 0.25, 0.5, 1.0])
def test_reduced_moments_match_propagation_polynomials(n, g):
    probs = thermal_populations(n, space_for_squeezed_thermal(n, g))
    got = reduced_moments(squeeze_populations(probs, g))
    want = propagate_moments(thermal_moments(n), OpaParams(g))
    np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-12)


def test_squeeze_truncation_error_names_tail_and_suggestion():
    probs = thermal_populations(1.0, 12)
    with pytest.raises(TruncationError) as excinfo:
        squeeze_populations(probs, 1.5)
    assert excinfo.value.achieved > 1e-9
    assert excinfo.value.suggested_dim > 12
    # Only the top ladder, with no couplings, carries weight.
    with pytest.raises(TruncationError):
        squeeze_populations(np.array([0.0, 1.0]), 0.5)


def test_correlator_vacuum_is_zero_for_both_orderings():
    for ordering in OrderingConvention:
        c0, noise_sq = hbt_two_mode_correlation(0.0, 0.0, 0.0, ordering=ordering)
        assert c0 == pytest.approx(0.0, abs=1e-12)
        assert noise_sq == pytest.approx(0.0, abs=1e-12)


def test_correlator_normal_ordered_reproduces_analytic_law():
    for n, m in ((1.0, 1.0), (0.5, 1.0), (0.0, 1.0)):
        for delta in (0.0, math.pi / 4, math.pi / 2, math.pi):
            c0, _ = hbt_two_mode_correlation(
                n, m, delta, OrderingConvention.NORMAL_ORDERED
            )
            want = correlation_full(thermal_moments(n), thermal_moments(m), delta)
            assert c0 == pytest.approx(want, rel=1e-6, abs=1e-9)


def test_correlator_as_written_keeps_commutator_terms():
    c_literal, _ = hbt_two_mode_correlation(
        1.0, 1.0, 0.0, ordering=OrderingConvention.AS_WRITTEN
    )
    c_ordered, _ = hbt_two_mode_correlation(
        1.0, 1.0, 0.0, ordering=OrderingConvention.NORMAL_ORDERED
    )
    assert c_literal == pytest.approx(12.0, rel=1e-6)
    assert c_literal - c_ordered == pytest.approx(2.0, rel=1e-6)
    for n, m, delta in ((1.0, 0.5, 0.3), (0.5, 0.5, math.pi)):
        literal, _ = hbt_two_mode_correlation(
            n, m, delta, ordering=OrderingConvention.AS_WRITTEN
        )
        ordered, _ = hbt_two_mode_correlation(
            n, m, delta, ordering=OrderingConvention.NORMAL_ORDERED
        )
        assert literal - ordered == pytest.approx((n + m) * math.cos(delta), abs=1e-6)


def test_correlator_noise_is_nonnegative():
    for ordering in OrderingConvention:
        _, noise_sq = hbt_two_mode_correlation(1.0, 0.5, 0.7, ordering=ordering)
        assert noise_sq > 0.0


@pytest.mark.parametrize(
    "ordering, delta, mean, variance",
    [
        # Literal order: the Wick pairing sums of the Gaussian state.
        (OrderingConvention.AS_WRITTEN, 0.0, 12.0, 1056.0),
        (OrderingConvention.AS_WRITTEN, math.pi / 2, 8.0, 536.0),
        (OrderingConvention.NORMAL_ORDERED, 0.0, 10.0, 836.0),
        (OrderingConvention.NORMAL_ORDERED, math.pi / 2, 8.0, 468.0),
    ],
    ids=["as-written-0", "as-written-pi/2", "normal-ordered-0", "normal-ordered-pi/2"],
)
def test_correlator_second_moment_at_unit_means(ordering, delta, mean, variance):
    c0, noise_sq = hbt_two_mode_correlation(1.0, 1.0, delta, ordering=ordering)
    assert c0 == pytest.approx(mean, rel=1e-6)
    assert noise_sq == pytest.approx(variance, rel=1e-6)


def _truncated_lowering(dim):
    return np.diag(np.sqrt(np.arange(1.0, dim)), 1)


def _dense_correlators(n, m, delta, ordering):
    # The correlator C as dense two-mode matrices: each term as the Kronecker
    # product of truncated word matrices, and for AS_WRITTEN also the literal
    # product I1 I2 of the truncated fields.  Returns rho's diagonal and them.
    dim = choose_dim(max(n, m))
    letters = {"a": _truncated_lowering(dim), "d": _truncated_lowering(dim).T}

    def word(w):
        return functools.reduce(np.matmul, (letters[op] for op in w), np.eye(dim))

    corrs = [
        sum(
            c * np.exp(1j * k * delta) * np.kron(word(wa), word(wb))
            for wa, wb, c, k in opahbt.fock._CORRELATOR_TERMS[ordering]
        )
    ]
    if ordering is OrderingConvention.AS_WRITTEN:
        a = np.kron(_truncated_lowering(dim), np.eye(dim))
        b = np.kron(np.eye(dim), _truncated_lowering(dim))
        field_1 = np.exp(1j * delta) * a + b
        corrs.append((field_1.conj().T @ field_1) @ ((a + b).T @ (a + b)))
    rho = np.kron(thermal_populations(n, dim), thermal_populations(m, dim))
    return rho, corrs


@pytest.mark.parametrize("ordering", list(OrderingConvention))
@pytest.mark.parametrize("n, m", [(0.0, 0.5), (0.5, 0.25), (0.5, 0.5), (0.25, 0.0)])
def test_correlator_matches_a_dense_two_mode_reference(n, m, ordering):
    # n, m <= 0.5 keeps dim <= 26, so the dense operators stay small.  The
    # state is diagonal: Tr(rho C) = sum_i rho_i C_ii and
    # Tr(rho C^2) = sum_ij rho_i C_ij C_ji.
    for delta in (0.0, 0.4, math.pi / 2, 2.5, -1.0):
        got = hbt_two_mode_correlation(n, m, delta, ordering)
        rho, corrs = _dense_correlators(n, m, delta, ordering)
        for corr in corrs:
            mean = np.sum(rho * corr.diagonal()).real
            variance = np.sum(rho[:, None] * corr * corr.T).real - mean**2
            np.testing.assert_allclose(got, (mean, variance), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("ordering", list(OrderingConvention))
def test_correlator_over_a_phase_array_equals_scalar_calls(ordering):
    deltas = np.array([0.0, math.pi / 4, math.pi / 2, math.pi, -0.7, 2.3, 10.0])
    means, variances = hbt_two_mode_correlation(1.0, 0.5, deltas, ordering)
    assert means.shape == variances.shape == deltas.shape
    for delta, mean, variance in zip(deltas, means, variances):
        scalar = hbt_two_mode_correlation(1.0, 0.5, float(delta), ordering)
        assert all(type(x) is float for x in scalar)
        assert scalar == (mean, variance)


@pytest.mark.parametrize(
    "bad", [math.nan, math.inf, -math.inf, [0.0, math.nan], "0.5", None, [[0.0]]]
)
def test_correlator_rejects_a_phase_that_is_not_a_finite_real(bad):
    with pytest.raises(DomainError, match="delta"):
        hbt_two_mode_correlation(1.0, 0.5, bad)


def test_fock_space_validation():
    # The dimension is a plain int >= 2, checked where it enters.
    # The dimension is a Python or numpy int >= 2 (never a bool), checked
    # where it enters.
    for bad in (1, 0, 8.0, "8", None, True, np.int64(1)):
        with pytest.raises(DomainError, match="dim must be an integer >= 2"):
            thermal_populations(0.5, bad)
    assert thermal_populations(0.5, 2).size == 2
    assert thermal_populations(0.5, np.int64(8)).tolist() == thermal_populations(0.5, 8).tolist()


def test_state_invariants_maintained_through_pipeline():
    probs = thermal_populations(1.0, space_for_squeezed_thermal(1.0, 0.5))
    _assert_valid(probs)
    squeezed = squeeze_populations(probs, 0.5)
    _assert_valid(squeezed)
    _assert_valid(_idler_populations(probs, 0.5))
    # The squeezer keeps mass: the output lacks what the input lacked.
    assert 1.0 - squeezed.sum() == pytest.approx(1.0 - probs.sum(), abs=1e-15)
