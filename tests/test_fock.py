import math

import numpy as np
import pytest
import scipy.linalg
import scipy.special

import opahbt.fock
from opahbt import (
    DomainError,
    FockSpace,
    FockState,
    OpaParams,
    OrderingConvention,
    TruncationError,
    choose_dim,
    correlation_full,
    Geometry,
    hbt_two_mode_correlation,
    moment_truncation_bound,
    partial_trace,
    population_moments,
    product_state,
    propagate_moments,
    reduced_moments,
    space_for_squeezed_thermal,
    squeeze_populations,
    thermal_moments,
    thermal_populations,
    thermal_state,
    two_mode_squeeze,
    vacuum_state,
)
from opahbt.oracle_checks import DEFAULT_G_GRID, DEFAULT_N_GRID


def test_thermal_state_geometric_weights_and_deficit():
    state = thermal_state(1.0, FockSpace(40))
    probs = state.populations()
    assert probs[0] == pytest.approx(0.5)
    assert probs[1] == pytest.approx(0.25)
    assert state.trace_deficit == pytest.approx(2.0**-40, rel=1e-12)
    assert state.trace + state.trace_deficit == pytest.approx(1.0, abs=1e-12)
    state.validate()


def test_thermal_state_moments_match_closed_forms():
    # At dim 40 the fourth moment carries the genuine weighted tail of the
    # distribution (a few parts in 1e8); dim 56 pushes it below 1e-9.
    state = thermal_state(1.0, FockSpace(40))
    np.testing.assert_allclose(
        reduced_moments(state).as_array(), [1.0, 3.0, 13.0, 75.0], rtol=1e-7
    )
    finer = thermal_state(1.0, FockSpace(56))
    np.testing.assert_allclose(
        reduced_moments(finer).as_array(), [1.0, 3.0, 13.0, 75.0], rtol=1e-9
    )


def test_vacuum_state_is_exact():
    state = vacuum_state(FockSpace(8))
    assert state.trace == 1.0
    assert state.trace_deficit == 0.0
    assert reduced_moments(state).as_array().tolist() == [0, 0, 0, 0]


def test_thermal_state_rejects_negative_mean():
    with pytest.raises(DomainError):
        thermal_state(-1.0, FockSpace(8))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0, "1.0"])
def test_fock_inputs_share_the_domain_validator(bad):
    space = FockSpace(8)
    with pytest.raises(DomainError):
        choose_dim(bad)
    with pytest.raises(DomainError):
        thermal_populations(bad, space)
    with pytest.raises(DomainError):
        squeeze_populations(np.full(8, 1.0 / 8), bad)
    with pytest.raises(DomainError):
        hbt_two_mode_correlation(bad, 1.0, 0.0, space)
    with pytest.raises(DomainError):
        hbt_two_mode_correlation(1.0, bad, 0.0, space)
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
                got = space_for_squeezed_thermal(n, g).dim
            except TruncationError as exc:
                got = exc.suggested_dim
            assert got == expected, (n, g)


def test_fock_state_is_a_read_only_population_grid():
    probs = np.full((4, 4), 1.0 / 16)
    state = FockState(probs)
    probs[0, 0] = 5.0  # the state holds its own copy
    assert state.dims == (4, 4) and state.n_modes == 2 and state.dim == 4
    assert state.trace == 1.0
    with pytest.raises(ValueError):
        state.populations()[0, 0] = 0.0
    state.validate()
    for bad in (np.zeros(4), np.ones((2, 2, 2)), np.ones((3, 4))):
        with pytest.raises(DomainError):
            FockState(bad).validate()
    with pytest.raises(DomainError):
        FockState(np.array([1.5, -0.5])).validate()
    with pytest.raises(DomainError):
        FockState(np.array([0.5, 0.5]), trace_deficit=1.5)


def test_choose_dim_rule_and_cap():
    # Smallest dim with (mean/(1+mean))^dim below the tail.
    dim = choose_dim(1.0, tail=1e-12)
    assert 0.5**dim < 1e-12 <= 0.5 ** (dim - 1)
    with pytest.raises(TruncationError) as excinfo:
        choose_dim(40.0, tail=1e-12)
    assert excinfo.value.suggested_dim > 1024


def test_choose_dim_rejects_mean_beyond_double_resolution(monkeypatch):
    # mean/(1+mean) rounds to 1.0 here, so no dimension meets the tail.
    with pytest.raises(TruncationError):
        choose_dim(1e17)
    monkeypatch.setattr(opahbt.fock, "DIM_CAP", 10**6)
    assert choose_dim(1e3, tail=1e-12) == 27645  # the rule below that


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
    want = np.zeros((dim, dim))
    want[k + difference, k] = moved
    got, deficit = squeeze_populations(signal, g)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    assert got.sum() == pytest.approx(1.0, abs=1e-13)
    assert deficit == 0.0


def test_squeeze_matches_dense_generator_exponential():
    # Independent route: exponentiate the full two-mode generator densely
    # and take the diagonal of U rho U^T, at a dim where the tail
    # certificate holds.
    g = 0.4
    space = space_for_squeezed_thermal(0.4, g)
    dim = space.dim
    a = np.diag(np.sqrt(np.arange(1.0, dim)), 1)
    ad = a.T
    unitary = scipy.linalg.expm(g * (np.kron(ad, ad) - np.kron(a, a)))
    state = product_state(thermal_state(0.4, space), vacuum_state(space))
    rho = np.diag(state.populations().ravel())
    expected = np.diag(unitary @ rho @ unitary.T).reshape(dim, dim)
    squeezed = two_mode_squeeze(state, g)
    np.testing.assert_allclose(squeezed.populations(), expected, rtol=0, atol=1e-13)


def test_squeezing_a_thermal_idler_is_a_domain_error():
    space = FockSpace(12)
    state = product_state(thermal_state(0.4, space), thermal_state(0.2, space))
    with pytest.raises(DomainError, match="vacuum"):
        two_mode_squeeze(state, 0.4)


def test_squeeze_matches_the_untruncated_su11_column_at_g2():
    # |<d+j, j| S |d, 0>|^2 = C(d+j, j) tanh(g)^2j / cosh(g)^2(d+1) (Schumaker
    # and Caves, Phys. Rev. A 31, 3068 (1985)), weighted by the thermal
    # input at the oracle's dim for n = 1, g = 2.
    n, g = 1.0, 2.0
    space = space_for_squeezed_thermal(n, g)
    probs, deficit = thermal_populations(n, space)
    got, _ = squeeze_populations(probs, g, trace_deficit=deficit)
    want = np.zeros_like(got)
    for d in range(space.dim):
        j = np.arange(space.dim - d)
        log_column = (
            scipy.special.gammaln(d + j + 1.0)
            - scipy.special.gammaln(d + 1.0)
            - scipy.special.gammaln(j + 1.0)
            + 2.0 * j * math.log(math.tanh(g))
            - 2.0 * (d + 1.0) * math.log(math.cosh(g))
        )
        want[d + j, j] = probs[d] * np.exp(log_column)
    assert np.abs(got - want).sum() <= 1e-10


def test_ladders_below_the_weight_floor_join_the_deficit():
    signal = np.array([0.6, 0.4, 1e-20, 0.0, 0.0, 0.0, 0.0, 0.0])
    got, deficit = squeeze_populations(signal, 0.1, trace_deficit=1e-12)
    assert deficit == 1e-12 + 1e-20
    assert not got.diagonal(-2).any()  # ladder 2, |2 + k, k>, is not propagated
    assert got.sum() == pytest.approx(1.0, abs=1e-15)


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
    # full per-ladder propagator from scipy.linalg.expm.
    space = space_for_squeezed_thermal(n, g, tail=1e-12)
    state = product_state(thermal_state(n, space), vacuum_state(space))
    want = _ladder_expm_squeeze(state.populations(), g)
    got, deficit = squeeze_populations(
        state.populations()[:, 0], g, trace_deficit=state.trace_deficit
    )
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)
    np.testing.assert_allclose(
        population_moments(got, 0).as_array(),
        population_moments(want, 0).as_array(),
        rtol=1e-12,
    )
    squeezed = two_mode_squeeze(state, g)
    np.testing.assert_array_equal(squeezed.populations(), got)
    assert squeezed.trace_deficit == deficit >= state.trace_deficit


def test_zero_gain_squeeze_is_identity():
    space = FockSpace(40)
    state = product_state(thermal_state(0.7, space), vacuum_state(space))
    # At g = 1e-20 the Chebyshev series is its J_0 term alone.
    for g in (0.0, 1e-20):
        out = two_mode_squeeze(state, g)
        np.testing.assert_array_equal(out.populations(), state.populations())


def test_two_mode_squeezed_vacuum_arm_is_thermal():
    space = FockSpace(30)
    state = product_state(vacuum_state(space), vacuum_state(space))
    squeezed = two_mode_squeeze(state, 0.5)
    assert reduced_moments(squeezed, 0).m1 == pytest.approx(
        math.sinh(0.5) ** 2, abs=1e-8
    )
    assert reduced_moments(squeezed, 1).m1 == pytest.approx(
        math.sinh(0.5) ** 2, abs=1e-8
    )


def test_squeezed_thermal_mode_means():
    space = FockSpace(40)
    state = product_state(thermal_state(0.5, space), vacuum_state(space))
    squeezed = two_mode_squeeze(state, 0.5)
    mu2, nu2 = math.cosh(0.5) ** 2, math.sinh(0.5) ** 2
    assert reduced_moments(squeezed, 0).m1 == pytest.approx(
        mu2 * 0.5 + nu2, abs=1e-8
    )
    # Idler output picks up nu^2 (n + 1).
    assert reduced_moments(squeezed, 1).m1 == pytest.approx(nu2 * 1.5, abs=1e-8)


@pytest.mark.parametrize("n", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("g", [0.0, 0.25, 0.5, 1.0])
def test_reduced_moments_match_propagation_polynomials(n, g):
    space = space_for_squeezed_thermal(n, g, tail=1e-12)
    state = product_state(thermal_state(n, space), vacuum_state(space))
    squeezed = two_mode_squeeze(state, g)
    got = reduced_moments(squeezed, 0).as_array()
    want = propagate_moments(thermal_moments(n), OpaParams(g)).as_array()
    np.testing.assert_allclose(got, want * squeezed.trace, rtol=1e-6, atol=1e-12)


def test_squeeze_truncation_error_names_tail_and_suggestion():
    space = FockSpace(12)
    state = product_state(thermal_state(1.0, space), vacuum_state(space))
    with pytest.raises(TruncationError) as excinfo:
        two_mode_squeeze(state, 1.5)
    assert excinfo.value.achieved > 1e-9
    assert excinfo.value.suggested_dim > 12
    # Only the top ladder, with no couplings, carries weight.
    with pytest.raises(TruncationError):
        squeeze_populations(np.array([0.0, 1.0]), 0.5)


def test_partial_trace_of_product_state():
    space = FockSpace(12)
    left = thermal_state(0.8, space)
    right = thermal_state(0.2, space)
    joint = product_state(left, right)
    np.testing.assert_allclose(
        partial_trace(joint, 0).populations(),
        left.populations() * right.trace,
        atol=1e-14,
    )
    np.testing.assert_allclose(
        partial_trace(joint, 1).populations(),
        right.populations() * left.trace,
        atol=1e-14,
    )


def test_moment_truncation_bound_scales_with_missing_mass():
    state = thermal_state(1.0, FockSpace(40))
    bound = moment_truncation_bound(state, order=4)
    assert bound >= state.trace_deficit
    assert bound < 1e-4


def test_correlator_vacuum_is_zero_for_both_orderings():
    for ordering in OrderingConvention:
        c0, noise_sq = hbt_two_mode_correlation(0.0, 0.0, 0.0, ordering=ordering)
        assert c0 == pytest.approx(0.0, abs=1e-12)
        assert noise_sq == pytest.approx(0.0, abs=1e-12)


def test_correlator_normal_ordered_reproduces_analytic_law():
    space = FockSpace(choose_dim(1.0))
    for n, m in ((1.0, 1.0), (0.5, 1.0), (0.0, 1.0)):
        for delta in (0.0, math.pi / 4, math.pi / 2, math.pi):
            c0, _ = hbt_two_mode_correlation(
                n, m, delta, space, OrderingConvention.NORMAL_ORDERED
            )
            want = correlation_full(
                thermal_moments(n), thermal_moments(m), Geometry.from_phase(delta)
            )
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


def test_fock_space_validation():
    with pytest.raises(DomainError):
        FockSpace(1)
    with pytest.raises(DomainError):
        FockSpace(8.0)


def test_state_invariants_maintained_through_pipeline():
    space = space_for_squeezed_thermal(1.0, 0.5, tail=1e-12)
    state = product_state(thermal_state(1.0, space), vacuum_state(space))
    assert state.trace + state.trace_deficit == pytest.approx(1.0, abs=1e-10)
    squeezed = two_mode_squeeze(state, 0.5)
    assert squeezed.trace + squeezed.trace_deficit == pytest.approx(1.0, abs=1e-10)
    reduced = partial_trace(squeezed, 0)
    assert reduced.trace + reduced.trace_deficit == pytest.approx(1.0, abs=1e-10)
    reduced.validate()
