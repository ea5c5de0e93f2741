import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opahbt import (
    DomainError,
    OpaParams,
    coeffs,
    equivalent_thermal_mean,
    propagate_moments,
    thermal_moments,
)


def test_zero_gain_is_identity_transformation():
    assert coeffs(OpaParams(0.0)) == (1.0, 0.0)


def test_coeffs_at_gain_two():
    mu, nu = coeffs(OpaParams(2.0))
    assert mu == pytest.approx(math.cosh(2.0), rel=1e-12)
    assert nu == pytest.approx(math.sinh(2.0), rel=1e-12)
    assert mu * mu == pytest.approx(14.1541164, rel=1e-6)
    assert nu * nu == pytest.approx(13.1541164, rel=1e-6)
    assert mu * mu - nu * nu == pytest.approx(1.0, rel=1e-12)


def test_coeffs_at_gain_half():
    # Direct evaluation: cosh(0.5)^2 = (cosh(1) + 1)/2.
    mu, nu = coeffs(OpaParams(0.5))
    assert mu * mu == pytest.approx(1.2715403, rel=1e-7)
    assert nu * nu == pytest.approx(0.2715403, rel=1e-7)
    assert mu * mu - nu * nu == pytest.approx(1.0, rel=1e-12)


def test_gain_validation():
    with pytest.raises(DomainError):
        OpaParams(-0.1)
    with pytest.raises(DomainError):
        OpaParams(float("inf"))


def test_equivalent_thermal_mean_values():
    assert equivalent_thermal_mean(0.0, OpaParams(0.0)) == 0.0
    assert equivalent_thermal_mean(1.0, OpaParams(2.0)) == pytest.approx(
        math.cosh(4.0), rel=1e-12
    )
    assert equivalent_thermal_mean(10.0, OpaParams(2.0)) == pytest.approx(
        154.6952806, rel=1e-7
    )


def test_zero_gain_propagation_is_identity():
    moments = np.array([0.7, 2.1, 9.0, 55.0])
    out = propagate_moments(moments, OpaParams(0.0))
    assert out.tolist() == moments.tolist()


def test_vacuum_input_mean_is_nu_squared():
    out_m1, _, _, _ = propagate_moments(np.zeros(4), OpaParams(2.0))
    assert out_m1 == pytest.approx(math.sinh(2.0) ** 2, rel=1e-12)


def test_thermal_input_at_gain_two_is_thermal_at_amplified_mean():
    params = OpaParams(2.0)
    out = propagate_moments(thermal_moments(1.0), params)
    amplified = equivalent_thermal_mean(1.0, params)
    out_m1, _, _, _ = out
    assert out_m1 == pytest.approx(27.3082328, rel=1e-7)
    np.testing.assert_allclose(out, thermal_moments(amplified), rtol=1e-9)


@given(
    st.floats(min_value=0.0, max_value=20.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
)
@settings(max_examples=80, deadline=None)
def test_thermal_closure_property(n, g):
    params = OpaParams(g)
    out = propagate_moments(thermal_moments(n), params)
    want = thermal_moments(equivalent_thermal_mean(n, params))
    np.testing.assert_allclose(out, want, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("n", [0.0, 0.3, 1.0, 5.0])
def test_output_moments_grow_with_gain(n):
    gains = np.linspace(0.0, 3.0, 13)
    stacked = np.array(
        [propagate_moments(thermal_moments(n), OpaParams(g)) for g in gains]
    )
    assert np.all(np.diff(stacked, axis=0) >= -1e-12)
