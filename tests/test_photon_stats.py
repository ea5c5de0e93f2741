import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import opahbt.photon_stats
from opahbt import (
    DomainError,
    MomentConvention,
    SummationLimitError,
    geometric_summation_moments,
    thermal_moments,
)

GRID = (0.01, 0.1, 0.5, 1.0, 2.0, 10.0, 50.0)


def test_vacuum_is_zero_for_both_conventions():
    for convention in MomentConvention:
        assert thermal_moments(0.0, convention).tolist() == [0, 0, 0, 0]


def test_unit_mean_corrected_values():
    assert thermal_moments(1.0).tolist() == [1.0, 3.0, 13.0, 75.0]


def test_unit_mean_printed_third_moment():
    printed = thermal_moments(1.0, MomentConvention.PAPER_PRINTED)
    assert printed.tolist() == [1.0, 3.0, 8.0, 75.0]


def test_summation_oracle_frozen_values():
    # Frozen from the oracle itself; the integer values are exact.
    np.testing.assert_allclose(
        geometric_summation_moments(1.0),
        [1.0, 3.0, 13.0, 75.0],
        rtol=1e-9,
    )
    np.testing.assert_allclose(
        geometric_summation_moments(2.0),
        [2.0, 10.0, 74.0, 730.0],
        rtol=1e-9,
    )
    _, m2, _, _ = geometric_summation_moments(0.5)
    assert m2 == pytest.approx(1.0, rel=1e-9)


@pytest.mark.parametrize("n", GRID)
def test_summation_agrees_with_corrected_closed_forms(n):
    oracle = geometric_summation_moments(n)
    closed = thermal_moments(n, MomentConvention.CORRECTED)
    np.testing.assert_allclose(closed, oracle, rtol=1e-9)


@pytest.mark.parametrize("n", GRID)
def test_printed_third_moment_low_by_five_cubes(n):
    _, _, oracle_m3, _ = geometric_summation_moments(n)
    _, _, printed_m3, _ = thermal_moments(n, MomentConvention.PAPER_PRINTED)
    assert oracle_m3 - printed_m3 == pytest.approx(5.0 * n**3, rel=1e-9)


@given(st.floats(min_value=0.0, max_value=50.0, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_moment_inequalities(n):
    m1, m2, m3, m4 = thermal_moments(n)
    assert m2 >= m1 >= 0.0
    assert m3 >= m2
    assert m4 >= m3
    assert m2 >= m1**2
    assert m4 >= m2**2


@given(st.floats(min_value=1e-6, max_value=50.0, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_super_poissonian_variance(n):
    m1, m2, _, _ = thermal_moments(n)
    assert m2 - m1**2 == pytest.approx(n**2 + n, rel=1e-12)
    assert m2 - m1**2 > 0.0


def test_source_validation():
    for moments in (thermal_moments, geometric_summation_moments):
        for bad in (-0.5, float("nan"), float("inf")):
            with pytest.raises(DomainError, match="mean photon number"):
                moments(bad)


def test_summation_iteration_cap_reports_achieved_bound(monkeypatch):
    monkeypatch.setattr(opahbt.photon_stats, "SUMMATION_TERM_CAP", 64)
    with pytest.raises(SummationLimitError) as excinfo:
        geometric_summation_moments(50.0)
    assert excinfo.value.achieved_bound > opahbt.photon_stats.SUMMATION_TAIL_BOUND
