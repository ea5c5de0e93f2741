import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import opahbt.photon_stats
from opahbt import (
    DomainError,
    SummationLimitError,
    geometric_summation_moments,
    thermal_moments,
)
from opahbt._domain import kernel

GRID = (0.01, 0.1, 0.5, 1.0, 2.0, 10.0, 50.0)


def printed_moments(n):
    """The as-published table PAPER_PRINTED at mean ``n``, as the oracle evaluates it."""
    return np.stack([kernel(rows)(np.float64(n)) for rows in opahbt.photon_stats.PAPER_PRINTED])


def test_vacuum_is_zero_for_both_conventions():
    assert thermal_moments(0.0).tolist() == [0, 0, 0, 0]
    assert printed_moments(0.0).tolist() == [0, 0, 0, 0]


def test_thermal_moments_take_only_the_mean():
    with pytest.raises(TypeError):
        thermal_moments(1.0, "paper-printed")


def test_unit_mean_corrected_values():
    assert thermal_moments(1.0).tolist() == [1.0, 3.0, 13.0, 75.0]


def test_unit_mean_printed_third_moment():
    printed = printed_moments(1.0)
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
    closed = thermal_moments(n)
    np.testing.assert_allclose(closed, oracle, rtol=1e-9)


@pytest.mark.parametrize("n", GRID)
def test_printed_third_moment_low_by_five_cubes(n):
    _, _, oracle_m3, _ = geometric_summation_moments(n)
    _, _, printed_m3, _ = printed_moments(n)
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


@pytest.mark.parametrize("n", [3e6, 1e15, 1e16, 1e300])
def test_summation_too_close_to_one_raises_at_once(monkeypatch, n):
    # From about 2.5e6 the tail bound's term ratio stays above 1 up to the
    # cap, and from about 1e16 mean/(1+mean) rounds to 1.  No term may be
    # summed: without a chunk size, summing raises TypeError.
    monkeypatch.setattr(opahbt.photon_stats, "_CHUNK", None)
    with pytest.raises(SummationLimitError, match=r"mean/\(1\+mean\)") as excinfo:
        geometric_summation_moments(n)
    assert excinfo.value.achieved_bound == float("inf")


@pytest.mark.parametrize("n", [2.4e5, 3e5, 1e6, 2.4e6])
def test_summation_predicted_to_miss_the_bound_raises_at_once(monkeypatch, n):
    # From about 2.4e5 the cap is too short: the bound reached there misses
    # even with every sum at its upper bound, so no term may be summed.
    # Without a chunk size, summing raises TypeError.
    monkeypatch.setattr(opahbt.photon_stats, "_CHUNK", None)
    with pytest.raises(SummationLimitError, match="summation cap of 10000000 terms") as excinfo:
        geometric_summation_moments(n)
    assert opahbt.photon_stats.SUMMATION_TAIL_BOUND < excinfo.value.achieved_bound < np.inf


def _summed_to_the_cap(monkeypatch, n):
    """The sums, or the bound achieved at the cap, with the prediction off."""
    with monkeypatch.context() as patch:
        patch.setattr(opahbt.photon_stats, "_FACTORIALS", np.full(4, np.inf))
        try:
            return geometric_summation_moments(n)
        except SummationLimitError as exc:
            return exc.achieved_bound


def test_summation_prediction_raises_exactly_where_summing_misses(monkeypatch):
    # On a short cap, across the mean where the cap stops reaching the bound
    # (about 195 for 8,192 terms), each mean either returns the sums summing
    # gives or raises at once with a bound no larger than summing achieves.
    monkeypatch.setattr(opahbt.photon_stats, "SUMMATION_TERM_CAP", 8192)
    outcomes = set()
    for n in np.linspace(150.0, 400.0, 251):
        summed = _summed_to_the_cap(monkeypatch, n)
        try:
            sums = geometric_summation_moments(n)
        except SummationLimitError as exc:
            assert np.ndim(summed) == 0 and exc.achieved_bound <= summed, n
            outcomes.add("raised")
        else:
            assert sums.tobytes() == summed.tobytes(), n
            outcomes.add("summed")
    assert outcomes == {"raised", "summed"}
