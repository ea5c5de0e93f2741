import math
from collections import Counter

import numpy as np
import pytest

import opahbt.oracle_checks as oracle_checks
from opahbt import DomainError, OpaParams, OrderingConvention
from opahbt.hbt import consistency_report
from opahbt.oracle_checks import (
    _check,
    _squeezed_thermal,
    check_noise_consistency,
    check_squeeze_propagation,
    check_wick_vs_fock,
    run_oracle_checks,
)


def test_check_entry_takes_the_worst_of_its_per_point_deviations():
    per_point = [np.array([1e-12, 3e-10]), np.array([2e-10, 0.0])]
    entry = _check("demo", "a demo", "pass", 1e-9, per_point)
    assert list(entry) == [
        "name", "description", "expected", "tolerance",
        "max_rel_deviation", "passed", "as_expected", "note",
    ]
    assert entry["max_rel_deviation"] == 3e-10 and type(entry["max_rel_deviation"]) is float
    assert entry["passed"] is True and entry["as_expected"] is True
    known_defect = _check("demo", "a demo", "fail", 1e-9, np.array([0.5, 0.1]), "documented")
    assert known_defect["max_rel_deviation"] == 0.5
    assert known_defect["passed"] is False and known_defect["as_expected"] is True
    assert known_defect["note"] == "documented"


def test_check_of_no_points_reports_zero():
    assert _check("demo", "a demo", "pass", 1e-9, [])["max_rel_deviation"] == 0.0


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_check_rejects_a_non_finite_deviation_anywhere(bad):
    # A NaN before a larger finite deviation must not be masked by it.
    with pytest.raises(DomainError, match="check demo"):
        _check("demo", "a demo", "pass", 1e-9, [np.array([0.0, bad]), np.array([1.0, 0.0])])


def test_noise_consistency_entries_report_the_worst_pair():
    params = OpaParams(2.0)
    grid = [(n, m) for n in (0.1, 1.0, 5.0) for m in (0.1, 1.0, 5.0)]
    deviations = consistency_report(params, grid)
    entries = check_noise_consistency(params, grid)
    assert [entry["max_rel_deviation"] for entry in entries] == [
        max(d.tolist()) for d in deviations
    ]


def test_fock_suites_hold_at_means_below_the_ladder_weight_floor():
    # Below a thermal mean of about 1e-18 ladder 1 holds all the excited
    # mass; were it dropped with the lighter ladders, every moment would be 0.
    squeezed = _squeezed_thermal((0.0, 1e-20, 1e-300), (0.0, 1e-9, 0.5))
    for entry in (check_squeeze_propagation(squeezed), check_wick_vs_fock(squeezed)):
        assert entry["passed"] and entry["max_rel_deviation"] <= 1e-8, entry


def test_each_grid_point_is_squeezed_once_on_a_grid_over_64_points(monkeypatch):
    # Both Fock suites read the squeezed states; a per-point cache of 64
    # entries missed on every lookup of a 72-point grid and squeezed 144 times.
    calls = []
    squeeze = oracle_checks.squeeze_populations

    def counted(populations, g, trace_deficit):
        calls.append(g)
        return squeeze(populations, g, trace_deficit=trace_deficit)

    monkeypatch.setattr(oracle_checks, "squeeze_populations", counted)
    n_grid, g_grid = [0.1 * i for i in range(9)], [0.1 * i for i in range(8)]
    report = run_oracle_checks(n_grid, g_grid)
    assert len(calls) == 72
    assert all(check["as_expected"] for check in report["checks"])


def test_each_normal_ordered_pair_is_computed_once(monkeypatch):
    # A repeated mean names the same pairs; each is still computed once.
    calls = Counter()
    correlator = oracle_checks.hbt_two_mode_correlation

    def counted(n, m, delta, ordering):
        calls[n, m, ordering] += 1
        return correlator(n, m, delta, ordering)

    monkeypatch.setattr(oracle_checks, "hbt_two_mode_correlation", counted)
    run_oracle_checks((0.0, 0.5, 1.0, 0.5), (0.0, 0.25))
    normal = [key for key in calls if key[2] is OrderingConvention.NORMAL_ORDERED]
    assert len(normal) == 9 and set(calls.values()) == {1}
