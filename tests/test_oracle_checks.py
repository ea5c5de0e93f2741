import math

import numpy as np
import pytest

from opahbt import DomainError, OpaParams
from opahbt.hbt import consistency_report
from opahbt.oracle_checks import (
    _check,
    check_noise_consistency,
    check_squeeze_propagation,
    check_wick_vs_fock,
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
    n_grid, g_grid = (0.0, 1e-20, 1e-300), (0.0, 1e-9, 0.5)
    for entry in (check_squeeze_propagation(n_grid, g_grid), check_wick_vs_fock(n_grid, g_grid)):
        assert entry["passed"] and entry["max_rel_deviation"] <= 1e-8, entry
