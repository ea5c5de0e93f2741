import math

import numpy as np
import pytest

from opahbt import DomainError, OpaParams, consistency_report
from opahbt.oracle_checks import _check, check_noise_consistency


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
    report = consistency_report(params, grid)
    deviations = (
        report.plain_vs_substitution,
        report.amplified_vs_substitution,
        report.zero_gain_reduction,
    )
    entries = check_noise_consistency(params, grid)
    assert [entry["max_rel_deviation"] for entry in entries] == [
        max(d.tolist()) for d in deviations
    ]
