import itertools
import math
import runpy
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import opahbt.oracle_checks as oracle_checks
from opahbt import DomainError, OpaParams, OrderingConvention, photon_stats
from opahbt.hbt import consistency_report, relative_deviation
from opahbt.opa import propagate_moments
from opahbt.photon_stats import geometric_summation_moments, thermal_moments
from opahbt.oracle_checks import (
    CHECKS,
    DEFAULT_G_GRID,
    DEFAULT_N_GRID,
    _check,
    _squeezed_thermal,
    check_noise_consistency,
    check_published_third_moment,
    check_squeeze_propagation,
    check_wick_vs_fock,
    run_oracle_checks,
)


def test_check_entry_takes_the_worst_of_its_per_point_deviations():
    # Per-point deviations of about 1e-12 and 3e-10, then 2e-10 and 0; the
    # worst pair deviates by 3e-10 to the last bit.
    got = [np.array([1.0 + 1e-12, 1.000000082740371]), np.array([1.0, 2.0])]
    want = [np.array([1.0, 1.000000082440371]), np.array([1.0 - 2e-10, 2.0])]
    entry = _check("thermal-closure", got, want)
    assert list(entry) == [
        "name", "description", "expected", "tolerance",
        "max_rel_deviation", "passed", "as_expected", "note",
    ]
    assert entry["max_rel_deviation"] == 3e-10 and type(entry["max_rel_deviation"]) is float
    assert entry["passed"] is True and entry["as_expected"] is True
    known_defect = _check(
        "amplified-noise-substitution", np.array([2.0, 1.0]), np.array([1.0, 0.9])
    )
    assert known_defect["max_rel_deviation"] == 0.5
    assert known_defect["passed"] is False and known_defect["as_expected"] is True
    assert known_defect["note"].startswith("documented")
    assert known_defect["note"] == CHECKS["amplified-noise-substitution"].note


def test_check_entry_is_its_table_row():
    # The fixed fields come from the row; the note gains the row's suffix
    # only when the measured gap matches its prediction.
    claim = CHECKS["ordering-gap"]
    got, want = [np.array([2.0, 1.0])], [np.array([1.0, 3.0])]  # the gap is [1, -2]
    confirmed = _check("ordering-gap", got, want, [np.array([1.0, -2.0])])
    missed = _check("ordering-gap", got, want, [np.array([1.0, -1.0])])
    assert (confirmed["description"], confirmed["expected"], confirmed["tolerance"]) == claim[:3]
    assert confirmed["note"] == claim.note + claim.confirmed and missed["note"] == claim.note
    # A predicted gap below the tolerance rounds away, so the defect is expected to pass.
    flipped = _check("amplified-noise-swap-symmetry", np.ones(1), np.ones(1), np.array([1e-12]))
    assert flipped["expected"] == "pass" and flipped["as_expected"] is True


def test_a_predicted_gap_is_expected_to_show_only_above_the_tolerance():
    # The rule is |predicted| > tolerance * max(|got|, |want|) at some point;
    # at a point where both routes are 0 it needs no division.
    name = "amplified-noise-swap-symmetry"
    entries = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scale in (3.0, 0.5):
            gap = np.array([0.0, scale * CHECKS[name].tolerance])
            entries[scale] = _check(name, np.array([0.0, 1.0]) + gap, np.array([0.0, 1.0]), gap)
    shows, hides = entries[3.0], entries[0.5]
    assert shows["expected"] == "fail" and not shows["passed"] and shows["as_expected"]
    assert hides["expected"] == "pass" and hides["passed"] and hides["as_expected"]
    assert shows["note"] == hides["note"] == CHECKS[name].note + CHECKS[name].confirmed


@pytest.mark.parametrize("gain, expected", [(0.015, "pass"), (0.02, "fail")])
def test_the_swap_asymmetry_is_expected_to_show_above_the_flip_gain(gain, expected):
    # The predicted asymmetry 4 (n - m) mu^2 nu^4 crosses the tolerance
    # relative to the law near g = 0.0172.
    report = run_oracle_checks((0.5,), (0.0,), gain_for_noise=gain)
    entry = {check["name"]: check for check in report["checks"]}["amplified-noise-swap-symmetry"]
    assert entry["expected"] == expected and entry["as_expected"] is True, entry


def test_check_of_no_points_raises_naming_the_check():
    # An empty grid would otherwise pass at deviation 0 without comparing anything.
    for empty in ([], np.zeros((4, 0))):
        with pytest.raises(DomainError, match="check thermal-closure compares no grid point"):
            _check("thermal-closure", empty, empty)


def test_an_empty_gain_grid_raises_instead_of_passing():
    with pytest.raises(DomainError, match="squeeze-moment-propagation"):
        run_oracle_checks(g_grid=())


def test_an_empty_or_dark_mean_grid_raises_before_any_check():
    # An empty grid is not told its means are zero, nor pointed at a CLI flag.
    empty = "^check ordering-gap compares no pair: the n grid is empty$"
    with pytest.raises(DomainError, match=empty):
        run_oracle_checks(n_grid=())
    with pytest.raises(DomainError, match=r"every mean of the n grid \(--n-grid\) is 0$"):
        run_oracle_checks(n_grid=(0.0, 0.0))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_check_rejects_a_non_finite_deviation_anywhere(bad):
    # A NaN before a larger finite deviation must not be masked by it.
    with pytest.raises(DomainError, match="check thermal-closure"):
        _check("thermal-closure", [np.array([1.0, bad]), np.array([2.0, 1.0])], np.ones((2, 2)))


def test_default_report_lists_the_table_in_order():
    report = run_oracle_checks()
    assert [check["name"] for check in report["checks"]] == list(CHECKS)
    assert len(CHECKS) == 11


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_grid": "a"},
        {"n_grid": 0.5},
        {"n_grid": [[0.5, 1.0]]},
        {"n_grid": [0.5, None]},
        {"g_grid": "0,1"},
        {"g_grid": 1.0},
        {"gain_for_noise": None},
        {"gain_for_noise": "2"},
    ],
)
def test_bad_grid_or_gain_is_a_domain_error(kwargs):
    with pytest.raises(DomainError):
        run_oracle_checks(**kwargs)


def test_noise_consistency_entries_report_the_worst_pair():
    params = OpaParams(2.0)
    grid = [(n, m) for n in (0.1, 1.0, 5.0) for m in (0.1, 1.0, 5.0)]
    routes = consistency_report(params, grid)
    entries = check_noise_consistency(params, grid)
    assert [entry["max_rel_deviation"] for entry in entries] == [
        max(relative_deviation(*pair).tolist()) for pair in routes
    ]


def test_fock_suites_hold_at_means_below_the_ladder_weight_floor():
    # Below a thermal mean of about 1e-18 ladder 1 holds all the excited
    # mass; were it dropped with the lighter ladders, every moment would be 0.
    squeezed = _squeezed_thermal((0.0, 1e-20, 1e-300), (0.0, 1e-9, 0.5))
    for entry in (check_squeeze_propagation(squeezed), check_wick_vs_fock(squeezed)):
        assert entry["passed"] and entry["max_rel_deviation"] <= 1e-8, entry


def test_squeezer_deviation_at_positive_gain_stays_below_the_g0_truncation():
    # The reported worst deviation of both Fock suites, 3.45e-8 on these
    # grids, comes from the g = 0 points, where only the input's thermal
    # truncation shows.  The squeezer's own deviation, 1.13e-8 at worst,
    # must stay below that so a regression there cannot hide behind it.
    workloads = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    for n_grid, g_grid in runpy.run_path(str(workloads))["ORACLE_GRIDS"]:
        squeezed = _squeezed_thermal(
            [float(n) for n in n_grid.split(",")], [float(g) for g in g_grid.split(",")]
        )
        for (n, g), got in squeezed.items():
            if g > 0.0:
                want = propagate_moments(thermal_moments(n), OpaParams(g))
                deviation = relative_deviation(got, want)
                assert np.max(deviation) <= 1.5e-8, (n, g, deviation)


def test_each_grid_point_is_squeezed_once_on_a_grid_over_64_points(monkeypatch):
    # Both Fock suites read the squeezed states; a per-point cache of 64
    # entries missed on every lookup of a 72-point grid and squeezed 144 times.
    calls = []
    squeeze = oracle_checks.squeeze_populations

    def counted(populations, g):
        calls.append(g)
        return squeeze(populations, g)

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


def _report_with(monkeypatch, name, scale_one):
    """The default report with ``oracle_checks.<name>`` wrapped by ``scale_one``."""
    monkeypatch.setattr(oracle_checks, name, scale_one(getattr(oracle_checks, name)))
    return {check["name"]: check for check in run_oracle_checks()["checks"]}


def test_the_correlator_rows_stay_aligned_with_their_pairs(monkeypatch):
    # Scaling the normal-ordered correlator at (0.5, 1.0) alone, not at its
    # mirror (1.0, 0.5), must show at about 1e-5 in the correlator check and
    # break the ordering gap's confirmed prediction; nothing else may move.
    def scale_one(correlator):
        def scaled(n, m, delta, ordering):
            mean, variance = correlator(n, m, delta, ordering)
            if (n, m) == (0.5, 1.0) and ordering is OrderingConvention.NORMAL_ORDERED:
                mean = mean * (1.0 + 1e-5)
            return mean, variance

        return scaled

    clean = {check["name"]: check for check in run_oracle_checks()["checks"]}
    report = _report_with(monkeypatch, "hbt_two_mode_correlation", scale_one)
    scaled = report.pop("normal-ordered-correlator")
    assert not scaled["passed"] and abs(scaled["max_rel_deviation"] - 1e-5) < 1e-7, scaled
    gap = report.pop("ordering-gap")
    assert gap["note"] == CHECKS["ordering-gap"].note, gap
    assert clean["ordering-gap"]["note"].endswith(", confirmed on the grid")
    assert all(check == clean[name] for name, check in report.items())


def test_the_correlator_rows_are_computed_at_their_own_n_m_order(monkeypatch):
    # Both routes scaled by the same asymmetric factor 1 + 1e-5 (n - 2m):
    # compared row by row at (n, m), the factor cancels and the check reports
    # the aligned deviation.  Every real route is symmetric in n and m, and the
    # pairs are, so a stand-in on one route alone could not show a row
    # computed at (m, n); here that row would deviate by about 1e-5 |n - m|.
    def asymmetric(n, m):
        return 1.0 + 1e-5 * (n - 2.0 * m)

    correlator, law = oracle_checks.hbt_two_mode_correlation, oracle_checks.correlation_full

    def correlator_at(n, m, delta, ordering):
        mean, variance = correlator(n, m, delta, ordering)
        if ordering is OrderingConvention.NORMAL_ORDERED:
            mean = mean * asymmetric(n, m)
        return mean, variance

    def law_at(nm, mm, delta):
        return law(nm, mm, delta) * asymmetric(nm[0], mm[0])

    monkeypatch.setattr(oracle_checks, "hbt_two_mode_correlation", correlator_at)
    monkeypatch.setattr(oracle_checks, "correlation_full", law_at)
    deltas = np.array(oracle_checks.DEFAULT_DELTA_GRID)
    aligned = max(
        np.max(relative_deviation(
            correlator_at(n, m, deltas, OrderingConvention.NORMAL_ORDERED)[0],
            law_at(thermal_moments(n), thermal_moments(m), deltas),
        ))
        for n, m in itertools.product(DEFAULT_N_GRID, repeat=2)
    )
    entry = {check["name"]: check for check in run_oracle_checks()["checks"]}
    entry = entry["normal-ordered-correlator"]
    assert aligned < 1e-9 and entry["passed"], entry
    assert entry["max_rel_deviation"] == pytest.approx(aligned, rel=1e-6, abs=1e-15), entry


def test_the_squeezed_states_stay_aligned_with_their_grid_points(monkeypatch):
    # Scaling the moments of one squeezed state, (n, g) = (0.5, 0.25), must
    # fail both Fock checks at about 1e-5.
    def scale_one(moments):
        calls = []

        def scaled(populations):
            calls.append(None)
            return moments(populations) * (1.0 + 1e-5 if len(calls) == 6 else 1.0)

        return scaled

    report = _report_with(monkeypatch, "reduced_moments", scale_one)
    assert list(itertools.product(DEFAULT_N_GRID, DEFAULT_G_GRID))[5] == (0.5, 0.25)
    for name in ("squeeze-moment-propagation", "wick-vs-fock-moments"):
        entry = report[name]
        assert not entry["passed"] and abs(entry["max_rel_deviation"] - 1e-5) < 1e-7, entry


def test_every_mu8_mutant_misses_the_zero_gain_prediction(monkeypatch):
    # At zero gain nu = 0, so the amplified law is its mu^8 group alone: each
    # of that group's 28 +-1 mutants moves the gap off its closed form
    # -4 n m (7 n m + 2 n + 2 m + 1), and the other 40 mutants leave it.
    from test_laws import mutants

    values = np.geomspace(0.05, 20.0, 20)
    pair_grid = [(float(n), float(m)) for n in values for m in values]  # the oracle's grid
    claim = CHECKS["amplified-noise-zero-gain-reduction"]

    def note():
        return check_noise_consistency(OpaParams(2.0), pair_grid)[2]["note"]

    assert note() == claim.note + claim.confirmed
    missed = {}
    for module, name, path, mutant in mutants():
        if name == "AMPLIFIED_NOISE":
            with monkeypatch.context() as patch:
                patch.setattr(module, name, mutant)
                missed[path] = note() == claim.note
    assert len(missed) == 68
    assert [path for path in missed if missed[path]] == [path for path in missed if path[0] == 0]
    assert sum(missed.values()) == 28


def test_the_printed_third_moment_check_reads_the_table_per_call(monkeypatch):
    # A cubic coefficient of 2 instead of the printed 1 leaves a gap of 4 N^3,
    # which misses the predicted 5 N^3.
    means = np.array([0.5, 1.0, 2.0])
    moments = np.column_stack([geometric_summation_moments(n) for n in means])
    claim = CHECKS["published-third-moment"]
    assert check_published_third_moment(means, moments)["note"] == claim.note + claim.confirmed
    printed = photon_stats.PAPER_PRINTED
    mutant = printed[:2] + (((2, (3,)),) + printed[2][1:],) + printed[3:]
    monkeypatch.setattr(photon_stats, "PAPER_PRINTED", mutant)
    entry = check_published_third_moment(means, moments)
    assert entry["note"] == claim.note and entry["max_rel_deviation"] > 0.1
