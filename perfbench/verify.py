"""Output checks for benchmark jobs.

``check_job`` returns ``None`` when a job's output is right and a short
reason otherwise.  Figure and fit outputs are compared with the library's
public ``sweep_ratios``/``fit_inverse_law`` evaluated in this process;
oracle reports must carry the requested grids and only as-expected
verdicts; phi estimates must converge to within 5 standard errors of the
angle the scan was generated from.
"""

from __future__ import annotations

import csv
import json
import math

REL_TOL = 1e-12
# Fit-range sensitivity windows the fit command reports after its own range.
SENSITIVITY_RANGES = ((0.15, 20.0), (0.1, 10.0), (0.3, 30.0), (0.5, 50.0), (1.0, 100.0))
ORACLE_CHECK_COUNT = 11


def _close(got: float, want: float) -> bool:
    return math.isfinite(got) and abs(got - want) <= REL_TOL * max(abs(want), 1e-300)


def _spec(expect: dict, n_min: float | None = None, n_max: float | None = None):
    from opahbt import Spacing, SweepSpec

    return SweepSpec(
        g=expect["g"],
        n_min=expect["n_min"] if n_min is None else n_min,
        n_max=expect["n_max"] if n_max is None else n_max,
        points=expect["points"],
        spacing=Spacing(expect["spacing"]),
        equal_sources=expect["m_bar"] is None,
        m_bar=expect["m_bar"],
    )


def read_rows(text: str, fmt: str) -> list[tuple[float, float]]:
    if fmt == "json":
        return [(float(row["n_bar"]), float(row["ratio"])) for row in json.loads(text)]
    reader = csv.reader(text.splitlines())
    if next(reader) != ["n_bar", "ratio"]:
        raise ValueError("bad CSV header")
    return [(float(n), float(v)) for n, v in reader]


def _check_figure(expect: dict, text: str) -> str | None:
    from opahbt import sweep_ratios

    rows = read_rows(text, expect["format"])
    if len(rows) != expect["points"]:
        return f"{len(rows)} rows, expected {expect['points']}"
    table = sweep_ratios(_spec(expect))
    column = table.signal_ratio if expect["command"] == "fig4" else table.snr_ratio
    for i, (n, v) in enumerate(rows):
        if not (_close(n, float(table.n_bar[i])) and _close(v, float(column[i]))):
            return f"row {i} is ({n!r}, {v!r}), reference ({table.n_bar[i]!r}, {column[i]!r})"
    return None


def _check_fit(expect: dict, text: str) -> str | None:
    from opahbt import fit_inverse_law, sweep_ratios

    document = json.loads(text)
    ranges = []
    for window in ((expect["n_min"], expect["n_max"]),) + SENSITIVITY_RANGES:
        if window not in ranges:
            ranges.append(window)
    entries = document["sensitivity"]
    if [(e["n_min"], e["n_max"]) for e in entries] != ranges:
        return "sensitivity windows differ from the requested range plus the standard five"
    if any(document[key] != entries[0][key] for key in ("A", "B", "rss")):
        return "the fit differs from its own first sensitivity window"
    for entry, (n_min, n_max) in zip(entries, ranges):
        fit = fit_inverse_law(sweep_ratios(_spec(expect, n_min, n_max)))
        for key in ("A", "B", "rss"):
            if not _close(float(entry[key]), getattr(fit, key)):
                return f"{key} on [{n_min}, {n_max}] is {entry[key]!r}, reference {getattr(fit, key)!r}"
    if document["points"] != expect["points"] or document["spacing"] != expect["spacing"]:
        return "fit report does not echo the requested grid"
    return None


def _check_pinned(expect: dict, text: str) -> str | None:
    pinned = expect["pinned"]
    if expect["format"] == "json":
        document = json.loads(text)
        got = {"A": float(document["A"]), "B": float(document["B"])}
    else:
        rows = read_rows(text, "csv")
        if len(rows) != 1:
            return f"{len(rows)} rows, expected 1"
        got = {"ratio": rows[0][1]}
    for key, value in got.items():
        want, tol = pinned[key]
        if not abs(value - want) <= tol:
            return f"{key} = {value!r}, README pins {want} +- {tol}"
    return None


def _check_oracle(expect: dict, text: str) -> str | None:
    report = json.loads(text)
    if report["n_grid"] != expect["n_grid"] or report["g_grid"] != expect["g_grid"]:
        return "report grids differ from the requested grids"
    checks = report["checks"]
    if len(checks) != ORACLE_CHECK_COUNT:
        return f"{len(checks)} checks, expected {ORACLE_CHECK_COUNT}"
    for check in checks:
        passed = float(check["max_rel_deviation"]) <= float(check["tolerance"])
        if check["passed"] is not passed or not check["as_expected"]:
            return f"check {check['name']} is not as expected"
        if check["as_expected"] is not (passed == (check["expected"] == "pass")):
            return f"check {check['name']} has an inconsistent verdict"
    if report["all_expected_pass_ok"] is not True:
        return "all_expected_pass_ok is not true"
    return None


def _check_phi(expect: dict, text: str) -> str | None:
    document = json.loads(text)
    if document["converged"] is not True:
        return "estimate did not converge"
    phi, stderr = float(document["phi"]), float(document["stderr"])
    if not (math.isfinite(stderr) and stderr > 0):
        return f"stderr {stderr!r} is not finite and positive"
    if not abs(phi - expect["phi"]) <= 5.0 * stderr:
        return f"phi {phi!r} is {abs(phi - expect['phi']) / stderr:.1f} stderr from {expect['phi']!r}"
    return None


def check_output(job, text: str) -> str | None:
    if "pinned" in job.expect:
        return _check_pinned(job.expect, text)
    if job.workload == "figures":
        if job.expect["command"] == "fit":
            return _check_fit(job.expect, text)
        return _check_figure(job.expect, text)
    if job.workload == "oracle":
        return _check_oracle(job.expect, text)
    return _check_phi(job.expect, text)


def check_job(job, returncode: int) -> str | None:
    """Why the finished job failed, or ``None`` if its output is right."""
    if returncode != 0:
        return f"exit code {returncode}"
    try:
        text = job.out.read_text()
    except OSError:
        return "no output written"
    if not text:
        return "empty output"
    try:
        return check_output(job, text)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {exc!r}"
