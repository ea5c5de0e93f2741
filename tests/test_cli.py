import json
import os
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import opahbt.analysis
from opahbt.cli import format_float, main

K_BLUE = 1.42e7
SRC = str(Path(opahbt.__file__).resolve().parents[1])


def run_cli(args):
    return main(list(args))


def run_python(*args):
    """Run a fresh interpreter that imports this checkout of the package."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120,
    )


def test_format_float_examples():
    assert format_float(1.0) == "1.0"
    assert format_float(10.0) == "10.0"
    assert format_float(239.3062983932201) == "239.30629839322"
    assert format_float(1.5e-8) == "1.5e-08"


def test_fig5_single_point_row(tmp_path, capsys):
    code = run_cli(["fig5", "--g", "2", "--n-min", "1", "--n-max", "1", "--points", "1"])
    out = capsys.readouterr().out
    assert code == 0
    header, row = out.strip().split("\n")
    assert header == "n_bar,ratio"
    assert row.startswith("1.0,1.660")


def test_fig4_single_point_row(capsys):
    code = run_cli(
        ["fig4", "--g", "2", "--n-min", "10", "--n-max", "10", "--points", "1"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[1].startswith("10.0,239.3")


def test_fig4_zero_gain_all_ones(tmp_path):
    target = tmp_path / "fig4.csv"
    code = run_cli(["fig4", "--g", "0", "--points", "20", "--out", str(target)])
    assert code == 0
    rows = target.read_text().splitlines()
    assert rows[0] == "n_bar,ratio"
    assert len(rows) == 21
    assert all(line.endswith(",1.0") for line in rows[1:])


def test_figure_output_is_byte_identical_across_runs(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    for target in (first, second):
        assert run_cli(["fig5", "--points", "50", "--out", str(target)]) == 0
    assert first.read_bytes() == second.read_bytes()
    assert b"\r" not in first.read_bytes()


def test_figure_json_format(tmp_path):
    target = tmp_path / "fig.json"
    code = run_cli(
        ["fig5", "--n-min", "1", "--n-max", "1", "--points", "1", "--format", "json",
         "--out", str(target)]
    )
    assert code == 0
    rows = json.loads(target.read_text())
    assert rows[0]["n_bar"] == 1.0
    assert rows[0]["ratio"] == pytest.approx(1.660, abs=5e-3)


def test_unknown_flag_exits_2_without_output(tmp_path, capsys):
    target = tmp_path / "never.csv"
    code = run_cli(["fig4", "--bogus", "1", "--out", str(target)])
    capsys.readouterr()
    assert code == 2
    assert not target.exists()


def test_device_output_is_written_in_place(capsys):
    # Non-regular targets must not go through the rename step.
    assert run_cli(["fig4", "--points", "3", "--out", "/dev/null"]) == 0
    assert os.path.exists("/dev/null") and not os.path.isfile("/dev/null")


def test_unwritable_output_exits_2(tmp_path, capsys):
    # A missing parent directory fails regardless of privileges.
    target = tmp_path / "no" / "such" / "dir" / "x.csv"
    code = run_cli(["fig4", "--points", "3", "--out", str(target)])
    err = capsys.readouterr().err
    assert code == 2
    assert "cannot write" in err
    assert not target.exists()


def test_fit_defaults_and_sensitivity(tmp_path):
    target = tmp_path / "fit.json"
    assert run_cli(["fit", "--out", str(target)]) == 0
    document = json.loads(target.read_text())
    assert document["A"] == pytest.approx(1.082, abs=0.02)
    assert document["B"] == pytest.approx(0.584, abs=0.06)
    assert document["n_min"] == 0.15 and document["n_max"] == 20.0
    assert document["spacing"] == "log" and document["g"] == 2.0
    assert len(document["sensitivity"]) >= 3
    spreads = [entry["A"] for entry in document["sensitivity"]]
    assert max(spreads) - min(spreads) < 0.05


def test_fit_high_mean_window_hits_asymptote(tmp_path):
    target = tmp_path / "fit.json"
    assert run_cli(
        ["fit", "--n-min", "100", "--n-max", "1000", "--out", str(target)]
    ) == 0
    document = json.loads(target.read_text())
    assert document["A"] == pytest.approx(1.083, abs=0.005)


def test_fit_degenerate_grid_exits_3(tmp_path, capsys):
    target = tmp_path / "fit.json"
    code = run_cli(
        ["fit", "--n-min", "5", "--n-max", "5", "--points", "10", "--out", str(target)]
    )
    capsys.readouterr()
    assert code == 3
    assert not target.exists()


def test_oracle_check_report_and_exit_code(tmp_path):
    target = tmp_path / "report.json"
    code = run_cli(["oracle-check", "--out", str(target)])
    assert code == 0
    report = json.loads(target.read_text())
    assert report["all_expected_pass_ok"] is True
    assert report["n_grid"] == [0.0, 0.5, 1.0]
    assert report["g_grid"] == [0.0, 0.25, 0.5, 1.0]
    by_name = {check["name"]: check for check in report["checks"]}
    misprint = by_name["published-third-moment"]
    assert misprint["expected"] == "fail" and not misprint["passed"]
    assert "5*N^3" in misprint["note"]
    zero_gain = by_name["amplified-noise-zero-gain-reduction"]
    assert zero_gain["expected"] == "fail" and not zero_gain["passed"]
    substitution = by_name["amplified-noise-substitution"]
    assert substitution["expected"] == "fail" and not substitution["passed"]


def test_oracle_check_reaches_the_papers_gain(tmp_path):
    target = tmp_path / "r.json"
    code = run_cli(["oracle-check", "--g-grid", "0,1,2", "--out", str(target)])
    report = json.loads(target.read_text())
    assert code == 0
    assert report["all_expected_pass_ok"] is True
    by_name = {check["name"]: check for check in report["checks"]}
    assert by_name["squeeze-moment-propagation"]["passed"]


def test_oracle_check_infeasible_gain_exits_4(tmp_path, capsys):
    # g = 3 at n = 1 needs dim of about 5500, over the cap.
    code = run_cli(
        ["oracle-check", "--g-grid", "0,3", "--out", str(tmp_path / "r.json")]
    )
    err = capsys.readouterr().err
    assert code == 4
    assert "truncation" in err.lower()


def test_oracle_check_gain_beyond_double_resolution_exits_4(tmp_path):
    # At g = 20 the squeezed mean is about 6e16, where mean/(1+mean) rounds to 1.
    target = tmp_path / "r.json"
    result = run_python("-m", "opahbt", "oracle-check", "--g-grid", "0,20", "--out", str(target))
    assert result.returncode == 4, result.stderr
    assert "truncation" in result.stderr
    assert "Traceback" not in result.stderr
    assert not target.exists()


def _write_scan(path, phi, noise=0.0, seed=0, points=64):
    r = np.linspace(0.0, 40.0, points)
    y = 0.9 * np.cos(K_BLUE * phi * r)
    if noise:
        y = y + noise * np.random.default_rng(seed).standard_normal(points)
    lines = ["r0,correlation"]
    lines += [f"{float(ri)!r},{float(yi)!r}" for ri, yi in zip(r, y)]
    path.write_text("\n".join(lines) + "\n")


def test_estimate_phi_noiseless(tmp_path):
    scan = tmp_path / "scan.csv"
    _write_scan(scan, 1e-8)
    target = tmp_path / "phi.json"
    code = run_cli(
        ["estimate-phi", str(scan), "--k", str(K_BLUE), "--out", str(target)]
    )
    assert code == 0
    document = json.loads(target.read_text())
    assert document["converged"] is True
    assert document["phi"] == pytest.approx(1e-8, rel=1e-3)
    assert document["seed"] == 0


def test_estimate_phi_deterministic_output(tmp_path):
    scan = tmp_path / "scan.csv"
    _write_scan(scan, 1e-8, noise=0.05, seed=5)
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    for target in (first, second):
        assert run_cli(
            ["estimate-phi", str(scan), "--k", str(K_BLUE), "--seed", "7",
             "--out", str(target)]
        ) == 0
    assert first.read_bytes() == second.read_bytes()


def test_estimate_phi_sub_quarter_fringe_exits_2(tmp_path, capsys):
    scan = tmp_path / "scan.csv"
    _write_scan(scan, 1e-10)
    code = run_cli(["estimate-phi", str(scan), "--k", str(K_BLUE)])
    err = capsys.readouterr().err
    assert code == 2
    assert "fringe" in err


def test_estimate_phi_malformed_csv_names_line(tmp_path, capsys):
    scan = tmp_path / "scan.csv"
    scan.write_text("r0,correlation\n1.0,0.5\n2.0,oops\n")
    code = run_cli(["estimate-phi", str(scan), "--k", str(K_BLUE)])
    err = capsys.readouterr().err
    assert code == 2
    assert "line 3" in err


def test_estimate_phi_nonconvergence_exits_5(tmp_path, monkeypatch, capsys):
    scan = tmp_path / "scan.csv"
    _write_scan(scan, 1e-8)

    stuck = opahbt.analysis.PhiEstimate(
        phi=1e-8, stderr=math.inf, iterations=200, converged=False, amplitude=0.9
    )
    monkeypatch.setattr("opahbt.cli.estimate_phi", lambda *a, **kw: stuck)
    code = run_cli(["estimate-phi", str(scan), "--k", str(K_BLUE)])
    document = json.loads(capsys.readouterr().out)
    assert code == 5
    assert document["converged"] is False


@pytest.mark.parametrize("amplitude", ["nan", "inf", "0", "-1"])
def test_estimate_phi_rejects_an_amplitude_that_is_not_positive(tmp_path, amplitude):
    # The fringe amplitude 2nm is > 0: any other value is an input error,
    # not a fit to run.
    scan = tmp_path / "scan.csv"
    _write_scan(scan, 1e-8)
    target = tmp_path / "phi.json"
    result = run_python(
        "-m", "opahbt", "estimate-phi", str(scan), "--k", str(K_BLUE),
        f"--amplitude={amplitude}", "--out", str(target),
    )
    assert result.returncode == 2, result.stderr
    assert not target.exists()
    assert "Warning" not in result.stderr
    assert "amplitude" in result.stderr


@pytest.mark.parametrize(
    "args",
    [
        ["fig5", "--n-min", "1e80", "--n-max", "1e80", "--points", "1"],
        ["fig5", "--g", "400"],
        ["fig5", "--g", "200"],
        # The amplified noise overflows while the ratio's other terms stay finite.
        ["fig5", "--g", "10", "--n-min", "1e70", "--n-max", "1e70", "--points", "1"],
    ],
)
def test_overflowing_sweep_exits_2_without_output_or_warnings(tmp_path, args):
    target = tmp_path / "fig5.csv"
    result = run_python("-m", "opahbt", *args, "--out", str(target))
    assert result.returncode == 2, result.stderr
    assert not target.exists()
    assert "RuntimeWarning" not in result.stderr
    assert "Traceback" not in result.stderr
    assert "overflow" in result.stderr


def test_cli_import_leaves_scipy_unloaded():
    result = run_python(
        "-c",
        "import sys, opahbt.cli; loaded = 'scipy' in sys.modules; import opahbt; "
        "print(loaded, callable(opahbt.two_mode_squeeze), "
        "callable(opahbt.run_oracle_checks))",
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False", "True", "True"]


def test_oracle_checks_import_leaves_scipy_unloaded():
    result = run_python(
        "-c",
        "import sys, opahbt.oracle_checks; "
        "print(any(m.startswith('scipy') for m in sys.modules))",
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False"]


def test_package_runs_without_scipy(tmp_path):
    # A None entry in sys.modules makes every scipy import fail.
    script = f"""
import sys
sys.modules["scipy"] = None
import numpy as np
from opahbt import reduced_moments, squeeze_populations, thermal_populations
from opahbt.cli import main
probs, deficit = thermal_populations(0.5, 40)
squeezed, deficit = squeeze_populations(probs, 0.5, trace_deficit=deficit)
for populations in (squeezed, squeezed.sum(axis=0)):
    assert np.isfinite(populations).all() and (populations >= 0).all()
    assert abs(populations.sum() + deficit - 1.0) <= 1e-10
print(f"{{reduced_moments(squeezed, 0).m1:.6f}}")
sys.exit(
    main(["oracle-check", "--n-grid", "0,0.5", "--g-grid", "0,0.25",
          "--out", {str(tmp_path / "report.json")!r}])
    or main(["fig5", "--out", {str(tmp_path / "fig5.csv")!r}])
)
"""
    result = run_python("-c", script)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == [f"{math.cosh(0.5) ** 2 * 0.5 + math.sinh(0.5) ** 2:.6f}"]
    assert json.loads((tmp_path / "report.json").read_text())["all_expected_pass_ok"]
    assert (tmp_path / "fig5.csv").read_text().startswith("n_bar,ratio\n")


@pytest.mark.parametrize("module", ["opahbt", "opahbt.cli"])
def test_python_dash_m_runs_the_cli(module):
    result = run_python(
        "-m", module, "fig4", "--g", "2", "--n-min", "10", "--n-max", "10", "--points", "1"
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[1].startswith("10.0,239.3")
    assert run_python("-m", module).returncode == 2


def test_estimate_phi_converges_on_a_noisy_scan_that_stalls(tmp_path):
    scan = tmp_path / "scan.csv"
    _write_scan(scan, 1e-8, noise=0.1, seed=120, points=128)
    target = tmp_path / "phi.json"
    code = run_cli(["estimate-phi", str(scan), "--k", str(K_BLUE), "--out", str(target)])
    document = json.loads(target.read_text())
    assert code == 0
    assert document["converged"] is True
    assert abs(document["phi"] - 1e-8) <= 5.0 * document["stderr"]



@pytest.mark.parametrize(
    "args",
    [
        ["--g-grid", "0,100"],
        ["--n-grid", "0", "--g-grid", "0", "--g-noise", "200"],
    ],
)
def test_oracle_check_overflow_exits_2_without_output(tmp_path, capsys, args):
    target = tmp_path / "report.json"
    code = run_cli(["oracle-check", *args, "--out", str(target)])
    err = capsys.readouterr().err
    assert code == 2
    assert "overflow" in err
    assert not target.exists()
