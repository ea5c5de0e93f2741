import json
import os
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import opahbt.analysis
from opahbt.analysis import _BLOCK_ROWS, RatioTable, Spacing, SweepSpec, sweep_ratios
from opahbt.cli import _write_output, build_parser, format_float, main

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


def _reference_format_float(value):
    # format_float as it read when the CSV writer formatted np.float64 values.
    text = f"{value:.15g}"
    if not any(ch in text for ch in ".eE") and text not in ("nan", "inf", "-inf"):
        text += ".0"
    return text


def _reference_payload(fmt, n_bar, values):
    """The figure writers as they were: numpy scalars through format_float or json."""
    if fmt == "csv":
        lines = ["n_bar,ratio"]
        lines += [f"{_reference_format_float(n)},{_reference_format_float(v)}"
                  for n, v in zip(n_bar, values)]
        return "\n".join(lines) + "\n"
    rows = [{"n_bar": float(n), "ratio": float(v)} for n, v in zip(n_bar, values)]
    return json.dumps(rows, indent=2) + "\n"


# Either side of one block, and two whole blocks plus a row.
BLOCK_SIZES = [_BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 1]


@pytest.mark.parametrize("points", [1, 7, 200, *BLOCK_SIZES, 20_000])
@pytest.mark.parametrize("spacing", ["log", "linear"])
@pytest.mark.parametrize("m_bar", [None, 3.7])
def test_figure_writers_match_the_reference_writers(capsys, points, spacing, m_bar):
    n_min, n_max = (1.3, 1.3) if points == 1 else (0.07, 41.0)
    spec = SweepSpec(g=2.3, n_min=n_min, n_max=n_max, points=points,
                     spacing=Spacing(spacing), equal_sources=m_bar is None, m_bar=m_bar)
    table = sweep_ratios(spec)
    args = ["--g", "2.3", "--n-min", repr(n_min), "--n-max", repr(n_max),
            "--points", str(points), "--spacing", spacing]
    if m_bar is not None:
        args += ["--m-bar", repr(m_bar)]
    for command, column in (("fig4", table.signal_ratio), ("fig5", table.snr_ratio)):
        for fmt in ("csv", "json"):
            assert run_cli([command, *args, "--format", fmt]) == 0
            assert capsys.readouterr().out == _reference_payload(fmt, table.n_bar, column)


EDGE_VALUES = [
    10.0, 123456789012345.0, 999999999999999.0, 1e15, 0.0, 1.0, 0.1, 2.0 / 3.0,
    1e300, 1.2345678901234567e300, 1.7976931348623157e308,
    1e-300, 2.2250738585072014e-308, 1.5e-320, 5e-324,
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_figure_writers_match_the_reference_writers_on_edge_values(monkeypatch, capsys, fmt):
    # Integer-looking .15g text, values near 1e+-300 and subnormals, in
    # both columns; the sweep is replaced, since no grid yields them all.
    values = np.array(EDGE_VALUES)

    def sweep(spec, ratios):
        return RatioTable(values, signal_ratio=values[::-1], snr_ratio=values[::-1])

    monkeypatch.setattr("opahbt.analysis.sweep_ratios", sweep)
    for command in ("fig4", "fig5"):
        assert run_cli([command, "--format", fmt]) == 0
        assert capsys.readouterr().out == _reference_payload(fmt, values, values[::-1])
    for value in [*EDGE_VALUES, -2.0, math.nan, math.inf, -math.inf]:
        assert format_float(value) == _reference_format_float(np.float64(value))


@pytest.mark.parametrize(
    "command, unused", [("fig4", "snr_ratio"), ("fig5", "signal_ratio"), ("fit", "signal_ratio")]
)
def test_each_figure_command_evaluates_only_the_law_it_writes(monkeypatch, capsys, command, unused):
    def fail(*args):
        raise AssertionError(f"{command} evaluated {unused}")

    monkeypatch.setattr(f"opahbt.hbt.{unused}", fail)
    assert run_cli([command, "--points", "20"]) == 0
    assert capsys.readouterr().out


def test_fig4_writes_the_signal_ratio_where_only_the_snr_overflows(tmp_path):
    # The amplified noise overflows at these flags, so fig5 exits 2; the
    # signal ratio fig4 writes is cosh(10)^4 and stays in range.
    args = ["fig4", "--g", "10", "--n-min", "1e70", "--n-max", "1e70", "--points", "1"]
    result = run_python("-W", "error::RuntimeWarning", "-m", "opahbt", *args)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "n_bar,ratio\n1e+70,1.47115792986051e+16\n"
    assert result.stdout.split(",")[-1] == format_float(math.cosh(10.0) ** 4) + "\n"


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


def test_readme_figure_json_value_is_pinned_to_the_bit(tmp_path):
    target = tmp_path / "fig5.json"
    assert run_cli(["fig5", "--format", "json", "--out", str(target)]) == 0
    assert repr(json.loads(target.read_text())[0]["ratio"]) == "5.296468184878486"


def test_unknown_flag_exits_2_without_output(tmp_path, capsys):
    target = tmp_path / "never.csv"
    code = run_cli(["fig4", "--bogus", "1", "--out", str(target)])
    capsys.readouterr()
    assert code == 2
    assert not target.exists()


_SWEEP_FLAGS = ["--g", "--n-min", "--n-max", "--points", "--spacing", "--m-bar"]
_SWEEP_DEFAULTS = {"g": 2.0, "n_min": 0.15, "n_max": 20.0, "points": 200, "spacing": "log",
                   "m_bar": None, "out": "-"}
_FIGURE_DEFAULTS = {**_SWEEP_DEFAULTS, "format": "csv"}


@pytest.mark.parametrize(
    "argv, options, defaults",
    [
        (["fig4"], ["-h", *_SWEEP_FLAGS, "--out", "--format"], _FIGURE_DEFAULTS),
        (["fig5"], ["-h", *_SWEEP_FLAGS, "--out", "--format"], _FIGURE_DEFAULTS),
        (["fit"], ["-h", *_SWEEP_FLAGS, "--out"], _SWEEP_DEFAULTS),
        (["oracle-check"], ["-h", "--n-grid", "--g-grid", "--g-noise", "--out"],
         {"n_grid": None, "g_grid": None, "g_noise": 2.0, "out": "-"}),
        (["estimate-phi", "scan.csv", "--k", "1"], ["scan", "-h", "--k", "--seed", "--amplitude",
                                                    "--out"],
         {"scan": "scan.csv", "k": 1.0, "seed": 0, "amplitude": None, "out": "-"}),
    ],
    ids=["fig4", "fig5", "fit", "oracle-check", "estimate-phi"],
)
def test_each_command_keeps_its_options_and_defaults(capsys, argv, options, defaults):
    assert run_cli([argv[0], "--help"]) == 0
    assert re.findall(r"^  (-?-?[\w-]+)", capsys.readouterr().out, re.M) == options
    parsed = vars(build_parser().parse_args(argv))
    for key in ("run", "column"):
        parsed.pop(key, None)
    assert parsed == {"command": argv[0], **defaults}


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


def test_a_failing_chunk_source_leaves_neither_target_nor_temp_file(tmp_path):
    target = tmp_path / "fig.csv"

    def chunks():
        yield "n_bar,ratio\n"
        raise RuntimeError("chunk source failed")

    with pytest.raises(RuntimeError, match="chunk source failed"):
        _write_output(str(target), chunks())
    assert list(tmp_path.iterdir()) == []


def _run_measured(*args, limit=None):
    """Exit code, stderr and max RSS in MB of one CLI run in a fresh process."""
    resource = pytest.importorskip("resource")
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "opahbt", *args],
        env=dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1"),
        preexec_fn=None if limit is None else (
            lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
        ),
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    err = proc.stderr.read()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.stderr.close()
    # ru_maxrss is in KiB on Linux and in bytes on macOS.
    scale = (1 << 20) if sys.platform == "darwin" else (1 << 10)
    return os.waitstatus_to_exitcode(status), err, usage.ru_maxrss / scale


def test_figure_memory_does_not_grow_with_the_output_text(tmp_path):
    # The text of a 1,000,000-point JSON figure is 80 MB; streamed in
    # blocks, the job holds only the grid and its ratio column, 16 MB.
    target = tmp_path / "fig5.json"
    code, err, small = _run_measured("fig5", "--format", "json", "--points", "20",
                                     "--out", str(target))
    assert code == 0, err
    code, err, large = _run_measured("fig5", "--format", "json", "--points", "1000000",
                                     "--out", str(target))
    assert code == 0, err
    assert large - small < 40.0, (small, large)
    with open(target, "rb") as handle:
        assert sum(1 for _ in handle) == 4 * 1_000_000 + 2


def test_out_of_memory_exits_2_without_output_or_traceback(tmp_path):
    # The 200,000,000-point grid alone needs 1.5 GiB, so the job fails at
    # once under a 1 GiB address-space limit.
    target = tmp_path / "fig5.csv"
    code, err, _ = _run_measured("fig5", "--points", "200000000", "--out", str(target),
                                 limit=1 << 30)
    assert code == 2, err
    assert "Traceback" not in err
    assert err.startswith("opahbt: out of memory") and err.endswith("; lower --points\n")
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("spacing", ["log", "linear"])
@pytest.mark.parametrize("points", [10**20, 2**63 - 1, 2**60 - 1])
def test_unsizable_point_count_exits_2_in_one_line(tmp_path, points, spacing):
    # numpy cannot size these grids at all: a ValueError or an IndexError,
    # not a MemoryError, unless the spec rejects the count first.
    target = tmp_path / "fig5.csv"
    code, err, _ = _run_measured("fig5", "--points", str(points), "--spacing", spacing,
                                 "--out", str(target), limit=1 << 30)
    assert code == 2, err
    assert "Traceback" not in err
    assert err.startswith("opahbt: points must be an integer in [1, ")
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


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


def test_fit_sweeps_each_window_once(tmp_path, monkeypatch):
    # The requested range is the first sensitivity window, so its one sweep
    # gives the main fit too: 5 sweeps at the defaults.
    calls = []
    sweep = opahbt.analysis.sweep_ratios

    def counted(spec, ratios):
        calls.append((spec.n_min, spec.n_max))
        return sweep(spec, ratios)

    monkeypatch.setattr(opahbt.analysis, "sweep_ratios", counted)
    target = tmp_path / "fit.json"
    assert run_cli(["fit", "--out", str(target)]) == 0
    assert len(calls) == 5 and len(set(calls)) == 5
    document = json.loads(target.read_text())
    first = document["sensitivity"][0]
    assert (first["n_min"], first["n_max"]) == (0.15, 20.0)
    assert all(document[key] == first[key] for key in ("A", "B", "rss"))


def test_fit_high_mean_window_hits_asymptote(tmp_path):
    target = tmp_path / "fit.json"
    assert run_cli(
        ["fit", "--n-min", "100", "--n-max", "1000", "--out", str(target)]
    ) == 0
    document = json.loads(target.read_text())
    assert document["A"] == pytest.approx(1.083, abs=0.005)


def test_fit_that_overflows_exits_2_without_output_or_warnings(tmp_path):
    # At a companion mean of 1e-160 the SNR ratio is near 1e160, and the
    # residual sum of squares of every window overflows.
    target = tmp_path / "fit.json"
    result = run_python("-W", "error::RuntimeWarning", "-m", "opahbt", "fit",
                        "--m-bar", "1e-160", "--out", str(target))
    assert result.returncode == 2, result.stderr
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.startswith("opahbt: the fit over n_bar in [0.15, 20.0] overflows")
    assert result.stderr.endswith("rss = inf)\n")
    assert not target.exists()


def test_json_output_never_holds_a_non_finite_number(tmp_path, monkeypatch, capsys):
    report = {"all_expected_pass_ok": True, "deviation": math.nan}
    monkeypatch.setattr("opahbt.oracle_checks.run_oracle_checks", lambda **kwargs: report)
    target = tmp_path / "report.json"
    assert run_cli(["oracle-check", "--out", str(target)]) == 2
    assert capsys.readouterr().err.startswith("opahbt: the output holds a non-finite number")
    assert not target.exists()


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


def test_oracle_check_computes_each_correlator_once(tmp_path, monkeypatch):
    # The two correlator checks share the normal-ordered correlators: 9 pairs
    # on the default grid, plus the 8 literal ones the ordering gap needs.
    import opahbt.oracle_checks as oracle_checks

    calls = []
    correlator = oracle_checks.hbt_two_mode_correlation

    def counted(n, m, delta, ordering):
        calls.append((n, m, ordering))
        return correlator(n, m, delta, ordering)

    monkeypatch.setattr(oracle_checks, "hbt_two_mode_correlation", counted)
    assert run_cli(["oracle-check", "--out", str(tmp_path / "r.json")]) == 0
    assert len(calls) == 17 and len(set(calls)) == 17


def test_oracle_check_confirms_the_misprint_at_tiny_means(tmp_path):
    # At a mean of 1e-20 the 5*N^3 gap is 5e-60, far below the rounding
    # noise of the summed third moment; it still matches to 1e-6 absolute.
    target = tmp_path / "r.json"
    args = ["--n-grid", "0,1e-20,1e-300", "--g-grid", "0,1e-9,0.5", "--out", str(target)]
    assert run_cli(["oracle-check", *args]) == 0
    checks = {check["name"]: check for check in json.loads(target.read_text())["checks"]}
    assert checks["published-third-moment"]["note"].endswith(
        "; deviation matches 5*N^3 on the grid"
    )
    assert checks["ordering-gap"]["note"].endswith(", confirmed on the grid")


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


@pytest.mark.parametrize("gain", ["1e-20", "1e-200"])
def test_oracle_check_passes_at_a_tiny_gain(tmp_path, gain):
    # The squeezer keeps the first-order term J_1(g rho) = g rho / 2 however
    # small g is, so the squeezed mean sinh(g)^2 stays right.
    target = tmp_path / "r.json"
    result = run_python(
        "-W", "error::RuntimeWarning", "-m", "opahbt", "oracle-check",
        "--g-grid", f"0,{gain}", "--out", str(target),
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(target.read_text())["all_expected_pass_ok"] is True


@pytest.mark.parametrize("gain", ["1e-7", "0.01"])
def test_oracle_check_swap_expectation_follows_its_predicted_gap(tmp_path, gain):
    # At these gains the predicted swap asymmetry 4 (n - m) mu^2 nu^4 is
    # below the tolerance relative to the noise law (1e-30 and 1.1e-10), so
    # the swap check is expected to pass, and does.
    target = tmp_path / "r.json"
    assert run_cli(["oracle-check", "--g-noise", gain, "--out", str(target)]) == 0
    checks = {check["name"]: check for check in json.loads(target.read_text())["checks"]}
    assert all(check["as_expected"] for check in checks.values())
    swap = checks["amplified-noise-swap-symmetry"]
    assert swap["expected"] == "pass" and swap["passed"]


_LAYERS = ["numpy", "opahbt.analysis", "opahbt.fock", "opahbt.oracle_checks", "opahbt.wick"]


@pytest.mark.parametrize(
    "args, code, loaded",
    [
        (["oracle-check", "--n-grid", "0,0.5", "--g-grid", "0,0.25"], 0,
         ["numpy", "opahbt.fock", "opahbt.oracle_checks", "opahbt.wick"]),
        (["fig4"], 0, ["numpy", "opahbt.analysis"]),
        (["fig5"], 0, ["numpy", "opahbt.analysis"]),
        (["fit"], 0, ["numpy", "opahbt.analysis"]),
        (["--help"], 0, []),
        (["fig5", "--points", "x"], 2, []),
    ],
    ids=["oracle-check", "fig4", "fig5", "fit", "help", "usage-error"],
)
def test_each_command_loads_only_the_layers_it_runs(tmp_path, args, code, loaded):
    # main sets OpenBLAS's thread timeout only while numpy is unloaded, so
    # its default rests on `import opahbt.cli` loading no numpy.
    script = (
        "import sys; from opahbt.cli import main; "
        f"code = main({args + ['--out', str(tmp_path / 'out')]!r}); "
        f"print(code, [m for m in {_LAYERS!r} if m in sys.modules])"
    )
    result = run_python("-c", script)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == f"{code} {loaded}"


# Installed as sitecustomize, so it runs before the command in every launch
# form: it records OPENBLAS_THREAD_TIMEOUT as numpy starts to load, checks
# that importing the CLI leaves the environment alone, and prints both at exit.
_TIMEOUT_PROBE = """
import atexit, os, sys
seen = []
class _Probe:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append(os.environ.get("OPENBLAS_THREAD_TIMEOUT"))
sys.meta_path.insert(0, _Probe())
before = dict(os.environ)
import opahbt.cli
untouched = dict(os.environ) == before and "numpy" not in sys.modules
atexit.register(lambda: print("probe", untouched, seen))
"""


@pytest.mark.parametrize(
    "launch",
    [["-c", "import sys; from opahbt.cli import main; sys.exit(main(sys.argv[1:]))"],
     ["-m", "opahbt"]],
    ids=["main", "python-m"],
)
@pytest.mark.parametrize("user_value, seen", [(None, "4"), ("28", "28")], ids=["unset", "user"])
def test_cli_sets_the_blas_thread_timeout_before_numpy_loads(tmp_path, launch, user_value, seen):
    (tmp_path / "sitecustomize.py").write_text(_TIMEOUT_PROBE)
    path = os.pathsep.join(filter(None, [str(tmp_path), SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    env.pop("OPENBLAS_THREAD_TIMEOUT", None)
    if user_value is not None:
        env["OPENBLAS_THREAD_TIMEOUT"] = user_value
    result = subprocess.run(
        [sys.executable, *launch, "fig5", "--out", str(tmp_path / "fig5.csv")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [f"probe True [{seen!r}]"]


def test_main_after_numpy_is_imported_leaves_the_environment_alone(monkeypatch, capsys):
    monkeypatch.delenv("OPENBLAS_THREAD_TIMEOUT", raising=False)
    environment = dict(os.environ)
    assert "numpy" in sys.modules
    assert run_cli(["fig4", "--n-min", "1", "--n-max", "1", "--points", "1"]) == 0
    assert dict(os.environ) == environment


def test_estimate_phi_loads_no_ratio_law(tmp_path):
    # The sweep imports the laws it runs, so estimate-phi, which only
    # imports analysis, leaves them unloaded while fig5 still loads them.
    scan = tmp_path / "scan.csv"
    _write_scan(scan, 1e-8)
    laws = ["opahbt.hbt", "opahbt.opa", "opahbt.photon_stats"]
    for args, loaded in [(["estimate-phi", str(scan), "--k", str(K_BLUE)], []), (["fig5"], laws)]:
        script = (
            "import sys; from opahbt.cli import main; "
            f"code = main({args + ['--out', str(tmp_path / 'out')]!r}); "
            f"print(code, [m for m in {laws!r} if m in sys.modules])"
        )
        result = run_python("-c", script)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == f"0 {loaded}"


def test_module_entry_point_help_loads_no_numpy():
    # The cases above call cli.main in process; this runs the whole
    # `python -m opahbt` path, __main__ included.  -X importtime names on
    # stderr every module the process imports.
    result = run_python("-X", "importtime", "-m", "opahbt", "--help")
    assert result.returncode == 0, result.stderr
    loaded = {
        line.rsplit("|", 1)[-1].strip()
        for line in result.stderr.splitlines()
        if line.startswith("import time:")
    }
    assert "opahbt.cli" in loaded
    assert "numpy" not in loaded


def _write_scan(path, phi, noise=0.0, seed=0, points=64, amplitude=0.9):
    r = np.linspace(0.0, 40.0, points)
    y = amplitude * np.cos(K_BLUE * phi * r)
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
    assert "seed" not in document


def test_estimate_phi_large_scan_runs_in_a_bounded_address_space(tmp_path):
    # The periodogram of a 2048-point scan has 32768 x 2048 complex values,
    # 1 GiB at once; evaluated in blocks of rows it fits the benchmark's
    # 1 GiB address-space limit with room to spare.
    resource = pytest.importorskip("resource")
    limit = 1 << 30
    scan, target = tmp_path / "scan.csv", tmp_path / "phi.json"
    _write_scan(scan, 1e-7, noise=0.045, seed=7, points=2048)
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "opahbt", "estimate-phi", str(scan), "--k", str(K_BLUE),
         "--out", str(target)],
        env=dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1"),
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    document = json.loads(target.read_text())
    assert document["converged"] is True
    assert abs(document["phi"] - 1e-7) <= 5.0 * document["stderr"]


def test_estimate_phi_deterministic_output(tmp_path):
    # The seed is accepted and ignored: it changes no byte of the output.
    scan = tmp_path / "scan.csv"
    _write_scan(scan, 1e-8, noise=0.05, seed=5)
    first, second, third = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "c.json"
    for target, seed in ((first, "7"), (second, "7"), (third, "0")):
        assert run_cli(
            ["estimate-phi", str(scan), "--k", str(K_BLUE), "--seed", seed,
             "--out", str(target)]
        ) == 0
    assert first.read_bytes() == second.read_bytes() == third.read_bytes()
    assert list(json.loads(first.read_text())) == [
        "phi", "stderr", "converged", "iterations", "amplitude"
    ]


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


@pytest.mark.parametrize(
    "prelude, header",
    [("# scan of 2026-01-01\n", "r0,correlation"), ("\n", "r0,correlation"),
     ("# a\n\n# b\n", "r0,correlation"), ("", "0.0,correlation")],
)
def test_estimate_phi_header_follows_comments_and_blank_lines(tmp_path, prelude, header):
    # The header is the first line that is neither blank nor a comment, and
    # a header with a numeric first column adds nothing to either column.
    scan, plain = tmp_path / "scan.csv", tmp_path / "plain.csv"
    _write_scan(plain, 1e-8)
    scan.write_text(prelude + plain.read_text().replace("r0,correlation", header, 1))
    for path in (scan, plain):
        assert run_cli(
            ["estimate-phi", str(path), "--k", str(K_BLUE), "--out", str(path) + ".json"]
        ) == 0
    assert Path(f"{scan}.json").read_bytes() == Path(f"{plain}.json").read_bytes()


def test_estimate_phi_takes_only_one_header(tmp_path, capsys):
    scan = tmp_path / "scan.csv"
    scan.write_text("# comment\nr0,correlation\nr0,correlation\n1.0,0.5\n")
    assert run_cli(["estimate-phi", str(scan), "--k", str(K_BLUE)]) == 2
    assert "line 3: non-numeric value" in capsys.readouterr().err


def test_estimate_phi_nonconvergence_exits_5(tmp_path, monkeypatch, capsys):
    scan = tmp_path / "scan.csv"
    _write_scan(scan, 1e-8)

    stuck = opahbt.analysis.PhiEstimate(
        phi=1e-8, stderr=1e-9, iterations=200, converged=False, amplitude=0.9
    )
    monkeypatch.setattr("opahbt.analysis.estimate_phi", lambda *a, **kw: stuck)
    code = run_cli(["estimate-phi", str(scan), "--k", str(K_BLUE)])
    document = json.loads(capsys.readouterr().out)
    assert code == 5
    assert document["converged"] is False


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--k", "1e-310"], "opahbt: phi = |omega| / k overflows the float range at k = 1e-310"),
        (["--k", str(K_BLUE), "--amplitude", "1e200"], "opahbt: the fit overflows the float range"),
    ],
    ids=["phi", "fit"],
)
def test_estimate_phi_non_finite_result_exits_2_without_output_or_warnings(tmp_path, flags, message):
    scan, target = tmp_path / "scan.csv", tmp_path / "phi.json"
    _write_scan(scan, 1e-8)
    result = run_python("-W", "error::RuntimeWarning", "-m", "opahbt", "estimate-phi", str(scan),
                        *flags, "--out", str(target))
    assert result.returncode == 2, result.stderr
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.startswith(message)
    assert not target.exists()


@pytest.mark.parametrize(
    "amplitude, code, message",
    [
        (1e307, 0, None),
        (0.0, 2, "opahbt: scan spans 0.125 fringes at the detected frequency"),
    ],
    ids=["near-limit", "all-zero"],
)
def test_estimate_phi_scan_scale_exits_2_without_warnings(tmp_path, amplitude, code, message):
    # The periodogram and the fit read the scan scaled by a power of two to
    # unit magnitude, so a scan near the float limit is fitted like any
    # other, and an all-zero scan still peaks at the lowest frequency.
    scan, target = tmp_path / "scan.csv", tmp_path / "phi.json"
    _write_scan(scan, 1e-8, amplitude=amplitude)
    result = run_python("-W", "error::RuntimeWarning", "-m", "opahbt", "estimate-phi", str(scan),
                        "--k", str(K_BLUE), "--out", str(target))
    assert result.returncode == code, result.stderr
    if code:
        assert len(result.stderr.splitlines()) == 1
        assert result.stderr.startswith(message)
        assert not target.exists()
    else:
        assert result.stderr == ""
        document = json.loads(target.read_text())
        assert document["converged"] is True
        assert abs(document["phi"] - 1e-8) <= 1e-9 * 1e-8
        assert document["amplitude"] == pytest.approx(amplitude, rel=1e-9)


def test_estimate_phi_rejects_a_negative_seed_before_fitting(tmp_path, capsys):
    # The estimate ignores the seed, so only an up-front check sees it; the
    # check comes before the scan is read, so it is reported first.
    scan, missing = tmp_path / "scan.csv", tmp_path / "missing.csv"
    _write_scan(scan, 1e-8)
    target = tmp_path / "phi.json"
    for path in (scan, missing):
        code = run_cli(
            ["estimate-phi", str(path), "--k", str(K_BLUE), "--seed", "-1", "--out", str(target)]
        )
        assert code == 2
        assert capsys.readouterr().err == "opahbt: seed must be an integer >= 0, got -1\n"
        assert not target.exists()


def _write_four_point_scan(path):
    path.write_text("r0,correlation\n0,1\n1,0.5\n2,-0.4\n3,-1\n")


@pytest.mark.parametrize(
    "points, amplitude, code, message",
    [
        (64, "1e-170", 2, "opahbt: the fit's Jacobian is singular"),
        (64, "1e-300", 2, "opahbt: the fit's Jacobian is singular"),
        (64, "5e-324", 2, "opahbt: the fit's Jacobian is singular"),
        (4, "5e-324", 2, "opahbt: the fit's Jacobian is singular"),
        (64, "1e-160", 2, "opahbt: the fit overflows the float range"),
        (64, "1e-150", 5, None),
    ],
)
def test_estimate_phi_known_amplitude_far_below_the_scan(tmp_path, points, amplitude, code, message):
    # The fit's curvature underflows to 0 on the first four: no traceback and
    # no Infinity in a file, but one line and exit 2.  The last ends once a
    # step leaves omega unchanged, short of convergence, with a finite stderr.
    scan, target = tmp_path / "scan.csv", tmp_path / "phi.json"
    if points == 4:
        _write_four_point_scan(scan)
    else:
        _write_scan(scan, 1e-8)
    k = "1" if points == 4 else str(K_BLUE)
    result = run_python("-W", "error::RuntimeWarning", "-m", "opahbt", "estimate-phi", str(scan),
                        "--k", k, "--amplitude", amplitude, "--out", str(target))
    assert result.returncode == code, result.stderr
    if message:
        assert len(result.stderr.splitlines()) == 1
        assert result.stderr.startswith(message)
        assert not target.exists()
    else:
        assert result.stderr == ""
        document = json.loads(target.read_text(), parse_constant=pytest.fail)
        assert document["converged"] is False and document["iterations"] == 49


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
        # numpy's geomspace overflows in its power step at the largest float.
        ["fig5", "--n-min", "1.7976931348623157e308", "--n-max", "1.7976931348623157e308",
         "--points", "1"],
        ["fig5", "--n-min", "1e308", "--n-max", "1.7976931348623157e308", "--points", "2"],
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
squeezed = squeeze_populations(thermal_populations(0.5, 40), 0.5)
assert np.isfinite(squeezed).all() and (squeezed >= 0).all()
assert abs(squeezed.sum() - 1.0) <= 1e-10
m1, _, _, _ = reduced_moments(squeezed)
print(f"{{m1:.6f}}")
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
        ["--n-grid", "0,0.5", "--g-grid", "0", "--g-noise", "200"],
    ],
)
def test_oracle_check_overflow_exits_2_without_output(tmp_path, capsys, args):
    target = tmp_path / "report.json"
    code = run_cli(["oracle-check", *args, "--out", str(target)])
    err = capsys.readouterr().err
    assert code == 2
    assert "overflow" in err
    assert not target.exists()


@pytest.mark.parametrize("n_grid", ["0", "0,0"])
def test_oracle_check_all_zero_n_grid_exits_2_without_output(tmp_path, capsys, n_grid):
    # With every mean zero the ordering-gap check has no pair to compare;
    # an empty check is an input error, never a pass.
    target = tmp_path / "report.json"
    code = run_cli(["oracle-check", "--n-grid", n_grid, "--out", str(target)])
    err = capsys.readouterr().err
    assert code == 2
    assert "--n-grid" in err and "ordering-gap" in err
    assert not target.exists()
