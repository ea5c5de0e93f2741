"""Command-line interface.

Subcommands emit figure data (CSV or JSON), fits and verification reports
(JSON).  All output is deterministic given the flags, and files are
written atomically with LF line endings.
CSV numbers carry 15 significant digits; JSON numbers are Python's
shortest round-trip ``repr`` of the float, up to 17 significant digits.

The figure commands evaluate and write their rows in blocks of 2,048, so
beyond the import a figure job holds about 16 bytes per grid point (the
grid and one ratio column), not its output text.

``fig4``, ``fig5`` and ``fit`` share one parent parser of sweep flags, and
each command's parser names the function that runs it (``set_defaults``).

Exit codes: 0 success, 2 usage or input error (out of memory included),
3 degenerate fit, 4 truncation infeasible, 5 non-convergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import tempfile
from collections.abc import Iterable

from .errors import DegenerateFitError, DomainError, OpaHbtError, TruncationError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DEGENERATE_FIT = 3
EXIT_TRUNCATION = 4
EXIT_NOT_CONVERGED = 5

_SENSITIVITY_RANGES = ((0.15, 20.0), (0.1, 10.0), (0.3, 30.0), (0.5, 50.0), (1.0, 100.0))


def format_float(value: float) -> str:
    """15-significant-digit decimal rendering with an explicit decimal point."""
    text = f"{value:.15g}"
    # 'n' marks nan and inf, which take no decimal point.
    return text if "." in text or "e" in text or "n" in text else text + ".0"


def _write_output(path: str, chunks: Iterable[str]) -> None:
    """Write text chunks to ``path`` atomically, or to stdout for '-'.

    Non-regular targets (pipes, devices) are written directly; the
    temp-file-plus-rename step only applies to regular files, so a chunk
    source that fails part way leaves neither the target nor a temp file.
    """
    if path == "-":
        sys.stdout.writelines(chunks)
        return
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", newline="\n") as handle:
            handle.writelines(chunks)
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".opahbt-", text=True)
    try:
        with os.fdopen(fd, "w", newline="\n") as handle:
            handle.writelines(chunks)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def _json_payload(document: dict | list) -> tuple[str]:
    return (json.dumps(document, indent=2) + "\n",)


def _sweep_spec(args):
    from .analysis import Spacing, SweepSpec

    return SweepSpec(
        g=args.g,
        n_min=args.n_min,
        n_max=args.n_max,
        points=args.points,
        spacing=Spacing(args.spacing),
        equal_sources=args.m_bar is None,
        m_bar=args.m_bar,
    )


def _csv_chunks(blocks):
    yield "n_bar,ratio\n"
    for n_bar, values in blocks:
        yield "".join(map("{},{}\n".format, map(format_float, n_bar), map(format_float, values)))


def _json_chunks(blocks):
    # The text json.dumps(..., indent=2) gives the list of row dicts: a
    # float's repr is its JSON, and the sweep leaves every value finite.
    separator = "[\n"
    for n_bar, values in blocks:
        yield separator + ",\n".join(
            map('  {{\n    "n_bar": {!r},\n    "ratio": {!r}\n  }}'.format, n_bar, values)
        )
        separator = ",\n"
    yield "\n]\n"


def _cmd_figure(args) -> int:
    from .analysis import _BLOCK_ROWS, Ratio, sweep_ratios

    table = sweep_ratios(_sweep_spec(args), (Ratio(args.column),))
    n_bar, values = table.n_bar, getattr(table, args.column)
    # One block of rows is formatted at a time, so the text never exists whole.
    blocks = (
        (n_bar[i : i + _BLOCK_ROWS].tolist(), values[i : i + _BLOCK_ROWS].tolist())
        for i in range(0, n_bar.size, _BLOCK_ROWS)
    )
    writer = _csv_chunks if args.format == "csv" else _json_chunks
    _write_output(args.out, writer(blocks))
    return EXIT_OK


def _cmd_fit(args) -> int:
    from .analysis import Ratio, fit_inverse_law, sweep_ratios

    spec = _sweep_spec(args)
    sensitivity = []
    for n_min, n_max in dict.fromkeys(((spec.n_min, spec.n_max),) + _SENSITIVITY_RANGES):
        window = dataclasses.replace(spec, n_min=n_min, n_max=n_max)
        alt = fit_inverse_law(sweep_ratios(window, (Ratio.SNR,)))
        sensitivity.append(
            {"n_min": n_min, "n_max": n_max, "A": alt.A, "B": alt.B, "rss": alt.rss}
        )
    fit = sensitivity[0]  # the first window is the requested range
    document = {
        "A": fit["A"],
        "B": fit["B"],
        "rss": fit["rss"],
        "n_min": spec.n_min,
        "n_max": spec.n_max,
        "points": spec.points,
        "spacing": spec.spacing.value,
        "g": spec.g,
        "sensitivity": sensitivity,
    }
    _write_output(args.out, _json_payload(document))
    return EXIT_OK


def _parse_grid(text: str, flag: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(",") if part.strip() != "")
    except ValueError as exc:
        raise DomainError(f"{flag} expects comma-separated numbers, got {text!r}") from exc
    if not values:
        raise DomainError(f"{flag} must name at least one value")
    return values


def _cmd_oracle_check(args) -> int:
    from .oracle_checks import run_oracle_checks

    grids = {}  # an unset flag leaves the suite's own default grid
    if args.n_grid is not None:
        grids["n_grid"] = _parse_grid(args.n_grid, "--n-grid")
    if args.g_grid is not None:
        grids["g_grid"] = _parse_grid(args.g_grid, "--g-grid")
    report = run_oracle_checks(**grids, gain_for_noise=args.g_noise)
    _write_output(args.out, _json_payload(report))
    return EXIT_OK if report["all_expected_pass_ok"] else 1


def _read_scan_csv(path: str) -> tuple[list[float], list[float]]:
    baselines, values = [], []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise DomainError(f"cannot read scan file {path!r}: {exc}") from exc
    rows = [(lineno, raw) for lineno, raw in enumerate(lines, start=1)
            if raw.strip() and not raw.strip().startswith("#")]
    for index, (lineno, raw) in enumerate(rows):
        parts = [p.strip() for p in raw.split(",")]
        if len(parts) != 2:
            raise DomainError(
                f"{path}: line {lineno}: expected two comma-separated columns, "
                f"got {raw.rstrip()!r}"
            )
        try:
            baseline, value = float(parts[0]), float(parts[1])
        except ValueError:
            if index == 0:
                continue  # header row: the first line that is neither blank nor a comment
            raise DomainError(
                f"{path}: line {lineno}: non-numeric value in {raw.rstrip()!r}"
            ) from None
        baselines.append(baseline)
        values.append(value)
    if not baselines:
        raise DomainError(f"{path}: no numeric rows found")
    return baselines, values


def _cmd_estimate_phi(args) -> int:
    from .analysis import estimate_phi

    r0, values = _read_scan_csv(args.scan)
    estimate = estimate_phi(
        r0,
        values,
        k=args.k,
        amplitude_known=args.amplitude,
        seed=args.seed,
    )
    document = {**dataclasses.asdict(estimate), "seed": args.seed}
    _write_output(args.out, _json_payload(document))
    return EXIT_OK if estimate.converged else EXIT_NOT_CONVERGED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opahbt",
        description=(
            "Correlation, noise and SNR laws of the amplified intensity "
            "interferometer, with first-principles verification suites."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = argparse.ArgumentParser(add_help=False)
    sweep.add_argument("--g", type=float, default=2.0, help="amplifier gain (default 2)")
    sweep.add_argument("--n-min", type=float, default=0.15, help="grid lower bound")
    sweep.add_argument("--n-max", type=float, default=20.0, help="grid upper bound")
    sweep.add_argument("--points", type=int, default=200, help="grid size (default 200)")
    sweep.add_argument("--spacing", choices=("log", "linear"), default="log", help="grid spacing")
    sweep.add_argument(
        "--m-bar",
        type=float,
        default=None,
        help="hold the companion source at this mean instead of equal sources",
    )

    figures = []
    for name, column, text in (
        ("fig4", "signal_ratio", "signal-ratio sweep as CSV (n_bar,ratio)"),
        ("fig5", "snr_ratio", "SNR-ratio sweep as CSV (n_bar,ratio)"),
    ):
        figure = sub.add_parser(name, parents=[sweep], help=text)
        figure.set_defaults(run=_cmd_figure, column=column)
        figures.append(figure)

    fit_help = "fit A + B/n_bar to the SNR-ratio sweep (JSON)"
    sub.add_parser("fit", parents=[sweep], help=fit_help).set_defaults(run=_cmd_fit)

    oracle = sub.add_parser("oracle-check", help="run the verification suites and report (JSON)")
    oracle.add_argument("--n-grid", help="comma-separated thermal means")
    oracle.add_argument("--g-grid", help="comma-separated gains for the Fock-space suites")
    oracle.add_argument(
        "--g-noise", type=float, default=2.0, help="gain for the noise-law consistency checks"
    )
    oracle.set_defaults(run=_cmd_oracle_check)

    phi = sub.add_parser("estimate-phi", help="recover the angular size from a baseline scan CSV")
    phi.add_argument("scan", help="CSV file with columns (baseline, correlation)")
    phi.add_argument("--k", type=float, required=True, help="wavenumber in rad per length")
    phi.add_argument(
        "--seed", type=int, default=0, help="echoed in the output; the estimate does not use it"
    )
    phi.add_argument("--amplitude", type=float, default=None, help="hold the amplitude fixed")
    phi.set_defaults(run=_cmd_estimate_phi)

    for command in sub.choices.values():
        command.add_argument(
            "--out", "-o", default="-", help="output path ('-' for stdout, the default)"
        )
    for figure in figures:
        figure.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else 0
    try:
        return args.run(args)
    except DegenerateFitError as exc:
        print(f"opahbt: degenerate fit: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE_FIT
    except TruncationError as exc:
        print(f"opahbt: truncation infeasible: {exc}", file=sys.stderr)
        return EXIT_TRUNCATION
    except OpaHbtError as exc:
        print(f"opahbt: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"opahbt: cannot write output: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        print(f"opahbt: out of memory: {str(exc) or 'allocation failed'}; lower --points",
              file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
