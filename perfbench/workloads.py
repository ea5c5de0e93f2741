"""Seeded job generators for the three benchmark workloads.

A job is one CLI invocation plus what its output must satisfy.  The
parameter that sets a job's cost (command and grid size, oracle grid
class, scan size) comes from a fixed deck of classes; each pass through
the deck is shuffled by the seed, and a run always ends on a whole deck,
so every run sees the same cost mix and its medians do not depend on the
seed.  Everything else is drawn from a generator seeded by
``(seed, workload, j)`` alone, so the same seed yields the same inputs
however many jobs a run reaches.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("figures", "oracle", "phi-scan")

# figures: each command at five grid sizes, log-spaced over [200, 20000].
# JSON output costs more than CSV at large sizes, so the format is part of
# the deck too: fig4 and fig5 take opposite formats, alternating by size.
FIGURE_POINTS = (200, 632, 2000, 6325, 20_000)
FIGURE_DECK = tuple(
    entry
    for i, points in enumerate(FIGURE_POINTS)
    for entry in (
        ("fig4", ("csv", "json")[i % 2], points),
        ("fig5", ("json", "csv")[i % 2], points),
        ("fit", "json", points),
    )
)

# oracle: a pass runs six fixed grids, each exiting 0 at the seed commit
# (none reaches the dim cap that exits 4): the defaults, three light grids
# of the same size and top values, and the two heavy ones, with g up to
# 1.25 or n up to 2, which take about twice as long and 2.7 times the
# memory.  The seed orders each pass and draws --g-noise.  The grids stay
# fixed, values and order alike: the truncation dims and the propagators a
# job caches follow the values, and its peak RSS follows their order
# (353 MB for --g-grid 0,0.5,1,1.25, 332 MB for 1.25,1,0.5,0).
ORACLE_GRIDS = (
    ("0,0.5,1", "0,0.25,0.5,1"),
    ("0,0.25,1", "0,0.25,0.5,1"),
    ("0,0.75,1", "0,0.5,0.75,1"),
    ("0,0.5,1", "0,0.25,0.75,1"),
    ("0,0.5,1", "0,0.5,1,1.25"),
    ("0,1,2", "0,0.25,0.5,1"),
)

# phi-scan: the periodogram allocates 16 n x n complex values, so memory
# grows as n^2 (see NOTES.md); 512 points is the ceiling.
PHI_SIZES = (64, 91, 128, 181, 256, 362, 512)

DECKS = {
    "figures": FIGURE_DECK,
    "oracle": ORACLE_GRIDS,
    "phi-scan": PHI_SIZES,
}
CYCLE = {name: len(deck) for name, deck in DECKS.items()}


@dataclass
class Job:
    workload: str
    index: int
    argv: list[str]
    out: Path
    expect: dict = field(default_factory=dict)


def _rng(seed: int, workload: str, index: int | str) -> random.Random:
    return random.Random(f"{seed}:{workload}:{index}")


def job_class(seed: int, workload: str, j: int):
    """Deck entry of job ``j``: pass ``j // len(deck)`` shuffled by the seed."""
    deck = DECKS[workload]
    order = list(range(len(deck)))
    _rng(seed, workload, f"pass-{j // len(deck)}").shuffle(order)
    return deck[order[j % len(deck)]]


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** rng.random()


def _fmt(value: float) -> str:
    return repr(float(value))


def figures_job(seed: int, j: int, workdir: Path) -> Job:
    command, fmt, points = job_class(seed, "figures", j)
    rng = _rng(seed, "figures", j)
    g = rng.uniform(0.5, 3.0)
    n_min = _log_uniform(rng, 0.05, 1.0)
    n_max = _log_uniform(rng, 5.0, 50.0)
    spacing = rng.choice(("log", "linear"))
    m_bar = rng.uniform(0.1, 10.0) if rng.random() < 0.25 else None

    out = workdir / f"figures-{j:04d}.{fmt}"
    argv = [command, "--g", _fmt(g), "--n-min", _fmt(n_min), "--n-max", _fmt(n_max),
            "--points", str(points), "--spacing", spacing]
    if m_bar is not None:
        argv += ["--m-bar", _fmt(m_bar)]
    if command != "fit":
        argv += ["--format", fmt]
    argv += ["--out", str(out)]
    expect = {"command": command, "format": fmt, "g": g, "n_min": n_min, "n_max": n_max,
              "points": points, "spacing": spacing, "m_bar": m_bar}
    return Job("figures", j, argv, out, expect)


def oracle_job(seed: int, j: int, workdir: Path) -> Job:
    n_grid, g_grid = job_class(seed, "oracle", j)
    g_noise = _rng(seed, "oracle", j).uniform(0.5, 3.0)
    out = workdir / f"oracle-{j:04d}.json"
    argv = ["oracle-check", "--n-grid", n_grid, "--g-grid", g_grid,
            "--g-noise", _fmt(g_noise), "--out", str(out)]
    expect = {"n_grid": [float(x) for x in n_grid.split(",")],
              "g_grid": [float(x) for x in g_grid.split(",")]}
    return Job("oracle", j, argv, out, expect)


def phi_scan(seed: int, j: int) -> dict:
    """Synthetic baseline scan C(r) = S cos(k r phi) + noise, and its truth."""
    n = job_class(seed, "phi-scan", j)
    rng = _rng(seed, "phi-scan", j)
    fringes = rng.uniform(2.0, 20.0)
    noise = rng.choice((0.003, 0.01, 0.03, 0.1))
    irregular = rng.random() < 1.0 / 3.0
    amplitude_known = rng.random() < 0.25
    k = _log_uniform(rng, 1e7, 3e7)
    phi = _log_uniform(rng, 5e-9, 5e-8)
    amplitude = rng.uniform(0.5, 2.0)
    span = 2.0 * math.pi * fringes / (k * phi)
    step = span / (n - 1)
    # Irregular scans jitter each baseline by up to 0.4 of a step, so the
    # smallest gap, which sets the periodogram's top frequency, stays >= 0.2
    # of a step.
    baselines = [
        step * (i + (rng.uniform(-0.4, 0.4) if irregular and 0 < i < n - 1 else 0.0))
        for i in range(n)
    ]
    values = [
        amplitude * math.cos(k * r * phi) + noise * amplitude * rng.gauss(0.0, 1.0)
        for r in baselines
    ]
    return {"amplitude_known": amplitude_known, "k": k, "phi": phi,
            "amplitude": amplitude, "baselines": baselines, "values": values}


def phi_job(seed: int, j: int, workdir: Path) -> Job:
    """The scan CSV is written here, before any job is timed."""
    scan = phi_scan(seed, j)
    csv_path = workdir / f"scan-{j:04d}.csv"
    lines = ["baseline,correlation"]
    lines += [f"{_fmt(r)},{_fmt(c)}" for r, c in zip(scan["baselines"], scan["values"])]
    csv_path.write_text("\n".join(lines) + "\n")
    out = workdir / f"phi-{j:04d}.json"
    argv = ["estimate-phi", str(csv_path), "--k", _fmt(scan["k"]), "--seed", str(j)]
    if scan["amplitude_known"]:
        argv += ["--amplitude", _fmt(scan["amplitude"])]
    argv += ["--out", str(out)]
    return Job("phi-scan", j, argv, out, {"phi": scan["phi"]})


MAKERS = {"figures": figures_job, "oracle": oracle_job, "phi-scan": phi_job}


def make_jobs(workload: str, seed: int, count: int, workdir: Path) -> list[Job]:
    return [MAKERS[workload](seed, j, workdir) for j in range(count)]


def pinned_figure_jobs(workdir: Path) -> list[Job]:
    """The values the README pins, run through the CLI once per figures run.

    Each pinned value carries the tolerance the acceptance tests give it.
    """
    specs = [
        ("pinned-fig5", ["fig5", "--g", "2", "--n-min", "1", "--n-max", "1", "--points", "1"],
         "csv", {"ratio": (1.660, 0.005)}),
        ("pinned-fig4", ["fig4", "--g", "2", "--n-min", "10", "--n-max", "10", "--points", "1"],
         "csv", {"ratio": (239.3, 0.1)}),
        ("pinned-fit", ["fit"], "json", {"A": (1.082, 0.02), "B": (0.584, 0.06)}),
    ]
    jobs = []
    for i, (name, argv, fmt, pinned) in enumerate(specs):
        out = workdir / f"{name}.{fmt}"
        jobs.append(Job("figures", -1 - i, argv + ["--out", str(out)], out,
                        {"pinned": pinned, "format": fmt}))
    return jobs
