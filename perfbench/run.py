"""Benchmark of the opahbt CLI: closed-loop jobs timed from process start.

Usage:
    python3 perfbench/run.py --workload figures|oracle|phi-scan|all \
        --seed N --seconds S --trace 0|1

One client runs jobs back to back.  Each job is a fresh interpreter running
one CLI command, so it pays the package import a user pays.  With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1`` it
runs each job once plain and once under the span wrappers of
``tracer.py`` and reports the per-layer metrics.  Every job's output is
checked.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it print each metric with its unit and sample count, and the
environment the numbers depend on.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))
from tracer import CHECKS, self_times  # noqa: E402
from verify import check_job  # noqa: E402
from workloads import CYCLE, WORKLOADS, make_jobs, pinned_figure_jobs  # noqa: E402

LAUNCHER = "import sys; from opahbt.cli import main; sys.exit(main(sys.argv[1:]))"
SETUP_PROBE = "import time; t = time.perf_counter(); import opahbt; print(time.perf_counter() - t)"
IMPORT_PROBE = (
    "import time; t0 = time.perf_counter(); import numpy; t1 = time.perf_counter(); "
    "import scipy.sparse; t2 = time.perf_counter(); import opahbt; t3 = time.perf_counter(); "
    "print(t1 - t0, t2 - t1, t3 - t2)"
)
SETUP_REPEATS = 9
MICRO_CALLS = 2000
MICRO_REPEATS = 7
# Child limits: an oversized job fails instead of exhausting the machine.
ADDRESS_SPACE_LIMIT = 1 << 30
CPU_SECONDS_LIMIT = 60
# Shortest plausible job, used only to size the pre-generated job list.
MIN_JOB_S = 0.25
# Traced runs use a job count fixed by --seconds, so their counts repeat
# exactly for a seed; these are rough seconds per traced cycle (plain plus
# traced twin) on a 2-core machine.
TRACE_CYCLE_S = {"figures": 35.0, "oracle": 35.0, "phi-scan": 8.0}

END_TO_END = ("setup_s", "job_s.p50", "job_cpu_s.p50", "jobs_per_s", "peak_rss_mb")


@dataclass
class JobRun:
    job: object
    wall: float
    cpu: float
    maxrss_mb: float
    returncode: int
    failure: str | None = None


def thread_cap() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cap = str(thread_cap())
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = cap
    return env


def _limit_child() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))
    resource.setrlimit(resource.RLIMIT_CPU, (CPU_SECONDS_LIMIT, CPU_SECONDS_LIMIT))


def spawn(args: list[str], log) -> tuple[float, float, float, int]:
    """Run ``python args`` to completion: wall s, CPU s, max RSS MB, exit code."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *args], cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL, stderr=log, preexec_fn=_limit_child,
    )
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode


def run_job(job, log) -> JobRun:
    wall, cpu, rss, code = spawn(["-c", LAUNCHER, *job.argv], log)
    return JobRun(job, wall, cpu, rss, code)


def probe(code: str) -> list[float]:
    result = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
        capture_output=True, text=True, timeout=60, check=True,
    )
    return [float(x) for x in result.stdout.split()]


def hd_median(values) -> float:
    """Harrell-Davis estimate of the median: a beta-weighted mean of all
    order statistics.  Job costs in a deck come in steps, and a plain median
    jumps between neighbouring steps from run to run; this does not."""
    import numpy as np
    from scipy.special import betainc

    x = np.sort(np.asarray(list(values), dtype=float))
    half = (x.size + 1) / 2
    weights = np.diff(betainc(half, half, np.arange(x.size + 1) / x.size))
    return float(weights @ x)


def metric(value: float, unit: str, samples: int) -> dict:
    return {"value": float(value), "unit": unit, "samples": int(samples)}


def environment(seed: int, workload: str, seconds: int, trace: int) -> dict:
    import numpy
    import scipy

    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": os.cpu_count(), "thread_cap": thread_cap(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "machine": platform.machine(),
        "address_space_limit_bytes": ADDRESS_SPACE_LIMIT,
    }


def max_jobs(workload: str, seconds: int) -> int:
    cycle = CYCLE[workload]
    return cycle * (math.ceil(seconds / MIN_JOB_S / cycle) + 1)


def timed_loop(jobs, seconds: float, cycle: int, log, setup: list[float]) -> list[JobRun]:
    """Closed loop: next job when the last exits, until time is up on a whole cycle.

    A setup probe runs after every job and is appended to ``setup``, so the
    set-up samples see the same machine-speed phases as the jobs; only the
    jobs' own wall time counts toward ``seconds``.
    """
    runs: list[JobRun] = []
    for job in jobs:
        if sum(r.wall for r in runs) >= seconds and len(runs) % cycle == 0:
            break
        runs.append(run_job(job, log))
        setup.append(probe(SETUP_PROBE)[0])
    return runs


def end_to_end(workload, seed, seconds, workdir, log) -> tuple[dict, list[JobRun]]:
    probe(SETUP_PROBE)  # warm the bytecode cache; users run with it warm
    checked = [run_job(job, log) for job in pinned_figure_jobs(workdir)] if workload == "figures" else []
    jobs = make_jobs(workload, seed, max_jobs(workload, seconds), workdir)
    setup: list[float] = []
    runs = timed_loop(jobs, seconds, CYCLE[workload], log, setup)
    for run in checked + runs:
        run.failure = check_job(run.job, run.returncode)
    good = sum(r.failure is None for r in runs)
    n = len(runs)
    metrics = {
        "setup_s": metric(statistics.median(setup), "s", len(setup)),
        "job_s.p50": metric(hd_median(r.wall for r in runs), "s", n),
        "job_cpu_s.p50": metric(hd_median(r.cpu for r in runs), "s", n),
        # The loop's wall time without the setup probes.
        "jobs_per_s": metric(good / sum(r.wall for r in runs), "1/s", n),
        "peak_rss_mb": metric(max(r.maxrss_mb for r in runs), "MB", n),
    }
    return metrics, checked + runs


def traced_job_count(workload: str, seconds: int) -> int:
    return CYCLE[workload] * max(1, round(seconds / TRACE_CYCLE_S[workload]))


def micro_us(fn, *args) -> float:
    samples = []
    for _ in range(MICRO_REPEATS):
        start = time.perf_counter()
        for _ in range(MICRO_CALLS):
            fn(*args)
        samples.append((time.perf_counter() - start) / MICRO_CALLS * 1e6)
    return statistics.median(samples)


def per_layer(workload, seed, seconds, workdir, log) -> tuple[dict, list[JobRun]]:
    from opahbt import OpaParams, signal_ratio, snr_ratio

    imports = [probe(IMPORT_PROBE) for _ in range(SETUP_REPEATS)]
    params = OpaParams(2.0)
    snr_us = micro_us(snr_ratio, 1.0, 1.0, params)
    signal_us = micro_us(signal_ratio, 1.0, 1.0, params)

    # Each traced run is kept with its spans document, or None when the
    # traced job wrote none, so overheads never pair one job's run with
    # another job's spans.
    plain, traced = [], []
    for job in make_jobs(workload, seed, traced_job_count(workload, seconds), workdir):
        plain.append(run_job(job, log))
        twin = replace(job, out=job.out.with_name("traced-" + job.out.name),
                       argv=job.argv[:-1] + [str(job.out.with_name("traced-" + job.out.name))])
        spans_path = workdir / f"spans-{job.index:04d}.json"
        wall, cpu, rss, code = spawn(
            [str(HERE / "traced_job.py"), str(spans_path), str(job.index), "--", *twin.argv], log)
        document = json.loads(spans_path.read_text()) if spans_path.exists() else None
        traced.append((JobRun(twin, wall, cpu, rss, code), document))
    for run in plain + [r for r, _ in traced]:
        run.failure = check_job(run.job, run.returncode)
    documents = [d for _, d in traced if d is not None]

    jobs = max(1, len(documents))
    self_s, total_s, calls, counts = defaultdict(float), defaultdict(float), defaultdict(int), defaultdict(int)
    squeeze_keys, squeeze_distinct, dim_max, points, iterations = 0, 0, 0, 0, 0
    spans = []
    for doc in documents:
        job_keys = set()
        for span, own in zip(doc["spans"], self_times(doc["spans"])):
            name, start, end, _, _, attrs = span
            self_s[name] += own
            total_s[name] += end - start
            calls[name] += 1
            points += attrs.get("points", 0)
            iterations += attrs.get("iterations", 0)
            if "key" in attrs:
                job_keys.add(attrs["key"])
                dim_max = max(dim_max, attrs["dim"])
        squeeze_distinct += len(job_keys)
        for name, count in doc["counts"].items():
            counts[name] += count
        spans.extend(doc["spans"])

    def per_job_self(name):
        return metric(self_s[name] / jobs, "s", calls[name])

    def per_job_count(name):
        return metric(counts[name] / jobs, "count", jobs)

    squeezes = calls["fock.two_mode_squeeze"]
    overheads = [r.wall - d["import_s"] - d["install_s"] - d["main_s"]
                 for r, d in traced if d is not None]
    metrics = {
        "import.numpy_s": metric(statistics.median(x[0] for x in imports), "s", len(imports)),
        "import.scipy_sparse_s": metric(statistics.median(x[1] for x in imports), "s", len(imports)),
        "import.opahbt_rest_s": metric(statistics.median(x[2] for x in imports), "s", len(imports)),
        "cli.main_s": metric(total_s["cli.main"] / jobs, "s", calls["cli.main"]),
        "cli.format_float.calls": per_job_count("cli.format_float"),
        "cli.bytes_out": metric(statistics.mean(r.job.out.stat().st_size if r.job.out.exists() else 0
                                                for r in plain), "bytes", len(plain)),
        "cli.process_overhead_s": metric(statistics.median(overheads) if overheads else 0.0,
                                         "s", len(overheads)),
        "analysis.sweep_ratios.s": per_job_self("analysis.sweep_ratios"),
        "analysis.sweep_ratios.points_per_s": metric(
            points / total_s["analysis.sweep_ratios"] if calls["analysis.sweep_ratios"] else 0.0,
            "points/s", calls["analysis.sweep_ratios"]),
        "analysis.fit_inverse_law.s": per_job_self("analysis.fit_inverse_law"),
        "hbt.snr_ratio.us_per_call": metric(snr_us, "us", MICRO_REPEATS),
        "hbt.signal_ratio.us_per_call": metric(signal_us, "us", MICRO_REPEATS),
        "hbt.snr_ratio.calls": per_job_count("hbt.snr_ratio"),
        "hbt.signal_ratio.calls": per_job_count("hbt.signal_ratio"),
        "hbt.opa_noise_avg_printed.calls": per_job_count("hbt.opa_noise_avg_printed"),
        "hbt.consistency_report.s": per_job_self("hbt.consistency_report"),
        "opa.coeffs.calls": per_job_count("opa.coeffs"),
        "opa.propagate_moments.calls": per_job_count("opa.propagate_moments"),
        "photon_stats.thermal_moments.calls": per_job_count("photon_stats.thermal_moments"),
        "photon_stats.geometric_summation_moments.s": per_job_self(
            "photon_stats.geometric_summation_moments"),
        "fock.two_mode_squeeze.s": per_job_self("fock.two_mode_squeeze"),
        "fock.two_mode_squeeze.calls": metric(squeezes / jobs, "count", jobs),
        "fock.two_mode_squeeze.dim_max": metric(dim_max, "count", squeezes),
        "fock.two_mode_squeeze.distinct_ratio": metric(
            squeeze_distinct / squeezes if squeezes else 0.0, "ratio", squeezes),
        "fock.hbt_two_mode_correlation.s": per_job_self("fock.hbt_two_mode_correlation"),
        "fock.hbt_two_mode_correlation.calls": metric(
            calls["fock.hbt_two_mode_correlation"] / jobs, "count", jobs),
        "fock.reduced_moments.s": per_job_self("fock.reduced_moments"),
        "wick.number_moments.s": per_job_self("wick.number_moments"),
        "wick.number_moments.calls": metric(calls["wick.number_moments"] / jobs, "count", jobs),
        "wick.gaussian_wick_moment.calls": per_job_count("wick.gaussian_wick_moment"),
        **{f"oracle_checks.{name}.s": per_job_self(f"oracle_checks.{name}") for name in CHECKS},
        **{f"oracle_checks.{name}.total_s": metric(total_s[f"oracle_checks.{name}"] / jobs, "s",
                                                   calls[f"oracle_checks.{name}"]) for name in CHECKS},
        "trace.overhead_ratio": metric(
            statistics.median(r.wall for r, _ in traced) / statistics.median(r.wall for r in plain),
            "ratio", len(traced)),
    }
    if workload == "phi-scan":
        # Only phi-scan calls estimate_phi; elsewhere these would read 0.
        estimates = calls["analysis.estimate_phi"]
        metrics["analysis.estimate_phi.s"] = per_job_self("analysis.estimate_phi")
        metrics["analysis.estimate_phi.iterations"] = metric(
            iterations / estimates if estimates else 0.0, "count", estimates)
    OUT.mkdir(exist_ok=True)
    (OUT / f"spans-{workload}-seed{seed}.json").write_text(json.dumps(spans))
    return metrics, plain + [r for r, _ in traced]


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    workdir = OUT / f"{workload}-seed{seed}-trace{trace}-pid{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        with open(workdir / "stderr.log", "w") as log:
            measure = per_layer if trace else end_to_end
            metrics, runs = measure(workload, seed, seconds, workdir, log)
        failures = [(r.job.index, r.failure) for r in runs if r.failure]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env = environment(seed, workload, seconds, trace)
    metrics["failed_ratio"] = metric(len(failures) / len(runs), "ratio", len(runs))
    (OUT / f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps({"env": env, "metrics": metrics, "failures": failures}, indent=2))
    print(f"# {workload}: seed {seed}, {seconds} s, trace {trace}")
    for index, reason in failures:
        print(f"  FAILED job {index}: {reason}")
    print(f"  {'metric':44s} {'value':>14s} {'unit':9s} samples")
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:14.6g} {m['unit']:9s} {m['samples']}")
    print("env " + json.dumps(env))
    reported = END_TO_END if not trace else [k for k in metrics if k != "failed_ratio"]
    return {
        "correct": not failures,
        "attempted": len(runs),
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k]["value"], "unit": metrics[k]["unit"]} for k in reported},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "opahbt" / "cli.py").is_file():
        print(f"perfbench: no opahbt sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        result = run_workload(workload, args.seed, args.seconds, args.trace)
    if args.workload != "all":
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
