"""Self-check of the benchmark itself.

Usage: python3 perfbench/selfcheck.py

Verifies that
1. the same seed generates identical inputs (and another seed does not);
2. a corrupted output (one altered digit, a missing row, a flipped
   verdict) is counted as a failed job;
3. every metric named in BENCHMARK.json is emitted, on every workload and
   in both modes, with its unit and a sample count.
Exits 0 when all hold and 1 otherwise.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from run import LAUNCHER, OUT, child_env  # noqa: E402
from verify import check_job  # noqa: E402
from workloads import WORKLOADS, Job, make_jobs  # noqa: E402

PROBLEMS: list[str] = []


def expect(condition: bool, what: str) -> None:
    print(("ok   " if condition else "FAIL ") + what)
    if not condition:
        PROBLEMS.append(what)


def _inputs(workload: str, seed: int, workdir: Path) -> list:
    jobs = make_jobs(workload, seed, 12, workdir)
    scans = sorted(p.read_text() for p in workdir.glob("scan-*.csv"))
    return [([a.replace(str(workdir), "") for a in j.argv], j.expect) for j in jobs] + scans


def check_seeding() -> None:
    for workload in WORKLOADS:
        with tempfile.TemporaryDirectory(dir=OUT) as a, tempfile.TemporaryDirectory(dir=OUT) as b, \
                tempfile.TemporaryDirectory(dir=OUT) as c:
            first = _inputs(workload, 7, Path(a))
            expect(first == _inputs(workload, 7, Path(b)), f"{workload}: seed 7 twice gives identical inputs")
            expect(first != _inputs(workload, 8, Path(c)), f"{workload}: seeds 7 and 8 give different inputs")


def _run(job: Job) -> int:
    return subprocess.run([sys.executable, "-c", LAUNCHER, *job.argv], cwd=ROOT,
                          env=child_env(), capture_output=True).returncode


def _corrupted(job: Job, code: int, text: str) -> bool:
    job.out.write_text(text)
    return check_job(job, code) is not None


def _alter_digit(text: str, pattern: str) -> str:
    """Change the first decimal of the first number matching ``pattern``."""
    match = re.search(pattern, text)
    at = match.start(1) + match.group(1).index(".") + 1
    return text[:at] + ("1" if text[at] != "1" else "2") + text[at + 1:]


def check_corruption() -> None:
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workdir = Path(tmp)
        figures = make_jobs("figures", 3, 3, workdir)
        for job in figures:
            code = _run(job)
            text = job.out.read_text()
            name = f"figures {job.expect['command']} ({job.expect['format']})"
            expect(check_job(job, code) is None, f"{name}: intact output passes")
            if job.expect["format"] == "csv":
                lines = text.splitlines(keepends=True)
                altered = _alter_digit(text, r"\n[^,\n]+,([0-9.e+-]*[0-9])\n")
                expect(_corrupted(job, code, altered), f"{name}: one altered digit fails")
                expect(_corrupted(job, code, "".join(lines[:-1])), f"{name}: a missing row fails")
            elif job.expect["command"] == "fit":
                altered = _alter_digit(text, r'"B": ([0-9.e+-]*[0-9])')
                expect(_corrupted(job, code, altered), f"{name}: one altered digit of B fails")
                doc = json.loads(text)
                doc["sensitivity"].pop()
                expect(_corrupted(job, code, json.dumps(doc)), f"{name}: a missing window fails")
            else:
                altered = _alter_digit(text, r'"ratio": ([0-9.e+-]*[0-9])')
                expect(_corrupted(job, code, altered), f"{name}: one altered digit fails")
                doc = json.loads(text)
                expect(_corrupted(job, code, json.dumps(doc[:-1])), f"{name}: a missing row fails")
            expect(check_job(job, 1) is not None, f"{name}: a nonzero exit fails")
            job.out.unlink()
            expect(check_job(job, 0) is not None, f"{name}: a missing output fails")

        oracle = make_jobs("oracle", 3, 1, workdir)[0]
        code = _run(oracle)
        text = oracle.out.read_text()
        expect(check_job(oracle, code) is None, "oracle: intact report passes")
        doc = json.loads(text)
        doc["checks"][0]["as_expected"] = False
        expect(_corrupted(oracle, code, json.dumps(doc)), "oracle: a flipped verdict fails")
        doc = json.loads(text)
        doc["checks"].pop()
        expect(_corrupted(oracle, code, json.dumps(doc)), "oracle: a missing check fails")

        phi = make_jobs("phi-scan", 3, 1, workdir)[0]
        code = _run(phi)
        doc = json.loads(phi.out.read_text())
        doc["phi"] *= 1.5
        expect(_corrupted(phi, code, json.dumps(doc)), "phi-scan: a wrong angle fails")
        doc["converged"] = False
        expect(_corrupted(phi, code, json.dumps(doc)), "phi-scan: a non-converged estimate fails")


def check_metrics() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            names = {m["name"]: m["unit"] for m in spec[group]}
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
                 "--seconds", "1", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=170,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            where = f"{workload} trace {trace}"
            expect(proc.returncode == 0 and set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{where}: exit 0 and a result line with the four keys")
            expect(set(result["metrics"]) == set(names), f"{where}: exactly the {group} metrics")
            expect(all(result["metrics"][n]["unit"] == u for n, u in names.items() if n in result["metrics"]),
                   f"{where}: every metric carries its unit")
            full = json.loads((OUT / f"{workload}-seed5-trace{trace}.json").read_text())["metrics"]
            expect(all(isinstance(full.get(n, {}).get("samples"), int) for n in names),
                   f"{where}: every metric carries a sample count")
            table = proc.stdout
            expect(all(re.search(rf"^  {re.escape(n)} .* {re.escape(u)} +\d+$", table, re.M)
                       for n, u in names.items()),
                   f"{where}: the table prints every metric with unit and samples")


def main() -> int:
    OUT.mkdir(exist_ok=True)
    check_seeding()
    check_corruption()
    check_metrics()
    print(f"{len(PROBLEMS)} problem(s)")
    return 1 if PROBLEMS else 0


if __name__ == "__main__":
    sys.exit(main())
