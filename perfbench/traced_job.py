"""Run one CLI job with span wrappers installed; used only by traced runs.

Usage: python traced_job.py SPANS_JSON JOB_ID -- CLI_ARGS...

Runs ``opahbt.cli.main(CLI_ARGS)`` exactly as the plain launcher does,
then writes the job's spans, call counts and phase times to SPANS_JSON
and exits with main's return code.
"""

import json
import sys
import time


def run() -> int:
    spans_path, job = sys.argv[1], int(sys.argv[2])
    argv = sys.argv[sys.argv.index("--") + 1:]
    t0 = time.perf_counter()
    import opahbt.cli

    t1 = time.perf_counter()
    from tracer import Tracer

    tracer = Tracer(job)
    tracer.install()
    t2 = time.perf_counter()
    code = opahbt.cli.main(argv)
    t3 = time.perf_counter()
    with open(spans_path, "w") as handle:
        json.dump(
            {
                "job": job,
                "import_s": t1 - t0,
                "install_s": t2 - t1,
                "main_s": t3 - t2,
                "spans": tracer.spans,
                "counts": tracer.counts,
            },
            handle,
        )
    return code


if __name__ == "__main__":
    sys.exit(run())
