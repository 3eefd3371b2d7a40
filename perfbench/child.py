"""One measured process: import trihoch, run a job list through
``trihoch.cli.main``, write what happened as JSON.

    python3 perfbench/child.py JOBS.json RESULT.json [--trace] [--setup-only]

JOBS.json is a list of argv lists.  The result holds the monotonic time
at which the imports finished, the span of the job loop, and each job's
exit code and captured stdout/stderr.  With --trace the package is
patched by ``tracer.install`` before the first job and the spans go to
RESULT.json.spans; with --setup-only the process stops after the imports.
While the jobs run, ``yardstick.Sampler`` times a fixed slice of work
every 0.2 s; the slice times go to the result too.
"""

import time

import trihoch  # noqa: F401  (import cost is the measured set-up)
import trihoch.cli

T_IMPORTED = time.clock_gettime(time.CLOCK_MONOTONIC)

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import tracer as tracing  # noqa: E402
import yardstick  # noqa: E402


def run_jobs(jobs, tracer=None):
    out = []
    main = trihoch.cli.main
    for k, argv in enumerate(jobs):
        if tracer is not None:
            tracer.job = k
            tracer.seen.clear()
        stdout, stderr = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            try:
                rc = main(argv)
            except Exception:   # a crash is a failed job, not a lost run
                traceback.print_exc()
                rc = -1
        out.append({"rc": rc, "seconds": time.perf_counter() - t0,
                    "stdout": stdout.getvalue(), "stderr": stderr.getvalue()})
    return out


def main(argv):
    jobs_path, result_path = argv[0], argv[1]
    result = {"t_imported": T_IMPORTED, "trihoch_file": trihoch.__file__}
    if "--setup-only" not in argv:
        with open(jobs_path, encoding="utf-8") as fh:
            jobs = json.load(fh)
        tracer = None
        if "--trace" in argv:
            tracer = tracing.Tracer()
            tracing.install(tracer)
        sampler = yardstick.Sampler()
        sampler.start()
        t_start = time.clock_gettime(time.CLOCK_MONOTONIC)
        result["jobs"] = run_jobs(jobs, tracer)
        sampler.stop()
        t_end = time.clock_gettime(time.CLOCK_MONOTONIC)
        result.update(t_start=t_start, t_end=t_end, slices=sampler.samples)
        if tracer is not None:
            with open(result_path + ".spans", "w", encoding="utf-8") as fh:
                json.dump({"names": tracer.names, "spans": tracer.spans}, fh,
                          separators=(",", ":"))
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
