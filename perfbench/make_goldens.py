"""Regenerate perfbench/goldens/ from the code in the current checkout.

    python3 perfbench/make_goldens.py [pages ranks checks]

Runs every job of the fixed workloads, and every variant of every
``checks`` position, through the same child process the benchmark uses
and stores each job's input digest and exact stdout.  Only a job that
exits 0 is stored.  Regenerate only when a change is meant to alter the
reports, and say so in the change.
"""

import json
import os
import sys

import run


def main(argv):
    root = os.getcwd()
    work = os.path.join(root, run.WORK)
    os.makedirs(work, exist_ok=True)
    for workload in argv or run.WORKLOADS:
        if workload == "checks":
            jobs, manifest = run.checks_jobs(
                root, os.path.join(work, "checks-all"), ["--all"])
        else:
            jobs, manifest = run.workload_jobs(root, workload, None, None)
        jobs_path = os.path.join(work, f"golden-jobs-{workload}.json")
        with open(jobs_path, "w", encoding="utf-8") as fh:
            json.dump([job_argv for _, job_argv in jobs], fh)
        res = run.run_child(root, work, jobs_path, run.clock() + 3600)
        goldens = {}
        for (name, _), m, job in zip(jobs, manifest, res["jobs"]):
            if job["rc"] != 0:
                raise SystemExit(f"{workload} job {name} exited {job['rc']}:"
                                 f"\n{job['stderr']}")
            goldens[name] = {"sha256": m["sha256"], "stdout": job["stdout"]}
        os.makedirs(run.GOLDENS, exist_ok=True)
        with open(os.path.join(run.GOLDENS, workload + ".json"), "w",
                  encoding="utf-8") as fh:
            json.dump(goldens, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"{workload}: {len(goldens)} goldens, "
              f"{res['wall_s']:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
