"""Benchmark of the trihoch command line.

    python3 perfbench/run.py --workload pages|ranks|checks --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  One unit of work is one CLI job (input file -> algebra ->
filtered window -> ranks -> pages -> reports) run through
``trihoch.cli.main``.  A workload is a job list; one pass runs the whole
list in order, one job at a time, in one fresh child process (closed
loop, no threads, at most one child alive).  Passes repeat while the
next one is expected to end within --seconds.  Every job's stdout is
compared byte for byte with the goldens in perfbench/goldens/.

--trace 0 prints the end-to-end metrics (medians over passes):
  wall_ref_s   start of the first job to end of the last, in the child,
               rescaled to the reference host speed (see yardstick.py)
  setup_s      child start until ``import trihoch, trihoch.cli`` is done
               (median of every child, import-only children included)
  peak_rss_mb  peak RSS of a pass child, from os.wait4 on that child
  ok_frac      jobs that exited 0 with golden stdout / jobs attempted
--trace 1 runs untraced and traced passes in turn and prints the
per-layer metrics of tracer.py, plus trace.wall_ref_s and
trace.overhead_ref_s; layer times are rescaled like wall_ref_s.

The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics.  A run record (machine, inputs, every
pass) is written to .perfbench_work/.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

import tracer
import yardstick

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDENS = os.path.join(HERE, "goldens")
WORK = ".perfbench_work"
SETUP_BATCH = 3         # import-only children before the first pass and
                        # after each pass, following one warm-up child
RUN_LIMIT_S = 170       # children still running past this are killed

FIXED_JOBS = {
    "pages": [
        ("branching4", ["data/branching4.quiver", "--field", "rat",
                        "--max-degree", "4", "--report", "pages,hochschild"]),
        ("triangle", ["data/triangle_boundary.simplicial", "--field", "rat",
                      "--max-degree", "4", "--report", "pages,hochschild"]),
    ],
    "ranks": [
        ("tetrahedron-rat", ["data/tetrahedron_boundary.simplicial",
                             "--field", "rat", "--max-degree", "3",
                             "--report", "hochschild"]),
        ("tetrahedron-fp32003", ["data/tetrahedron_boundary.simplicial",
                                 "--field", "fp:32003", "--max-degree", "3",
                                 "--report", "hochschild"]),
    ],
}
WORKLOADS = ("pages", "ranks", "checks")


class HarnessError(Exception):
    """The benchmark itself could not run; no result is printed."""


def clock():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def file_sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def child_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
    return env


# ---------------------------------------------------------------------------
# jobs


def checks_jobs(root, out, which):
    """Write checks inputs to ``out`` and return (jobs, manifest).

    ``which`` is ``["--seed", N]`` or ``["--all"]`` (every variant).  The
    generator runs in its own process because it imports trihoch and
    the parent must stay small (see run_child).
    """
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "checks_gen.py"), *which,
         "--out", out],
        cwd=root, env=child_env(root), capture_output=True, text=True,
        timeout=60)
    if proc.returncode != 0:
        raise HarnessError("checks generator failed:\n" + proc.stderr)
    manifest = json.loads(proc.stdout)
    jobs = [(m["name"], [m["path"], "--field", m["field"], "--max-degree",
                         "4", "--report", m["reports"]])
            for m in manifest]
    return jobs, manifest


def workload_jobs(root, workload, seed, work):
    if workload == "checks":
        return checks_jobs(root, os.path.join(work, f"checks-seed{seed}"),
                           ["--seed", str(seed)])
    jobs = FIXED_JOBS[workload]
    manifest = [{"name": name, "path": argv[0],
                 "sha256": file_sha256(os.path.join(root, argv[0]))}
                for name, argv in jobs]
    return jobs, manifest


def load_goldens(workload):
    with open(os.path.join(GOLDENS, workload + ".json"),
              encoding="utf-8") as fh:
        return json.load(fh)


def job_failed(golden, job):
    """A job fails when it exits nonzero or its stdout differs from the
    golden in any byte (a missing golden is a failure too)."""
    return golden is None or job["rc"] != 0 or job["stdout"] != golden["stdout"]


# ---------------------------------------------------------------------------
# children


def run_child(root, work, jobs_path, deadline, trace=False, setup_only=False):
    """Run one child to completion and account for it alone.

    Peak RSS and CPU time come from os.wait4 on this child's pid, never
    from RUSAGE_CHILDREN (which keeps the maximum over all children).
    Linux carries the parent's resident size into a child's peak across
    exec, so the parent must stay small: it never imports trihoch.
    """
    result_path = os.path.join(work, f"child-{time.monotonic_ns()}.json")
    argv = [sys.executable, os.path.join(HERE, "child.py"), jobs_path,
            result_path]
    if trace:
        argv.append("--trace")
    if setup_only:
        argv.append("--setup-only")
    err_path = os.path.join(work, "child-stderr.txt")
    with open(err_path, "w", encoding="utf-8") as err:
        t0 = clock()
        proc = subprocess.Popen(argv, cwd=root, env=child_env(root),
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        killed = False
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if clock() > deadline and not killed:
                proc.kill()
                killed = True
            time.sleep(0.02)
        proc.returncode = os.waitstatus_to_exitcode(status)
        t_exit = clock()
    if killed:
        raise HarnessError(f"child killed after the {RUN_LIMIT_S}s run limit")
    if proc.returncode != 0 or not os.path.exists(result_path):
        with open(err_path, encoding="utf-8") as fh:
            tail = fh.read()[-2000:]
        raise HarnessError(f"child exited with {proc.returncode}:\n{tail}")
    with open(result_path, encoding="utf-8") as fh:
        res = json.load(fh)
    os.remove(result_path)
    expected = os.path.join(root, "src", "trihoch")
    if os.path.dirname(os.path.abspath(res["trihoch_file"])) != expected:
        raise HarnessError(f"child imported trihoch from {res['trihoch_file']}"
                           f", not from {expected}")
    out = {
        "setup_s": res["t_imported"] - t0,
        "lifetime_s": t_exit - t0,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "cpu_user_s": usage.ru_utime,
        "cpu_sys_s": usage.ru_stime,
        "nvcsw": usage.ru_nvcsw,
        "nivcsw": usage.ru_nivcsw,
        "trace": trace,
    }
    if not setup_only:
        wall = res["t_end"] - res["t_start"]
        slices = res["slices"]
        try:
            out["wall_ref_s"] = yardstick.to_reference(wall, slices)
        except ValueError as e:
            raise HarnessError(str(e)) from None
        out.update(wall_s=wall, speed_slices=len(slices),
                   speed_slice_mean_s=sum(slices) / len(slices),
                   jobs=res["jobs"])
        if trace:
            out["spans_path"] = result_path + ".spans"
    return out


# ---------------------------------------------------------------------------
# run record


def src_stats(root):
    """(line count, sha256) over src/**/*.py in sorted path order."""
    digest = hashlib.sha256()
    lines = 0
    paths = []
    for dirpath, dirnames, filenames in os.walk(os.path.join(root, "src")):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        paths += [os.path.join(dirpath, f) for f in filenames
                  if f.endswith(".py")]
    for p in sorted(paths):
        with open(p, "rb") as fh:
            data = fh.read()
        digest.update(os.path.relpath(p, root).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return lines, digest.hexdigest()


def git_commit(root):
    """HEAD of the checkout's git metadata, or None outside a clone (or
    when the branch ref is packed)."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(git, head[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        pass
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def machine_record(root):
    lines, digest = src_stats(root)
    return {
        "commit": git_commit(root),
        "src_sha256": digest,
        "src_lines": lines,
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "loadavg_start": list(os.getloadavg()),
    }


# ---------------------------------------------------------------------------
# traced passes


def trace_tables(spans_path, job_names):
    """Per-layer metrics of one traced pass: the whole pass, each job,
    and the per-function table behind them."""
    with open(spans_path, encoding="utf-8") as fh:
        data = json.load(fh)
    names, spans = data["names"], data["spans"]
    table = tracer.per_name(names, spans)
    return {
        "metrics": tracer.layer_metrics(table),
        "per_job": {name: tracer.layer_metrics(
                        tracer.per_name(names, spans, k))
                    for k, name in enumerate(job_names)},
        "functions": {n: {"calls": r[0], "total_s": r[1], "self_s": r[2]}
                      for n, r in sorted(table.items())},
        "span_count": len(spans),
    }


# ---------------------------------------------------------------------------
# main


def measure(root, work, jobs_path, seconds, trace):
    """Passes until --seconds is used up, with import-only children
    before the first pass and after each one.

    Untraced runs repeat untraced passes; traced runs alternate an
    untraced and a traced pass.  Another pass (or pair) starts only if,
    at the median length so far, it ends within --seconds; there is
    always at least one.
    """
    deadline = clock() + RUN_LIMIT_S
    run_child(root, work, jobs_path, deadline, setup_only=True)   # warm-up
    setups = []

    def sample_setup():
        setups.extend(run_child(root, work, jobs_path, deadline,
                                setup_only=True)
                      for _ in range(SETUP_BATCH))

    sample_setup()
    groups = []
    t_passes = clock()
    while True:
        group = [run_child(root, work, jobs_path, deadline)]
        if trace:
            group.append(run_child(root, work, jobs_path, deadline,
                                   trace=True))
        groups.append(group)
        sample_setup()
        per_group = statistics.median(
            sum(p["lifetime_s"] for p in g) for g in groups)
        if clock() - t_passes + per_group > seconds:
            break
    return setups, [p for g in groups for p in g]


def main(argv=None):
    ap = argparse.ArgumentParser(description="trihoch CLI benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "trihoch", "cli.py")):
        print("error: run from the root of a trihoch checkout "
              "(src/trihoch/cli.py not found)", file=sys.stderr)
        return 2
    work = os.path.join(root, WORK)
    os.makedirs(work, exist_ok=True)
    record = {"workload": ns.workload, "seed": ns.seed,
              "seconds": ns.seconds, "trace": ns.trace}
    try:
        record["machine"] = machine_record(root)
        jobs, manifest = workload_jobs(root, ns.workload, ns.seed, work)
        goldens = load_goldens(ns.workload)
        jobs_path = os.path.join(work, f"jobs-{ns.workload}-{ns.seed}.json")
        with open(jobs_path, "w", encoding="utf-8") as fh:
            json.dump([job_argv for _, job_argv in jobs], fh)
        setups, passes = measure(root, work, jobs_path, ns.seconds,
                                 bool(ns.trace))
    except (HarnessError, OSError, subprocess.SubprocessError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    record["machine"]["loadavg_end"] = list(os.getloadavg())
    record["inputs"] = manifest
    record["inputs_differing_from_goldens"] = [
        m["name"] for m in manifest
        if m["name"] in goldens and goldens[m["name"]]["sha256"] != m["sha256"]]

    attempted = failed = 0
    failures = []
    for k, p in enumerate(passes):
        for (name, _), job in zip(jobs, p.pop("jobs")):
            attempted += 1
            if job_failed(goldens.get(name), job):
                failed += 1
                failures.append({"pass": k, "job": name, "rc": job["rc"],
                                 "stderr": job["stderr"][-500:]})
            p.setdefault("job_seconds", {})[name] = job["seconds"]
    record["failures"] = failures
    record["setup_only"] = setups

    plain = [p for p in passes if not p["trace"]]
    traced = [p for p in passes if p["trace"]]
    med = statistics.median
    if not ns.trace:
        metrics = {
            "wall_ref_s": (med(p["wall_ref_s"] for p in plain), "s"),
            "setup_s": (med(p["setup_s"] for p in setups + plain), "s"),
            "peak_rss_mb": (med(p["peak_rss_mb"] for p in plain), "MB"),
            "ok_frac": ((attempted - failed) / attempted, "ratio"),
        }
    else:
        tables = []
        for p in traced:
            tables.append(trace_tables(p["spans_path"],
                                       [name for name, _ in jobs]))
            keep = os.path.join(work, f"spans-{ns.workload}-seed{ns.seed}.json")
            os.replace(p.pop("spans_path"), keep)
        record["trace_tables"] = tables
        # layer times are rescaled to the reference speed like wall_ref_s
        factors = [yardstick.REF_SLICE_S / p["speed_slice_mean_s"]
                   for p in traced]
        metrics = {}
        for name in tables[0]["metrics"]:
            unit = ("ratio" if name.endswith("_ratio") else
                    "s" if name.endswith((".s", "_s")) else "count")
            metrics[name] = (med(t["metrics"][name] * (f if unit == "s" else 1)
                                 for t, f in zip(tables, factors)), unit)
        traced_wall = med(p["wall_ref_s"] for p in traced)
        metrics["trace.wall_ref_s"] = (traced_wall, "s")
        metrics["trace.overhead_ref_s"] = (
            traced_wall - med(p["wall_ref_s"] for p in plain), "s")
    record["passes"] = passes
    record["metrics"] = {k: v for k, (v, _) in metrics.items()}
    tag = f"{ns.workload}-seed{ns.seed}-trace{ns.trace}"
    with open(os.path.join(work, f"record-{tag}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    cpu = [p["cpu_user_s"] + p["cpu_sys_s"] for p in plain]
    print(f"{ns.workload} seed {ns.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced passes of {len(jobs)} jobs; "
          f"{failed}/{attempted} jobs failed; untraced medians: "
          f"raw wall {med(p['wall_s'] for p in plain):.3f} s, "
          f"child CPU {med(cpu):.3f} s, speed slice "
          f"{med(p['speed_slice_mean_s'] for p in plain) * 1e3:.3f} ms")
    for f in failures[:5]:
        print(f"  failed: pass {f['pass']} job {f['job']} rc {f['rc']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
