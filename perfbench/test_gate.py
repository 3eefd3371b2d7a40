"""The correctness gate counts a one-digit change in a golden as a failure.

    python3 -m pytest perfbench/test_gate.py     (from the checkout root)
    python3 perfbench/test_gate.py

Runs one real ``checks`` job through the benchmark's child process,
then compares its stdout with the committed golden and with a copy of
that golden in which one digit is flipped.
"""

import copy
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402


def flip_one_digit(text):
    for k, ch in enumerate(text):
        if ch.isdigit():
            return text[:k] + str((int(ch) + 1) % 10) + text[k + 1:]
    raise ValueError("no digit to flip")


def run_one_check_job(tmp):
    """Manifest entry and result of checks variant c04v0, run the way
    the benchmark runs it."""
    jobs, manifest = run.checks_jobs(ROOT, tmp, ["--all"])
    k = next(k for k, m in enumerate(manifest) if m["name"] == "c04v0")
    jobs_path = os.path.join(tmp, "jobs.json")
    with open(jobs_path, "w", encoding="utf-8") as fh:
        json.dump([jobs[k][1]], fh)
    res = run.run_child(ROOT, tmp, jobs_path, run.clock() + 120)
    return manifest[k], res["jobs"][0]


def test_flipped_golden_digit_is_a_failure():
    goldens = run.load_goldens("checks")
    tmp = os.path.join(ROOT, run.WORK, "test-gate")
    os.makedirs(tmp, exist_ok=True)
    try:
        m, job = run_one_check_job(tmp)
    finally:
        shutil.rmtree(tmp)
    golden = goldens["c04v0"]
    assert golden["sha256"] == m["sha256"]
    assert not run.job_failed(golden, job)

    flipped = copy.deepcopy(golden)
    flipped["stdout"] = flip_one_digit(golden["stdout"])
    assert flipped["stdout"] != golden["stdout"]
    assert run.job_failed(flipped, job)

    assert run.job_failed(None, job)
    assert run.job_failed(golden, dict(job, rc=1))


if __name__ == "__main__":
    test_flipped_golden_digit_is_a_failure()
    print("ok")
