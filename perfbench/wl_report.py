"""``report-full``: the paper-reproduction path, end to end.

``repro.experiments.report.run_all(fast=False)`` with a 2-worker
:class:`~repro.exec.runner.JobRunner` and no checkpoint cache — all 168
jobs execute every time, as on a cold ``python -m repro report``.  Its
time goes to live CLEAN runs through ``runtime.scheduler`` (sec62), the
hardware simulator (hw), table1 and the runner itself; it never calls
``analyze_trace``.

Set-up is what a user pays before the first job starts: a fresh
interpreter importing the report module and building its job list.

Known answers: no job fails, and every rendered table has exactly the
lines of its section in the committed ``EXPERIMENTS.md`` (row order
aside: the committed Ablation A1 rows are in an older order).  The inputs are the paper's fixed
experiment configuration, so the workload seed only labels the run.

Traced runs alternate an untraced ``run_all`` with one whose runner
reports each job's span through the program's duck-typed tracer.
"""

from __future__ import annotations

import subprocess
import sys
from statistics import median
from typing import Dict, List

from common import DETECTOR_COUNTERS, Run, now, record_peak_rss, timed_setup
from metrics import report_sections, same_table
from spans import TracerAdapter

from repro.exec.runner import JobRunner
from repro.experiments.report import run_all

WORKERS = 2
SETUP_REPS = 11
GROUPS = ("sec62", "hw", "table1", "fig6", "fig7", "fig8", "a2", "a3", "a4")
_SETUP_CODE = (
    "import sys; sys.path.insert(0, 'src'); "
    "from repro.experiments.report import build_jobs; "
    "build_jobs(fast=False)"
)


def _setup(run: Run, rep: int) -> Dict[str, List[str]]:
    # No timeout: with one, ``wait`` polls in sleeps of up to 50 ms,
    # which would quantize a set-up that takes a few hundred.
    subprocess.run([sys.executable, "-c", _SETUP_CODE], check=True)
    with open("EXPERIMENTS.md", encoding="utf-8") as fh:
        return report_sections(fh.read())


def _one_report(run: Run, expected: Dict[str, List[str]], traced: bool) -> Dict[str, object]:
    """One cold ``run_all``, checked; returns its wall time and jobs."""
    captured: List = []
    tracer = TracerAdapter(run.recorder) if traced else None
    runner = JobRunner(workers=WORKERS, store=None, tracer=tracer)
    inner_run = runner.run

    def capture(jobs):
        results = inner_run(jobs)
        captured.extend(results)
        return results

    runner.run = capture
    root = run.recorder.begin("report.run_all", "report") if traced else None
    t0 = now()
    try:
        results = run_all(fast=False, tracer=tracer, runner=runner)
    except Exception as exc:  # a crashed report fails every job it owed
        run.tally.check(False, f"run_all: {exc!r}")
        return {"wall": now() - t0, "jobs": captured}
    finally:
        if root is not None:
            run.recorder.end(root)
    wall = now() - t0
    for job in captured:
        run.tally.check(job.ok, f"job {job.job.label}: {job.error}")
    for result in results:
        run.tally.check(
            not result.failures and same_table(result.render(), expected),
            f"{result.experiment}: table differs from EXPERIMENTS.md",
        )
    return {"wall": wall, "jobs": captured}


def run_workload(run: Run) -> None:
    expected = timed_setup(run, lambda rep: _setup(run, rep), lambda _e: None,
                           SETUP_REPS)
    plain: List[Dict[str, object]] = []
    traced: List[Dict[str, object]] = []
    start = now()
    while True:
        plain.append(_one_report(run, expected, traced=False))
        if run.trace:
            traced.append(_one_report(run, expected, traced=True))
        if not run.window_open(start):
            break
    run.details["reports"] = len(plain) + len(traced)
    run.metric("throughput_per_s",
               median([len(r["jobs"]) / r["wall"] for r in plain]), "1/s")
    run.metric("report.wall_s", median([r["wall"] for r in plain]), "s")
    if not run.trace:
        record_peak_rss(run)
        return
    last = traced[-1]
    jobs = last["jobs"]
    busy = sum(j.duration_s for j in jobs)
    run.metric("runner.jobs", len(jobs), "count")
    run.metric("runner.job_s", busy, "s")
    run.metric("runner.retries", sum(max(j.attempts - 1, 0) for j in jobs), "count")
    run.metric("runner.busy_share", busy / (last["wall"] * WORKERS), "ratio")
    for name in DETECTOR_COUNTERS:
        run.metric(name, sum((j.telemetry or {}).get("metrics", {}).get(name, 0)
                             for j in jobs), "count")
    for group in GROUPS:
        run.metric(f"report.group_s.{group}",
                   sum(j.duration_s for j in jobs if j.job.group == group), "s")
    run.metric("trace_overhead_share",
               median([r["wall"] for r in traced]) / median([r["wall"] for r in plain]),
               "ratio")
