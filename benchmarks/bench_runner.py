"""Measurement of the parallel experiment runner (``repro.exec``).

Times one experiment's worth of per-benchmark jobs (the Figure-7 sweep
of the fast report — 25 independent software-CLEAN runs) under four
configurations:

* ``serial``         — in-process execution, no cache: the pre-runner
  baseline (exactly what the old ``fig7_freq.run()`` loop did).
* ``parallel``       — ``--jobs N`` worker processes, no cache.  The
  speedup here scales with available cores; on a single-core container
  it only measures the process-isolation overhead.
* ``cold_cache``     — worker processes plus a fresh checkpoint store
  (every job executes and writes its result file).
* ``warm_resume``    — the same store again: every job is served from
  its checkpoint, which is what an interrupted-then-restarted report
  costs.  This is the headline number — resume skips all recomputation
  regardless of core count.

Run it directly::

    PYTHONPATH=src python benchmarks/bench_runner.py --out BENCH_runner.json

The JSON artifact carries per-configuration wall times, the runner's
own stats per pass, and the speedups.  ``--check`` (release checklist)
fails unless warm resume actually skipped every execution and beat the
serial pass.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import sys
import tempfile
import time
from typing import Dict

from repro.exec import CheckpointStore, JobRunner
from repro.experiments.report import build_jobs

from gates import within


def _fig7_jobs():
    return [j for j in build_jobs(fast=True) if j.group == "fig7"]


def _timed(runner: JobRunner) -> Dict[str, object]:
    jobs = _fig7_jobs()
    start = time.perf_counter()
    results = runner.run(jobs)
    elapsed = time.perf_counter() - start
    assert all(r.ok for r in results), [r.error for r in results if not r.ok]
    return {"seconds": elapsed, "stats": dict(runner.stats)}


def run_benchmarks(workers: int) -> Dict[str, object]:
    passes: Dict[str, Dict[str, object]] = {}
    passes["serial"] = _timed(JobRunner(workers=1))
    passes["parallel"] = _timed(JobRunner(workers=workers))
    with tempfile.TemporaryDirectory(prefix="bench-runner-") as cache:
        store = CheckpointStore(cache)
        passes["cold_cache"] = _timed(JobRunner(workers=workers, store=store))
        passes["warm_resume"] = _timed(JobRunner(workers=workers, store=store))
    serial = passes["serial"]["seconds"]
    speedups = {
        "parallel_vs_serial": serial / passes["parallel"]["seconds"],
        "warm_resume_vs_serial": serial / passes["warm_resume"]["seconds"],
    }
    return {
        "benchmark": "experiment_runner",
        "workload": {
            "jobs": len(_fig7_jobs()),
            "group": "fig7",
            "workers": workers,
            "cpus": multiprocessing.cpu_count(),
        },
        "seconds": {k: v["seconds"] for k, v in passes.items()},
        "runner_stats": {k: v["stats"] for k, v in passes.items()},
        "speedups": speedups,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes (default: CPU count, max 4)")
    parser.add_argument("--out", default="BENCH_runner.json")
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail unless warm resume was fully cache-served and faster",
    )
    args = parser.parse_args(argv)
    workers = (
        args.jobs
        if args.jobs is not None
        else max(2, min(4, multiprocessing.cpu_count()))
    )

    report = run_benchmarks(workers)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    secs = report["seconds"]
    speed = report["speedups"]
    warm = report["runner_stats"]["warm_resume"]
    print(f"serial (in-process, no cache):   {secs['serial']:.3f}s")
    print(f"parallel ({workers} workers, no cache): {secs['parallel']:.3f}s  "
          f"-> {speed['parallel_vs_serial']:.2f}x")
    print(f"cold cache (execute + store):    {secs['cold_cache']:.3f}s")
    print(f"warm resume (all checkpointed):  {secs['warm_resume']:.3f}s  "
          f"-> {speed['warm_resume_vs_serial']:.2f}x "
          f"(executed={warm['executed']}, cached={warm['cache_hits']})")
    print(f"wrote {args.out}")
    if args.check:
        if warm["executed"] != 0:
            print("FAIL: warm resume re-executed jobs", file=sys.stderr)
            return 1
        if not within("warm resume/serial", speed["warm_resume_vs_serial"],
                      ">=", 2.0):
            print("FAIL: warm-resume speedup below 2x", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
