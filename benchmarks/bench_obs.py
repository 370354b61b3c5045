"""Measurement of the cross-process telemetry pipeline's overhead.

The telemetry pipeline promises "observability you can leave on": every
job runs inside a fresh telemetry scope, publishes its detector counters
and spans, and optionally attributes every race check to its address.
This benchmark quantifies what that costs by timing one experiment's
worth of jobs (the Figure-7 sweep of the fast report — 25 independent
software-CLEAN runs) under three configurations:

* ``telemetry_off``   — ``job_telemetry=False``: the pre-pipeline
  baseline, jobs run bare.
* ``telemetry_on``    — the default: per-job registry + spans collected
  and merged back in submission order.
* ``sites_on``        — telemetry plus exact (``sample_every=1``)
  hot-site attribution in the detector hot path.
* ``sites_sampled``   — hot-site attribution at ``sample_every=16``,
  the cheap always-on setting.

Run it directly::

    PYTHONPATH=src python benchmarks/bench_obs.py --out BENCH_obs.json

The JSON artifact carries per-configuration wall times, the relative
overheads, and the merged counter totals (which must be identical for
every telemetry-on pass — the merge is deterministic).  ``--check``
(release checklist) fails if telemetry overhead exceeds the budget or
the telemetry-on passes disagree on the merged totals.

A second microbenchmark times labeled vs. flat counters on the pattern
hot paths actually use — a held instrument handle incremented in a
tight loop (the service caches one handle per (counter, tenant)).
``--check`` additionally gates handle-held labeled increments at
<= 1.25x flat.  The per-call lookup path (``registry.inc`` with a
``labels=`` dict, which canonicalizes the label set every call) is
also reported, un-gated: it exists for cold paths and tests.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any, Dict

from repro.exec import JobRunner
from repro.experiments.report import build_jobs
from repro.obs import MetricsRegistry, Tracer

from gates import within


def _fig7_jobs():
    return [j for j in build_jobs(fast=True) if j.group == "fig7"]


def _timed(repeats: int, **runner_kwargs: Any) -> Dict[str, Any]:
    jobs = _fig7_jobs()
    best = float("inf")
    merged: Dict[str, Any] = {}
    stats: Dict[str, Any] = {}
    for _ in range(repeats):
        registry = MetricsRegistry()
        runner = JobRunner(registry=registry, tracer=Tracer(), **runner_kwargs)
        start = time.perf_counter()
        results = runner.run(jobs)
        best = min(best, time.perf_counter() - start)
        assert all(r.ok for r in results), [
            r.error for r in results if not r.ok
        ]
        merged = {
            name: value
            for name, value in registry.snapshot().items()
            if name.startswith("clean.")
        }
        stats = dict(runner.stats)
    return {"seconds": best, "clean_totals": merged, "stats": stats}


def _bench_labeled_counters(
    iterations: int = 200_000, repeats: int = 3
) -> Dict[str, Any]:
    """Best-of wall time for flat, labeled-handle and labeled-lookup
    counter increments (per-op seconds and ratios vs. flat)."""

    def flat_pass() -> float:
        registry = MetricsRegistry()
        counter = registry.counter("bench.flat")
        start = time.perf_counter()
        for _ in range(iterations):
            counter.inc()
        return time.perf_counter() - start

    def handle_pass() -> float:
        registry = MetricsRegistry()
        counter = registry.counter("bench.labeled", labels={"tenant": "t1"})
        start = time.perf_counter()
        for _ in range(iterations):
            counter.inc()
        return time.perf_counter() - start

    def lookup_pass() -> float:
        registry = MetricsRegistry()
        labels = {"tenant": "t1"}
        start = time.perf_counter()
        for _ in range(iterations):
            registry.inc("bench.labeled", labels=labels)
        return time.perf_counter() - start

    best = {"flat": float("inf"), "labeled_handle": float("inf"),
            "labeled_lookup": float("inf")}
    for _ in range(repeats):
        best["flat"] = min(best["flat"], flat_pass())
        best["labeled_handle"] = min(best["labeled_handle"], handle_pass())
        best["labeled_lookup"] = min(best["labeled_lookup"], lookup_pass())
    return {
        "iterations": iterations,
        "seconds": best,
        "ns_per_op": {k: v / iterations * 1e9 for k, v in best.items()},
        "ratios": {
            "labeled_handle": best["labeled_handle"] / best["flat"],
            "labeled_lookup": best["labeled_lookup"] / best["flat"],
        },
    }


def run_benchmarks(repeats: int) -> Dict[str, Any]:
    passes = {
        "telemetry_off": _timed(repeats, job_telemetry=False),
        "telemetry_on": _timed(repeats),
        "sites_on": _timed(repeats, profile_sites=True),
        "sites_sampled": _timed(
            repeats, profile_sites=True, sample_every=16
        ),
    }
    base = passes["telemetry_off"]["seconds"]
    overheads = {
        name: p["seconds"] / base
        for name, p in passes.items()
        if name != "telemetry_off"
    }
    return {
        "benchmark": "telemetry_pipeline",
        "workload": {"jobs": len(_fig7_jobs()), "group": "fig7",
                     "repeats": repeats},
        "seconds": {k: v["seconds"] for k, v in passes.items()},
        "overheads": overheads,
        "clean_totals": {
            k: v["clean_totals"] for k, v in passes.items()
        },
        "labeled_counters": _bench_labeled_counters(repeats=repeats),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats per configuration (best-of)")
    parser.add_argument("--out", default="BENCH_obs.json")
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail if telemetry overhead exceeds budget or merged "
             "totals diverge between telemetry-on passes",
    )
    args = parser.parse_args(argv)

    report = run_benchmarks(args.repeats)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    secs = report["seconds"]
    over = report["overheads"]
    print(f"telemetry off (baseline):      {secs['telemetry_off']:.3f}s")
    print(f"telemetry on (default):        {secs['telemetry_on']:.3f}s  "
          f"-> {over['telemetry_on']:.2f}x")
    print(f"hot sites, exact:              {secs['sites_on']:.3f}s  "
          f"-> {over['sites_on']:.2f}x")
    print(f"hot sites, sampled (1/16):     {secs['sites_sampled']:.3f}s  "
          f"-> {over['sites_sampled']:.2f}x")
    labeled = report["labeled_counters"]
    ns = labeled["ns_per_op"]
    ratios = labeled["ratios"]
    print(f"counter, flat:                 {ns['flat']:.0f}ns/op")
    print(f"counter, labeled (handle):     {ns['labeled_handle']:.0f}ns/op  "
          f"-> {ratios['labeled_handle']:.2f}x")
    print(f"counter, labeled (lookup):     {ns['labeled_lookup']:.0f}ns/op  "
          f"-> {ratios['labeled_lookup']:.2f}x  (un-gated)")
    print(f"wrote {args.out}")
    if args.check:
        totals = report["clean_totals"]
        if not totals["telemetry_on"]:
            print("FAIL: telemetry-on pass merged no clean.* counters",
                  file=sys.stderr)
            return 1
        for name in ("sites_on", "sites_sampled"):
            if totals[name] != totals["telemetry_on"]:
                print(f"FAIL: merged clean.* totals diverge in {name}",
                      file=sys.stderr)
                return 1
        if totals["telemetry_off"]:
            print("FAIL: telemetry-off pass leaked clean.* counters",
                  file=sys.stderr)
            return 1
        # Generous bound: the per-job scope + merge must stay cheap.
        if not within("telemetry overhead", over["telemetry_on"], "<=", 2.0):
            print("FAIL: telemetry-on overhead above 2x", file=sys.stderr)
            return 1
        # A held labeled handle is the same Counter object as a flat
        # one — the label cost was paid once at registration.
        if not within("labeled handle", ratios["labeled_handle"], "<=", 1.25):
            print(
                f"FAIL: handle-held labeled counter overhead "
                f"{ratios['labeled_handle']:.2f}x above 1.25x budget",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
