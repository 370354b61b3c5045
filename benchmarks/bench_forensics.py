"""Measurement of the timeline recorder's overhead.

The race-forensics recorder promises to be non-perturbing: it observes
the execution through the same :class:`~repro.runtime.ExecutionMonitor`
hooks every other monitor uses, keeps only logical timestamps, and does
all export work (Chrome trace, happens-before graph, HTML) after the
run finishes.  This benchmark quantifies what the recorder costs by
timing a mixed workload — one racy and two race-free benchmarks at the
``simsmall`` scale — under three configurations:

* ``forensics_off``  — the baseline: ``run_clean`` with no recorder.
* ``timeline_on``    — a :class:`TimelineRecorder` attached (plus the
  :class:`RaceContextMonitor` it implies); no exports rendered.  This
  is the always-on recording cost and carries the overhead budget.
* ``full_export``    — recording plus all three exports rendered
  per run (Chrome trace, HB graph + DOT, HTML).  Export cost is
  post-run and unbudgeted; it is reported for context.

Run it directly::

    PYTHONPATH=src python benchmarks/bench_forensics.py --out BENCH_forensics.json

``--check`` (release checklist) fails if the recording overhead
(``timeline_on``, exports off) exceeds 1.15x, or if repeated recorded
runs do not produce byte-identical timeline payloads.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any, Dict, List

from repro.clean import run_clean
from repro.obs import (
    TimelineRecorder,
    build_hb_graph,
    chrome_trace,
    hb_graph_dot,
    render_html,
)
from repro.workloads import build_program
from repro.workloads.suite import get_benchmark

from gates import within

# One racy run (dedup@seed0 races deterministically) and two race-free
# runs: a mix of sync-heavy and compute-heavy kernels.
WORKLOAD = [
    ("dedup", True),
    ("lu_ncb", False),
    ("dedup", False),
]
SCALE = "simsmall"
BUDGET = 1.15


def _run_suite(mode: str) -> List[Dict[str, Any]]:
    payloads: List[Dict[str, Any]] = []
    for name, racy in WORKLOAD:
        program = build_program(
            get_benchmark(name), scale=SCALE, racy=racy, seed=0
        )
        if mode == "forensics_off":
            run_clean(program)
            continue
        recorder = TimelineRecorder(label=name)
        run_clean(program, timeline=recorder)
        payload = recorder.to_payload()
        payloads.append(payload)
        if mode == "full_export":
            graph = build_hb_graph(payload)
            chrome_trace(payload)
            hb_graph_dot(graph)
            render_html(payload, graph=graph)
    return payloads


def _timed(mode: str, repeats: int) -> Dict[str, Any]:
    best = float("inf")
    fingerprints = set()
    events = segments = edges = 0
    for _ in range(repeats):
        start = time.perf_counter()
        payloads = _run_suite(mode)
        best = min(best, time.perf_counter() - start)
        if payloads:
            fingerprints.add(json.dumps(payloads, sort_keys=True))
            events = sum(len(p["events"]) for p in payloads)
            segments = sum(len(p["segments"]) for p in payloads)
            edges = sum(len(p["edges"]) for p in payloads)
    return {
        "seconds": best,
        "deterministic": len(fingerprints) <= 1,
        "events": events,
        "segments": segments,
        "edges": edges,
    }


def run_benchmarks(repeats: int) -> Dict[str, Any]:
    passes = {
        mode: _timed(mode, repeats)
        for mode in ("forensics_off", "timeline_on", "full_export")
    }
    base = passes["forensics_off"]["seconds"]
    overheads = {
        name: p["seconds"] / base
        for name, p in passes.items()
        if name != "forensics_off"
    }
    return {
        "benchmark": "race_forensics",
        "workload": {
            "runs": [f"{n}@{'racy' if r else 'clean'}" for n, r in WORKLOAD],
            "scale": SCALE,
            "repeats": repeats,
        },
        "seconds": {k: v["seconds"] for k, v in passes.items()},
        "overheads": overheads,
        "budget": {"timeline_on": BUDGET},
        "recorded": {
            k: {kk: v[kk] for kk in ("events", "segments", "edges")}
            for k, v in passes.items()
            if k != "forensics_off"
        },
        "deterministic": all(
            p["deterministic"] for p in passes.values()
        ),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats per configuration (best-of)")
    parser.add_argument("--out", default="BENCH_forensics.json")
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail if recording overhead exceeds the 1.15x budget or "
             "repeated runs produce different timeline payloads",
    )
    args = parser.parse_args(argv)

    report = run_benchmarks(args.repeats)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    secs = report["seconds"]
    over = report["overheads"]
    print(f"forensics off (baseline):  {secs['forensics_off']:.3f}s")
    print(f"timeline recording:        {secs['timeline_on']:.3f}s  "
          f"-> {over['timeline_on']:.2f}x (budget {BUDGET:.2f}x)")
    print(f"recording + all exports:   {secs['full_export']:.3f}s  "
          f"-> {over['full_export']:.2f}x")
    print(f"wrote {args.out}")
    if args.check:
        if not report["deterministic"]:
            print("FAIL: repeated recorded runs produced different "
                  "timeline payloads", file=sys.stderr)
            return 1
        if not within("timeline overhead", over["timeline_on"], "<=", BUDGET):
            print(f"FAIL: timeline recording overhead "
                  f"{over['timeline_on']:.2f}x above {BUDGET:.2f}x budget",
                  file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
