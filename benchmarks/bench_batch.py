"""Throughput of the batch-first offline trace analysis.

Two measurements of the two analysis modes of
:func:`repro.analysis.analyze_trace`:

* ``scalar`` — the reference path: every access through the monitor's
  per-event ``_check_one``.
* ``batch``  — the windowed kernel: segments queue with a copy of their
  thread's vector clock and every ``WINDOW`` shared accesses are
  race-checked in one numpy pass over the epoch store.

By default the input is one synthetic trace — four threads hammering
disjoint slabs with sparse lock traffic.  ``--suite SCALE`` instead
records the race-free variant of every suite model at ``SCALE`` and
reports, per model, batch and scalar accesses/s and their ratio, plus
the geomeans: the paper's workloads, sync-dense ones included, rather
than one trace built for the batch shape.

Both modes must agree — on the synthetic trace in verdict, race and
every ``clean.*`` counter, on the suite in the full payload (race
position and hot sites included) — and the benchmark asserts it before
reporting a single number.  The JSON artifact records the host (CPUs,
Python, platform), the git HEAD with a dirty flag, and a digest of
``src/``.

Run it directly (CI's bench-smoke job does)::

    PYTHONPATH=src python benchmarks/bench_batch.py --out BENCH_batch.json
    PYTHONPATH=src python benchmarks/bench_batch.py --suite native \
        --out BENCH_batch.json

``--check`` fails unless the batch path reaches 2x scalar throughput on
the synthetic trace, or, with ``--suite``, 1x scalar on every model.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
import time
from typing import Dict

from repro.analysis import analyze_trace
from repro.determinism.counters import PreciseCounter
from repro.experiments.traces import record_trace_file
from repro.runtime import (
    Acquire,
    Join,
    Lock,
    Program,
    Read,
    Release,
    RoundRobinPolicy,
    Spawn,
    TraceRecorder,
    Write,
)
from repro.workloads.suite import RACE_FREE_VARIANTS

from gates import within
from provenance import code, host

#: Worker threads, per-thread iterations (4 accesses each) and accesses
#: between lock round trips: sparse syncs give the batch lane the long
#: synchronization-free runs it vectorizes.
N_THREADS = 4
N_ITERS = 1_500
SYNC_EVERY = 250


def _worker(ctx, base, lock, idx):
    addr = base + 4096 * idx
    for i in range(N_ITERS):
        slot = addr + 8 * (i % 64)
        yield Write(slot, 8, i & 0xFFFFFFFF)
        v = yield Read(slot, 8)
        yield Write(slot + 8, 4, (v ^ i) & 0xFFFF)
        yield Read(slot + 8, 4)
        if i % SYNC_EVERY == 0:
            yield Acquire(lock)
            yield Release(lock)


def _main(ctx):
    base = ctx.alloc(4096 * N_THREADS)
    lock = Lock("bench")
    kids = []
    for idx in range(N_THREADS):
        kids.append((yield Spawn(_worker, (base, lock, idx))))
    for k in kids:
        yield Join(k)


def _record(path: str) -> int:
    """Record the workload record-only; returns the trace's event count."""
    recorder = TraceRecorder()
    result = Program(_main).run(
        policy=RoundRobinPolicy(),
        monitors=[recorder],
        max_threads=16,
        counter_cost=PreciseCounter(),
    )
    assert result.race is None
    recorder.trace.save(path)
    return recorder.trace.total_events


def _time_mode(path: str, mode: str, repeats: int, hot_sites: int = 0):
    best = float("inf")
    report = None
    for _ in range(repeats):
        start = time.perf_counter()
        report = analyze_trace(path, mode=mode, hot_sites=hot_sites)
        best = min(best, time.perf_counter() - start)
    return best, report


def run_benchmarks(repeats: int) -> Dict[str, object]:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "bench.trace")
        events = _record(path)
        scalar_s, scalar = _time_mode(path, "scalar", repeats)
        batch_s, batch = _time_mode(path, "batch", repeats)
    # Equivalence first, numbers second: a fast wrong answer is no answer.
    assert batch.racy == scalar.racy
    assert batch.race == scalar.race
    assert batch.counters == scalar.counters
    timings = {"scalar": scalar_s, "batch": batch_s}
    return {
        "benchmark": "batch_analysis",
        "workload": {
            "threads": N_THREADS,
            "iters_per_thread": N_ITERS,
            "sync_every": SYNC_EVERY,
            "trace_events": events,
        },
        "host": host(),
        "code": code(),
        "repeats": repeats,
        "seconds_best": timings,
        "events_per_sec": {
            mode: events / seconds for mode, seconds in timings.items()
        },
        "speedups": {"batch_vs_scalar": scalar_s / batch_s},
    }


#: The suite's recording seed, and the hot-site count the service asks for.
SUITE_SEED = 0
SUITE_HOT_SITES = 8


def _geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def run_suite(scale: str, repeats: int) -> Dict[str, object]:
    """Batch vs scalar on every race-free suite model at ``scale``."""
    models: Dict[str, Dict[str, object]] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in RACE_FREE_VARIANTS:
            path = os.path.join(tmp, f"{name}.trace")
            record_trace_file(name, path, scale=scale, seed=SUITE_SEED)
            scalar_s, scalar = _time_mode(
                path, "scalar", repeats, SUITE_HOT_SITES
            )
            batch_s, batch = _time_mode(
                path, "batch", repeats, SUITE_HOT_SITES
            )
            # Equivalence first, numbers second.
            expected = dict(scalar.to_payload(), mode="batch")
            assert batch.to_payload() == expected, name
            models[name] = {
                "accesses": batch.accesses,
                "syncs": batch.syncs,
                "seconds_best": {"scalar": scalar_s, "batch": batch_s},
                "accesses_per_s": {
                    "scalar": batch.accesses / scalar_s,
                    "batch": batch.accesses / batch_s,
                },
                "batch_vs_scalar": scalar_s / batch_s,
            }
    rates = [row["accesses_per_s"] for row in models.values()]
    return {
        "benchmark": "batch_analysis_suite",
        "workload": {
            "models": list(RACE_FREE_VARIANTS),
            "scale": scale,
            "seed": SUITE_SEED,
            "hot_sites": SUITE_HOT_SITES,
            "repeats": repeats,
        },
        "models": models,
        "geomean": {
            "scalar_accesses_per_s": _geomean(r["scalar"] for r in rates),
            "batch_accesses_per_s": _geomean(r["batch"] for r in rates),
            "batch_vs_scalar": _geomean(
                row["batch_vs_scalar"] for row in models.values()
            ),
        },
        "host": host(),
        "code": code(),
    }


def _main_suite(args) -> int:
    report = run_suite(args.suite, args.repeats)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"{'model':<16} {'batch/s':>12} {'scalar/s':>12} {'ratio':>7}")
    for name, row in report["models"].items():
        rates = row["accesses_per_s"]
        print(f"{name:<16} {rates['batch']:>12,.0f} {rates['scalar']:>12,.0f} "
              f"{row['batch_vs_scalar']:>6.2f}x")
    geo = report["geomean"]
    print(f"{'geomean':<16} {geo['batch_accesses_per_s']:>12,.0f} "
          f"{geo['scalar_accesses_per_s']:>12,.0f} "
          f"{geo['batch_vs_scalar']:>6.2f}x")
    print(f"wrote {args.out}")
    slow = [
        name for name, row in report["models"].items()
        if row["batch_vs_scalar"] < 1.0
    ]
    if args.check and not within(
        "slowest model batch/scalar",
        min(row["batch_vs_scalar"] for row in report["models"].values()),
        ">=", 1.0,
    ):
        print(f"FAIL: batch below scalar on {', '.join(slow)}", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", default="BENCH_batch.json")
    parser.add_argument(
        "--suite",
        metavar="SCALE",
        default=None,
        help="measure every race-free suite model at SCALE instead",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail unless batch replay reaches 2x scalar "
             "(with --suite: 1x on every model)",
    )
    args = parser.parse_args(argv)
    if args.suite is not None:
        return _main_suite(args)

    report = run_benchmarks(args.repeats)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    times = report["seconds_best"]
    rates = report["events_per_sec"]
    speed = report["speedups"]
    print(f"scalar:   {times['scalar']:.3f}s  ({rates['scalar']:,.0f} ev/s)")
    print(f"batch:    {times['batch']:.3f}s  ({rates['batch']:,.0f} ev/s)  "
          f"-> {speed['batch_vs_scalar']:.2f}x")
    print(f"wrote {args.out}")
    if args.check and not within(
        "batch/scalar", speed["batch_vs_scalar"], ">=", 2.0
    ):
        print("FAIL: batch replay below 2x scalar", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
