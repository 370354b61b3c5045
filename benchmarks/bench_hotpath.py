"""Before/after measurement of the fused monitor-dispatch hot path.

Compares the scheduler's compiled per-hook dispatch (``fused=True``, the
default) against the pre-refactor reference dispatch (``fused=False``:
every monitor's hook called on every event, no-op base hooks included,
plus the original support paths — per-step thread sort,
isinstance-chain op classification, counter-dict materialization in the
Kendo gate), kept in-tree precisely so this comparison stays honest over
time.  The reference mode was validated against the actual pre-refactor
commit on this workload (reference 0.31s vs. real pre-refactor 0.34s —
i.e. the in-tree baseline slightly *understates* the true speedup).

Three scenarios, each timed over the same memory-heavy workload:

* ``raw``      — detector off, monitors attached (Kendo gate + SFR
  tracker, neither of which watches memory): the dispatch overhead in
  its purest form.  This is the headline number; the fused path should
  be well over 1.5x faster because it skips every per-access hook call.
* ``clean``    — the full CLEAN stack (detector + gate): dispatch is a
  smaller share of the work, so the speedup is smaller but still real.
* ``fastpath`` — CLEAN fused, same-epoch filter on vs off: what the
  written-this-epoch filter saves on top of fused dispatch.

Run it directly (CI's bench-smoke job does)::

    PYTHONPATH=src python benchmarks/bench_hotpath.py --out BENCH_hotpath.json

The JSON artifact carries per-scenario times (best of ``--repeats``) and
speedups.  No thresholds are enforced in CI; the assertion below runs
only under ``--check`` (used by the release checklist).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Callable, Dict

from repro.clean import run_clean
from repro.determinism.kendo import KendoGate
from repro.runtime import (
    Acquire,
    Compute,
    Join,
    Lock,
    Program,
    Read,
    Release,
    RoundRobinPolicy,
    SfrTracker,
    Spawn,
    Write,
)

from gates import within

#: Worker threads and per-thread loop iterations of the synthetic
#: workload (each iteration: 2 reads + 2 writes + occasional sync).
N_THREADS = 4
N_ITERS = 2_000
SYNC_EVERY = 100


def _worker(ctx, base, lock, idx):
    addr = base + 64 * idx
    for i in range(N_ITERS):
        v = yield Read(addr, 8)
        yield Write(addr, 8, (v + 1) & 0xFFFFFFFF)
        v2 = yield Read(addr + 8, 4)
        yield Write(addr + 8, 4, (v2 ^ i) & 0xFFFF)
        if i % SYNC_EVERY == 0:
            yield Acquire(lock)
            yield Compute(1)
            yield Release(lock)


def _main(ctx):
    base = ctx.alloc(64 * N_THREADS)
    lock = Lock("bench")
    kids = []
    for idx in range(N_THREADS):
        kids.append((yield Spawn(_worker, (base, lock, idx))))
    for k in kids:
        yield Join(k)


def _time(fn: Callable[[], object], repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _run_raw(fused: bool):
    result = Program(_main).run(
        policy=RoundRobinPolicy(),
        monitors=[KendoGate(), SfrTracker()],
        max_threads=16,
        fused=fused,
    )
    assert result.race is None
    return result


def _run_clean(fused: bool, fastpath: bool = True):
    from repro.clean import clean_stack
    from repro.determinism.counters import PreciseCounter

    monitors, _clean, _gate = clean_stack(max_threads=16, fastpath=fastpath)
    result = Program(_main).run(
        policy=RoundRobinPolicy(),
        monitors=monitors,
        max_threads=16,
        counter_cost=PreciseCounter(),
        fused=fused,
    )
    assert result.race is None
    return result


def run_benchmarks(repeats: int) -> Dict[str, object]:
    timings = {
        "raw_fused": _time(lambda: _run_raw(fused=True), repeats),
        "raw_unfused": _time(lambda: _run_raw(fused=False), repeats),
        "clean_fused": _time(lambda: _run_clean(fused=True), repeats),
        "clean_unfused": _time(lambda: _run_clean(fused=False), repeats),
        "clean_fused_nofastpath": _time(
            lambda: _run_clean(fused=True, fastpath=False), repeats
        ),
    }
    speedups = {
        "raw_fused_vs_unfused": timings["raw_unfused"] / timings["raw_fused"],
        "clean_fused_vs_unfused": timings["clean_unfused"] / timings["clean_fused"],
        "clean_fastpath_vs_off": (
            timings["clean_fused_nofastpath"] / timings["clean_fused"]
        ),
    }
    return {
        "benchmark": "hotpath_dispatch",
        "workload": {
            "threads": N_THREADS,
            "iters_per_thread": N_ITERS,
            "sync_every": SYNC_EVERY,
        },
        "repeats": repeats,
        "seconds_best": timings,
        "speedups": speedups,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", default="BENCH_hotpath.json")
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail unless the headline speedup reaches 1.5x",
    )
    args = parser.parse_args(argv)

    report = run_benchmarks(args.repeats)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    times = report["seconds_best"]
    speed = report["speedups"]
    print(f"raw (detector off, monitors on):  "
          f"fused {times['raw_fused']:.3f}s  "
          f"unfused {times['raw_unfused']:.3f}s  "
          f"-> {speed['raw_fused_vs_unfused']:.2f}x")
    print(f"clean (full stack):               "
          f"fused {times['clean_fused']:.3f}s  "
          f"unfused {times['clean_unfused']:.3f}s  "
          f"-> {speed['clean_fused_vs_unfused']:.2f}x")
    print(f"clean same-epoch filter:          "
          f"on {times['clean_fused']:.3f}s  "
          f"off {times['clean_fused_nofastpath']:.3f}s  "
          f"-> {speed['clean_fastpath_vs_off']:.2f}x")
    print(f"wrote {args.out}")
    if args.check and not within(
        "raw fused/unfused", speed["raw_fused_vs_unfused"], ">=", 1.5
    ):
        print("FAIL: headline fused-dispatch speedup below 1.5x", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
