"""Throughput of the trace-driven hardware simulator, per configuration.

Records the ``test``-scale trace of every hardware benchmark once (seed
0, so the inputs are fixed), then times ``simulate_trace`` over all of
them under each distinct ``SimConfig`` the hardware report job runs:
the default machine without detection, with CLEAN and with the precise
(WAR) unit, and the Figure-11 machine without detection and with the
clean, epoch1 and epoch4 metadata designs.

The figure of merit is simulated accesses per second: every
simulation replays its trace twice (warmup, then the measured pass), so
it is ``2 * data accesses`` over the wall time of ``simulate_trace``,
best of ``--repeats``.  The JSON also records the host (CPUs, Python,
platform), the git HEAD with a dirty flag, and a digest of ``src/`` so
a number is never read against code it was not measured on.

Run it with::

    PYTHONPATH=src python benchmarks/bench_sim.py --repeats 5 --out BENCH_sim.json

No threshold is enforced.
"""

from __future__ import annotations

import argparse
import json
import time
from typing import Dict

from repro.experiments.fig11_epochsize import FIG11_MACHINE
from repro.experiments.traces import record_trace
from repro.hardware import SimConfig, simulate_trace
from repro.workloads.suite import HW_BENCHMARKS, get_benchmark

from provenance import code, host

CONFIGS = {
    "base": SimConfig(detection=False),
    "clean": SimConfig(detection=True),
    "precise": SimConfig(detection=True, check_unit="precise"),
    "fig11_base": SimConfig(detection=False, **FIG11_MACHINE),
    "fig11_clean": SimConfig(detection=True, **FIG11_MACHINE),
    "fig11_epoch1": SimConfig(
        detection=True, metadata_mode="epoch1", **FIG11_MACHINE
    ),
    "fig11_epoch4": SimConfig(
        detection=True, metadata_mode="epoch4", **FIG11_MACHINE
    ),
}


def run_benchmark(repeats: int) -> Dict[str, object]:
    traces = [
        record_trace(get_benchmark(name), scale="test", seed=0)
        for name in HW_BENCHMARKS
    ]
    results: Dict[str, Dict[str, float]] = {}
    for label, config in CONFIGS.items():
        best = float("inf")
        accesses = 0
        for _ in range(repeats):
            start = time.perf_counter()
            accesses = sum(
                2 * simulate_trace(trace, config).data_accesses
                for trace in traces
            )
            best = min(best, time.perf_counter() - start)
        results[label] = {
            "seconds_best": best,
            "simulated_accesses": accesses,
            "accesses_per_s": accesses / best,
        }
    return {
        "benchmark": "hardware_simulator",
        "workload": {
            "benchmarks": list(HW_BENCHMARKS),
            "scale": "test",
            "seed": 0,
            "repeats": repeats,
        },
        "configs": results,
        "host": host(),
        "code": code(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", default="BENCH_sim.json")
    args = parser.parse_args(argv)

    report = run_benchmark(args.repeats)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for label, row in report["configs"].items():
        print(f"{label:<13} {row['accesses_per_s']:>12,.0f} accesses/s "
              f"({row['seconds_best']:.3f}s best of {args.repeats})")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
