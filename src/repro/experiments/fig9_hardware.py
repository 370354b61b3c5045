"""Figure 9: hardware-supported race detection performance.

The paper's Figure 9 shows execution time with CLEAN's hardware race
detection active, normalized to execution with no race detection
(deterministic synchronization off in both).  Headline: hardware lowers
the detection penalty from the software 5.8x to 10.4% on average, never
more than 46.7% (dedup, whose byte-granular writes keep its metadata
lines expanded).

Structured as a per-benchmark :func:`compute` step over a recorded
trace plus an :func:`aggregate` step (``repro.experiments.hwjobs``
wraps compute into runner-submittable jobs that record their own
traces); :func:`run` composes the two serially.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional

from ..hardware.simulator import SimConfig, simulate_trace
from ..runtime.trace import Trace
from ..workloads.suite import HW_BENCHMARKS, get_benchmark
from .common import ExperimentResult
from .traces import record_trace

__all__ = ["compute", "aggregate", "run", "main"]


def compute(benchmark: str, trace, simulate=simulate_trace) -> Dict[str, object]:
    """Baseline and detection cycle counts of ``benchmark``'s trace.

    ``simulate(trace, config)`` runs one simulation; the hw job passes a
    memoizing one so configurations shared across figures run once.
    """
    base = simulate(trace, SimConfig(detection=False))
    det = simulate(trace, SimConfig(detection=True))
    return {
        "benchmark": benchmark,
        "base_cycles": base.cycles,
        "det_cycles": det.cycles,
    }


def aggregate(payloads: List[Dict[str, object]]) -> ExperimentResult:
    """Assemble Figure 9 from per-benchmark payloads (roster order)."""
    result = ExperimentResult(
        experiment="Figure 9",
        title="Hardware-supported race detection (normalized execution time)",
        columns=["benchmark", "baseline cycles", "detection cycles", "slowdown"],
    )
    slowdowns = []
    for p in payloads:
        if "error" in p:
            result.add_failure(p["benchmark"], p["error"])
            continue
        slowdown = p["det_cycles"] / p["base_cycles"]
        slowdowns.append(slowdown)
        result.add_row(p["benchmark"], p["base_cycles"], p["det_cycles"], slowdown)
    if slowdowns:
        names = [p["benchmark"] for p in payloads if "error" not in p]
        worst_i = max(range(len(slowdowns)), key=slowdowns.__getitem__)
        result.summary = [
            f"mean slowdown: {(statistics.mean(slowdowns) - 1) * 100:.1f}% "
            "(paper: 10.4%)",
            f"max slowdown:  {names[worst_i]} "
            f"{(slowdowns[worst_i] - 1) * 100:.1f}% (paper: dedup, 46.7%)",
        ]
    return result


def run(
    scale: str = "simsmall",
    seed: int = 0,
    traces: Optional[Dict[str, Trace]] = None,
) -> ExperimentResult:
    """Regenerate Figure 9 (facesim omitted, as in the paper)."""
    payloads = []
    for name in HW_BENCHMARKS:
        trace = (
            traces[name]
            if traces is not None
            else record_trace(get_benchmark(name), scale=scale, seed=seed)
        )
        payloads.append(compute(name, trace))
    return aggregate(payloads)


def main() -> None:
    print(run().render())


if __name__ == "__main__":
    main()
