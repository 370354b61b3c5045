"""Figure 10: the breakdown of memory accesses.

The paper's Figure 10 gives two per-benchmark breakdowns of memory
accesses under hardware CLEAN: by the complexity of the race check they
required (private / fast / VC load / update / VC load & update / expand)
and by metadata line state (private / compact / expanded).  Headlines:
54.2% of accesses resolve on the fast path, ~90% including private are
quick; line expansions are under 0.02% of accesses in every benchmark;
94.3% of accesses are private or touch same-size (compact) metadata; and
dedup is the exception whose accesses are mostly to expanded lines.

Structured as a per-benchmark :func:`compute` step over a recorded
trace plus an :func:`aggregate` step; :func:`run` composes the two
serially.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional

from ..hardware.race_unit import AccessClass
from ..hardware.simulator import SimConfig, simulate_trace
from ..runtime.trace import Trace
from ..workloads.suite import HW_BENCHMARKS, get_benchmark
from .common import ExperimentResult
from .traces import record_trace

__all__ = ["compute", "aggregate", "run", "main"]


def compute(benchmark: str, trace, simulate=simulate_trace) -> Dict[str, object]:
    """Both Figure-10 breakdowns of ``benchmark``'s trace, in percent
    (``simulate`` as in :func:`repro.experiments.fig9_hardware.compute`)."""
    sim = simulate(trace, SimConfig(detection=True))
    stats = sim.check_stats
    assert stats is not None
    total = stats.total
    return {
        "benchmark": benchmark,
        "shares": {c: stats.fraction(c) * 100 for c in AccessClass.ALL},
        "compact_pct": stats.compact_accesses / total * 100 if total else 0.0,
        "expanded_pct": stats.expanded_accesses / total * 100 if total else 0.0,
        "quick_pct": stats.quick_fraction * 100,
        "compact_or_private_pct": stats.compact_or_private_fraction * 100,
    }


def aggregate(payloads: List[Dict[str, object]]) -> ExperimentResult:
    """Assemble Figure 10 from per-benchmark payloads (roster order)."""
    result = ExperimentResult(
        experiment="Figure 10",
        title="Breakdown of memory accesses under hardware CLEAN (%)",
        columns=[
            "benchmark",
            "private",
            "fast",
            "vc_load",
            "update",
            "vc_load_update",
            "expand",
            "compact",
            "expanded",
        ],
    )
    quick, compact_like, expand_fracs, fast_fracs = [], [], [], []
    dedup_expanded = 0.0
    for p in payloads:
        if "error" in p:
            result.add_failure(p["benchmark"], p["error"])
            continue
        shares = p["shares"]
        result.add_row(
            p["benchmark"],
            shares[AccessClass.PRIVATE],
            shares[AccessClass.FAST],
            shares[AccessClass.VC_LOAD],
            shares[AccessClass.UPDATE],
            shares[AccessClass.VC_LOAD_UPDATE],
            shares[AccessClass.EXPAND],
            p["compact_pct"],
            p["expanded_pct"],
        )
        quick.append(p["quick_pct"])
        compact_like.append(p["compact_or_private_pct"])
        expand_fracs.append(shares[AccessClass.EXPAND])
        fast_fracs.append(shares[AccessClass.FAST])
        if p["benchmark"] == "dedup":
            dedup_expanded = p["expanded_pct"]
    if fast_fracs:
        result.summary = [
            f"mean fast-path share: {statistics.mean(fast_fracs):.1f}% "
            "(paper: 54.2%)",
            f"mean quick (fast+private) share: {statistics.mean(quick):.1f}% "
            "(paper: ~90%)",
            f"max expansion share: {max(expand_fracs):.4f}% "
            "(paper: <0.02% in every benchmark)",
            f"mean private-or-compact share: {statistics.mean(compact_like):.1f}% "
            "(paper: 94.3%)",
            f"dedup expanded-line share: {dedup_expanded:.1f}% "
            "(paper: majority of dedup accesses)",
        ]
    return result


def run(
    scale: str = "simsmall",
    seed: int = 0,
    traces: Optional[Dict[str, Trace]] = None,
) -> ExperimentResult:
    """Regenerate both Figure-10 breakdowns."""
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
