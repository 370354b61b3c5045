"""Figure 11: WAW/RAW detection with 1- and 4-byte epochs.

The paper's Figure 11 compares CLEAN's compacted design against two
no-compaction alternatives: hypothetical 8-bit epochs (1 metadata byte
per data byte — the performance upper bound) and full 32-bit epochs per
byte (4 metadata bytes per data byte).  Findings: CLEAN tracks the
upper bound closely thanks to line compaction (except dedup, whose lines
are genuinely expanded), while 4-byte epochs significantly degrade
ocean_cp, ocean_ncp and radix — the highest-baseline-LLC-miss-rate
benchmarks, whose miss rates rise above 9% under the quadrupled metadata.

Machine note: this experiment uses a further-scaled cache hierarchy
(L1 4KB / L2 8KB / L3 64KB) so the scaled workloads' footprints stress
the LLC the way the real simsmall footprints stress the real 16MB LLC —
under 4-byte epochs the ocean/radix metadata exceeds the LLC and their
miss rates jump to ~20%, the paper's ">9%" effect.

Structured as a per-benchmark :func:`compute` step over a recorded
trace plus an :func:`aggregate` step; :func:`run` composes the two
serially.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional

from ..hardware.simulator import SimConfig, simulate_trace
from ..runtime.trace import Trace
from ..workloads.suite import HW_BENCHMARKS, get_benchmark
from .common import ExperimentResult
from .traces import record_trace

__all__ = ["compute", "aggregate", "run", "main", "FIG11_MACHINE"]

#: Cache capacities scaled so metadata pressure reaches the LLC.
FIG11_MACHINE = dict(l1_size=4 * 1024, l2_size=8 * 1024, l3_size=64 * 1024)


def compute(benchmark: str, trace, simulate=simulate_trace) -> Dict[str, object]:
    """Normalized time per metadata design for ``benchmark``'s trace
    (``simulate`` as in :func:`repro.experiments.fig9_hardware.compute`)."""
    base = simulate(trace, SimConfig(detection=False, **FIG11_MACHINE))
    payload: Dict[str, object] = {"benchmark": benchmark}
    for mode in ("clean", "epoch1", "epoch4"):
        det = simulate(
            trace, SimConfig(detection=True, metadata_mode=mode, **FIG11_MACHINE)
        )
        payload[mode] = det.cycles / base.cycles
        if mode == "epoch4":
            payload["llc4"] = det.hierarchy.stats.llc_miss_rate * 100
    return payload


def aggregate(payloads: List[Dict[str, object]]) -> ExperimentResult:
    """Assemble Figure 11 from per-benchmark payloads (roster order)."""
    result = ExperimentResult(
        experiment="Figure 11",
        title="Race detection with 1-byte / 4-byte epochs (normalized time)",
        columns=["benchmark", "CLEAN", "1B epochs", "4B epochs", "4B LLC miss %"],
    )
    deltas = {}
    gap_to_bound = []
    for p in payloads:
        if "error" in p:
            result.add_failure(p["benchmark"], p["error"])
            continue
        result.add_row(
            p["benchmark"], p["clean"], p["epoch1"], p["epoch4"], p["llc4"]
        )
        deltas[p["benchmark"]] = p["epoch4"] / p["clean"]
        if p["benchmark"] != "dedup":
            gap_to_bound.append(p["clean"] / p["epoch1"])
    if deltas:
        worst3 = sorted(deltas, key=deltas.get, reverse=True)[:3]
        result.summary = [
            f"CLEAN vs 1B-epoch bound (non-dedup geomean ratio): "
            f"{statistics.geometric_mean(gap_to_bound):.3f} (paper: close to 1)",
            f"benchmarks hurt most by 4B epochs: {', '.join(sorted(worst3))} "
            "(paper: ocean_cp, ocean_ncp, radix)",
        ]
    return result


def run(
    scale: str = "simsmall",
    seed: int = 0,
    traces: Optional[Dict[str, Trace]] = None,
) -> ExperimentResult:
    """Regenerate Figure 11: normalized time per metadata design."""
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
