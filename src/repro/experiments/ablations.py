"""Ablations: the design choices CLEAN's evaluation motivates but does
not plot, quantified with this repository's machinery.

A1 — **WAR precision in hardware** (Sections 3.2, 7): the same simulator
     hosting a FastTrack-complete check unit (read metadata maintained
     and scanned) instead of CLEAN's WAW/RAW-only unit.  The paper cites
     RADISH-class designs at up to 3x; CLEAN's entire efficiency story
     is dropping exactly this work.

A2 — **CAS vs lock-based check atomicity** (Section 4.3): the paper
     cites >40% of detection overhead going to locking in lock-based
     detectors; CLEAN's CAS scheme avoids it.  Priced through the cost
     model on measured event counts.

A3 — **Clock width** (Section 4.5): rollover count and total reset cost
     as a function of the epoch clock width, on the most sync-intensive
     benchmark — why the 23-bit default is comfortably wide and what a
     too-narrow clock would cost.

A4 — **Instrumentation precision** (Section 4.1): the cost of the
     conservative everything-instrumented shared-access estimate versus
     a perfect escape analysis, swept over the fraction of private
     accesses the compiler fails to prove private.
"""

from __future__ import annotations

import statistics
from typing import Dict, Optional

from ..core.epoch import EpochLayout
from ..hardware.simulator import SimConfig, simulate_trace
from ..runtime.trace import Trace
from ..swclean.costmodel import DEFAULT_PARAMS
from ..swclean.runner import run_software_clean
from ..workloads.suite import HW_BENCHMARKS, get_benchmark
from .common import ExperimentResult
from .traces import record_trace

__all__ = [
    "run_war_precision",
    "run_atomicity",
    "run_clock_width",
    "run_instrumentation",
    "main",
]

#: Benchmarks used by the A1 sweep (a representative spread: the density
#: outliers, a barrier code, a lock code, the byte-granular pipeline).
A1_BENCHMARKS = ("fft", "lu_cb", "barnes", "radiosity", "dedup", "swaptions")

#: Clock widths swept by A3.
A3_CLOCK_BITS = (3, 4, 5, 6, 8, 12)


# -- A1: WAR precision in hardware ------------------------------------------


def compute_war(
    benchmark: str, trace, simulate=simulate_trace
) -> Dict[str, object]:
    """A1 per-benchmark step: cycles for baseline/CLEAN/precise units
    (``simulate`` as in :func:`repro.experiments.fig9_hardware.compute`)."""
    base = simulate(trace, SimConfig(detection=False))
    clean = simulate(trace, SimConfig(detection=True))
    precise = simulate(trace, SimConfig(detection=True, check_unit="precise"))
    return {
        "benchmark": benchmark,
        "base_cycles": base.cycles,
        "clean_cycles": clean.cycles,
        "precise_cycles": precise.cycles,
    }


def aggregate_war(payloads) -> ExperimentResult:
    """Assemble A1 from per-benchmark payloads (A1 roster order)."""
    result = ExperimentResult(
        experiment="Ablation A1",
        title="Hardware detection: CLEAN (WAW/RAW) vs precise (adds WAR)",
        columns=["benchmark", "CLEAN", "precise", "precision cost"],
    )
    ratios, precises = [], []
    for p in payloads:
        if "error" in p:
            result.add_failure(p["benchmark"], p["error"])
            continue
        s_clean = p["clean_cycles"] / p["base_cycles"]
        s_precise = p["precise_cycles"] / p["base_cycles"]
        result.add_row(p["benchmark"], s_clean, s_precise, s_precise / s_clean)
        ratios.append(s_precise / s_clean)
        precises.append(s_precise)
    if ratios:
        result.summary = [
            f"mean precision cost: {statistics.mean(ratios):.2f}x over CLEAN",
            f"worst precise slowdown: {max(precises):.2f}x "
            "(paper: RADISH-class detectors reach up to 3x)",
        ]
    return result


def run_war_precision(
    scale: str = "test",
    seed: int = 0,
    traces: Optional[Dict[str, Trace]] = None,
) -> ExperimentResult:
    """A1: CLEAN's unit vs a precise (WAR-detecting) hardware unit."""
    payloads = []
    for name in A1_BENCHMARKS:
        trace = (
            traces[name]
            if traces is not None and name in traces
            else record_trace(get_benchmark(name), scale=scale, seed=seed)
        )
        payloads.append(compute_war(name, trace))
    return aggregate_war(payloads)


# -- A2: check atomicity ------------------------------------------------------


def compute_atomicity(benchmark: str, scale: str = "test", seed: int = 0) -> dict:
    """A2 per-benchmark job: detection slowdown under CAS vs locking."""
    spec = get_benchmark(benchmark)
    cas = run_software_clean(spec, scale=scale, seed=seed, atomicity="cas")
    lock = run_software_clean(spec, scale=scale, seed=seed, atomicity="lock")
    return {
        "benchmark": benchmark,
        "cas": cas.slowdown_detection,
        "lock": lock.slowdown_detection,
    }


def aggregate_atomicity(payloads) -> ExperimentResult:
    """Assemble A2 from per-benchmark payloads (A1 roster order)."""
    result = ExperimentResult(
        experiment="Ablation A2",
        title="Software detection atomicity: lock-free CAS vs locking",
        columns=["benchmark", "CAS", "locking", "locking share of overhead"],
    )
    shares = []
    for p in payloads:
        if "error" in p:
            result.add_failure(p["benchmark"], p["error"])
            continue
        lock_overhead = p["lock"] - 1.0
        share = (
            (p["lock"] - p["cas"]) / lock_overhead if lock_overhead > 0 else 0.0
        )
        result.add_row(
            p["benchmark"], p["cas"], p["lock"], f"{share * 100:.0f}%"
        )
        shares.append(share)
    if shares:
        result.summary = [
            f"mean share of detection overhead spent on locking: "
            f"{statistics.mean(shares) * 100:.0f}% "
            "(paper cites >40% in lock-based detectors)",
        ]
    return result


def run_atomicity(scale: str = "test", seed: int = 0) -> ExperimentResult:
    """A2: CAS-based vs lock-based check atomicity (software CLEAN)."""
    return aggregate_atomicity(
        [compute_atomicity(name, scale=scale, seed=seed) for name in A1_BENCHMARKS]
    )


# -- A3: clock width ----------------------------------------------------------


def compute_clock_width(
    bits: int, benchmark: str = "radiosity", scale: str = "test", seed: int = 0
) -> dict:
    """A3 per-width job: rollover behaviour at one clock width."""
    spec = get_benchmark(benchmark)
    layout = EpochLayout(clock_bits=bits, tid_bits=5)
    run = run_software_clean(
        spec, scale=scale, seed=seed, layout=layout, rollover_slack=2
    )
    return {
        "bits": bits,
        "benchmark": benchmark,
        "rollovers": run.rollovers,
        "full": run.slowdown_full,
        "reset_pct": run.rollovers * DEFAULT_PARAMS.rollover_cost / run.t0 * 100,
    }


def aggregate_clock_width(payloads, benchmark: str = "radiosity") -> ExperimentResult:
    """Assemble A3 from per-width payloads (narrow to wide order)."""
    result = ExperimentResult(
        experiment="Ablation A3",
        title=f"Clock width vs rollover cost ({benchmark})",
        columns=["clock bits", "rollovers", "full slowdown", "reset overhead"],
    )
    ok_rollovers = []
    for p in payloads:
        if "error" in p:
            result.add_failure(p["bits"], p["error"])
            continue
        result.add_row(
            p["bits"], p["rollovers"], p["full"], f"{p['reset_pct']:.1f}%"
        )
        ok_rollovers.append(p["rollovers"])
    assert ok_rollovers == sorted(ok_rollovers, reverse=True)
    result.summary = [
        "rollovers fall monotonically with clock width; the default "
        "23-bit clock is orders of magnitude beyond the widths that "
        "still roll over at this scale",
    ]
    return result


def run_clock_width(
    scale: str = "test", seed: int = 0, benchmark: str = "radiosity"
) -> ExperimentResult:
    """A3: rollover count and cost across epoch clock widths."""
    return aggregate_clock_width(
        [
            compute_clock_width(bits, benchmark=benchmark, scale=scale, seed=seed)
            for bits in A3_CLOCK_BITS
        ],
        benchmark=benchmark,
    )


# -- A4: instrumentation precision -------------------------------------------


def compute_instrumentation(
    benchmark: str, scale: str = "test", seed: int = 0
) -> dict:
    """A4 per-benchmark job: detection slowdown per instrumented fraction."""
    spec = get_benchmark(benchmark)
    payload: dict = {"benchmark": benchmark}
    for key, fraction in (("exact", 0.0), ("half", 0.5), ("conservative", 1.0)):
        run = run_software_clean(
            spec, scale=scale, seed=seed, instrument_private_fraction=fraction
        )
        payload[key] = run.slowdown_detection
    return payload


def aggregate_instrumentation(payloads) -> ExperimentResult:
    """Assemble A4 from per-benchmark payloads (A1 roster order)."""
    result = ExperimentResult(
        experiment="Ablation A4",
        title="Instrumentation precision: private accesses mistakenly checked",
        columns=["benchmark", "escape-exact", "half-conservative",
                 "fully conservative", "waste"],
    )
    wastes = []
    for p in payloads:
        if "error" in p:
            result.add_failure(p["benchmark"], p["error"])
            continue
        waste = p["conservative"] / p["exact"]
        result.add_row(
            p["benchmark"], p["exact"], p["half"], p["conservative"], waste
        )
        wastes.append(waste)
    if wastes:
        result.summary = [
            f"mean cost of a fully conservative estimate: "
            f"{statistics.mean(wastes):.2f}x over exact escape analysis",
        ]
    return result


def run_instrumentation(scale: str = "test", seed: int = 0) -> ExperimentResult:
    """A4: how much escape analysis saves (Section 4.1).

    The conservative shared-access estimate instruments every access the
    compiler cannot prove private; sweeping the fraction of private
    accesses instrumented shows the detection cost of imprecise escape
    analysis (0.0 = perfect, 1.0 = everything instrumented).
    """
    return aggregate_instrumentation(
        [
            compute_instrumentation(name, scale=scale, seed=seed)
            for name in A1_BENCHMARKS
        ]
    )


def main() -> None:
    print(run_war_precision().render())
    print()
    print(run_atomicity().render())
    print()
    print(run_clock_width().render())
    print()
    print(run_instrumentation().render())


if __name__ == "__main__":
    main()
