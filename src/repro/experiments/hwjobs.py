"""Merged per-benchmark job for the hardware experiments.

Figures 9, 10, 11 and ablation A1 all replay the same recorded trace of
a benchmark's race-free variant.  When the report fans benchmarks out
across worker processes, shipping traces between processes would dwarf
the simulation work, so each worker instead records the trace itself and
runs every per-trace ``compute`` step locally, returning one combined
JSON payload:

```
{"benchmark": ..., "fig9": {...}, "fig10": {...}, "fig11": {...},
 "a1": {...}}            # "a1" only for the A1 roster
```

The aggregate steps of the individual experiment modules then consume
the matching sub-payloads.  Figure 11 may use a different workload scale
(its LLC-pressure effect needs the larger footprints); when it does, the
job records a second trace at that scale.

Each distinct (trace, :class:`~repro.hardware.simulator.SimConfig`)
pair is simulated once per job: Figure 10's detection run is Figure 9's,
and A1's baseline and CLEAN runs are Figure 9's too.  A simulation is a
pure function of its trace and configuration, so sharing the result
changes no payload.  With an ambient tracer (``report --telemetry``)
the job records one ``hw.record`` span per trace recording and one
``hw.simulate`` span per distinct simulation, labelled with the figure
that first asked for it and the configuration.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Dict, Optional

from ..hardware.simulator import SimConfig, SimResult, simulate_trace
from ..obs import current_tracer
from ..workloads.suite import get_benchmark
from . import ablations, fig9_hardware, fig10_breakdown, fig11_epochsize
from .traces import record_trace

__all__ = ["compute"]


def _config_label(config: SimConfig) -> str:
    if not config.detection:
        return "base"
    return config.metadata_mode if config.check_unit == "clean" else config.check_unit


def compute(
    benchmark: str,
    scale: str = "simsmall",
    fig11_scale: Optional[str] = None,
    seed: int = 0,
) -> Dict[str, object]:
    """All per-trace hardware payloads for ``benchmark`` in one job."""
    tracer = current_tracer()

    def span(name: str, **attrs: object):
        if tracer is None:
            return nullcontext()
        return tracer.span(name, benchmark=benchmark, **attrs)

    def record(at_scale: str):
        with span("hw.record", scale=at_scale):
            return record_trace(get_benchmark(benchmark), scale=at_scale, seed=seed)

    results: Dict[tuple, SimResult] = {}

    def simulator(figure: str):
        def simulate(trace, config: SimConfig) -> SimResult:
            key = (id(trace), config)
            if key not in results:
                with span("hw.simulate", figure=figure, config=_config_label(config)):
                    results[key] = simulate_trace(trace, config)
            return results[key]

        return simulate

    trace = record(scale)
    payload: Dict[str, object] = {
        "benchmark": benchmark,
        "fig9": fig9_hardware.compute(benchmark, trace, simulator("fig9")),
        "fig10": fig10_breakdown.compute(benchmark, trace, simulator("fig10")),
    }
    if fig11_scale is not None and fig11_scale != scale:
        fig11_trace = record(fig11_scale)
    else:
        fig11_trace = trace
    payload["fig11"] = fig11_epochsize.compute(
        benchmark, fig11_trace, simulator("fig11")
    )
    if benchmark in ablations.A1_BENCHMARKS:
        payload["a1"] = ablations.compute_war(benchmark, trace, simulator("a1"))
    return payload
