"""Trace-driven multicore timing simulator (paper Section 6.3.1).

Replays per-thread traces recorded from the cooperative runtime on an
8-core machine model: simple cores (one cycle per non-memory
instruction), the paper's exact cache hierarchy and latencies, and —
when enabled — the CLEAN race-check unit running in parallel with every
potentially shared access.

Cores are interleaved by a global event loop that always advances the
core with the smallest local clock, so cross-core cache interactions
happen in a deterministic, time-ordered way.  Thread blocking is not
replayed (traces do not carry wait times); both the baseline and the
race-detection configurations omit it equally, so normalized slowdowns
(Figures 9 and 11) are unaffected.

Latency accounting for checks follows Section 5.4: a check overlaps its
data access, so only ``max(0, check - access)`` cycles are exposed.
Synchronization operations cost ``SYNC_BASE_CYCLES``; with detection
enabled they pay an extra ``SYNC_VC_CYCLES`` for software-maintained
vector clocks (the paper adds 100 cycles per synchronization).

The replay loop reads events as plain tuples, L1 hits never leave
``MemoryHierarchy.access``, and the check unit's ``check_cycles``
builds no outcome object per access.  Every cycle count and
counter stays bit-identical to the straightforward model
(``tests/test_sim_golden.py``; see "Simulator hot path" in
docs/architecture.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heapify, heappop, heappushpop
from itertools import chain
from typing import Dict, Optional, Union

from ..core.epoch import DEFAULT_LAYOUT, EpochLayout
from ..obs import MetricsRegistry, publish_sim_metrics
from ..runtime.trace import SYNC, WRITE, StreamingTrace, Trace, event_tuples
from .hierarchy import Latencies, MemoryHierarchy
from .metadata import MetadataLayout
from .race_unit import RaceCheckUnit, RaceUnitStats

__all__ = ["SimConfig", "SimResult", "MulticoreSim", "simulate_trace"]

#: Base cost of a synchronization operation (lock round trip etc.).
SYNC_BASE_CYCLES = 40
#: Extra per-sync cost of maintaining vector clocks in software when
#: CLEAN detection is on.  The paper charges 100 cycles per sync
#: (Section 6.3.1); our scaled-down workloads synchronize roughly 25x
#: more often per instruction than the real benchmarks, so the charge is
#: scaled down proportionally to keep the sync-side overhead the same
#: *fraction* of execution time as in the paper.
SYNC_VC_CYCLES = 4


@dataclass(frozen=True)
class SimConfig:
    """Machine + detection configuration for one simulation.

    Default cache capacities are the paper's configuration scaled down
    8-16x (L1 8KB, L2 32KB, L3 1MB instead of 64KB/256KB/16MB), matching
    the scale-down of the workload footprints relative to the real
    simsmall inputs — the relative cache pressure, which drives Figures
    9 and 11, is thereby preserved.  Pass the paper's absolute sizes to
    model the unscaled machine.
    """

    n_cores: int = 8
    detection: bool = True
    metadata_mode: str = "clean"  # "clean" | "epoch1" | "epoch4"
    #: "clean" = the paper's WAW/RAW unit; "precise" = the ablation unit
    #: that also maintains read metadata for WAR detection (RADISH-class).
    check_unit: str = "clean"
    latencies: Latencies = Latencies()
    layout: EpochLayout = DEFAULT_LAYOUT
    l1_size: int = 8 * 1024
    l1_assoc: int = 8
    l2_size: int = 32 * 1024
    l2_assoc: int = 8
    l3_size: int = 1024 * 1024
    l3_assoc: int = 16


@dataclass
class SimResult:
    """Outcome of one simulated execution."""

    cycles: int
    per_core_cycles: Dict[int, int]
    instructions: int
    data_accesses: int
    check_stats: Optional[RaceUnitStats]
    hierarchy: MemoryHierarchy
    expansions: int = 0
    #: Snapshot of the simulator's shared metrics registry at the end of
    #: the measured replay (``sim.*`` names; see docs/observability.md).
    metrics: Dict[str, object] = field(default_factory=dict)


class MulticoreSim:
    """One simulation instance; call :meth:`run` once."""

    def __init__(
        self,
        config: SimConfig = SimConfig(),
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.config = config
        #: Shared metrics registry: every replay publishes the hierarchy,
        #: cache and race-unit counters here under ``sim.*`` names.
        self.registry = registry if registry is not None else MetricsRegistry()
        self.hierarchy = MemoryHierarchy(
            n_cores=config.n_cores,
            latencies=config.latencies,
            l1_size=config.l1_size,
            l1_assoc=config.l1_assoc,
            l2_size=config.l2_size,
            l2_assoc=config.l2_assoc,
            l3_size=config.l3_size,
            l3_assoc=config.l3_assoc,
        )
        self.metadata: Optional[MetadataLayout] = None
        self.race_unit = None
        if config.detection:
            self.metadata = MetadataLayout(config.metadata_mode)
            if config.check_unit == "clean":
                self.race_unit = RaceCheckUnit(
                    self.hierarchy, self.metadata, config.layout
                )
            elif config.check_unit == "precise":
                from .precise_unit import PreciseCheckUnit

                self.race_unit = PreciseCheckUnit(
                    self.hierarchy, self.metadata, config.layout,
                    n_threads=config.n_cores + 1,
                )
            else:
                raise ValueError(f"unknown check unit {config.check_unit!r}")

    def run(
        self, trace: Union[Trace, StreamingTrace], warmup: bool = True
    ) -> SimResult:
        """Replay ``trace`` and return the timing result.

        ``trace`` is anything exposing ``thread_ids()`` and re-iterable
        ``iter_events(tid)`` — an in-memory :class:`Trace` or a
        :class:`~repro.runtime.trace.StreamingTrace` replayed straight
        off disk, chunk by chunk, without ever materializing the full
        event lists.

        With ``warmup`` (the default) the trace is replayed twice and only
        the second pass is timed: caches, metadata lines and epoch state
        carry over, so the measurement reflects the steady state of an
        iterative program rather than compulsory misses — the standard
        trace-simulation methodology, needed because our traces are far
        shorter than the paper's simsmall runs.
        """
        tids = trace.thread_ids()
        # Threads map to cores round-robin; with 8 worker threads plus the
        # main thread, main shares core 0 (a context switch per event).
        core_of = {tid: i % self.config.n_cores for i, tid in enumerate(tids)}
        # Per-thread scalar clocks (the main VC element); every check
        # gets the running thread's, as the core's cached register holds
        # it — a context switch when two threads share a core.  Clocks
        # start at 1: a zero clock is reserved for virgin memory.
        thread_clock: Dict[int, int] = {tid: 1 for tid in tids}
        if warmup:
            self._replay(trace, core_of, thread_clock)
            self._reset_counters()
        return self._replay(trace, core_of, thread_clock)

    def _reset_counters(self) -> None:
        """Zero timing statistics after the warmup pass (state persists)."""
        self.hierarchy.reset_stats()
        if self.race_unit is not None:
            self.race_unit.reset_stats()
        self.registry.reset()

    def _replay(
        self,
        trace: Union[Trace, StreamingTrace],
        core_of: Dict[int, int],
        thread_clock: Dict[int, int],
    ) -> SimResult:
        tids = trace.thread_ids()
        clocks: Dict[int, int] = {core: 0 for core in range(self.config.n_cores)}
        # One independent stream of event tuples per thread, refilled a
        # chunk at a time: streaming traces decode one chunk per refill,
        # so memory stays bounded however long the trace.
        streams = {tid: chain.from_iterable(event_tuples(trace, tid)) for tid in tids}
        instructions = 0
        data_accesses = 0
        detection = self.config.detection
        access = self.hierarchy.access
        check = self.race_unit.check_cycles if self.race_unit is not None else None

        # Event loop keyed by (core cycle, tid): always advance the thread
        # whose core clock is smallest.  Keys never tie (tids are
        # unique), so pushing a thread back and popping the next one is
        # exactly one heappushpop.
        heap = [(0, tid) for tid in tids]
        heapify(heap)
        item = heappop(heap) if heap else None
        while item is not None:
            tid = item[1]
            event = next(streams[tid], None)
            if event is None:
                item = heappop(heap) if heap else None
                continue
            core = core_of[tid]
            kind, address, size, private, gap = event
            cycles = gap  # 1 cycle per non-memory instruction
            instructions += gap + 1
            if kind == SYNC:
                cycles += SYNC_BASE_CYCLES
                if detection:
                    cycles += SYNC_VC_CYCLES
                    thread_clock[tid] += 1
                    # Software updates the thread's in-memory vector
                    # clock: the write invalidates every remote cached
                    # copy, so other cores' VC loads miss realistically.
                    # The store itself drains through the store buffer
                    # (its latency is off the critical path; its
                    # coherence effects are fully modelled).
                    assert self.metadata is not None
                    access(core, self.metadata.vc_element_address(tid % 256), 4, True)
            else:
                data_accesses += 1
                is_write = kind == WRITE
                data_latency = access(core, address, size, is_write)
                if check is not None:
                    # The check overlaps the access; only the excess shows.
                    check_latency = check(
                        core, tid % 256, thread_clock[tid],
                        address, size, is_write, private,
                    )
                    cycles += max(data_latency, check_latency)
                else:
                    cycles += data_latency
            clocks[core] += cycles
            item = heappushpop(heap, (clocks[core], tid))

        cycles_total = max(clocks.values()) if clocks else 0
        registry = self.registry
        registry.set_gauge("sim.cycles", cycles_total)
        registry.set_gauge("sim.instructions", instructions)
        registry.set_gauge("sim.data_accesses", data_accesses)
        registry.set_gauge(
            "sim.cpi", cycles_total / instructions if instructions else 0.0
        )
        publish_sim_metrics(self, registry)
        return SimResult(
            cycles=cycles_total,
            per_core_cycles=dict(clocks),
            instructions=instructions,
            data_accesses=data_accesses,
            check_stats=self.race_unit.stats if self.race_unit else None,
            hierarchy=self.hierarchy,
            expansions=self.metadata.expansions if self.metadata else 0,
            metrics=registry.snapshot(),
        )


def simulate_trace(
    trace: Union[Trace, StreamingTrace],
    config: SimConfig = SimConfig(),
    registry: Optional[MetricsRegistry] = None,
) -> SimResult:
    """Convenience wrapper: build a simulator and run ``trace``."""
    return MulticoreSim(config, registry=registry).run(trace)
