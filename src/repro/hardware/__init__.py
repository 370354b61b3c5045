"""Hardware-supported CLEAN: the trace-driven multicore simulator.

Reproduces the paper's Section-5 hardware design and Section-6.3
evaluation substrate: the exact cache hierarchy and latencies, MESI
coherence with byte-position-carrying invalidations, the Figure-4 race
check unit, and the Figure-5 compact/expanded metadata layout (plus the
1-byte and 4-byte no-compaction alternatives of Figure 11).
"""

from .cache import LINE_SIZE, Cache
from .hierarchy import Latencies, MemoryHierarchy
from .metadata import GROUP, MetadataAccess, MetadataLayout
from .race_unit import AccessClass, CheckOutcome, RaceCheckUnit, RaceUnitStats
from .simulator import (
    SYNC_BASE_CYCLES,
    SYNC_VC_CYCLES,
    MulticoreSim,
    SimConfig,
    SimResult,
    simulate_trace,
)

__all__ = [
    "Cache",
    "LINE_SIZE",
    "MemoryHierarchy",
    "Latencies",
    "MetadataLayout",
    "MetadataAccess",
    "GROUP",
    "RaceCheckUnit",
    "RaceUnitStats",
    "AccessClass",
    "CheckOutcome",
    "MulticoreSim",
    "SimConfig",
    "SimResult",
    "simulate_trace",
    "SYNC_BASE_CYCLES",
    "SYNC_VC_CYCLES",
]
