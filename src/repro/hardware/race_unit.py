"""The hardware race-check unit (paper Section 5.2, Figure 4).

For every potentially shared access the unit, in parallel with the data
access itself:

1. loads the epoch(s) of the accessed bytes (guessing the compact
   metadata address; wrong guesses pay the Section-5.3 reload penalty);
2. runs the fast-path comparison against the on-chip cached main element
   of the thread's vector clock: ``sameThread`` (no race possible) and
   ``sameEpoch`` (no update needed);
3. on the slow path, loads the needed vector-clock element from memory
   and compares; on writes with stale epochs, writes the new epoch back
   (possibly stretching a compact line into its expanded form).

The unit *classifies* each access the way Figure 10 reports them —
``private``, ``fast``, ``vc_load``, ``update``, ``vc_load_update``,
``expand`` — and accounts the check's latency.  Because the check runs
in parallel with the data access, only the excess over the data latency
is exposed (Section 5.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from ..core.epoch import DEFAULT_LAYOUT, EpochLayout
from .cache import LINE_SIZE
from .hierarchy import MemoryHierarchy
from .metadata import EPOCHS_BASE, GROUP, MetadataLayout

__all__ = ["AccessClass", "RaceCheckUnit", "CheckOutcome"]


class AccessClass:
    """Access categories of the Figure-10 breakdown."""

    PRIVATE = "private"
    FAST = "fast"
    VC_LOAD = "vc_load"
    UPDATE = "update"
    VC_LOAD_UPDATE = "vc_load_update"
    EXPAND = "expand"

    ALL = (PRIVATE, FAST, VC_LOAD, UPDATE, VC_LOAD_UPDATE, EXPAND)


@dataclass
class CheckOutcome:
    """Result of one race check: its class and check latency in cycles."""

    access_class: str
    check_latency: int
    expanded_line: bool = False


@dataclass
class RaceUnitStats:
    """Counters for the Figure-10 breakdowns."""

    by_class: Dict[str, int] = field(
        default_factory=lambda: {c: 0 for c in AccessClass.ALL}
    )
    compact_accesses: int = 0
    expanded_accesses: int = 0
    private_accesses: int = 0

    @property
    def total(self) -> int:
        return sum(self.by_class.values())

    def fraction(self, access_class: str) -> float:
        """Fraction of all accesses in ``access_class``."""
        return self.by_class[access_class] / self.total if self.total else 0.0

    @property
    def quick_fraction(self) -> float:
        """Accesses resolved without slow-path work: private + fast."""
        quick = self.by_class[AccessClass.PRIVATE] + self.by_class[AccessClass.FAST]
        return quick / self.total if self.total else 0.0

    @property
    def compact_or_private_fraction(self) -> float:
        """Paper's 94.3% figure: accesses needing no metadata or 1:1-sized
        metadata."""
        good = self.private_accesses + self.compact_accesses
        return good / self.total if self.total else 0.0


class CheckUnitBase:
    """Thread plumbing shared by the check units.

    A unit holds the per-core cached main vector-clock element (the
    32-bit register of Section 5.1), installed by :meth:`set_thread` on
    context switches; :meth:`check` runs the unit's ``check_cycles`` for
    that thread.  The simulator passes the running thread to
    ``check_cycles`` directly and never builds a :class:`CheckOutcome`.
    """

    #: per-core (tid, clock) of the running thread.
    _core_thread: Dict[int, tuple]
    #: class and line state of the most recent check.
    last_class = AccessClass.PRIVATE
    last_expanded = False

    def set_thread(self, core: int, tid: int, clock: int = 0) -> None:
        """Context switch: install a thread's (tid, clock) on ``core``."""
        self._core_thread[core] = (tid, clock)

    def check(
        self, core: int, address: int, size: int, is_write: bool, private: bool
    ) -> CheckOutcome:
        """Race-check one access by ``core``'s installed thread."""
        tid, clock = self._core_thread.get(core, (0, 0))
        latency = self.check_cycles(
            core, tid, clock, address, size, is_write, private
        )
        return CheckOutcome(self.last_class, latency, self.last_expanded)


class RaceCheckUnit(CheckUnitBase):
    """Per-machine race-check logic shared by all cores."""

    #: Cycles for the on-chip fast-path comparison (Figure 4b): simple
    #: combinational circuitry, folded into the epoch load's cycle.
    FAST_COMPARE = 0
    #: Minimum penalty for a wrong compact-address guess (Section 6.3.1).
    MISCALC_MIN_PENALTY = 1
    #: Extra cycles to start a line expansion, on top of the 4 line writes.
    EXPAND_BASE_PENALTY = 1

    def __init__(
        self,
        hierarchy: MemoryHierarchy,
        metadata: MetadataLayout,
        layout: EpochLayout = DEFAULT_LAYOUT,
    ) -> None:
        self.hierarchy = hierarchy
        self.metadata = metadata
        self.layout = layout
        self.stats = RaceUnitStats()
        self._core_thread = {}

    def reset_stats(self) -> None:
        """Zero the breakdown counters (used after a warmup replay)."""
        self.stats = RaceUnitStats()

    # -- the check itself -----------------------------------------------------------

    def check_cycles(
        self, core: int, tid: int, clock: int, address: int, size: int,
        is_write: bool, private: bool,
    ) -> int:
        """Race-check one access by thread ``tid`` at ``clock``; returns
        the check latency and leaves its class in :attr:`last_class`."""
        stats = self.stats
        if private:
            stats.by_class[AccessClass.PRIVATE] += 1
            stats.private_accesses += 1
            self.last_class, self.last_expanded = AccessClass.PRIVATE, False
            return 0
        layout = self.layout
        my_epoch = layout.pack(tid, clock % (layout.clock_max + 1))
        metadata = self.metadata
        hierarchy = self.hierarchy

        line = address - address % LINE_SIZE
        if (
            metadata.mode == "clean"
            and 0 < size <= line + LINE_SIZE - address
            and line not in metadata._expanded_lines
        ):
            # Compact single-line access: one epoch per 4-byte group, all
            # in one read at the guessed (here correct) compact address.
            first = address - address % GROUP
            last = address + size - 1
            last -= last % GROUP
            get = metadata._group_epochs.get
            # One or two groups (all but odd sizes): no comprehension.
            epochs = (
                [get(first, 0), get(last, 0)] if last - first <= GROUP
                else [get(g, 0) for g in range(first, last + 1, GROUP)]
            )
            latency = hierarchy.access(
                core, EPOCHS_BASE + first, last - first + GROUP, False
            )
            expanded = False
        else:
            epochs = metadata.epochs_for(address, size)
            plan = metadata.plan_read_check(address, size)
            latency = 0
            for meta_addr, meta_size in plan.reads:
                latency += hierarchy.access(core, meta_addr, meta_size, False)
            if plan.miscalculated:
                latency += self.MISCALC_MIN_PENALTY
            expanded = plan.expanded
        latency += self.FAST_COMPARE

        # One pass for all three comparisons.  A zero-clock epoch (virgin
        # memory) precedes every access in the happens-before order, so
        # no race is possible and no VC element is needed — the
        # comparison circuit resolves it like sameThread.
        clock_bits, max_tid, clock_max = (
            layout.clock_bits, layout.max_tid, layout.clock_max
        )
        keep = ~layout.expanded_mask
        same_thread = same_epoch = virgin = True
        for e in epochs:
            if (e >> clock_bits) & max_tid != tid:
                same_thread = False
            if e & keep != my_epoch:
                same_epoch = False
            if e & clock_max:
                virgin = False

        if (same_thread or (virgin and not is_write)) and (
            not is_write or same_epoch
        ):
            access_class = AccessClass.FAST
        else:
            needs_vc = not same_thread and not virgin
            if needs_vc:
                # Load the needed vector-clock element(s) from memory.
                tids = ((e >> clock_bits) & max_tid for e in epochs)
                for foreign_tid in {t for t in tids if t != tid}:
                    vc_addr = metadata.vc_element_address(foreign_tid)
                    latency += hierarchy.access(core, vc_addr, 4, False)
            if not is_write:
                access_class = AccessClass.VC_LOAD
            else:
                # Write needing an epoch update (same_epoch was false or
                # foreign).  The update is *posted*: it drains through
                # the store path while the program continues (its
                # coherence and cache-state effects are fully modelled;
                # only its latency is off the critical path).  A line
                # expansion, by contrast, stalls until the 4 stretched
                # metadata lines are written (Section 5.3).
                update_plan = metadata.apply_write(address, size, my_epoch)
                posted = 0
                for meta_addr, meta_size in update_plan.writes:
                    posted += hierarchy.access(core, meta_addr, meta_size, True)
                expanded = expanded or update_plan.expanded
                if update_plan.expansion:
                    latency += posted + self.EXPAND_BASE_PENALTY
                    access_class = AccessClass.EXPAND
                elif needs_vc:
                    access_class = AccessClass.VC_LOAD_UPDATE
                else:
                    access_class = AccessClass.UPDATE
        stats.by_class[access_class] += 1
        if expanded:
            stats.expanded_accesses += 1
        else:
            stats.compact_accesses += 1
        self.last_class, self.last_expanded = access_class, expanded
        return latency
