"""The simulated memory hierarchy: private L1/L2, shared L3, MESI.

Configuration and latencies are the paper's (Section 6.3.1): 8 cores,
private 8-way 64KB L1 and 8-way 256KB L2, shared 16-way 16MB L3, 64-byte
lines, MESI coherence, and access latencies of 1 (L1 hit), 10 (local L2
hit), 15 (remote L2 hit), 35 (L3 hit) and 120 cycles (L3 miss).

Coherence is directory-style: the hierarchy knows which cores cache each
line, serves misses from a remote private cache when possible, and
invalidates sharers on writes.  As required by CLEAN's hardware (Section
5.1), invalidation messages carry the byte range being written so the
race-check unit can detect concurrent conflicting checks without falsely
flagging disjoint bytes of a shared line; the hierarchy exposes this via
an invalidation callback.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Set

from .cache import LINE_SIZE, MESI_E, MESI_M, MESI_S, Cache

__all__ = ["Latencies", "MemoryHierarchy"]


@dataclass(frozen=True)
class Latencies:
    """Access latencies in cycles (paper Section 6.3.1)."""

    l1_hit: int = 1
    l2_local: int = 10
    l2_remote: int = 15
    l3_hit: int = 35
    memory: int = 120


@dataclass
class HierarchyStats:
    """Aggregate hierarchy counters."""

    accesses: int = 0
    l1_hits: int = 0
    l2_hits: int = 0
    remote_hits: int = 0
    l3_hits: int = 0
    memory_fetches: int = 0
    invalidations: int = 0
    upgrades: int = 0

    @property
    def llc_miss_rate(self) -> float:
        """Fraction of all accesses served from memory (the paper's LLC
        miss rate, the quantity that makes ocean/radix suffer under
        4-byte epochs)."""
        return self.memory_fetches / self.accesses if self.accesses else 0.0


class MemoryHierarchy:
    """8-core cache hierarchy with MESI coherence and fixed latencies."""

    def __init__(
        self,
        n_cores: int = 8,
        latencies: Latencies = Latencies(),
        l1_size: int = 64 * 1024,
        l1_assoc: int = 8,
        l2_size: int = 256 * 1024,
        l2_assoc: int = 8,
        l3_size: int = 16 * 1024 * 1024,
        l3_assoc: int = 16,
    ) -> None:
        self.n_cores = n_cores
        self.lat = latencies
        self.l1 = [Cache(f"L1-{i}", l1_size, l1_assoc) for i in range(n_cores)]
        self.l2 = [Cache(f"L2-{i}", l2_size, l2_assoc) for i in range(n_cores)]
        self.l3 = Cache("L3", l3_size, l3_assoc)
        #: directory: line -> set of cores with a private copy
        self._sharers: Dict[int, Set[int]] = {}
        self.stats = HierarchyStats()
        #: called as (core, line, lo, hi) when a write by `core` invalidates
        #: other cores' copies of `line`; lo/hi give the written byte range
        #: within the line (Section 5.1's augmented coherence messages).
        self.on_invalidate: Optional[Callable[[int, int, int, int], None]] = None

    def reset_stats(self) -> None:
        """Zero all timing counters; cache *contents* are untouched.

        Used by the simulator between its warmup and measured replays,
        so steady-state numbers exclude compulsory misses.
        """
        self.stats = HierarchyStats()
        for cache in [*self.l1, *self.l2, self.l3]:
            cache.hits = cache.misses = cache.evictions = 0

    # -- the single public operation ------------------------------------------

    def access(self, core: int, address: int, size: int, is_write: bool) -> int:
        """Perform a data access; returns its latency in cycles.

        Accesses spanning multiple lines pay each line's latency (the
        maximum would model banked parallelism; sequential is what the
        paper's simple cores would see and keeps the model conservative).
        """
        line = address - address % LINE_SIZE
        lo = address - line
        if not 0 < lo + size <= LINE_SIZE:
            end = address + size
            latency = 0
            while line < end:
                piece = max(address, line)
                latency += self.access(
                    core, piece, min(end, line + LINE_SIZE) - piece, is_write
                )
                line += LINE_SIZE
            return latency
        # One line: the L1 lookup is Cache.lookup inlined (most accesses
        # hit here).
        stats = self.stats
        stats.accesses += 1
        l1 = self.l1[core]
        entry = l1._sets[(line // LINE_SIZE) % l1.n_sets]
        state = entry.get(line)
        if state is None:
            l1.misses += 1
            return self._l1_miss(core, line, is_write, lo, lo + size)
        entry.move_to_end(line)
        l1.hits += 1
        if not is_write:
            stats.l1_hits += 1
            return self.lat.l1_hit
        entry[line] = MESI_M
        self.l2[core].set_state(line, MESI_M)
        if state in (MESI_M, MESI_E):
            stats.l1_hits += 1
            return self.lat.l1_hit
        # Write hit in Shared state: upgrade, invalidating other cores.
        self._invalidate_others(core, line, lo, lo + size)
        stats.upgrades += 1
        return self.lat.l2_local

    # -- line-level MESI -------------------------------------------------------

    def _l1_miss(self, core: int, line: int, is_write: bool,
                 lo: int, hi: int) -> int:
        state = self.l2[core].lookup(line)
        if state is not None:
            if is_write and state == MESI_S:
                self._invalidate_others(core, line, lo, hi)
                state = MESI_M
                self.stats.upgrades += 1
            elif is_write:
                state = MESI_M
            self.l2[core].set_state(line, state)
            self._fill_l1(core, line, state)
            self.stats.l2_hits += 1
            return self.lat.l2_local
        return self._l2_miss(core, line, is_write, lo, hi)

    def _l2_miss(self, core: int, line: int, is_write: bool,
                 lo: int, hi: int) -> int:
        sharers = self._sharers.get(line, set())
        remote = sharers - {core}
        if remote:
            # Served cache-to-cache from a remote private cache.
            if is_write:
                self._invalidate_others(core, line, lo, hi)
                new_state = MESI_M
            else:
                for other in remote:
                    self.l1[other].set_state(line, MESI_S)
                    self.l2[other].set_state(line, MESI_S)
                new_state = MESI_S
            self._fill_private(core, line, new_state)
            self.stats.remote_hits += 1
            return self.lat.l2_remote
        if self.l3.lookup(line) is not None:
            new_state = MESI_M if is_write else MESI_E
            self._fill_private(core, line, new_state)
            self.stats.l3_hits += 1
            return self.lat.l3_hit
        # Memory fetch; install in L3 and the private caches.
        self.l3.insert(line, MESI_S)
        new_state = MESI_M if is_write else MESI_E
        self._fill_private(core, line, new_state)
        self.stats.memory_fetches += 1
        return self.lat.memory

    # -- helpers --------------------------------------------------------------------

    def _fill_l1(self, core: int, line: int, state: str) -> None:
        self.l1[core].insert(line, state)
        self._sharers.setdefault(line, set()).add(core)

    def _fill_private(self, core: int, line: int, state: str) -> None:
        victim = self.l2[core].insert(line, state)
        if victim is not None:
            vline, _ = victim
            self.l1[core].invalidate(vline)
            self._drop_sharer(vline, core)
        self._fill_l1(core, line, state)

    def _invalidate_others(self, core: int, line: int, lo: int, hi: int) -> None:
        sharers = self._sharers.get(line)
        if not sharers:
            return
        for other in list(sharers):
            if other == core:
                continue
            self.l1[other].invalidate(line)
            self.l2[other].invalidate(line)
            sharers.discard(other)
            self.stats.invalidations += 1
            if self.on_invalidate is not None:
                self.on_invalidate(other, line, lo, hi)

    def _drop_sharer(self, line: int, core: int) -> None:
        sharers = self._sharers.get(line)
        if sharers is not None:
            sharers.discard(core)
            if not sharers:
                del self._sharers[line]
