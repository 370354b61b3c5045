"""Offline trace analysis: race-check recorded traces without re-running.

A :class:`~repro.runtime.trace.TraceRecorder` trace carries everything
the detector needs — every thread's accesses in program order plus, for
each synchronization commit, a *replayable descriptor* (``"Acquire:L"``,
``"BarrierWait:B@3"``, ``"Spawn:2"``, ...) and the commit's global
position in the scheduler's deterministic sync sequence.  This module
rebuilds the execution's happens-before relation from those descriptors
and drives the CLEAN detector over the trace, entirely offline:

* **scalar** mode replays one access at a time through the exact
  per-event monitor path — the reference lane;
* **batch** mode race-checks whole windows of segments at once (see
  :class:`_Window`) — same verdicts, same race payloads, same counters,
  much faster.

Replay order
------------

Segments (one thread's accesses up to its next sync commit) replay in
the global order of their closing syncs; a thread's vector clock only
changes at its own commits, so this order is consistent with the
recorded happens-before relation.  Race-free traces therefore get the
exact live verdicts and counters; racy traces get a canonical,
deterministic order so both modes agree on the first race.

Traces from recorders older than the descriptor format (sync events
with a zero global index) cannot be replayed faithfully and are
rejected with a clear error — re-record the trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from .clean import CleanMonitor
from .core.detector import CleanDetector
from .core.epoch import DEFAULT_LAYOUT, EpochLayout
from .core.exceptions import (
    MetadataError,
    RaceException,
    RawRaceException,
    WawRaceException,
)
from .runtime.trace import StreamingTrace, Trace, open_trace

__all__ = ["AnalysisReport", "analyze_trace"]

#: Shared accesses the batch lane collects before resolving them in one
#: numpy pass.  Throughput is flat from 2k to 8k; much larger windows
#: only grow peak memory and the time to a racy verdict.
WINDOW = 4096


@dataclass
class AnalysisReport:
    """Outcome of one offline trace analysis."""

    mode: str
    racy: bool
    #: kind/address/accessing_tid/prior_writer_tid/prior_writer_clock/
    #: size, plus the race's global access position when known.
    race: Optional[Dict[str, Any]]
    threads: int
    events: int
    accesses: int
    syncs: int
    #: ``clean.*`` counter totals (detector stats + fast path + shadow).
    counters: Dict[str, float]
    #: top-K shared addresses by access count (``hot_sites`` > 0 only)
    hot_sites: List[Dict[str, Any]] = field(default_factory=list)

    def to_payload(self) -> Dict[str, Any]:
        """JSON-ready dict (the ``analyze --json`` output)."""
        return {
            "mode": self.mode,
            "racy": self.racy,
            "race": self.race,
            "threads": self.threads,
            "events": self.events,
            "accesses": self.accesses,
            "syncs": self.syncs,
            "counters": dict(self.counters),
            "hot_sites": list(self.hot_sites),
        }


# -- trace loading and the replay plan ----------------------------------------


class _Cols:
    """One thread's full event stream as numpy columns."""

    __slots__ = (
        "kinds", "addresses", "sizes", "private", "sync_names", "sync_pos"
    )

    def __init__(self, trace: object, tid: int) -> None:
        kinds, addresses, sizes, private = [], [], [], []
        names: Dict[int, str] = {}
        base = 0
        for chunk in trace.iter_chunks(tid):
            k = chunk.kinds
            kinds.append(k)
            addresses.append(chunk.addresses.astype(np.int64))
            sizes.append(chunk.sizes.astype(np.int64))
            private.append(chunk.private)
            for pos in np.flatnonzero(k == 2):
                names[base + int(pos)] = chunk.sync_name_at(int(pos))
            base += len(chunk)
        if kinds:
            self.kinds = np.concatenate(kinds)
            self.addresses = np.concatenate(addresses)
            self.sizes = np.concatenate(sizes)
            self.private = np.concatenate(private)
        else:
            self.kinds = np.zeros(0, dtype=np.uint8)
            self.addresses = np.zeros(0, dtype=np.int64)
            self.sizes = np.zeros(0, dtype=np.int64)
            self.private = np.zeros(0, dtype=bool)
        #: event position -> sync descriptor
        self.sync_names = names
        #: event positions of the thread's syncs, ascending
        self.sync_pos = np.flatnonzero(self.kinds == 2)

    def __len__(self) -> int:
        return len(self.kinds)


@dataclass(frozen=True)
class _SyncPoint:
    """One sync commit: global order, owning thread, position, descriptor."""

    order: int
    tid: int
    pos: int  # index into the thread's event columns
    descriptor: str


class _Plan:
    """The replay plan: per-thread columns plus the global sync order."""

    def __init__(self, trace: object) -> None:
        self.cols: Dict[int, _Cols] = {
            tid: _Cols(trace, tid) for tid in trace.thread_ids()
        }
        self.syncs: List[_SyncPoint] = []
        for tid, cols in self.cols.items():
            if (cols.sizes[(cols.kinds != 2) & ~cols.private] < 1).any():
                raise ValueError("trace has a zero-size shared access")
            for pos in cols.sync_pos.tolist():
                order = int(cols.addresses[pos])
                if order <= 0:
                    raise ValueError(
                        "trace has sync events without replayable "
                        "descriptors (recorded before the descriptor "
                        "format); re-record it to analyze offline"
                    )
                self.syncs.append(
                    _SyncPoint(order, tid, pos, cols.sync_names[pos])
                )
        self.syncs.sort(key=lambda s: s.order)
        # Per (barrier, generation) episode: arrivers in arrival order.
        # Departs of the whole episode apply at its last arrival — the
        # moment the live barrier tripped.
        self.episodes: Dict[str, List[int]] = {}
        episode_orders: Dict[str, List[int]] = {}
        for s in self.syncs:
            if s.descriptor.startswith("BarrierWait:"):
                key = s.descriptor[len("BarrierWait:"):]
                self.episodes.setdefault(key, []).append(s.tid)
                episode_orders.setdefault(key, []).append(s.order)
        self.trips: Dict[int, str] = {
            max(orders): key for key, orders in episode_orders.items()
        }
        spawned = {
            int(s.descriptor.split(":", 1)[1])
            for s in self.syncs
            if s.descriptor.startswith("Spawn:")
        }
        roots = [tid for tid in self.cols if tid not in spawned]
        self.root = min(roots) if roots else min(self.cols, default=0)
        self.threads = len(self.cols)
        self.events = sum(len(c) for c in self.cols.values())
        self.accesses = int(
            sum(int((c.kinds != 2).sum()) for c in self.cols.values())
        )

    def min_max_threads(self) -> int:
        return (max(self.cols) + 1) if self.cols else 1


def _barrier_key(text: str) -> Tuple[str, int]:
    """``"B@3"`` -> the live run's ``(barrier name, generation)`` key."""
    name, _, gen = text.rpartition("@")
    return (name, int(gen))


# -- the single-process replay (scalar and batch) -----------------------------


class _MonitorReplay:
    """Drive a :class:`CleanMonitor` over a plan, scalar or batch.

    Mirrors exactly the live hook sequence: accesses of a segment, then
    the segment's sync's happens-before edges, then the sync-commit
    invalidation — so verdicts and every counter match a live run of
    the same interleaving.  Batch mode defers each segment's accesses
    to a :class:`_Window` and keeps replaying syncs through the same
    hooks.
    """

    def __init__(self, plan: _Plan, monitor: CleanMonitor, batch: bool) -> None:
        self.plan = plan
        self.monitor = monitor
        self.window = _Window(plan, monitor) if batch else None
        self.position = 0
        self._cursor: Dict[int, int] = {tid: 0 for tid in plan.cols}
        self.race: Optional[RaceException] = None
        self.race_position: Optional[int] = None

    def run(self) -> None:
        monitor = self.monitor
        monitor.on_thread_start(self.plan.root, None)
        try:
            for sync in self.plan.syncs:
                self._flush(sync.tid, sync.pos)
                self._apply_sync(sync)
                self._cursor[sync.tid] = sync.pos + 1
            for tid in sorted(self.plan.cols):
                self._flush(tid, len(self.plan.cols[tid]))
            if self.window is not None:
                self.window.resolve()
        except RaceException as exc:
            self.race = exc
            if self.window is not None:
                self.race_position = self.window.race_position

    # -- segments ---------------------------------------------------------

    def _flush(self, tid: int, end: int) -> None:
        """Replay ``tid``'s accesses from its cursor up to ``end``."""
        start = self._cursor[tid]
        if end <= start:
            return
        self._cursor[tid] = end
        base = self.position
        self.position += end - start
        if self.window is not None:
            self.window.add(tid, start, end, base)
            return
        cols = self.plan.cols[tid]
        is_write = (cols.kinds[start:end] == 1).tolist()
        addr = cols.addresses[start:end].tolist()
        size = cols.sizes[start:end].tolist()
        private = cols.private[start:end].tolist()
        check = self.monitor._check_one
        for i in range(len(addr)):
            if private[i]:
                continue
            try:
                check(tid, is_write[i], addr[i], size[i])
            except RaceException:
                self.race_position = base + i
                raise

    # -- synchronization --------------------------------------------------

    def _apply_sync(self, sync: _SyncPoint) -> None:
        monitor = self.monitor
        tid = sync.tid
        kind, _, rest = sync.descriptor.partition(":")
        if kind == "Join":
            # The child's trailing accesses (after its last sync) happened
            # before this join; replay them before retiring its tid.
            child = int(rest)
            self._flush(child, self._segment_end(child))
        if self.window is not None:
            self.window.before_sync()
        if kind == "Acquire":
            monitor.on_acquire(tid, rest)
        elif kind == "Release":
            monitor.on_release(tid, rest)
        elif kind == "CondWait":
            # The wait releases the lock; the cond edge happens at wake.
            _cond, _, lock = rest.partition(":")
            monitor.on_release(tid, lock)
        elif kind == "CondWake":
            lock, _, cond = rest.partition(":")
            monitor.on_acquire(tid, lock)
            monitor.on_cond_wake(tid, cond)
        elif kind in ("CondSignal", "CondBroadcast"):
            monitor.on_cond_signal(tid, rest)
        elif kind == "SemWait":
            monitor.on_sem_wait(tid, rest)
        elif kind == "SemPost":
            monitor.on_sem_post(tid, rest)
        elif kind == "BarrierWait":
            name, gen = _barrier_key(rest)
            monitor.on_barrier_arrive(tid, name, gen)
        elif kind == "Spawn":
            child = int(rest)
            monitor.on_thread_start(child, tid)
            monitor.on_spawn(tid, child)
        elif kind == "Join":
            monitor.on_join(tid, int(rest))
        else:
            raise ValueError(f"unknown sync descriptor {sync.descriptor!r}")
        monitor.on_sync_commit(tid, None)
        if sync.order in self.plan.trips:
            key = self.plan.trips[sync.order]
            name, gen = _barrier_key(key)
            for arriver in self.plan.episodes[key]:
                monitor.on_barrier_depart(arriver, name, gen)

    def _segment_end(self, tid: int) -> int:
        """End of ``tid``'s current open segment: its next sync, or EOF."""
        cols = self.plan.cols[tid]
        i = int(np.searchsorted(cols.sync_pos, self._cursor[tid]))
        return int(cols.sync_pos[i]) if i < len(cols.sync_pos) else len(cols)


class _Window:
    """The batch lane: pending segments race-checked in one numpy pass.

    CLEAN's check (Figure 2) compares each byte's last-write epoch with
    the accessing thread's vector clock, and only sync commits change
    that clock.  So each segment is queued with a snapshot of its
    thread's vector clock, syncs keep replaying, and once ``WINDOW``
    shared accesses are pending the whole window is resolved at once:

    * every access expands into its bytes, stably sorted by address;
    * a byte's prior epoch is that of its last earlier write in the
      window (all writes of a segment install the segment's epoch), else
      the epoch store's;
    * the Figure-2 predicate runs against the owning segment's snapshot;
    * an access is a same-epoch hit iff every byte's last writer is in
      its own segment — exactly the monitor's written-this-epoch test,
      since that set starts empty with every segment.

    Counters accumulate into the detector's ``stats``, the epoch store's
    ``loads``/``stores`` and the monitor's fast-path tallies exactly as
    the scalar lane accounts them; each byte's last epoch is written
    back to the store.  The first racy access is accounted and raised as
    ``CleanDetector._check_access`` would, and replay stops there.
    """

    def __init__(self, plan: _Plan, monitor: CleanMonitor) -> None:
        self.monitor = monitor
        self.detector = monitor.detector
        self.shadow = self.detector.shadow
        self.layout = self.detector.layout
        # Shared accesses of every thread, concatenated thread-major; a
        # segment is one contiguous range of these columns.
        parts = [(np.zeros(0, bool),) + (np.zeros(0, np.int64),) * 3]
        self._before: Dict[int, Dict[int, int]] = {}
        offset = 0
        for tid, cols in plan.cols.items():
            shared = np.flatnonzero((cols.kinds != 2) & ~cols.private)
            bounds = np.concatenate(
                ([0, len(cols)], cols.sync_pos, cols.sync_pos + 1)
            )
            counts = np.searchsorted(shared, bounds) + offset
            # segment bound (event index) -> shared accesses before it
            self._before[tid] = dict(zip(bounds.tolist(), counts.tolist()))
            parts.append((
                cols.kinds[shared] == 1, cols.addresses[shared],
                cols.sizes[shared], shared,
            ))
            offset += len(shared)
        #: ``event`` is each shared access's event index within its thread
        self.is_write, self.addr, self.size, self.event = (
            np.concatenate(column) for column in zip(*parts)
        )
        self.segments: List[tuple] = []
        self.pending = 0
        self.syncs = 0
        self.race_position: Optional[int] = None

    def add(self, tid: int, start: int, end: int, base: int) -> None:
        """Queue ``tid``'s events ``[start, end)``, replay position ``base``."""
        before = self._before[tid]
        lo, hi = before[start], before[end]
        if lo == hi:
            return
        try:
            vc = self.detector.thread_vc(tid)
        except MetadataError:
            self.resolve()  # a race earlier in replay order wins
            raise
        self.segments.append(
            (lo, hi, tid, vc.clocks(), vc.element(tid), base - start)
        )
        self.pending += hi - lo
        if self.pending >= WINDOW:
            self.resolve()

    def before_sync(self) -> None:
        """Resolve the window if the next sync could roll clocks over.

        The replay starts at clock 1 and a sync raises the largest clock
        anywhere by at most one (every advance starts from a clock some
        vector clock already holds), so before the ``s``-th sync no
        clock exceeds ``s``.  The rollover trigger — advancing a clock
        that reads ``clock_max`` — therefore cannot fire before sync
        number ``clock_max``; from there on every sync closes the window
        first, so a metadata reset never lands inside one.
        """
        self.syncs += 1
        if self.syncs >= self.layout.clock_max:
            self.resolve()

    def resolve(self) -> None:
        """Race-check every pending access, in replay order."""
        if not self.segments:
            return
        lo, hi, tids, clocks, epochs, offsets = zip(*self.segments)
        self.segments = []
        self.pending = 0
        lo = np.array(lo, dtype=np.int64)
        lens = np.array(hi, dtype=np.int64) - lo
        n = int(lens.sum())
        seg = np.repeat(np.arange(len(lens)), lens)
        idx = np.arange(n) + np.repeat(lo - (np.cumsum(lens) - lens), lens)
        is_write, addr, size = self.is_write[idx], self.addr[idx], self.size[idx]
        epoch = np.array(epochs, dtype=np.int64)
        vcs = np.array(clocks, dtype=np.int64)

        # Bytes, stably sorted by address: within one address, replay order.
        starts = np.cumsum(size) - size
        total = int(starts[-1] + size[-1])
        k = np.arange(total)
        baddr = k + np.repeat(addr - starts, size)
        order = np.argsort(baddr, kind="stable")
        baddr = baddr[order]
        acc = np.repeat(np.arange(n), size)[order]
        head = np.ones(total, dtype=bool)
        head[1:] = baddr[1:] != baddr[:-1]
        first = np.maximum.accumulate(np.where(head, k, 0))
        byte_write = is_write[acc]
        last_write = np.maximum.accumulate(np.where(byte_write, k, -1))
        prior = np.empty(total, dtype=np.int64)
        prior[0] = -1
        prior[1:] = last_write[:-1]
        inside = prior >= first
        byte_seg = seg[acc]
        writer_seg = seg[acc[prior]]
        e = np.where(inside, epoch[writer_seg], self.shadow.gather(baddr))
        layout = self.layout
        racy = (e & layout.clock_max) > vcs[
            byte_seg, (e >> layout.clock_bits) & layout.max_tid
        ]
        same = inside & (writer_seg == byte_seg)
        hit = np.bincount(acc[~same], minlength=n) == 0
        racy_acc = np.bincount(acc[racy], minlength=n) > 0
        # Back in access order, where each access's bytes are contiguous.
        e_acc, racy_byte = np.empty_like(e), np.empty_like(racy)
        e_acc[order], racy_byte[order] = e, racy
        uniform = np.minimum.reduceat(e_acc, starts) == np.maximum.reduceat(
            e_acc, starts
        )
        r = int(np.argmax(racy_acc)) if racy_acc.any() else n

        # Accesses before the first racy one, as the scalar lane counts.
        stats = self.detector.stats
        w, sz, hit = is_write[:r], size[:r], hit[:r]
        multi = sz > 1
        n_writes = int(w.sum())
        stats.writes += n_writes
        stats.reads += r - n_writes
        stats.written_bytes += int(sz[w].sum())
        stats.read_bytes += int(sz[~w].sum())
        stats.accesses_ge_4_bytes += int((sz >= 4).sum())
        stats.multibyte_accesses += int(multi.sum())
        single = multi & uniform[:r]  # one comparison covers every byte
        stats.multibyte_uniform_epoch += int(single.sum())
        stats.epoch_comparisons += int(np.where(single, 1, sz).sum())
        n_hits = int(hit.sum())
        self.monitor.fastpath_hits += n_hits
        self.monitor.fastpath_misses += r - n_hits
        self.shadow.loads += int(sz[~hit].sum())
        done = acc < r
        updated = int((byte_write & done & (e != epoch[byte_seg])).sum())
        stats.epoch_updates += updated
        self.shadow.stores += updated

        # Carry each byte's last epoch into the epoch store.
        if r < n:
            last_write = np.maximum.accumulate(
                np.where(byte_write & done, k, -1)
            )
        tail = np.ones(total, dtype=bool)
        tail[:-1] = head[1:]
        last = last_write[tail]
        carried = last >= first[tail]
        self.shadow.scatter(
            baddr[tail][carried], epoch[byte_seg[last[carried]]]
        )
        if r == n:
            return

        # The first racy access: CleanDetector._check_access's trail.
        s = int(seg[r])
        width = int(size[r])
        eb = e_acc[starts[r] : starts[r] + width]
        self.monitor.fastpath_misses += 1
        self.shadow.loads += width
        if width > 1:
            stats.multibyte_accesses += 1
        if width > 1 and uniform[r]:
            stats.multibyte_uniform_epoch += 1
            j = 0
        else:
            j = int(np.argmax(racy_byte[starts[r] : starts[r] + width]))
            width = 1
            if is_write[r]:
                updated = int((eb[:j] != epoch[s]).sum())
                stats.epoch_updates += updated
                self.shadow.stores += updated
        stats.epoch_comparisons += j + 1
        stats.races_raised += 1
        self.race_position = offsets[s] + int(self.event[idx[r]])
        writer = int(eb[j])
        exc = WawRaceException if is_write[r] else RawRaceException
        raise exc(
            int(addr[r]) + j, tids[s], layout.tid(writer),
            layout.clock(writer), width,
        )


def _run_single(
    plan: _Plan, batch: bool, max_threads: int, layout: EpochLayout
) -> Tuple[CleanMonitor, Optional[RaceException], Optional[int]]:
    detector = CleanDetector(max_threads=max_threads, layout=layout)
    monitor = CleanMonitor(detector=detector, max_threads=max_threads)
    monitor.sites = None  # profiling belongs to live runs, not replay
    replay = _MonitorReplay(plan, monitor, batch=batch)
    replay.run()
    return monitor, replay.race, replay.race_position


def _collect_counters(monitor: CleanMonitor) -> Dict[str, float]:
    from .obs import MetricsRegistry

    registry = MetricsRegistry()
    monitor.accumulate_metrics(registry)
    return {
        name: value
        for name, value in registry.snapshot().items()
        if isinstance(value, (int, float))
    }


def _race_payload(
    race: RaceException, position: Optional[int]
) -> Dict[str, Any]:
    return {
        "kind": race.kind,
        "address": race.address,
        "size": race.size,
        "accessing_tid": race.accessing_tid,
        "prior_writer_tid": race.prior_writer_tid,
        "prior_writer_clock": race.prior_writer_clock,
        "position": position,
    }


# -- hot-site ranking ---------------------------------------------------------


def _hot_sites(
    plan: _Plan, top_k: int, race: Optional[Dict[str, Any]]
) -> List[Dict[str, Any]]:
    """Top ``top_k`` shared addresses by access count, reads/writes split.

    Pure column arithmetic over the replay plan (no detector state): one
    ``np.unique`` histogram of every thread's shared start addresses,
    ranked by total accesses with the address as deterministic
    tie-break; reads, writes and threads are tallied for the winners
    only.  When the analysis found a race the racing address is flagged
    in its entry.
    """
    shared = []
    for cols in plan.cols.values():
        mask = (cols.kinds != 2) & ~cols.private
        shared.append((cols.addresses[mask], cols.kinds[mask] == 1))
    addrs, counts = np.unique(
        np.concatenate([np.zeros(0, np.int64)] + [a for a, _w in shared]),
        return_counts=True,
    )
    if not len(addrs):
        return []
    top = addrs[np.lexsort((addrs, -counts))[:top_k]]
    ranked = np.sort(top)
    reads = np.zeros(len(top), dtype=np.int64)
    writes = np.zeros(len(top), dtype=np.int64)
    threads = np.zeros(len(top), dtype=np.int64)
    for a, is_write in shared:
        slot = np.minimum(np.searchsorted(ranked, a), len(top) - 1)
        hit = ranked[slot] == a
        reads += np.bincount(slot[hit & ~is_write], minlength=len(top))
        writes += np.bincount(slot[hit & is_write], minlength=len(top))
        threads[np.unique(slot[hit])] += 1
    race_addr = race.get("address") if race else None
    out = []
    for addr in top.tolist():
        i = int(np.searchsorted(ranked, addr))
        out.append({
            "address": addr,
            "accesses": int(reads[i] + writes[i]),
            "reads": int(reads[i]),
            "writes": int(writes[i]),
            "threads": int(threads[i]),
            "racy": addr == race_addr,
        })
    return out


# -- the public entry point ---------------------------------------------------


def analyze_trace(
    trace: Union[str, Trace, StreamingTrace],
    mode: str = "batch",
    max_threads: Optional[int] = None,
    layout: EpochLayout = DEFAULT_LAYOUT,
    salvage: bool = False,
    hot_sites: int = 0,
) -> AnalysisReport:
    """Race-analyze a recorded trace offline.

    ``trace`` is a path or an in-memory/streaming trace.  ``mode`` is
    ``"scalar"`` (the per-access reference lane) or ``"batch"``
    (default, the windowed kernel); both return identical verdicts,
    race payloads and counter totals.  With ``hot_sites`` > 0 the report
    additionally ranks the top-K shared addresses by access count (the
    service's ``/report`` diagnostics).
    """
    if mode not in ("scalar", "batch"):
        raise ValueError(f"unknown analysis mode {mode!r}")
    if isinstance(trace, (str,)) or hasattr(trace, "__fspath__"):
        trace = open_trace(str(trace), salvage=salvage)
    plan = _Plan(trace)
    if max_threads is None:
        max_threads = max(plan.min_max_threads(), 2)
    monitor, race, position = _run_single(
        plan, batch=(mode == "batch"), max_threads=max_threads, layout=layout
    )
    payload = _race_payload(race, position) if race is not None else None
    return AnalysisReport(
        mode=mode,
        racy=race is not None,
        race=payload,
        threads=plan.threads,
        events=plan.events,
        accesses=plan.accesses,
        syncs=len(plan.syncs),
        counters=_collect_counters(monitor),
        hot_sites=(
            _hot_sites(plan, hot_sites, payload) if hot_sites > 0 else []
        ),
    )
