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

from contextlib import nullcontext
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
from .obs.context import current_tracer
from .obs.tracer import Tracer
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
        names: List[str] = []
        for chunk in trace.iter_chunks(tid):
            k = chunk.kinds
            kinds.append(k)
            addresses.append(chunk.addresses.astype(np.int64))
            sizes.append(chunk.sizes.astype(np.int64))
            private.append(chunk.private)
            at = np.flatnonzero(k == 2)
            if len(at):
                # Unnamed events index past the table, to its "" entry.
                table = chunk.names + [""]
                idx = np.minimum(chunk.name_idx[at], len(chunk.names))
                names.extend([table[i] for i in idx.tolist()])
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
        #: event positions of the thread's syncs, ascending
        self.sync_pos = np.flatnonzero(self.kinds == 2)
        #: each sync's descriptor, parallel to ``sync_pos``
        self.sync_names = names

    def __len__(self) -> int:
        return len(self.kinds)


#: Descriptor kinds whose target is one sync-object name.
_NAMED = ("Acquire", "Release", "CondSignal", "CondBroadcast", "SemWait",
          "SemPost")


def _compile(descriptor: str) -> Tuple[str, Any]:
    """``"Kind:target"`` -> ``(kind, target)``, the target parsed.

    Barriers become the live run's ``(name, generation)`` key, thread
    ids ints; a ``CondWait`` keeps the lock it releases and a
    ``CondWake`` the ``(lock, cond)`` pair it acquires.
    """
    kind, _, rest = descriptor.partition(":")
    try:
        if kind in _NAMED:
            return kind, rest
        if kind == "Spawn" or kind == "Join":
            return kind, int(rest)
        if kind == "BarrierWait":
            name, _, gen = rest.rpartition("@")
            return kind, (name, int(gen))
        if kind == "CondWait":
            return kind, rest.partition(":")[2]
        if kind == "CondWake":
            lock, _, cond = rest.partition(":")
            return kind, (lock, cond)
    except ValueError:
        pass
    raise ValueError(f"unknown or malformed sync descriptor {descriptor!r}")


class _Plan:
    """The replay plan: per-thread columns plus the compiled sync order.

    ``syncs`` holds one ``(order, tid, pos, kind, target)`` tuple per
    sync commit, ascending by global order: ``pos`` indexes the
    thread's event columns and ``target`` is the parsed descriptor (see
    :func:`_compile`).
    """

    def __init__(self, trace: object) -> None:
        self.cols: Dict[int, _Cols] = {
            tid: _Cols(trace, tid) for tid in trace.thread_ids()
        }
        orders, tids, positions, names = [], [], [], []
        for tid, cols in self.cols.items():
            if (cols.sizes[(cols.kinds != 2) & ~cols.private] < 1).any():
                raise ValueError("trace has a zero-size shared access")
            order = cols.addresses[cols.sync_pos]
            if (order <= 0).any():
                raise ValueError(
                    "trace has sync events without replayable "
                    "descriptors (recorded before the descriptor "
                    "format); re-record it to analyze offline"
                )
            orders.append(order)
            tids.append(np.full(len(order), tid, dtype=np.int64))
            positions.append(cols.sync_pos)
            names += cols.sync_names
        empty = [np.zeros(0, dtype=np.int64)]
        order = np.concatenate(empty + orders)
        rank = np.argsort(order, kind="stable")
        order = order[rank]
        repeated = np.flatnonzero(order[1:] == order[:-1])
        if len(repeated):
            raise ValueError(
                f"trace repeats sync order {int(order[repeated[0]])}"
            )
        compiled = {name: _compile(name) for name in dict.fromkeys(names)}
        steps = [compiled[names[i]] for i in rank.tolist()]
        self.syncs: List[Tuple[int, int, int, str, Any]] = [
            (o, t, p, kind, target)
            for o, t, p, (kind, target) in zip(
                order.tolist(),
                np.concatenate(empty + tids)[rank].tolist(),
                np.concatenate(empty + positions)[rank].tolist(),
                steps,
            )
        ]
        # Per (barrier, generation) episode: arrivers in arrival order.
        # Departs of the whole episode apply at its last arrival — the
        # moment the live barrier tripped.
        episodes: Dict[Tuple[str, int], List[int]] = {}
        last: Dict[Tuple[str, int], int] = {}
        spawned = set()
        for o, tid, _pos, kind, target in self.syncs:
            if kind == "BarrierWait":
                episodes.setdefault(target, []).append(tid)
                last[target] = o
            elif kind == "Spawn":
                spawned.add(target)
            elif kind == "Join" and target not in self.cols:
                raise ValueError(
                    f"trace joins thread {target}, which is absent from it"
                )
        #: order of an episode's last arrival -> (episode key, arrivers)
        self.trips: Dict[int, Tuple[Tuple[str, int], List[int]]] = {
            o: (key, episodes[key]) for key, o in last.items()
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


def _phase(tracer: Optional[Tracer], name: str, **attrs: Any):
    """A span under ``tracer``, or nothing without one."""
    return tracer.span(name, **attrs) if tracer is not None else nullcontext()


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

    def __init__(
        self,
        plan: _Plan,
        monitor: CleanMonitor,
        batch: bool,
        tracer: Optional[Tracer],
    ) -> None:
        self.plan = plan
        self.monitor = monitor
        self.window = _Window(plan, monitor, tracer) if batch else None
        self.position = 0
        self._cursor: Dict[int, int] = {tid: 0 for tid in plan.cols}
        self.race: Optional[RaceException] = None
        self.race_position: Optional[int] = None

    def run(self) -> None:
        monitor = self.monitor
        monitor.on_thread_start(self.plan.root, None)
        flush, apply_sync = self._flush, self._apply_sync
        cursor, trips = self._cursor, self.plan.trips
        try:
            for order, tid, pos, kind, target in self.plan.syncs:
                flush(tid, pos)
                apply_sync(tid, kind, target)
                if order in trips:
                    (name, gen), arrivers = trips[order]
                    for arriver in arrivers:
                        monitor.on_barrier_depart(arriver, name, gen)
                cursor[tid] = pos + 1
            for tid in sorted(self.plan.cols):
                flush(tid, len(self.plan.cols[tid]))
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

    def _apply_sync(self, tid: int, kind: str, target: Any) -> None:
        monitor = self.monitor
        if kind == "Join":
            # The child's trailing accesses (after its last sync) happened
            # before this join; replay them before retiring its tid.
            self._flush(target, self._segment_end(target))
        if self.window is not None:
            self.window.before_sync()
        if kind == "Acquire":
            monitor.on_acquire(tid, target)
        elif kind == "Release":
            monitor.on_release(tid, target)
        elif kind == "BarrierWait":
            monitor.on_barrier_arrive(tid, target[0], target[1])
        elif kind == "CondWait":
            # The wait releases the lock; the cond edge happens at wake.
            monitor.on_release(tid, target)
        elif kind == "CondWake":
            monitor.on_acquire(tid, target[0])
            monitor.on_cond_wake(tid, target[1])
        elif kind == "CondSignal" or kind == "CondBroadcast":
            monitor.on_cond_signal(tid, target)
        elif kind == "SemWait":
            monitor.on_sem_wait(tid, target)
        elif kind == "SemPost":
            monitor.on_sem_post(tid, target)
        elif kind == "Spawn":
            monitor.on_thread_start(target, tid)
            monitor.on_spawn(tid, target)
        else:  # Join
            monitor.on_join(tid, target)
        monitor.on_sync_commit(tid, None)

    def _segment_end(self, tid: int) -> int:
        """End of ``tid``'s current open segment: its next sync, or EOF."""
        cols = self.plan.cols[tid]
        i = int(np.searchsorted(cols.sync_pos, self._cursor[tid]))
        return int(cols.sync_pos[i]) if i < len(cols.sync_pos) else len(cols)


class _Window:
    """The batch lane: pending segments race-checked in one numpy pass.

    CLEAN's check (Figure 2) compares each byte's last-write epoch with
    the accessing thread's vector clock, and only sync commits change
    that clock.  So each segment is queued with a copy of its thread's
    packed vector-clock elements, syncs keep replaying, and once
    ``WINDOW`` shared accesses are pending the whole window is resolved
    at once:

    * every access expands into its bytes, sorted by address and, within
      one address, by replay order;
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

    def __init__(
        self, plan: _Plan, monitor: CleanMonitor, tracer: Optional[Tracer]
    ) -> None:
        self.monitor = monitor
        self.detector = monitor.detector
        self.shadow = self.detector.shadow
        self.layout = self.detector.layout
        self.tracer = tracer
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
        # Pending segments, flat: (lo, hi, tid, replay offset) and the
        # thread's packed vector-clock elements, per segment.
        self._meta: List[int] = []
        self._packed: List[int] = []
        self.pending = 0
        self.syncs = 0
        #: windows resolved so far
        self.windows = 0
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
        # A copy: the live clock advances in place at the thread's syncs.
        self._packed += vc.elements()
        self._meta += (lo, hi, tid, base - start)
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
        if not self._meta:
            return
        self.windows += 1
        if self.tracer is None:
            return self._check()
        with self.tracer.span("analyze.resolve", accesses=self.pending):
            return self._check()

    def _check(self) -> None:
        meta = np.array(self._meta, dtype=np.int64).reshape(-1, 4)
        lo, hi, tids, offsets = meta.T
        segments = np.arange(len(meta))
        packed = np.array(self._packed, dtype=np.int64).reshape(len(meta), -1)
        self._meta, self._packed = [], []
        self.pending = 0
        lens = hi - lo
        n = int(lens.sum())
        seg = np.repeat(segments, lens)
        idx = np.arange(n) + np.repeat(lo - (np.cumsum(lens) - lens), lens)
        is_write, addr, size = self.is_write[idx], self.addr[idx], self.size[idx]
        layout = self.layout
        epoch = packed[segments, tids]
        vcs = packed & layout.clock_max

        # Bytes sorted by address, within one address in replay order:
        # one value sort of the unique key (address, byte index), which
        # carries the permutation in its low bits.  A window whose key
        # could reach 2**62 takes a stable sort on addresses instead.
        starts = np.cumsum(size) - size
        total = int(starts[-1] + size[-1])
        k = np.arange(total)
        baddr = k + np.repeat(addr - starts, size)
        low = int(addr.min())
        span = int((addr + size).max()) - low
        bits = total.bit_length()
        if span < 1 << (62 - bits):
            key = np.sort(((baddr - low) << bits) | k)
            order = key & ((1 << bits) - 1)
            baddr = (key >> bits) + low
        else:
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
        racy = (e & layout.clock_max) > vcs[
            byte_seg, (e >> layout.clock_bits) & layout.max_tid
        ]
        same = inside & (writer_seg == byte_seg)
        hit = np.bincount(acc[~same], minlength=n) == 0
        if racy.any():
            r = int(np.argmax(np.bincount(acc[racy], minlength=n) > 0))
        else:
            r = n
        # Back in access order, where each access's bytes are contiguous.
        e_acc = np.empty_like(e)
        e_acc[order] = e
        uniform = np.minimum.reduceat(e_acc, starts) == np.maximum.reduceat(
            e_acc, starts
        )

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
            racy_byte = np.empty_like(racy)
            racy_byte[order] = racy
            j = int(np.argmax(racy_byte[starts[r] : starts[r] + width]))
            width = 1
            if is_write[r]:
                updated = int((eb[:j] != epoch[s]).sum())
                stats.epoch_updates += updated
                self.shadow.stores += updated
        stats.epoch_comparisons += j + 1
        stats.races_raised += 1
        self.race_position = int(offsets[s] + self.event[idx[r]])
        writer = int(eb[j])
        exc = WawRaceException if is_write[r] else RawRaceException
        raise exc(
            int(addr[r]) + j, int(tids[s]), layout.tid(writer),
            layout.clock(writer), width,
        )


def _run_single(
    plan: _Plan,
    batch: bool,
    max_threads: int,
    layout: EpochLayout,
    tracer: Optional[Tracer],
) -> Tuple[CleanMonitor, Optional[RaceException], Optional[int]]:
    detector = CleanDetector(max_threads=max_threads, layout=layout)
    monitor = CleanMonitor(detector=detector, max_threads=max_threads)
    monitor.sites = None  # profiling belongs to live runs, not replay
    replay = _MonitorReplay(plan, monitor, batch, tracer)
    with _phase(
        tracer, "analyze.replay", mode="batch" if batch else "scalar"
    ) as span:
        replay.run()
        if span is not None:
            span.set("windows", replay.window.windows if batch else 0)
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
    tracer = current_tracer()
    with _phase(tracer, "analyze.plan", mode=mode) as span:
        plan = _Plan(trace)
        if span is not None:
            span.set("threads", plan.threads)
            span.set("syncs", len(plan.syncs))
    if max_threads is None:
        max_threads = max(plan.min_max_threads(), 2)
    monitor, race, position = _run_single(
        plan, mode == "batch", max_threads, layout, tracer
    )
    payload = _race_payload(race, position) if race is not None else None
    sites: List[Dict[str, Any]] = []
    if hot_sites > 0:
        with _phase(tracer, "analyze.hot_sites", mode=mode):
            sites = _hot_sites(plan, hot_sites, payload)
    return AnalysisReport(
        mode=mode,
        racy=race is not None,
        race=payload,
        threads=plan.threads,
        events=plan.events,
        accesses=plan.accesses,
        syncs=len(plan.syncs),
        counters=_collect_counters(monitor),
        hot_sites=sites,
    )
