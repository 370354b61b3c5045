"""The CLEAN race detector: precise WAW and RAW detection via epochs.

This module implements the paper's core mechanism (Sections 3.2 and 4):

* one epoch word per shared byte, holding the last write's
  ``(tid, clock)`` pair;
* per-thread and per-lock vector clocks, updated only on synchronization
  and thread create/join;
* the Figure-2 check on every shared access: a WAW or RAW race occurred
  iff the saved epoch's clock exceeds the accessing thread's vector-clock
  element for the saved epoch's thread;
* write-side epoch update via compare-and-swap, so concurrent write
  checks cannot silently lose a WAW race (Section 4.3);
* the multi-byte fast path of Section 4.4: when all bytes of an access
  share one epoch, a single comparison (and a single wide update)
  suffices;
* the clock-rollover procedure of Section 4.5: when a clock is about to
  exceed its representation, every epoch and vector clock is reset at a
  deterministic synchronization boundary.

WAR races are *never* checked — that is the point of CLEAN: reads do not
update any metadata, and writes are only compared against the last write.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from .epoch import DEFAULT_LAYOUT, EpochLayout
from .events import DetectorBackend, stable_sync_id
from .exceptions import (
    MetadataError,
    RawRaceException,
    TooManyThreadsError,
    WawRaceException,
)
from .shadow import FlatShadow, SparseShadow
from .vector_clock import VectorClock

__all__ = ["AccessStats", "CleanDetector", "ThreadState"]


@dataclass
class AccessStats:
    """Counters describing the detector's dynamic behaviour.

    These feed the software cost model (Figure 6/8) and the reproduction
    of the paper's measured access properties: the fraction of accesses
    that are >= 4 bytes wide and the fraction of multi-byte accesses whose
    bytes all share one epoch (Section 6.2.3).
    """

    reads: int = 0
    writes: int = 0
    read_bytes: int = 0
    written_bytes: int = 0
    accesses_ge_4_bytes: int = 0
    multibyte_accesses: int = 0
    multibyte_uniform_epoch: int = 0
    epoch_comparisons: int = 0
    epoch_updates: int = 0
    cas_failures: int = 0
    sync_ops: int = 0
    rollovers: int = 0
    races_raised: int = 0

    @property
    def accesses(self) -> int:
        """Total checked accesses."""
        return self.reads + self.writes

    @property
    def fraction_wide(self) -> float:
        """Fraction of accesses that are 4 or more bytes wide."""
        if not self.accesses:
            return 0.0
        return self.accesses_ge_4_bytes / self.accesses

    @property
    def fraction_uniform_epoch(self) -> float:
        """Fraction of multi-byte accesses with one epoch for all bytes."""
        if not self.multibyte_accesses:
            return 0.0
        return self.multibyte_uniform_epoch / self.multibyte_accesses


@dataclass
class ThreadState:
    """Per-thread detector state: the tid and its vector clock."""

    tid: int
    vc: VectorClock
    alive: bool = True
    children: Set[int] = field(default_factory=set)


class CleanDetector(DetectorBackend):
    """Precise WAW/RAW race detector with deterministic rollover resets.

    Parameters
    ----------
    max_threads:
        Arity of every vector clock; also bounds concurrently-live
        threads.  Thread ids of joined threads are reused (Section 4.5).
    layout:
        Epoch bit layout.  The default is the paper's 23-bit-clock
        configuration; pass :data:`~repro.core.epoch.WIDE_CLOCK_LAYOUT`
        for the 28-bit Table-1 configuration.
    shadow:
        Epoch store; defaults to a fresh :class:`FlatShadow` (the flat
        array table the batch path vectorizes over).  Pass a
        :class:`SparseShadow` for the paper's pay-as-you-go hash map or
        a :class:`DenseShadow` for a fixed window.
    vectorized:
        Enable the Section-4.4 multi-byte fast path.  Disabling it forces
        one check per byte — the "without vectorization" bar of Figure 8.
    auto_rollover:
        Reset metadata automatically when a clock is about to overflow.
        The runtime integration performs the reset at a globally
        deterministic synchronization point; standalone use resets at the
        offending synchronization operation, which in a cooperative
        execution is itself an SFR boundary.
    """

    def __init__(
        self,
        max_threads: int = 8,
        layout: EpochLayout = DEFAULT_LAYOUT,
        shadow: Optional[SparseShadow] = None,
        vectorized: bool = True,
        auto_rollover: bool = True,
    ) -> None:
        if max_threads < 1:
            raise ValueError("need at least one thread")
        if max_threads - 1 > layout.max_tid:
            raise TooManyThreadsError(
                f"{max_threads} threads need more than {layout.tid_bits} tid bits"
            )
        self.layout = layout
        self.max_threads = max_threads
        self.shadow = shadow if shadow is not None else FlatShadow()
        self.vectorized = vectorized
        self.auto_rollover = auto_rollover
        self.stats = AccessStats()
        self.rollover_pending = False
        self._threads: Dict[int, ThreadState] = {}
        self._free_tids: List[int] = list(range(max_threads - 1, -1, -1))
        self._lock_vcs: Dict[object, VectorClock] = {}

    # -- thread lifecycle --------------------------------------------------

    def spawn_root(self) -> int:
        """Create the initial (main) thread; returns its tid (always 0)."""
        if self._threads:
            raise MetadataError("root thread already exists")
        tid = self._free_tids.pop()
        self._threads[tid] = ThreadState(tid, VectorClock(self.max_threads, self.layout))
        self._threads[tid].vc.increment(tid)
        return tid

    def fork(self, parent_tid: int, child_tid: Optional[int] = None) -> int:
        """Create a child thread; establishes parent-happens-before-child.

        The child inherits the parent's vector clock (so everything the
        parent did so far happens-before everything the child will do),
        then both advance their own clocks.  ``child_tid`` pins the id
        (it must be free) so an external thread manager — the runtime
        scheduler — and the detector agree on thread naming; left to
        ``None``, ids are allocated LIFO from the free list.
        """
        parent = self._thread(parent_tid)
        if not self._free_tids:
            raise TooManyThreadsError(
                f"more than {self.max_threads} concurrently live threads"
            )
        if child_tid is None:
            tid = self._free_tids.pop()
        else:
            if child_tid not in self._free_tids:
                raise MetadataError(f"requested child tid {child_tid} is not free")
            self._free_tids.remove(child_tid)
            tid = child_tid
        child_vc = parent.vc.copy()
        self._threads[tid] = ThreadState(tid, child_vc)
        parent.children.add(tid)
        self._advance(self._threads[tid])
        self._advance(parent)
        return tid

    def join(self, parent_tid: int, child_tid: int) -> None:
        """Join ``child_tid``; establishes child-happens-before-parent.

        The child's tid becomes reusable afterwards.
        """
        parent = self._thread(parent_tid)
        child = self._thread(child_tid)
        self._advance(child)
        parent.vc.join(child.vc)
        child.alive = False
        parent.children.discard(child_tid)
        del self._threads[child_tid]
        self._free_tids.append(child_tid)

    def live_threads(self) -> List[int]:
        """Tids of all currently live threads."""
        return sorted(self._threads)

    def thread_vc(self, tid: int) -> VectorClock:
        """The vector clock of thread ``tid`` (live view, do not mutate)."""
        return self._thread(tid).vc

    # -- synchronization ---------------------------------------------------

    def release(self, tid: int, sync_key: object) -> None:
        """Lock release / condition signal / barrier arrival by ``tid``.

        Joins the thread's vector clock into the sync object's and
        advances the thread's own clock, as in standard vector-clock
        detectors (Section 2.3).  Sync vector clocks are keyed by
        :func:`~repro.core.events.stable_sync_id`, not object identity.
        """
        thread = self._thread(tid)
        key = stable_sync_id(sync_key)
        vc = self._lock_vcs.get(key)
        if vc is None:
            # Joining into a fresh all-zero clock yields the thread's.
            self._lock_vcs[key] = thread.vc.copy()
        else:
            vc.join(thread.vc)
        self._advance(thread)
        self.stats.sync_ops += 1

    def acquire(self, tid: int, sync_key: object) -> None:
        """Lock acquire / condition wait return / barrier departure."""
        thread = self._thread(tid)
        vc = self._lock_vcs.get(stable_sync_id(sync_key))
        if vc is not None:
            thread.vc.join(vc)
        self.stats.sync_ops += 1

    # -- the race check (Figure 2) ------------------------------------------

    def check_read(self, tid: int, address: int, size: int = 1) -> None:
        """Race-check a ``size``-byte read at ``address`` by ``tid``.

        Raises :class:`RawRaceException` iff the read races with the last
        write to any accessed byte.  Reads never update metadata.
        """
        self._check_access(tid, address, size, is_read=True)
        self.stats.reads += 1
        self.stats.read_bytes += size
        self._note_width(size)

    def check_write(self, tid: int, address: int, size: int = 1) -> None:
        """Race-check a ``size``-byte write and update the epochs.

        Raises :class:`WawRaceException` iff the write races with the
        last write to any accessed byte (including the case where the
        epoch CAS observes a concurrent update, Section 4.3).
        """
        self._check_access(tid, address, size, is_read=False)
        self.stats.writes += 1
        self.stats.written_bytes += size
        self._note_width(size)

    #: The adapter's same-epoch fast path is verdict-invariant for CLEAN:
    #: a byte whose epoch equals the accessing thread's current epoch can
    #: only have been written by that thread in its current SFR, so the
    #: Figure-2 comparison cannot fire and a write's CAS is a no-op.
    same_epoch_filter = True

    def note_same_epoch(
        self, tid: int, address: int, size: int, is_read: bool
    ) -> None:
        """Account an access the same-epoch fast path proved race-free.

        Mirrors exactly the counters :meth:`check_read`/:meth:`check_write`
        would have recorded for an access whose bytes all carry the
        thread's current epoch (one comparison on the vectorized fast
        path, one per byte otherwise; never an epoch update), so the
        software cost model and every figure built on ``stats`` are
        invariant under the filter.
        """
        stats = self.stats
        if size > 1:
            stats.multibyte_accesses += 1
            stats.multibyte_uniform_epoch += 1
        stats.epoch_comparisons += 1 if (self.vectorized and size > 1) else size
        if is_read:
            stats.reads += 1
            stats.read_bytes += size
        else:
            stats.writes += 1
            stats.written_bytes += size
        self._note_width(size)

    def note_same_epoch_block(
        self, tid: int, block: Sequence[Tuple[bool, int, int]]
    ) -> None:
        """Aggregate :meth:`note_same_epoch` over a batch of accesses.

        Pure counter arithmetic — the batched totals are exactly the sum
        of the per-access calls, computed without a Python-level loop.
        ``block`` items are ``(is_write, address, size)``.
        """
        stats = self.stats
        if (
            type(block) is tuple
            and len(block) == 3
            and isinstance(block[2], np.ndarray)
        ):
            is_write = np.asarray(block[0], dtype=bool)
            size = np.asarray(block[2], dtype=np.int64)
            n = int(size.size)
        else:
            n = len(block)
            if n:
                size = np.fromiter(
                    (a[2] for a in block), dtype=np.int64, count=n
                )
                is_write = np.fromiter(
                    (a[0] for a in block), dtype=bool, count=n
                )
        if not n:
            return
        multi = size > 1
        n_multi = int(multi.sum())
        stats.multibyte_accesses += n_multi
        stats.multibyte_uniform_epoch += n_multi
        if self.vectorized:
            stats.epoch_comparisons += n_multi + int(size[~multi].sum())
        else:
            stats.epoch_comparisons += int(size.sum())
        n_writes = int(is_write.sum())
        stats.writes += n_writes
        stats.reads += n - n_writes
        stats.written_bytes += int(size[is_write].sum())
        stats.read_bytes += int(size[~is_write].sum())
        stats.accesses_ge_4_bytes += int((size >= 4).sum())

    def _check_access(self, tid: int, address: int, size: int, is_read: bool) -> None:
        if size < 1:
            raise ValueError("access size must be positive")
        thread = self._threads.get(tid)
        if thread is None:
            thread = self._thread(tid)
        stats = self.stats
        if size == 1:
            epoch = self.shadow.load(address)
        else:
            epochs = self.shadow.load_range(address, size)
            stats.multibyte_accesses += 1
            epoch = epochs[0]
            if epochs.count(epoch) != size:
                self._check_bytes(thread, address, epochs, is_read)
                return
            # Record uniformity even when vectorization is off, so the
            # Figure-8 "without vectorization" run still measures it.
            stats.multibyte_uniform_epoch += 1
            if not self.vectorized:
                self._check_bytes(thread, address, epochs, is_read)
                return
        # One epoch covers every byte (a single byte, or the Section-4.4
        # fast path): one Figure-2 comparison, inlined, and for writes
        # one (wide) update.
        stats.epoch_comparisons += 1
        layout = self.layout
        writer_clock = epoch & layout.clock_max
        writer_tid = (epoch >> layout.clock_bits) & layout.max_tid
        elems = thread.vc._elems
        if writer_clock > elems[writer_tid] & layout.clock_max:
            stats.races_raised += 1
            exc = RawRaceException if is_read else WawRaceException
            raise exc(address, tid, writer_tid, writer_clock, size)
        if not is_read and epoch != elems[tid]:
            self._update_wide(address, size, epoch, elems[tid], thread)

    def _check_bytes(
        self, thread: ThreadState, address: int, epochs: List[int], is_read: bool
    ) -> None:
        """Per-byte Figure-2 loop for a multi-byte access."""
        new_epoch = thread.vc.element(thread.tid)
        for i, epoch in enumerate(epochs):
            self._compare(epoch, thread, address + i, 1, is_read)
            if not is_read and epoch != new_epoch:
                self._cas_update(address + i, epoch, new_epoch, thread, 1)

    def _compare(
        self, epoch: int, thread: ThreadState, address: int, size: int, is_read: bool
    ) -> None:
        """Line 3 of Figure 2: compare epoch clock with the thread's VC."""
        self.stats.epoch_comparisons += 1
        layout = self.layout
        writer_tid = layout.tid(epoch)
        writer_clock = layout.clock(epoch)
        if writer_clock > thread.vc.clock_of(writer_tid):
            self.stats.races_raised += 1
            exc = RawRaceException if is_read else WawRaceException
            raise exc(address, thread.tid, writer_tid, writer_clock, size)

    def _cas_update(
        self, address: int, expected: int, new_epoch: int, thread: ThreadState, size: int
    ) -> None:
        """Line 6 of Figure 2, via CAS so a concurrent update is a WAW race."""
        if self.shadow.compare_and_swap(address, expected, new_epoch):
            self.stats.epoch_updates += 1
            return
        self.stats.cas_failures += 1
        self.stats.races_raised += 1
        actual = self.shadow.load(address)
        raise WawRaceException(
            address, thread.tid, self.layout.tid(actual), self.layout.clock(actual), size
        )

    def _update_wide(
        self, address: int, size: int, expected: int, new_epoch: int, thread: ThreadState
    ) -> None:
        """Wide-CAS update of all epochs of a uniform multi-byte access."""
        for i in range(size):
            self._cas_update(address + i, expected, new_epoch, thread, size)

    # -- the batch check ------------------------------------------------------

    #: Below this many accesses the scalar loop beats the numpy setup cost.
    BATCH_MIN = 8

    def check_block(
        self, tid: int, block: Sequence[Tuple[bool, int, int]]
    ) -> None:
        """Vectorized batch check of one thread's in-order access block.

        Semantics are *identical* to looping :meth:`check_read` /
        :meth:`check_write` over ``block`` — same verdicts, same
        exception at the same access, and figure-exact ``stats`` and
        shadow counters — but the race-free majority is resolved in a
        handful of numpy passes over flat epoch tables.

        The trick is the *effective epoch* overlay: within one block the
        only metadata mutation is this thread's writes installing its
        current epoch, so byte ``b`` at access ``i`` carries the
        thread's epoch if an earlier write in the block covered ``b``,
        and its pre-block epoch otherwise.  That makes every per-byte
        Figure-2 comparison computable in one vectorized pass.  The
        first access whose predicate fires (the conflict minority) is
        re-run through the genuine scalar path, which raises with the
        exact counters and exception the scalar loop would have
        produced; the remaining suffix is re-screened the same way.
        """
        columnar = (
            type(block) is tuple
            and len(block) == 3
            and isinstance(block[1], np.ndarray)
        )
        n = int(block[1].size) if columnar else len(block)
        if (
            n < self.BATCH_MIN
            or not self.vectorized
            or not hasattr(self.shadow, "gather")
        ):
            return DetectorBackend.check_block(self, tid, block)

        thread = self._thread(tid)
        new_epoch = thread.vc.element(tid)

        if columnar:
            is_write = np.asarray(block[0], dtype=bool)
            addr = np.asarray(block[1], dtype=np.int64)
            size = np.asarray(block[2], dtype=np.int64)
        else:
            is_write = np.fromiter((a[0] for a in block), dtype=bool, count=n)
            addr = np.fromiter((a[1] for a in block), dtype=np.int64, count=n)
            size = np.fromiter((a[2] for a in block), dtype=np.int64, count=n)
        if int(size.min()) < 1:
            return DetectorBackend.check_block(self, tid, block)

        # Expand accesses into their constituent byte addresses.
        total = int(size.sum())
        acc_idx = np.repeat(np.arange(n), size)
        seg_starts = np.cumsum(size) - size
        baddr = np.repeat(addr, size) + (np.arange(total) - np.repeat(seg_starts, size))

        unique, inv = np.unique(baddr, return_inverse=True)
        e0 = self.shadow.gather(unique).astype(np.uint32)

        # Effective-epoch overlay: first write index covering each byte.
        first_write = np.full(len(unique), n, dtype=np.int64)
        byte_is_write = is_write[acc_idx]
        np.minimum.at(first_write, inv[byte_is_write], acc_idx[byte_is_write])
        eff = np.where(
            first_write[inv] < acc_idx, np.uint32(new_epoch), e0[inv]
        )

        # The Figure-2 predicate, per byte, in one pass.
        e_tid = (eff >> np.uint32(self.layout.clock_bits)).astype(np.int64)
        e_tid &= self.layout.max_tid
        e_clk = (eff & np.uint32(self.layout.clock_max)).astype(np.int64)
        vc_clk = np.fromiter(
            (thread.vc.clock_of(t) for t in range(self.max_threads)),
            dtype=np.int64,
            count=self.max_threads,
        )
        in_range = e_tid < self.max_threads
        racy_byte = ~in_range  # foreign tids re-checked via the scalar path
        racy_byte |= e_clk > vc_clk[np.where(in_range, e_tid, 0)]

        racy_acc = np.zeros(n, dtype=bool)
        np.logical_or.at(racy_acc, acc_idx, racy_byte)
        danger = int(np.argmax(racy_acc)) if bool(racy_acc.any()) else n

        if danger > 0:
            stats = self.stats
            psz = size[:danger]
            pw = is_write[:danger]
            prefix_bytes = acc_idx < danger

            stats.reads += int((~pw).sum())
            stats.writes += int(pw.sum())
            stats.read_bytes += int(psz[~pw].sum())
            stats.written_bytes += int(psz[pw].sum())
            stats.accesses_ge_4_bytes += int((psz >= 4).sum())
            multi = psz > 1
            stats.multibyte_accesses += int(multi.sum())
            same_as_first = (eff == eff[seg_starts][acc_idx]).astype(np.int64)
            uniform = np.add.reduceat(same_as_first, seg_starts) == size
            stats.multibyte_uniform_epoch += int((multi & uniform[:danger]).sum())
            stats.epoch_comparisons += int(
                np.where(multi & uniform[:danger], 1, psz).sum()
            )

            # Shadow traffic the scalar loop would have generated: one
            # load per checked byte, one (always-successful — the block
            # runs unpreempted) CAS per first foreign-epoch write byte.
            updated = prefix_bytes & byte_is_write & (eff != np.uint32(new_epoch))
            n_updated = int(updated.sum())
            stats.epoch_updates += n_updated
            self.shadow.loads += int(psz.sum())
            self.shadow.stores += n_updated
            written = np.unique(baddr[prefix_bytes & byte_is_write])
            self.shadow.scatter(written, new_epoch)

        if danger < n:
            # Conflict minority: the genuine scalar path reproduces the
            # exact counter trail and exception the loop would have.
            try:
                if is_write[danger]:
                    self.check_write(tid, int(addr[danger]), int(size[danger]))
                else:
                    self.check_read(tid, int(addr[danger]), int(size[danger]))
            except Exception:
                self.block_progress = danger
                raise
            # Only reached when the predicate was conservative (foreign
            # tid); re-screen the rest of the block.
            try:
                self.check_block(
                    tid,
                    (
                        is_write[danger + 1 :],
                        addr[danger + 1 :],
                        size[danger + 1 :],
                    ),
                )
            except Exception:
                self.block_progress += danger + 1
                raise

    # -- recovery hooks -------------------------------------------------------
    #
    # Race-exception recovery (repro.runtime.recovery) leans on two
    # operations the epoch scheme makes cheap.  Both are conservative in
    # the missed-race direction only — exactly the trade the paper's own
    # rollover reset already makes — and neither touches the access-
    # statistics counters, so the cost model stays faithful to the
    # checks actually performed.

    def rollback_writes(self, tid: int, addresses: Iterable[int]) -> int:
        """Forget ``tid``'s open-epoch write metadata at ``addresses``.

        Called when recovery discards an SFR whose buffered stores never
        became visible: any epoch still carrying the faulting thread's
        current ``(tid, clock)`` pair describes a write that no longer
        exists.  Scrubbed locations read as epoch 0 afterwards (like a
        never-written byte).  Returns how many epochs were scrubbed.
        """
        thread = self._threads.get(tid)
        if thread is None:
            return 0
        mine = thread.vc.element(tid)
        shadow = self.shadow
        scrubbed = 0
        for address in addresses:
            if shadow.peek(address) == mine:
                shadow.clear(address)
                scrubbed += 1
        return scrubbed

    def absorb_epoch(self, tid: int, writer_tid: int, writer_clock: int) -> None:
        """Order a prior write before everything ``tid`` does from now on.

        Recovery *serializes* the two sides of a detected race: after the
        faulting SFR is discarded, the retried SFR must be ordered after
        the conflicting write, or the deterministic re-execution would
        re-raise the very same exception.  Joining the writer's clock
        into ``tid``'s vector clock is precisely the effect an acquire of
        a lock released by the writer would have had.
        """
        thread = self._threads.get(tid)
        if thread is None:
            return
        if thread.vc.clock_of(writer_tid) < writer_clock:
            thread.vc.set_clock(writer_tid, writer_clock)

    # -- rollover (Section 4.5) ---------------------------------------------

    def _advance(self, thread: ThreadState) -> None:
        """Advance a thread's own clock, handling imminent rollover."""
        clock_max = self.layout.clock_max
        # ``layout.would_rollover`` of the thread's clock, inline.
        if thread.vc._elems[thread.tid] & clock_max >= clock_max:
            self.rollover_pending = True
            if self.auto_rollover:
                self.reset_metadata()
            else:
                raise OverflowError(
                    f"thread {thread.tid} clock rollover pending and "
                    "auto_rollover is disabled; call reset_metadata()"
                )
        thread.vc.increment(thread.tid)

    def rollover_imminent(self, slack: int = 1) -> bool:
        """Whether any live thread is within ``slack`` ticks of rollover."""
        limit = self.layout.clock_max - slack
        return any(
            t.vc.clock_of(t.tid) >= limit for t in self._threads.values()
        )

    def reset_metadata(self) -> None:
        """Deterministic global reset of all epochs and vector clocks.

        The paper performs this when all threads are at synchronization
        operations; races spanning the reset are missed, but SFR
        isolation, write-atomicity and determinism are preserved because
        the reset lands on a deterministic SFR boundary.
        """
        self.shadow.reset()
        for thread in self._threads.values():
            thread.vc.reset()
            thread.vc.increment(thread.tid)
        for vc in self._lock_vcs.values():
            vc.reset()
        self.rollover_pending = False
        self.stats.rollovers += 1

    # -- helpers -------------------------------------------------------------

    def _thread(self, tid: int) -> ThreadState:
        try:
            return self._threads[tid]
        except KeyError:
            raise MetadataError(f"unknown or dead thread id {tid}") from None

    def _note_width(self, size: int) -> None:
        if size >= 4:
            self.stats.accesses_ge_4_bytes += 1
