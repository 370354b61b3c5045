"""The unified access-event core of the hot path.

Every experiment funnels through the same pipeline — scheduler ->
monitor hooks -> detector check — and this module is its shared
vocabulary:

* :class:`AccessEvent` — one compact, slotted record per memory
  operation, built **once** by the scheduler and handed to every
  event-aware monitor (instead of each monitor re-deriving tid /
  address / size / privacy from positional hook arguments).  It also
  carries the per-thread SFR ordinal and the thread's deterministic
  clock, so region trackers and tracers no longer maintain parallel
  bookkeeping.
* :class:`DetectorBackend` — the protocol every race-detection engine
  implements (CLEAN and all three baselines), so the runtime needs
  exactly one adapter (:class:`~repro.clean.CleanMonitor`) regardless
  of which engine is plugged in.
* :class:`VectorClockBackend` — the thread/lock vector-clock lifecycle
  (fork/join/acquire/release) every happens-before engine shares;
  previously duplicated between the CLEAN detector and
  ``baselines/common.py``.
* :func:`stable_sync_id` — stable, identity-free keys for per-sync
  vector clocks, so record/replay and pickled traces cannot alias (or
  lose) a lock just because the object was reconstructed.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from .epoch import DEFAULT_LAYOUT, EpochLayout
from .exceptions import MetadataError, TooManyThreadsError
from .vector_clock import VectorClock

__all__ = [
    "AccessEvent",
    "DetectorBackend",
    "VectorClockBackend",
    "block_items",
    "stable_sync_id",
]


def block_items(block: object) -> Sequence[Tuple[bool, int, int]]:
    """Normalize an access block to per-item ``(is_write, address, size)``.

    Blocks travel in two shapes: a sequence of per-access tuples, or
    *columnar* — a 3-tuple of equal-length numpy arrays, the zero-copy
    form the batch lane hands between monitor and backend.  Scalar code
    paths call this at their boundary; tuple sequences pass through
    untouched.
    """
    if (
        type(block) is tuple
        and len(block) == 3
        and hasattr(block[0], "tolist")
    ):
        is_write, address, size = block
        return list(zip(is_write.tolist(), address.tolist(), size.tolist()))
    return block


class AccessEvent:
    """One memory operation, as observed by the monitor stack.

    Built by the scheduler exactly once per completed ``Read``/``Write``
    (and once per half of an ``AtomicRMW``), then passed to every
    monitor that overrides the event hooks
    (:meth:`~repro.runtime.scheduler.ExecutionMonitor.before_access` /
    :meth:`~repro.runtime.scheduler.ExecutionMonitor.after_access`).

    The instance is mutable only so the scheduler can fill ``value`` in
    between the *before* and *after* phases of a read; monitors must
    treat it as read-only and must not retain it past the hook call —
    copy the fields out if you need them later.
    """

    __slots__ = ("tid", "address", "size", "is_write", "private", "value",
                 "region", "clock")

    def __init__(
        self,
        tid: int,
        address: int,
        size: int,
        is_write: bool,
        private: bool,
        value: Optional[int] = None,
        region: int = 0,
        clock: int = 0,
    ) -> None:
        self.tid = tid
        self.address = address
        self.size = size
        self.is_write = is_write
        self.private = private
        #: Loaded/stored integer value; ``None`` before a read completes.
        self.value = value
        #: Per-thread SFR ordinal (bumps at every sync commit); pair it
        #: with ``tid`` for a globally unique region id.
        self.region = region
        #: The thread's deterministic counter when the event fired.
        self.clock = clock

    def __repr__(self) -> str:  # debugging aid only; never on the hot path
        kind = "W" if self.is_write else "R"
        return (
            f"AccessEvent({kind} tid={self.tid} addr={self.address:#x} "
            f"size={self.size} private={self.private} region={self.region})"
        )


def stable_sync_id(sync_key: object) -> Hashable:
    """A stable, identity-free key for a synchronization object.

    Runtime sync objects (:class:`~repro.runtime.sync.Lock` and friends)
    carry a stable ``name``; that name is the key.  Tuples (barrier
    episodes are keyed ``(barrier, generation)``) map element-wise.
    Plain hashable tokens (strings, ints) — the form unit tests and
    standalone detector users pass — are already stable and pass
    through unchanged.
    """
    if type(sync_key) is str:
        return sync_key
    name = getattr(sync_key, "name", None)
    if isinstance(name, str):
        return name
    if isinstance(sync_key, tuple):
        return tuple(stable_sync_id(part) for part in sync_key)
    return sync_key


class DetectorBackend:
    """Protocol of a pluggable race-detection engine.

    The runtime adapter (:class:`~repro.clean.CleanMonitor`) drives any
    backend through exactly this surface: thread lifecycle
    (:meth:`spawn_root` / :meth:`fork` / :meth:`join`), happens-before
    edges (:meth:`acquire` / :meth:`release`) and the per-access checks
    (:meth:`check_read` / :meth:`check_write`).  A backend signals a
    race by raising :class:`~repro.core.exceptions.RaceException` from a
    check (or records it, in ``record_only`` engines).
    """

    #: Whether the adapter's same-epoch fast path is verdict-invariant
    #: for this backend: a re-access of bytes the same thread wrote in
    #: its current epoch may skip :meth:`check_read`/:meth:`check_write`
    #: entirely (the engine's :meth:`note_same_epoch` keeps statistics
    #: exact).  Only engines whose checks neither update metadata nor
    #: change verdicts on such accesses may set this.
    same_epoch_filter = False

    #: After :meth:`check_block` raises: how many leading accesses of
    #: that block completed before the raising one.  Batch adapters use
    #: it to keep their own per-access accounting exact across a race.
    block_progress = 0

    # -- thread lifecycle ---------------------------------------------------

    def spawn_root(self) -> int:
        """Create the initial thread; returns its tid."""
        raise NotImplementedError

    def fork(self, parent_tid: int, child_tid: Optional[int] = None) -> int:
        """Create a child ordered after the parent's past; returns its tid."""
        raise NotImplementedError

    def join(self, parent_tid: int, child_tid: int) -> None:
        """Join the child; its past is ordered before the parent's future."""
        raise NotImplementedError

    # -- synchronization ----------------------------------------------------

    def release(self, tid: int, sync_key: object) -> None:
        """Publish the thread's past into the sync object's vector clock."""
        raise NotImplementedError

    def acquire(self, tid: int, sync_key: object) -> None:
        """Order the thread after the sync object's published past."""
        raise NotImplementedError

    # -- the per-access checks ----------------------------------------------

    def check_read(self, tid: int, address: int, size: int = 1) -> None:
        """Race-check a ``size``-byte read at ``address`` by ``tid``."""
        raise NotImplementedError

    def check_write(self, tid: int, address: int, size: int = 1) -> None:
        """Race-check (and record) a ``size``-byte write by ``tid``."""
        raise NotImplementedError

    def note_same_epoch(
        self, tid: int, address: int, size: int, is_read: bool
    ) -> None:
        """Account an access the same-epoch fast path skipped.

        Backends that opt into ``same_epoch_filter`` override this to
        mirror exactly the statistics the full check would have
        recorded, so cost models and figures are invariant under the
        filter.  The default is a no-op (and the filter stays off).
        """

    def note_same_epoch_block(
        self, tid: int, block: Sequence[Tuple[bool, int, int]]
    ) -> None:
        """Account a batch of accesses the same-epoch fast path skipped.

        ``block`` items are ``(is_write, address, size)`` — per-access
        tuples or the columnar form (see :func:`block_items`).  The
        default loops :meth:`note_same_epoch`; backends with counter
        arithmetic cheap enough to aggregate override this.
        """
        note = self.note_same_epoch
        for is_write, address, size in block_items(block):
            note(tid, address, size, is_read=not is_write)

    def check_block(
        self, tid: int, block: Sequence[Tuple[bool, int, int]]
    ) -> None:
        """Race-check a batch of same-thread accesses in program order.

        ``block`` is a sequence of ``(is_write, address, size)`` tuples
        or the columnar array form (see :func:`block_items`) — typically
        one synchronization-free region's worth of accesses.  The
        default simply loops over :meth:`check_read` /
        :meth:`check_write`, so every backend is batch-correct for free;
        engines with a vectorized batch path override this.  Semantics
        are identical to the scalar loop: checks happen in order and the
        first race raises out of the block.
        """
        self.block_progress = 0
        check_read = self.check_read
        check_write = self.check_write
        for index, (is_write, address, size) in enumerate(block_items(block)):
            try:
                if is_write:
                    check_write(tid, address, size)
                else:
                    check_read(tid, address, size)
            except Exception:
                self.block_progress = index
                raise


class VectorClockBackend(DetectorBackend):
    """Thread/lock vector clocks plus the fork/join/acquire/release rules.

    Every precise dynamic detector keeps this same state and differs
    only in its per-location metadata and check (paper Section 2.3); the
    CLEAN detector and all three baselines build on it.  Per-sync vector
    clocks are keyed by :func:`stable_sync_id`, never by object
    identity.
    """

    def __init__(
        self, max_threads: int = 8, layout: EpochLayout = DEFAULT_LAYOUT
    ) -> None:
        if max_threads - 1 > layout.max_tid:
            raise TooManyThreadsError(
                f"{max_threads} threads need more than {layout.tid_bits} tid bits"
            )
        self.layout = layout
        self.max_threads = max_threads
        self._vcs: Dict[int, VectorClock] = {}
        self._free_tids: List[int] = list(range(max_threads - 1, -1, -1))
        self._lock_vcs: Dict[Hashable, VectorClock] = {}
        self.sync_ops = 0

    # -- thread lifecycle ---------------------------------------------------

    def spawn_root(self) -> int:
        """Create the initial thread (tid 0)."""
        if self._vcs:
            raise MetadataError("root thread already exists")
        tid = self._free_tids.pop()
        self._vcs[tid] = VectorClock(self.max_threads, self.layout)
        self._vcs[tid].increment(tid)
        return tid

    def fork(self, parent_tid: int, child_tid: Optional[int] = None) -> int:
        """Create a child ordered after the parent's past."""
        parent = self.vc(parent_tid)
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
        child = parent.copy()
        self._vcs[tid] = child
        child.increment(tid)
        parent.increment(parent_tid)
        return tid

    def join(self, parent_tid: int, child_tid: int) -> None:
        """Join the child; its past is ordered before the parent's future."""
        parent = self.vc(parent_tid)
        child = self.vc(child_tid)
        child.increment(child_tid)
        parent.join(child)
        del self._vcs[child_tid]
        self._free_tids.append(child_tid)

    # -- synchronization ----------------------------------------------------

    def release(self, tid: int, sync_key: object) -> None:
        """Merge the thread's VC into the sync object's; advance the thread."""
        key = stable_sync_id(sync_key)
        vc = self._lock_vcs.get(key)
        if vc is None:
            vc = VectorClock(self.max_threads, self.layout)
            self._lock_vcs[key] = vc
        thread_vc = self.vc(tid)
        vc.join(thread_vc)
        thread_vc.increment(tid)
        self.sync_ops += 1

    def acquire(self, tid: int, sync_key: object) -> None:
        """Merge the sync object's VC into the thread's."""
        vc = self._lock_vcs.get(stable_sync_id(sync_key))
        if vc is not None:
            self.vc(tid).join(vc)
        self.sync_ops += 1

    # -- accessors ----------------------------------------------------------

    def vc(self, tid: int) -> VectorClock:
        """The vector clock of live thread ``tid``."""
        try:
            return self._vcs[tid]
        except KeyError:
            raise MetadataError(f"unknown or dead thread id {tid}") from None

    def epoch_of(self, tid: int) -> int:
        """The thread's current epoch ``EPOCH(tid, vc[tid])``."""
        return self.vc(tid).element(tid)

    def live_threads(self) -> List[int]:
        """Tids of all live threads."""
        return sorted(self._vcs)
