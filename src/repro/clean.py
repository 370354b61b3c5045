"""The CLEAN system: detector + deterministic synchronization, assembled.

This is the library's front door.  :class:`CleanMonitor` adapts the
runtime's event stream to the :class:`~repro.core.CleanDetector` — the
software-only CLEAN of Section 4, with the Section-4.3 ordering (write
checks before the store, read checks right after the load) guaranteed by
the monitor hook placement.  :func:`clean_stack` builds the full monitor
stack (race detection + Kendo gate), and :func:`run_clean` runs a program
under it.

Example
-------
    from repro.clean import run_clean
    from repro.runtime import Program

    result = run_clean(Program(main))
    if result.race is not None:
        print("stopped by", result.race)
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from .core.detector import CleanDetector
from .core.events import AccessEvent, DetectorBackend
from .core.epoch import DEFAULT_LAYOUT, EpochLayout
from .core.rollover import RolloverPolicy
from .determinism.counters import PreciseCounter
from .determinism.kendo import KendoGate
from .obs import MetricsRegistry, publish_detector_metrics
from .obs.context import current_registry, current_sites, current_timeline
from .obs.sites import SiteProfiler
from .obs.timeline import TimelineRecorder
from .runtime.ops import Op
from .runtime.program import Program
from .runtime.scheduler import (
    ExecutionMonitor,
    ExecutionResult,
    SchedulingPolicy,
)
from .runtime.sync import Barrier, Condition, Lock, Semaphore

__all__ = ["CleanMonitor", "clean_stack", "run_clean"]


class CleanMonitor(ExecutionMonitor):
    """Adapter: runtime events -> detector backend checks and VC upkeep.

    This is the *only* bridge between the runtime and a detector: the
    CLEAN detector and every baseline implement the same
    :class:`~repro.core.events.DetectorBackend` protocol and plug in
    here unchanged.  Memory traffic arrives as
    :class:`~repro.core.events.AccessEvent` objects through the fused
    scheduler dispatch; the Section-4.3 ordering (write checks before
    the store, read checks right after the load) is guaranteed by
    checking writes in :meth:`before_access` and reads in
    :meth:`after_access`.

    Private (stack-like) accesses are skipped, mirroring the conservative
    shared-access estimate of Section 4.1.  A rollover policy, if given,
    resets all metadata at synchronization commits — under the Kendo gate
    these commits are globally ordered, so the reset point is the
    deterministic one Section 4.5 requires.

    When the backend declares ``same_epoch_filter`` (CLEAN does; the
    baselines do not, because their reads mutate metadata), the monitor
    keeps, per thread, the set of addresses that thread has written in
    its current epoch; an access wholly inside that set provably cannot
    race and cannot change metadata, so the full check is skipped and
    only the backend's statistics mirror
    (:meth:`~repro.core.events.DetectorBackend.note_same_epoch`) runs.
    The set is invalidated whenever the thread's clock can advance (any
    sync commit, spawn/join, barrier departure, condition wake) and
    globally on rollover resets.  ``fastpath=False`` disables the filter
    (used by the verdict-equivalence property tests).
    """

    def __init__(
        self,
        detector: Optional[DetectorBackend] = None,
        rollover: Optional[RolloverPolicy] = None,
        max_threads: int = 64,
        layout: EpochLayout = DEFAULT_LAYOUT,
        instrument_private_fraction: float = 0.0,
        registry: Optional[MetricsRegistry] = None,
        fastpath: bool = True,
        sites: Optional[SiteProfiler] = None,
    ) -> None:
        if not 0.0 <= instrument_private_fraction <= 1.0:
            raise ValueError("instrument_private_fraction must be in [0, 1]")
        self.detector = (
            detector
            if detector is not None
            else CleanDetector(max_threads=max_threads, layout=layout)
        )
        self.rollover = rollover
        self.instrument_private_fraction = instrument_private_fraction
        self.registry = registry
        # Hot-site attribution: explicit profiler, else whatever the
        # ambient telemetry scope carries (None outside a scope — the
        # hot path then pays a single attribute test).
        self.sites = sites if sites is not None else current_sites()
        self._sync_index = 0
        self._fastpath = bool(fastpath) and bool(
            getattr(self.detector, "same_epoch_filter", False)
        )
        #: tid -> addresses written by that thread in its current epoch.
        self._epoch_writes: Dict[int, Set[int]] = {}
        self.fastpath_hits = 0
        self.fastpath_misses = 0

    @property
    def fastpath_enabled(self) -> bool:
        """Whether the same-epoch filter is active for this backend."""
        return self._fastpath

    def _invalidate(self, tid: int) -> None:
        writes = self._epoch_writes.get(tid)
        if writes:
            writes.clear()

    def _invalidate_all(self) -> None:
        self._epoch_writes.clear()

    def _instrument(self, private: bool, address: int) -> bool:
        """Whether this access gets a race check.

        Shared accesses always do.  ``instrument_private_fraction``
        models how conservative the compiler's shared-access estimate is
        (Section 4.1): 0.0 is a perfect escape analysis, 1.0 instruments
        every stack access whose privacy it could not prove.  The choice
        is a deterministic hash of the address, standing in for the
        static classification of the variable.
        """
        if not private:
            return True
        if not self.instrument_private_fraction:
            return False
        return (address * 2654435761 % 1000) < self.instrument_private_fraction * 1000

    # -- thread lifecycle -------------------------------------------------

    def on_thread_start(self, tid: int, parent: Optional[int]) -> None:
        self._invalidate(tid)
        if parent is None:
            root = self.detector.spawn_root()
            if root != tid:
                raise RuntimeError(
                    f"scheduler root tid {tid} != detector root tid {root}"
                )

    def on_spawn(self, parent: int, child: int) -> None:
        self._invalidate(parent)
        self._invalidate(child)
        self.detector.fork(parent, child)

    def on_join(self, parent: int, child: int) -> None:
        self._invalidate(parent)
        self._invalidate(child)
        self.detector.join(parent, child)

    # -- memory (the Figure-2 checks, ordered per Section 4.3) ---------------

    def before_access(self, event: AccessEvent) -> None:
        if not event.is_write:
            return
        address = event.address
        if not self._instrument(event.private, address):
            return
        tid = event.tid
        size = event.size
        sites = self.sites
        if self._fastpath:
            written = self._epoch_writes.get(tid)
            if written is not None and (
                address in written
                if size == 1
                else all(address + o in written for o in range(size))
            ):
                self.fastpath_hits += 1
                self.detector.note_same_epoch(tid, address, size, is_read=False)
                if sites is not None:
                    sites.note_same_epoch(tid, address, is_write=True)
                return
            self.fastpath_misses += 1
            if sites is not None:
                sites.note_check(tid, address, is_write=True)
            self.detector.check_write(tid, address, size)
            if written is None:
                written = self._epoch_writes.setdefault(tid, set())
            written.update(range(address, address + size))
        else:
            if sites is not None:
                sites.note_check(tid, address, is_write=True)
            self.detector.check_write(tid, address, size)

    def after_access(self, event: AccessEvent) -> None:
        if event.is_write:
            return
        address = event.address
        if not self._instrument(event.private, address):
            return
        tid = event.tid
        size = event.size
        sites = self.sites
        if self._fastpath:
            written = self._epoch_writes.get(tid)
            if written is not None and (
                address in written
                if size == 1
                else all(address + o in written for o in range(size))
            ):
                self.fastpath_hits += 1
                self.detector.note_same_epoch(tid, address, size, is_read=True)
                if sites is not None:
                    sites.note_same_epoch(tid, address, is_write=False)
                return
            self.fastpath_misses += 1
        if sites is not None:
            sites.note_check(tid, address, is_write=False)
        self.detector.check_read(tid, address, size)

    # -- the batch lane (scheduler access blocks) ----------------------------

    #: Below this many accesses the scalar loop beats the numpy setup.
    BATCH_MIN = 16

    def on_access_block(self, tid: int, events: Sequence[AccessEvent]) -> None:
        """Scheduler batch-lane hook: one thread's in-order access run."""
        self.check_block(
            tid,
            [(e.is_write, e.address, e.size, e.private) for e in events],
        )

    def check_block(
        self, tid: int, block: Sequence[Tuple[bool, int, int, bool]]
    ) -> None:
        """Drive a whole in-order access block through the adapter.

        ``block`` items are ``(is_write, address, size, private)`` —
        one synchronization-free run of a single thread's accesses, as
        the batch scheduler lane produces them.
        Semantics are identical to the per-event hooks: same verdicts,
        same fast-path hit/miss counts, same ``note_same_epoch`` /
        SiteProfiler / shadow accounting, and on a race the same
        exception with the same counter trail.

        The same-epoch classification of the *whole* block is resolved
        in one vectorized pass (a byte is covered at access ``i`` iff it
        was in the written-this-epoch set before the block or an earlier
        write in the block covered it), then hit runs collapse into one
        aggregate accounting call and miss runs go to the backend's
        vectorized :meth:`~repro.core.events.DetectorBackend.check_block`.
        """
        if self.instrument_private_fraction:
            items = [
                (w, a, s) for (w, a, s, p) in block if self._instrument(p, a)
            ]
        else:
            items = [(w, a, s) for (w, a, s, p) in block if not p]
        n = len(items)
        if not n:
            return
        # The profiler's sampling tick is order-sensitive, and without
        # the fast path there is no classification to batch: replay the
        # exact scalar hook bodies.
        if self.sites is not None or not self._fastpath or n < self.BATCH_MIN:
            for is_write_, address, size_ in items:
                self._check_one(tid, is_write_, address, size_)
            return

        is_write = np.fromiter((a[0] for a in items), dtype=bool, count=n)
        addr = np.fromiter((a[1] for a in items), dtype=np.int64, count=n)
        size = np.fromiter((a[2] for a in items), dtype=np.int64, count=n)
        if int(size.min()) < 1:
            for is_write_, address, size_ in items:
                self._check_one(tid, is_write_, address, size_)
            return

        # Byte expansion and the written-this-epoch coverage overlay.
        total = int(size.sum())
        acc_idx = np.repeat(np.arange(n), size)
        seg_starts = np.cumsum(size) - size
        baddr = np.repeat(addr, size) + (
            np.arange(total) - np.repeat(seg_starts, size)
        )
        unique, inv = np.unique(baddr, return_inverse=True)
        written = self._epoch_writes.get(tid)
        if written:
            covered0 = np.fromiter(
                (int(u) in written for u in unique),
                dtype=bool,
                count=len(unique),
            )
        else:
            covered0 = np.zeros(len(unique), dtype=bool)
        first_write = np.full(len(unique), n, dtype=np.int64)
        byte_is_write = is_write[acc_idx]
        np.minimum.at(first_write, inv[byte_is_write], acc_idx[byte_is_write])
        byte_covered = covered0[inv] | (first_write[inv] < acc_idx)
        hit = np.ones(n, dtype=bool)
        np.logical_and.at(hit, acc_idx, byte_covered)

        # One detector call for the whole miss subsequence, one aggregate
        # accounting call for every hit.  Squeezing the hits out is
        # sound: a hit's bytes already carry the thread's current epoch
        # (that is what made it a hit), so removing it changes neither
        # the detector's effective-epoch overlay nor any verdict — and
        # hits never touch the shadow on the scalar fast path either.
        # First-touch workloads alternate hit/miss at access grain, so
        # per-run dispatch would degenerate into thousands of length-1
        # scalar calls.
        detector = self.detector
        miss_idx = np.flatnonzero(~hit)
        if miss_idx.size:
            try:
                detector.check_block(
                    tid,
                    (is_write[miss_idx], addr[miss_idx], size[miss_idx]),
                )
            except Exception:
                # The scalar loop counts every hit and miss before the
                # raising access (and applies the misses' earlier writes
                # to the written set), then stops.
                done = int(getattr(detector, "block_progress", 0))
                raiser = int(miss_idx[done])
                self.fastpath_misses += done + 1
                pre_hits = np.flatnonzero(hit[:raiser])
                if pre_hits.size:
                    self.fastpath_hits += int(pre_hits.size)
                    detector.note_same_epoch_block(
                        tid,
                        (is_write[pre_hits], addr[pre_hits], size[pre_hits]),
                    )
                if written is None:
                    written = self._epoch_writes.setdefault(tid, set())
                processed = np.zeros(n, dtype=bool)
                processed[miss_idx[:done]] = True
                done_mask = processed[acc_idx] & byte_is_write
                written.update(baddr[done_mask].tolist())
                raise
            self.fastpath_misses += int(miss_idx.size)
            if written is None:
                written = self._epoch_writes.setdefault(tid, set())
            miss_mask = ~hit[acc_idx] & byte_is_write
            written.update(baddr[miss_mask].tolist())
        n_hits = n - int(miss_idx.size)
        if n_hits:
            self.fastpath_hits += n_hits
            detector.note_same_epoch_block(
                tid, (is_write[hit], addr[hit], size[hit])
            )

    def _check_one(
        self, tid: int, is_write: bool, address: int, size: int
    ) -> None:
        """One (already instrument-filtered) access, exact hook body."""
        sites = self.sites
        if self._fastpath:
            written = self._epoch_writes.get(tid)
            if written is not None and (
                address in written
                if size == 1
                else all(address + o in written for o in range(size))
            ):
                self.fastpath_hits += 1
                self.detector.note_same_epoch(
                    tid, address, size, is_read=not is_write
                )
                if sites is not None:
                    sites.note_same_epoch(tid, address, is_write=is_write)
                return
            self.fastpath_misses += 1
            if sites is not None:
                sites.note_check(tid, address, is_write=is_write)
            if is_write:
                self.detector.check_write(tid, address, size)
                if written is None:
                    written = self._epoch_writes.setdefault(tid, set())
                written.update(range(address, address + size))
            else:
                self.detector.check_read(tid, address, size)
            return
        if sites is not None:
            sites.note_check(tid, address, is_write=is_write)
        if is_write:
            self.detector.check_write(tid, address, size)
        else:
            self.detector.check_read(tid, address, size)

    # -- synchronization (vector-clock maintenance) ----------------------------

    def on_acquire(self, tid: int, lock: Lock) -> None:
        self.detector.acquire(tid, lock)

    def on_release(self, tid: int, lock: Lock) -> None:
        self.detector.release(tid, lock)

    def on_barrier_arrive(self, tid: int, barrier: Barrier, generation: int) -> None:
        self.detector.release(tid, (barrier, generation))

    def on_barrier_depart(self, tid: int, barrier: Barrier, generation: int) -> None:
        self._invalidate(tid)
        self.detector.acquire(tid, (barrier, generation))

    def on_cond_signal(self, tid: int, cond: Condition) -> None:
        self.detector.release(tid, cond)

    def on_cond_wake(self, tid: int, cond: Condition) -> None:
        self._invalidate(tid)
        self.detector.acquire(tid, cond)

    def on_sem_post(self, tid: int, sem: Semaphore) -> None:
        self.detector.release(tid, sem)

    def on_sem_wait(self, tid: int, sem: Semaphore) -> None:
        self.detector.acquire(tid, sem)

    # -- rollover -----------------------------------------------------------------

    def on_rollback(self, tid: int) -> None:
        # Recovery discarded ``tid``'s open SFR: the epochs its buffered
        # writes installed were scrubbed, so the written-this-epoch set
        # no longer describes shadow state.
        self._invalidate(tid)

    def on_sync_commit(self, tid: int, op: Op) -> None:
        self._invalidate(tid)
        if self.sites is not None:
            self.sites.note_sync(tid)
        self._sync_index += 1
        if self.rollover is not None and self.rollover.should_reset(self.detector):
            self.rollover.perform_reset(self.detector, self._sync_index)
            # A reset wipes every location's metadata: no thread's
            # written-this-epoch set says anything about shadow state
            # any more.
            self._invalidate_all()

    # -- telemetry ----------------------------------------------------------------

    def on_finish(self, result: ExecutionResult) -> None:
        if self.registry is not None:
            self.publish_metrics(self.registry)
        if self.sites is not None and result.race is not None:
            self.sites.note_race(result.race.address)
        ambient = current_registry()
        if ambient is not None:
            self.accumulate_metrics(ambient)

    def accumulate_metrics(self, registry: MetricsRegistry) -> None:
        """Add this run's detector totals to ``registry`` (``clean.*``).

        Unlike :meth:`publish_metrics` — an idempotent absolute mirror
        (``set_to``) of *one* detector's stats struct — this family
        *accumulates*: a worker job that executes twenty detector runs
        sums them, and the parent process sums worker snapshots again
        via :meth:`~repro.obs.registry.MetricsRegistry.merge_snapshot`.
        That is what makes ``clean.checks`` totals identical between a
        serial and a ``--jobs N`` report.
        """
        stats = getattr(self.detector, "stats", None)
        if stats is not None:
            accesses = getattr(stats, "accesses", None)
            if isinstance(accesses, (int, float)):
                registry.inc("clean.checks", accesses)
            for field in (
                "reads", "writes", "epoch_comparisons", "epoch_updates",
                "cas_failures", "races_raised", "rollovers",
            ):
                value = getattr(stats, field, None)
                if isinstance(value, (int, float)) and value:
                    registry.inc(f"clean.{field}", value)
        shadow = getattr(self.detector, "shadow", None)
        if shadow is not None:
            # Shadow traffic stays exact under batch operations (the
            # batch paths account loads/stores explicitly), so the fast
            # path is observable from the profile output.
            for field in ("loads", "stores", "resets"):
                value = getattr(shadow, field, None)
                if isinstance(value, (int, float)) and value:
                    registry.inc(f"clean.shadow.{field}", value)
        if self._fastpath:
            registry.inc("clean.same_epoch.hits", self.fastpath_hits)
            registry.inc("clean.same_epoch.misses", self.fastpath_misses)
        registry.inc("clean.runs")

    def publish_metrics(self, registry: MetricsRegistry) -> None:
        """Mirror the detector's counters into ``registry``.

        Runs automatically at the end of every execution when the
        monitor was built with a ``registry``; callable at any point for
        a mid-run snapshot.  Works for the CLEAN detector and for any
        baseline plugged through this adapter (duck-typed publishing).
        """
        publish_detector_metrics(self.detector, registry)
        if self._fastpath:
            registry.counter("detector.fastpath.hits").set_to(self.fastpath_hits)
            registry.counter("detector.fastpath.misses").set_to(self.fastpath_misses)
        if self.rollover is not None:
            registry.counter("detector.rollover.resets").set_to(self.rollover.count)


def clean_stack(
    detect: bool = True,
    deterministic: bool = True,
    detector: Optional[DetectorBackend] = None,
    rollover: Optional[RolloverPolicy] = None,
    max_threads: int = 64,
    layout: EpochLayout = DEFAULT_LAYOUT,
    extra: Optional[List[ExecutionMonitor]] = None,
    registry: Optional[MetricsRegistry] = None,
    fastpath: bool = True,
) -> Tuple[List[ExecutionMonitor], Optional[CleanMonitor], Optional[KendoGate]]:
    """Build the CLEAN monitor stack.

    Returns ``(monitors, clean_monitor, kendo_gate)`` — the latter two are
    ``None`` when the corresponding mechanism is disabled, letting
    callers measure each mechanism in isolation as Figure 6 does.  A
    ``registry`` makes the monitor publish its detector's counters there
    at the end of every run (see :mod:`repro.obs`).
    """
    monitors: List[ExecutionMonitor] = []
    clean: Optional[CleanMonitor] = None
    gate: Optional[KendoGate] = None
    if detect:
        clean = CleanMonitor(
            detector=detector,
            rollover=rollover,
            max_threads=max_threads,
            layout=layout,
            registry=registry,
            fastpath=fastpath,
        )
        monitors.append(clean)
    if deterministic:
        gate = KendoGate()
        monitors.append(gate)
    if extra:
        monitors.extend(extra)
    return monitors, clean, gate


def run_clean(
    program: Program,
    detect: bool = True,
    deterministic: bool = True,
    policy: Optional[SchedulingPolicy] = None,
    detector: Optional[DetectorBackend] = None,
    rollover: Optional[RolloverPolicy] = None,
    max_threads: int = 64,
    layout: EpochLayout = DEFAULT_LAYOUT,
    counter_cost: Optional[Callable] = None,
    extra_monitors: Optional[List[ExecutionMonitor]] = None,
    raise_on_race: bool = False,
    registry: Optional[MetricsRegistry] = None,
    fastpath: bool = True,
    recovery: Optional[object] = None,
    timeline: Optional[TimelineRecorder] = None,
) -> ExecutionResult:
    """Run ``program`` under CLEAN and return its execution result.

    The returned result's ``race`` field carries the
    :class:`~repro.core.exceptions.RaceException` if the execution was
    stopped; ``raise_on_race=True`` re-raises it instead.

    ``recovery`` — a mode string (``"abort"``, ``"quarantine"``,
    ``"rollback-retry"``) or a
    :class:`~repro.runtime.recovery.RecoveryPolicy` — makes the
    scheduler buffer SFR writes and *survive* race exceptions instead of
    stopping; the result's ``recovery`` field then carries the
    :class:`~repro.runtime.recovery.RecoveryReport`.

    ``timeline`` — a :class:`~repro.obs.timeline.TimelineRecorder` —
    records the run's execution timeline (SFRs, sync ops, happens-before
    edges) for the forensics exporters.  When no recorder is passed but
    the ambient telemetry scope carries a
    :class:`~repro.obs.timeline.TimelineSink`, one is created per run
    and its payload is delivered to the sink — that is how ``--jobs N``
    workers ship timelines back to the parent.  Either way a
    :class:`~repro.diagnostics.RaceContextMonitor` rides along and, if
    the run races, its :class:`~repro.diagnostics.RaceReport` payload is
    attached to the recorder as ``race_report`` so every forensics
    artifact names the same racing SFR pair as ``RaceReport.render()``.
    """
    from .diagnostics import RaceContextMonitor

    sink = None
    recorder = timeline
    if recorder is None:
        sink = current_timeline()
        if sink is not None:
            recorder = TimelineRecorder(label=program.main.__name__)
    context: Optional[RaceContextMonitor] = None
    monitors, _clean, _gate = clean_stack(
        detect=detect,
        deterministic=deterministic,
        detector=detector,
        rollover=rollover,
        max_threads=max_threads,
        layout=layout,
        extra=extra_monitors,
        registry=registry,
        fastpath=fastpath,
    )
    if recorder is not None:
        # Provenance must be recorded before the CLEAN monitor raises.
        context = RaceContextMonitor()
        monitors.insert(0, context)
    result = program.run(
        policy=policy,
        monitors=monitors,
        max_threads=max_threads,
        counter_cost=counter_cost if counter_cost is not None else PreciseCounter(),
        raise_on_race=False if recorder is not None else raise_on_race,
        recovery=recovery,
        timeline=recorder,
    )
    if recorder is not None:
        if result.race is not None and context is not None:
            recorder.race_report = context.report(
                result.race, sites=current_sites()
            ).to_payload()
        if sink is not None:
            sink.add(recorder.to_payload())
        if raise_on_race and result.race is not None:
            raise result.race
    return result
