"""Cooperative interleaving scheduler: the runtime's execution engine.

Threads are generators yielding :mod:`~repro.runtime.ops` operations; the
scheduler completes one operation per step, choosing which thread steps
next through a pluggable :class:`SchedulingPolicy`.  Every completed
operation is visible to a stack of :class:`ExecutionMonitor` objects —
this is the moral equivalent of compiler instrumentation in the paper:
the race detector, the Kendo gate, the trace recorder and the SFR oracle
are all monitors.

Monitor dispatch is *fused*: at construction the scheduler compiles, for
every hook, the chain of monitors that actually override it, so a hook
nobody overrides costs nothing per event (the pre-refactor dispatch
called every monitor's no-op base hook on every access).  Memory
operations additionally build one :class:`~repro.core.events.AccessEvent`
per operation — carrying tid, address, size, direction, privacy, the
thread's SFR ordinal and deterministic clock — and hand that single
object to every event-aware monitor via :meth:`ExecutionMonitor.before_access`
/ :meth:`ExecutionMonitor.after_access`; the positional per-field hooks
(``before_read`` and friends) remain supported through thin adapters.
``Scheduler(fused=False)`` restores the pre-refactor call-every-monitor
dispatch, kept as the reference implementation for the equivalence
property tests and the ``benchmarks/bench_hotpath.py`` baseline.

Blocking semantics (locks, barriers, condition variables, semaphores,
join) are implemented here: an operation that cannot complete *parks* its
thread, and the thread becomes schedulable again once the operation is
feasible.  Synchronization operations are additionally *gated*: a monitor
may name, via :meth:`ExecutionMonitor.sync_turn`, the one thread whose
deterministic turn it is (Kendo, Section 2.4/3.3); other threads' sync
operations wait.  When every thread is stalled and at least one is merely
gate-blocked, the scheduler runs the Kendo *pump*: it advances the
deterministic counter of the minimum-turn thread whose operation is
infeasible, exactly like Kendo's spin-with-increment, until some thread
can proceed.  Because pumping only happens when nothing else can run and
each bump is a pure function of the counter state, the committed
synchronization order is independent of the scheduling policy — the
property the determinism tests verify.

The ready set (the sorted candidates handed to the policy) is cached
across steps and rebuilt, asking the gates for the turn once, only after
a step that can change it: a sync commit (which covers thread start and
every parked sync op completing), a thread parking or finishing, the
pump, a recovery action, or a step by the turn holder while a parked,
feasible sync operation waits for the turn.  Memory, compute and output
steps touch no sync object and cannot move another thread's turn, so
the common step reuses the cached set (``docs/runtime_semantics.md`` §3
has the argument).  The reference dispatch rescans every step.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..core.events import AccessEvent
from ..core.exceptions import DeadlockError, RaceException
from .memory import SharedMemory
from .ops import (
    Acquire,
    AtomicRMW,
    BarrierWait,
    Compute,
    CondBroadcast,
    CondSignal,
    CondWait,
    Join,
    Op,
    Output,
    Read,
    Release,
    SemPost,
    SemWait,
    Spawn,
    Write,
)
from .sync import Barrier, Condition, Lock, Semaphore

__all__ = [
    "ExecutionMonitor",
    "ExecutionResult",
    "RandomPolicy",
    "RoundRobinPolicy",
    "Scheduler",
    "SchedulingPolicy",
    "ScriptedPolicy",
    "SyncCommit",
    "ThreadStatus",
    "randbelow",
]


def randbelow(getrandbits: Callable[[int], int], n: int) -> int:
    """``randrange(n)`` of the generator whose bound ``getrandbits`` is
    given, draw for draw: CPython's ``_randbelow`` rejection loop, which
    draws one bit even when ``n`` is 1."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


class ThreadStatus(Enum):
    """Lifecycle state of a runtime thread."""

    RUNNABLE = "runnable"
    BLOCKED = "blocked"
    DONE = "done"


@dataclass
class _ThreadRecord:
    tid: int
    gen: Any
    status: ThreadStatus = ThreadStatus.RUNNABLE
    inbox: Any = None
    pending: Optional[Op] = None
    blocked_reason: str = ""
    det_counter: int = 0
    region: int = 0
    output: List[Any] = field(default_factory=list)
    result: Any = None
    parent: Optional[int] = None
    reacquire_after_cond: Optional[Tuple[Condition, Lock]] = None
    # The generator's origin, kept so recovery can recreate and replay it.
    fn: Optional[Callable[..., Any]] = None
    fn_args: Tuple[Any, ...] = ()


@dataclass(frozen=True)
class SyncCommit:
    """One committed synchronization operation (the deterministic log)."""

    index: int
    tid: int
    kind: str
    target: str
    counter: int


class ExecutionMonitor:
    """Base monitor: every hook is a no-op.  Subclass what you need.

    Hooks that observe memory run in the order required by Section 4.3:
    ``before_write`` fires before the store, ``after_read`` fires right
    after the load.  Any hook may raise
    :class:`~repro.core.exceptions.RaceException` to stop the execution.

    Memory observation comes in two equivalent styles; override one:

    * the *event* hooks :meth:`before_access` / :meth:`after_access`,
      which receive the single :class:`~repro.core.events.AccessEvent`
      the scheduler builds per operation (preferred on hot paths — no
      per-monitor re-derivation of fields, and extra context like the
      SFR ordinal rides along);
    * the per-field hooks (:meth:`before_read`, :meth:`after_read`,
      :meth:`before_write`, :meth:`after_write`), adapted automatically.

    A monitor overriding both styles gets only the event hooks called
    (the event form is the source of truth).

    The scheduler only calls hooks a subclass actually overrides, so a
    new hook costs nothing until somebody uses it.
    """

    def attach(self, scheduler: "Scheduler") -> None:
        """Called once when the scheduler adopts this monitor."""

    def on_thread_start(self, tid: int, parent: Optional[int]) -> None:
        """A thread (root or spawned) began execution."""

    def on_thread_exit(self, tid: int) -> None:
        """A thread's generator finished."""

    def on_join(self, parent: int, child: int) -> None:
        """``parent`` completed a join on finished thread ``child``."""

    def before_access(self, event: AccessEvent) -> None:
        """About to perform ``event`` (race check point for writes).

        For reads ``event.value`` is still ``None``; for writes it is
        the value about to be stored.  Do not retain ``event``.
        """

    def after_access(self, event: AccessEvent) -> None:
        """``event`` completed (race check point for reads).

        ``event.value`` carries the loaded/stored value.  Do not retain
        ``event``.
        """

    def before_read(self, tid: int, address: int, size: int, private: bool) -> None:
        """About to load ``size`` bytes at ``address``."""

    def after_read(
        self, tid: int, address: int, size: int, value: int, private: bool
    ) -> None:
        """Loaded ``value`` from ``address`` (race check point for reads)."""

    def before_write(
        self, tid: int, address: int, size: int, value: int, private: bool
    ) -> None:
        """About to store ``value`` (race check point for writes)."""

    def after_write(
        self, tid: int, address: int, size: int, value: int, private: bool
    ) -> None:
        """Store completed."""

    def on_acquire(self, tid: int, lock: Lock) -> None:
        """``tid`` acquired ``lock`` (happens-after its last releaser)."""

    def on_release(self, tid: int, lock: Lock) -> None:
        """``tid`` released ``lock``."""

    def on_barrier_arrive(self, tid: int, barrier: Barrier, generation: int) -> None:
        """``tid`` arrived at ``barrier`` in episode ``generation``."""

    def on_barrier_depart(self, tid: int, barrier: Barrier, generation: int) -> None:
        """``tid`` left ``barrier`` after episode ``generation`` tripped."""

    def on_cond_signal(self, tid: int, cond: Condition) -> None:
        """``tid`` signalled (or broadcast) ``cond``."""

    def on_cond_wake(self, tid: int, cond: Condition) -> None:
        """``tid`` woke from a wait on ``cond`` (after reacquiring its lock)."""

    def on_sem_post(self, tid: int, sem: Semaphore) -> None:
        """``tid`` posted ``sem``."""

    def on_sem_wait(self, tid: int, sem: Semaphore) -> None:
        """``tid`` completed a wait on ``sem``."""

    def on_spawn(self, parent: int, child: int) -> None:
        """``parent`` spawned ``child`` (parent-happens-before-child)."""

    def on_compute(self, tid: int, amount: int) -> None:
        """``tid`` executed ``amount`` non-memory instructions."""

    def sync_turn(self) -> Optional[int]:
        """Gate: the one tid that may commit a synchronization op now.

        ``None`` (the default) leaves synchronization ungated.  A sync
        op of any other thread waits, parked, until the turn is its
        own.  The scheduler asks once per ready-set rebuild and once per
        freshly yielded sync op, so the turn may change only through a
        step of its holder or a step that rebuilds the ready set anyway
        (a sync commit, a park, a thread exit, the pump, recovery).
        """
        return None

    def on_sync_wait(self, tid: int, op: Op) -> None:
        """``tid``'s feasible sync ``op`` must wait for another thread's
        turn.  Reported at least once per waiting op, possibly more."""

    def on_sync_commit(self, tid: int, op: Op) -> None:
        """A synchronization operation committed (rollover hook point)."""

    def on_access_block(self, tid: int, events: Sequence[AccessEvent]) -> None:
        """A run of ``tid``'s accesses, delivered as one in-order block.

        The batch entry for drivers that hold whole synchronization-free
        runs (live execution dispatches per event).  Semantically
        equivalent to calling
        :meth:`before_access` / :meth:`after_access` for every event in
        order — the default does exactly that, so every monitor is
        batch-correct for free; batch-aware monitors override it.
        """
        before = self.before_access
        after = self.after_access
        for event in events:
            before(event)
            after(event)

    def on_rollback(self, tid: int) -> None:
        """Recovery discarded ``tid``'s open SFR (its buffered writes
        never became visible; any per-thread caches keyed on its open
        epoch must be invalidated)."""

    def on_finish(self, result: "ExecutionResult") -> None:
        """The whole execution finished (normally or with a race)."""


class SchedulingPolicy:
    """Chooses which schedulable thread performs the next step."""

    def pick(self, candidates: Sequence[int], step: int) -> int:
        """Return one tid from ``candidates`` (non-empty, sorted; the
        scheduler reuses the list across steps, so never mutate it)."""
        raise NotImplementedError


class RoundRobinPolicy(SchedulingPolicy):
    """Rotate through threads in tid order."""

    def __init__(self) -> None:
        self._last = -1

    def pick(self, candidates: Sequence[int], step: int) -> int:
        for tid in candidates:
            if tid > self._last:
                self._last = tid
                return tid
        self._last = candidates[0]
        return candidates[0]


class RandomPolicy(SchedulingPolicy):
    """Uniformly random choice from a seeded generator.

    Different seeds explore different interleavings — the tool the
    property tests use to show CLEAN's guarantees hold on *every*
    schedule, not just a lucky one.
    """

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)
        self._getrandbits = self._rng.getrandbits

    def pick(self, candidates: Sequence[int], step: int) -> int:
        return candidates[randbelow(self._getrandbits, len(candidates))]


class ScriptedPolicy(SchedulingPolicy):
    """Follow an explicit tid script; fall back to the lowest candidate.

    Lets tests construct an exact interleaving (e.g. "the write lands
    between the read and its check") without fighting randomness.
    """

    def __init__(self, script: Sequence[int]) -> None:
        self._script = list(script)
        self._pos = 0

    def pick(self, candidates: Sequence[int], step: int) -> int:
        while self._pos < len(self._script):
            wanted = self._script[self._pos]
            self._pos += 1
            if wanted in candidates:
                return wanted
        return candidates[0]


@dataclass
class ExecutionResult:
    """Everything observable about one finished execution."""

    memory: SharedMemory
    outputs: Dict[int, List[Any]]
    thread_results: Dict[int, Any]
    det_counters: Dict[int, int]
    sync_log: List[SyncCommit]
    steps: int
    shared_reads: int
    shared_writes: int
    race: Optional[RaceException] = None
    #: :class:`~repro.runtime.recovery.RecoveryReport` when the scheduler
    #: ran with a recovery policy, else ``None``.
    recovery: Optional[Any] = None

    @property
    def completed(self) -> bool:
        """Whether the execution ran to completion without a race."""
        return self.race is None

    def fingerprint(self) -> Tuple:
        """A hashable digest of the observable outcome.

        Two executions of a race-free program under deterministic
        synchronization must produce equal fingerprints — this is the
        determinism oracle of Section 6.2.2 (program output, final
        deterministic counters, shared access counts, memory state).
        """
        return (
            tuple(sorted(self.memory.snapshot().items())),
            tuple((t, tuple(o)) for t, o in sorted(self.outputs.items())),
            tuple(sorted(self.det_counters.items())),
            self.shared_reads,
            self.shared_writes,
            tuple((c.tid, c.kind, c.target) for c in self.sync_log),
        )


#: Hooks dispatched through compiled chains (everything but attach,
#: memory hooks and on_finish, which have dedicated treatment).
_CHAINED_HOOKS = (
    "on_thread_start",
    "on_thread_exit",
    "on_join",
    "on_acquire",
    "on_release",
    "on_barrier_arrive",
    "on_barrier_depart",
    "on_cond_signal",
    "on_cond_wake",
    "on_sem_post",
    "on_sem_wait",
    "on_spawn",
    "on_compute",
    "sync_turn",
    "on_sync_wait",
    "on_sync_commit",
    "on_rollback",
)


def _overrides(monitor: ExecutionMonitor, name: str) -> bool:
    """Whether ``monitor``'s class (or an ancestor below the base)
    overrides hook ``name``."""
    return getattr(type(monitor), name) is not getattr(ExecutionMonitor, name)


class Scheduler:
    """Interleaves generator threads one operation at a time.

    ``fused=True`` (the default) compiles the monitor dispatch at
    construction: each hook calls only the monitors overriding it, and
    memory operations flow as single :class:`~repro.core.events.AccessEvent`
    objects.  ``fused=False`` is the pre-refactor reference dispatch
    (every monitor's hook called on every event), kept for equivalence
    tests and benchmarking.
    """

    def __init__(
        self,
        memory: Optional[SharedMemory] = None,
        monitors: Optional[Sequence[ExecutionMonitor]] = None,
        policy: Optional[SchedulingPolicy] = None,
        max_threads: int = 64,
        max_steps: int = 50_000_000,
        counter_cost: Optional[Callable[[Op], int]] = None,
        fused: bool = True,
        recovery: Optional[Any] = None,
    ) -> None:
        self.memory = memory if memory is not None else SharedMemory()
        self.monitors: List[ExecutionMonitor] = list(monitors or [])
        self.policy = policy if policy is not None else RoundRobinPolicy()
        self.max_threads = max_threads
        self.max_steps = max_steps
        self.counter_cost = counter_cost if counter_cost is not None else _default_cost
        self.fused = fused
        self.recovery = None
        if recovery is not None:
            from .recovery import RecoveryManager, RecoveryPolicy

            policy_obj = RecoveryPolicy.coerce(recovery)
            if policy_obj is not None:
                if not fused:
                    raise ValueError(
                        "recovery requires the fused dispatch (fused=True)"
                    )
                self.recovery = RecoveryManager(self, policy_obj)
        self._threads: Dict[int, _ThreadRecord] = {}
        # Records of every thread that ever ran; tid reuse keeps only the
        # latest occupant of a tid, which is what the result reports.
        self._records_ever: Dict[int, _ThreadRecord] = {}
        self._free_tids: List[int] = list(range(max_threads - 1, -1, -1))
        self._finished_unjoined: Dict[int, Any] = {}
        self._sync_log: List[SyncCommit] = []
        self._steps = 0
        self._shared_reads = 0
        self._shared_writes = 0
        self._ctx = _Context(self)
        # The cached ready set (None = rebuild before the next pick) and
        # the turn holder whose steps invalidate it (see _step).
        self._ready: Optional[List[int]] = None
        self._turn_watch: Tuple[int, ...] = ()
        for monitor in self.monitors:
            monitor.attach(self)
        self._compile_dispatch()

    # -- dispatch compilation --------------------------------------------------

    def add_monitor(self, monitor: ExecutionMonitor) -> None:
        """Adopt ``monitor`` mid-setup and recompile the dispatch tables."""
        self.monitors.append(monitor)
        monitor.attach(self)
        self._compile_dispatch()

    def _compile_dispatch(self) -> None:
        """Build per-hook call chains from the current monitor stack.

        Fused mode keeps, per hook, only the monitors overriding it.
        Unfused mode keeps every monitor (the pre-refactor semantics:
        the base class's no-op hook is still a call).  Either way the
        chains are tuples of bound methods — iteration is allocation-
        free on the hot path.
        """
        monitors = self.monitors

        def chain(name: str) -> Tuple[Callable, ...]:
            if self.fused:
                return tuple(
                    getattr(m, name) for m in monitors if _overrides(m, name)
                )
            return tuple(getattr(m, name) for m in monitors)

        self._chains: Dict[str, Tuple[Callable, ...]] = {
            name: chain(name) for name in _CHAINED_HOOKS
        }
        c = self._chains
        self._c_thread_start = c["on_thread_start"]
        self._c_thread_exit = c["on_thread_exit"]
        self._c_join = c["on_join"]
        self._c_acquire = c["on_acquire"]
        self._c_release = c["on_release"]
        self._c_barrier_arrive = c["on_barrier_arrive"]
        self._c_barrier_depart = c["on_barrier_depart"]
        self._c_cond_signal = c["on_cond_signal"]
        self._c_cond_wake = c["on_cond_wake"]
        self._c_sem_post = c["on_sem_post"]
        self._c_sem_wait = c["on_sem_wait"]
        self._c_spawn = c["on_spawn"]
        self._c_compute = c["on_compute"]
        self._c_sync_turn = c["sync_turn"]
        self._c_sync_wait = c["on_sync_wait"]
        self._c_sync_commit = c["on_sync_commit"]
        self._c_rollback = c["on_rollback"]

        # Event-hook chains: monitors consuming AccessEvents directly.
        self._ev_before = tuple(
            m.before_access for m in monitors if _overrides(m, "before_access")
        )
        self._ev_after = tuple(
            m.after_access for m in monitors if _overrides(m, "after_access")
        )

        # Fused memory chains: one callable-of-event per interested
        # monitor per dispatch point, in stack order.  Event-style
        # monitors contribute their bound hook; per-field monitors are
        # adapted by a closure that unpacks the event.
        def memory_chain(point: str) -> Tuple[Callable, ...]:
            event_hook = "before_access" if point.startswith("before") else "after_access"
            out: List[Callable] = []
            for m in monitors:
                if _overrides(m, event_hook):
                    out.append(getattr(m, event_hook))
                elif _overrides(m, point):
                    f = getattr(m, point)
                    if point in ("before_read",):
                        out.append(
                            lambda ev, f=f: f(ev.tid, ev.address, ev.size, ev.private)
                        )
                    else:
                        out.append(
                            lambda ev, f=f: f(
                                ev.tid, ev.address, ev.size, ev.value, ev.private
                            )
                        )
            return tuple(out)

        self._c_read_before = memory_chain("before_read")
        self._c_read_after = memory_chain("after_read")
        self._c_write_before = memory_chain("before_write")
        self._c_write_after = memory_chain("after_write")

        handlers = dict(self._HANDLERS)
        if self.recovery is not None:
            handlers[Read] = Scheduler._do_read_buffered
            handlers[Write] = Scheduler._do_write_buffered
            handlers[AtomicRMW] = Scheduler._do_rmw_buffered
        if not self.fused:
            handlers[Read] = Scheduler._do_read_legacy
            handlers[Write] = Scheduler._do_write_legacy
            handlers[AtomicRMW] = Scheduler._do_rmw_legacy
            # The reference mode also restores the pre-refactor support
            # paths (per-thread sort + call-per-candidate feasibility,
            # isinstance-chain op classification), so benchmarks compare
            # against the hot path as it actually was, end to end.
            self._scan = self._scan_legacy
            self._feasible = self._feasible_legacy
        self._handlers = handlers

    # -- public API -----------------------------------------------------------

    def start(self, fn: Callable[..., Any], *args: Any) -> int:
        """Create the root thread running ``fn(ctx, *args)``."""
        if self._threads:
            raise RuntimeError("root thread already started")
        return self._create_thread(fn, args, parent=None)

    def run(self, raise_on_race: bool = False) -> ExecutionResult:
        """Drive the execution to completion; returns the result.

        A :class:`RaceException` from a monitor stops the execution; it
        is recorded on the result (and re-raised if ``raise_on_race``).
        Under a recovery policy the exception is instead handed to the
        :class:`~repro.runtime.recovery.RecoveryManager`, which may roll
        the faulting thread back or quarantine it and let the run
        continue; only an ``abort``-mode policy (or a recovery failure)
        still stops the execution.
        """
        race: Optional[RaceException] = None
        recovery = self.recovery
        try:
            if self.fused:
                if recovery is not None:
                    while self._threads:
                        try:
                            self._step()
                        except RaceException as exc:
                            # Recovery rewinds or retires the thread.
                            self._ready = None
                            if not recovery.handle(exc):
                                raise
                else:
                    while self._threads:
                        self._step()
            else:
                while self._live_tids():
                    self._ready = None  # the reference rescans every step
                    self._step()
        except RaceException as exc:
            race = exc
        except DeadlockError as exc:
            if recovery is None or not recovery.absorb_deadlock(exc):
                raise
        result = ExecutionResult(
            memory=self.memory,
            outputs={t: r.output for t, r in self._all_records().items()},
            thread_results={t: r.result for t, r in self._all_records().items()},
            det_counters={t: r.det_counter for t, r in self._all_records().items()},
            sync_log=self._sync_log,
            steps=self._steps,
            shared_reads=self._shared_reads,
            shared_writes=self._shared_writes,
            race=race,
            recovery=recovery.report if recovery is not None else None,
        )
        for monitor in self.monitors:
            monitor.on_finish(result)
        if recovery is not None:
            recovery.publish_ambient()
        if race is not None and raise_on_race:
            raise race
        return result

    def det_counter(self, tid: int) -> int:
        """Current deterministic counter of live thread ``tid``."""
        return self._threads[tid].det_counter

    def live_counters(self) -> Dict[int, int]:
        """Deterministic counters of all live threads."""
        return {t: r.det_counter for t, r in self._threads.items()}

    def region_of(self, tid: int) -> int:
        """Current SFR ordinal of live thread ``tid`` (bumps per sync)."""
        return self._threads[tid].region

    # -- scheduling loop -------------------------------------------------------

    def _live_tids(self) -> List[int]:
        return sorted(self._threads)

    def _all_records(self) -> Dict[int, _ThreadRecord]:
        return dict(self._records_ever)

    def _step(self) -> None:
        if self._steps >= self.max_steps:
            raise RuntimeError(f"exceeded step budget of {self.max_steps}")
        candidates = self._ready
        if candidates is None:
            candidates = self._rebuild()
            if not candidates:
                self._pump()
                candidates = self._rebuild()
                if not candidates:
                    raise DeadlockError(
                        {t: r.blocked_reason for t, r in self._threads.items()}
                    )
        tid = self.policy.pick(candidates, self._steps)
        self._steps += 1
        record = self._threads[tid]
        if record.pending is not None:
            self._complete(record, record.pending)
        else:
            self._advance_generator(record)
        if tid in self._turn_watch:
            # A turn holder moved its counter while a feasible sync op
            # waits for the turn: the turn may have passed to it.
            self._ready = None

    def _rebuild(self) -> List[int]:
        self._ready, self._turn_watch = self._scan()
        return self._ready

    def _scan(self) -> Tuple[List[int], Tuple[int, ...]]:
        """Full rescan: the sorted schedulable tids, and the turn holders
        a parked, feasible sync op waits on (empty when none waits)."""
        turn = self._sync_turn()
        watch: Tuple[int, ...] = ()
        ready = []
        runnable = ThreadStatus.RUNNABLE
        feasibility = self._FEASIBILITY
        for tid, record in self._threads.items():
            if record.status is runnable:
                ready.append(tid)
                continue
            op = record.pending
            if op is None:
                continue
            checker = feasibility.get(type(op))
            if checker is not None and not checker(self, op):
                continue
            if op.is_sync and self._must_wait(tid, op, turn):
                watch = turn
            else:
                ready.append(tid)
        ready.sort()
        return ready, watch

    def _scan_legacy(self) -> Tuple[List[int], Tuple[int, ...]]:
        ready = []
        for tid in sorted(self._threads):
            record = self._threads[tid]
            if record.status is ThreadStatus.RUNNABLE:
                ready.append(tid)
            elif record.pending is not None and self._can_complete(
                record, record.pending
            ):
                ready.append(tid)
        return ready, ()

    def _can_complete(self, record: _ThreadRecord, op: Op) -> bool:
        if not self._feasible(record, op):
            return False
        return not (op.is_sync and self._must_wait(record.tid, op, self._sync_turn()))

    def _sync_turn(self) -> Tuple[int, ...]:
        """The distinct tids the gates name as turn holders (empty when
        no gate restricts sync)."""
        turn: Tuple[int, ...] = ()
        for gate in self._c_sync_turn:
            holder = gate()
            if holder is not None and holder not in turn:
                turn += (holder,)
        return turn

    def _must_wait(self, tid: int, op: Op, turn: Tuple[int, ...]) -> bool:
        """Whether ``tid``'s sync ``op`` waits for the turn (it may commit
        only as the sole holder); tells the gates when it does."""
        if not turn or turn == (tid,):
            return False
        for hook in self._c_sync_wait:
            hook(tid, op)
        return True

    def _pump(self) -> None:
        """Kendo pump: resolve a global stall by spin-with-increment.

        Only runs when every live thread is blocked.  In Kendo, a thread
        holding the deterministic turn whose operation cannot complete
        (lock held, barrier not full, ...) increments its own counter by
        one and cedes the turn; during a global stall these +1 bumps
        repeat until the first thread with a *feasible* operation becomes
        the minimum.  Because nothing else can run meanwhile, the limit
        of that dynamics has a closed form, applied here directly: every
        infeasible thread ahead of the first feasible thread ``F`` in
        turn order climbs to ``F``'s counter (plus one if its tid would
        still win the tie-break).  The result is a pure function of the
        stall state, so the committed sync order stays schedule-
        independent.
        """
        feasible: List[Tuple[int, int]] = []  # (counter, tid)
        for tid, record in self._threads.items():
            op = record.pending
            if op is not None and self._feasible(record, op):
                feasible.append((record.det_counter, tid))
        if not feasible:
            return  # true deadlock; _step raises
        threshold, winner_tid = min(feasible)
        for tid, record in self._threads.items():
            if tid == winner_tid:
                continue
            op = record.pending
            if op is None or self._feasible(record, op):
                continue
            if (record.det_counter, tid) < (threshold, winner_tid):
                record.det_counter = threshold if tid > winner_tid else threshold + 1

    def _feasible(self, record: _ThreadRecord, op: Op) -> bool:
        """Whether ``op`` can complete now, ignoring the sync gate.

        Dispatches on the op's exact type through a table; op types
        absent from the table (memory ops, compute, barrier arrival —
        which always "completes" into an internal sleep) are always
        feasible.
        """
        checker = self._FEASIBILITY.get(type(op))
        return True if checker is None else checker(self, op)

    def _feasible_legacy(self, record: _ThreadRecord, op: Op) -> bool:
        if isinstance(op, Acquire):
            return not op.lock.held
        if isinstance(op, _Reacquire):
            return not op.lock.held
        if isinstance(op, BarrierWait):
            return True
        if isinstance(op, _BarrierSleep):
            return op.barrier.generation > op.generation
        if isinstance(op, _CondSleep):
            return op.woken
        if isinstance(op, SemWait):
            return op.sem.value > 0
        if isinstance(op, Join):
            return op.tid in self._finished_unjoined
        return True

    # -- generator driving -----------------------------------------------------

    def _advance_generator(self, record: _ThreadRecord) -> None:
        if self.recovery is not None:
            self.recovery.note_resume(record)
        try:
            op = record.gen.send(record.inbox)
        except StopIteration as stop:
            self._finish_thread(record, stop.value)
            return
        record.inbox = None
        if not isinstance(op, Op):
            raise TypeError(
                f"thread {record.tid} yielded {op!r}; expected an Op instance"
            )
        if not op.is_sync:
            # Memory, compute and output ops always complete, and the
            # record is already runnable with nothing pending.
            self._handlers[type(op)](self, record, op)
        elif self._can_complete(record, op):
            self._complete(record, op)
        else:
            self._park(record, op)

    def _park(self, record: _ThreadRecord, op: Op) -> None:
        self._ready = None
        record.pending = op
        record.status = ThreadStatus.BLOCKED
        record.blocked_reason = _describe_block(op)

    def _unpark(self, record: _ThreadRecord, inbox: Any = None) -> None:
        record.pending = None
        record.status = ThreadStatus.RUNNABLE
        record.blocked_reason = ""
        record.inbox = inbox

    # -- operation completion ----------------------------------------------------

    def _complete(self, record: _ThreadRecord, op: Op) -> None:
        record.pending = None
        record.status = ThreadStatus.RUNNABLE
        record.blocked_reason = ""
        handler = self._handlers[type(op)]
        handler(self, record, op)

    def _commit_sync(self, record: _ThreadRecord, op: Op, target: str) -> None:
        # A commit can change any parked op's feasibility (and Spawn
        # starts a thread): the ready set is stale.
        self._ready = None
        if self.recovery is not None:
            # The SFR is closing: its buffered writes become visible now,
            # which is exactly the paper's write-atomicity.
            self.recovery.commit(record.tid)
        record.det_counter += self.counter_cost(op)
        record.region += 1
        self._sync_log.append(
            SyncCommit(
                index=len(self._sync_log),
                tid=record.tid,
                kind=type(op).__name__,
                target=target,
                counter=record.det_counter,
            )
        )
        for hook in self._c_sync_commit:
            hook(record.tid, op)

    # -- memory operations (the fused hot path) --------------------------------

    def _do_read(self, record: _ThreadRecord, op: Read) -> None:
        before = self._c_read_before
        after = self._c_read_after
        if before or after:
            event = AccessEvent(
                record.tid, op.address, op.size, False, op.private,
                None, record.region, record.det_counter,
            )
            for fn in before:
                fn(event)
            value = self.memory.load_int(op.address, op.size)
            event.value = value
            for fn in after:
                fn(event)
        else:
            value = self.memory.load_int(op.address, op.size)
        if not op.private:
            self._shared_reads += 1
        record.det_counter += self.counter_cost(op)
        record.inbox = value

    def _do_write(self, record: _ThreadRecord, op: Write) -> None:
        before = self._c_write_before
        after = self._c_write_after
        if before or after:
            event = AccessEvent(
                record.tid, op.address, op.size, True, op.private,
                op.value, record.region, record.det_counter,
            )
            for fn in before:
                fn(event)
            self.memory.store_int(op.address, op.size, op.value)
            for fn in after:
                fn(event)
        else:
            self.memory.store_int(op.address, op.size, op.value)
        if not op.private:
            self._shared_writes += 1
        record.det_counter += self.counter_cost(op)

    def _do_rmw(self, record: _ThreadRecord, op: AtomicRMW) -> None:
        tid = record.tid
        read_event = AccessEvent(
            tid, op.address, op.size, False, False,
            None, record.region, record.det_counter,
        )
        for fn in self._c_read_before:
            fn(read_event)
        old = self.memory.load_int(op.address, op.size)
        read_event.value = old
        for fn in self._c_read_after:
            fn(read_event)
        new = op.fn(old)
        write_event = AccessEvent(
            tid, op.address, op.size, True, False,
            new, record.region, record.det_counter,
        )
        for fn in self._c_write_before:
            fn(write_event)
        self.memory.store_int(op.address, op.size, new)
        for fn in self._c_write_after:
            fn(write_event)
        self._shared_reads += 1
        self._shared_writes += 1
        record.det_counter += self.counter_cost(op)
        record.inbox = old

    # -- memory operations (SFR write-buffered variants, recovery mode) ---------
    #
    # Same monitor dispatch as the fused handlers, but stores land in the
    # thread's per-SFR buffer (published at the next sync commit) and
    # loads overlay the thread's own buffer — read-your-writes inside the
    # SFR, invisible to every other thread.  Race checks are unchanged:
    # they run against the same addresses at the same points, so the
    # detection verdict is identical to the unbuffered path.

    def _do_read_buffered(self, record: _ThreadRecord, op: Read) -> None:
        overlay = self.recovery.overlay(record.tid)
        before = self._c_read_before
        after = self._c_read_after
        if before or after:
            event = AccessEvent(
                record.tid, op.address, op.size, False, op.private,
                None, record.region, record.det_counter,
            )
            for fn in before:
                fn(event)
            value = self.memory.load_int_overlay(op.address, op.size, overlay)
            event.value = value
            for fn in after:
                fn(event)
        else:
            value = self.memory.load_int_overlay(op.address, op.size, overlay)
        if not op.private:
            self._shared_reads += 1
        record.det_counter += self.counter_cost(op)
        record.inbox = value

    def _do_write_buffered(self, record: _ThreadRecord, op: Write) -> None:
        before = self._c_write_before
        after = self._c_write_after
        if before or after:
            event = AccessEvent(
                record.tid, op.address, op.size, True, op.private,
                op.value, record.region, record.det_counter,
            )
            for fn in before:
                fn(event)
            self.recovery.buffer_store(record.tid, op.address, op.size, op.value)
            for fn in after:
                fn(event)
        else:
            self.recovery.buffer_store(record.tid, op.address, op.size, op.value)
        if not op.private:
            self._shared_writes += 1
        record.det_counter += self.counter_cost(op)

    def _do_rmw_buffered(self, record: _ThreadRecord, op: AtomicRMW) -> None:
        tid = record.tid
        overlay = self.recovery.overlay(tid)
        read_event = AccessEvent(
            tid, op.address, op.size, False, False,
            None, record.region, record.det_counter,
        )
        for fn in self._c_read_before:
            fn(read_event)
        old = self.memory.load_int_overlay(op.address, op.size, overlay)
        read_event.value = old
        for fn in self._c_read_after:
            fn(read_event)
        new = op.fn(old)
        write_event = AccessEvent(
            tid, op.address, op.size, True, False,
            new, record.region, record.det_counter,
        )
        for fn in self._c_write_before:
            fn(write_event)
        self.recovery.buffer_store(tid, op.address, op.size, new)
        for fn in self._c_write_after:
            fn(write_event)
        self._shared_reads += 1
        self._shared_writes += 1
        record.det_counter += self.counter_cost(op)
        record.inbox = old

    # -- memory operations (pre-refactor reference dispatch) --------------------

    def _dispatch_event_legacy(
        self, chains: Tuple[Callable, ...], event: AccessEvent
    ) -> None:
        for fn in chains:
            fn(event)

    def _do_read_legacy(self, record: _ThreadRecord, op: Read) -> None:
        tid = record.tid
        event = None
        if self._ev_before or self._ev_after:
            event = AccessEvent(
                tid, op.address, op.size, False, op.private,
                None, record.region, record.det_counter,
            )
        for monitor in self.monitors:
            monitor.before_read(tid, op.address, op.size, op.private)
        if event is not None:
            self._dispatch_event_legacy(self._ev_before, event)
        value = self.memory.load_int(op.address, op.size)
        if event is not None:
            event.value = value
        for monitor in self.monitors:
            monitor.after_read(tid, op.address, op.size, value, op.private)
        if event is not None:
            self._dispatch_event_legacy(self._ev_after, event)
        if not op.private:
            self._shared_reads += 1
        record.det_counter += self.counter_cost(op)
        record.inbox = value

    def _do_write_legacy(self, record: _ThreadRecord, op: Write) -> None:
        tid = record.tid
        event = None
        if self._ev_before or self._ev_after:
            event = AccessEvent(
                tid, op.address, op.size, True, op.private,
                op.value, record.region, record.det_counter,
            )
        for monitor in self.monitors:
            monitor.before_write(tid, op.address, op.size, op.value, op.private)
        if event is not None:
            self._dispatch_event_legacy(self._ev_before, event)
        self.memory.store_int(op.address, op.size, op.value)
        for monitor in self.monitors:
            monitor.after_write(tid, op.address, op.size, op.value, op.private)
        if event is not None:
            self._dispatch_event_legacy(self._ev_after, event)
        if not op.private:
            self._shared_writes += 1
        record.det_counter += self.counter_cost(op)

    def _do_rmw_legacy(self, record: _ThreadRecord, op: AtomicRMW) -> None:
        tid = record.tid
        use_events = bool(self._ev_before or self._ev_after)
        read_event = None
        if use_events:
            read_event = AccessEvent(
                tid, op.address, op.size, False, False,
                None, record.region, record.det_counter,
            )
        for monitor in self.monitors:
            monitor.before_read(tid, op.address, op.size, False)
        if read_event is not None:
            self._dispatch_event_legacy(self._ev_before, read_event)
        old = self.memory.load_int(op.address, op.size)
        if read_event is not None:
            read_event.value = old
        for monitor in self.monitors:
            monitor.after_read(tid, op.address, op.size, old, False)
        if read_event is not None:
            self._dispatch_event_legacy(self._ev_after, read_event)
        new = op.fn(old)
        write_event = None
        if use_events:
            write_event = AccessEvent(
                tid, op.address, op.size, True, False,
                new, record.region, record.det_counter,
            )
        for monitor in self.monitors:
            monitor.before_write(tid, op.address, op.size, new, False)
        if write_event is not None:
            self._dispatch_event_legacy(self._ev_before, write_event)
        self.memory.store_int(op.address, op.size, new)
        for monitor in self.monitors:
            monitor.after_write(tid, op.address, op.size, new, False)
        if write_event is not None:
            self._dispatch_event_legacy(self._ev_after, write_event)
        self._shared_reads += 1
        self._shared_writes += 1
        record.det_counter += self.counter_cost(op)
        record.inbox = old

    # -- synchronization operations ---------------------------------------------

    def _do_acquire(self, record: _ThreadRecord, op: Acquire) -> None:
        assert not op.lock.held
        op.lock.holder = record.tid
        if self.recovery is not None:
            self.recovery.note_acquire(record.tid, op.lock)
        for hook in self._c_acquire:
            hook(record.tid, op.lock)
        self._commit_sync(record, op, op.lock.name)

    def _do_release(self, record: _ThreadRecord, op: Release) -> None:
        if op.lock.holder != record.tid:
            raise RuntimeError(
                f"thread {record.tid} released {op.lock.name} held by "
                f"{op.lock.holder}"
            )
        if self.recovery is not None:
            self.recovery.note_release(record.tid, op.lock)
        for hook in self._c_release:
            hook(record.tid, op.lock)
        op.lock.holder = None
        self._commit_sync(record, op, op.lock.name)

    def _do_barrier(self, record: _ThreadRecord, op: BarrierWait) -> None:
        barrier = op.barrier
        generation = barrier.generation
        barrier.waiting.append(record.tid)
        for hook in self._c_barrier_arrive:
            hook(record.tid, barrier, generation)
        self._commit_sync(record, op, barrier.name)
        if len(barrier.waiting) >= barrier.parties:
            barrier.generation += 1
            departing = list(barrier.waiting)
            barrier.waiting.clear()
            for tid in departing:
                departer = self._threads[tid]
                for hook in self._c_barrier_depart:
                    hook(tid, barrier, generation)
                if tid != record.tid:
                    self._unpark(departer)
        else:
            self._park(record, _BarrierSleep(barrier, generation))

    def _do_barrier_sleep(self, record: _ThreadRecord, op: "_BarrierSleep") -> None:
        # Departure hooks already ran when the barrier tripped; waking the
        # thread is all that is left.
        record.inbox = None

    def _do_cond_wait(self, record: _ThreadRecord, op: CondWait) -> None:
        if op.lock.holder != record.tid:
            raise RuntimeError(
                f"thread {record.tid} waited on {op.cond.name} without "
                f"holding {op.lock.name}"
            )
        if self.recovery is not None:
            self.recovery.note_release(record.tid, op.lock)
        for hook in self._c_release:
            hook(record.tid, op.lock)
        op.lock.holder = None
        self._commit_sync(record, op, op.cond.name)
        sleep = _CondSleep(op.cond, op.lock)
        op.cond.waiting.append(record.tid)
        self._park(record, sleep)

    def _do_cond_sleep(self, record: _ThreadRecord, op: "_CondSleep") -> None:
        # Woken: now reacquire the lock before returning from the wait.
        self._park(record, _Reacquire(op.lock, op.cond))

    def _do_reacquire(self, record: _ThreadRecord, op: "_Reacquire") -> None:
        assert not op.lock.held
        op.lock.holder = record.tid
        if self.recovery is not None:
            self.recovery.note_acquire(record.tid, op.lock)
        for hook in self._c_acquire:
            hook(record.tid, op.lock)
        for hook in self._c_cond_wake:
            hook(record.tid, op.cond)
        self._commit_sync(record, op, op.lock.name)

    def _do_cond_signal(self, record: _ThreadRecord, op: CondSignal) -> None:
        for hook in self._c_cond_signal:
            hook(record.tid, op.cond)
        if op.cond.waiting:
            tid = op.cond.waiting.pop(0)
            sleeper = self._threads[tid]
            assert isinstance(sleeper.pending, _CondSleep)
            sleeper.pending.woken = True
        self._commit_sync(record, op, op.cond.name)

    def _do_cond_broadcast(self, record: _ThreadRecord, op: CondBroadcast) -> None:
        for hook in self._c_cond_signal:
            hook(record.tid, op.cond)
        for tid in op.cond.waiting:
            sleeper = self._threads[tid]
            assert isinstance(sleeper.pending, _CondSleep)
            sleeper.pending.woken = True
        op.cond.waiting.clear()
        self._commit_sync(record, op, op.cond.name)

    def _do_sem_wait(self, record: _ThreadRecord, op: SemWait) -> None:
        assert op.sem.value > 0
        op.sem.value -= 1
        for hook in self._c_sem_wait:
            hook(record.tid, op.sem)
        self._commit_sync(record, op, op.sem.name)

    def _do_sem_post(self, record: _ThreadRecord, op: SemPost) -> None:
        op.sem.value += 1
        for hook in self._c_sem_post:
            hook(record.tid, op.sem)
        self._commit_sync(record, op, op.sem.name)

    def _do_spawn(self, record: _ThreadRecord, op: Spawn) -> None:
        child = self._create_thread(op.fn, op.args, parent=record.tid)
        self._commit_sync(record, op, f"spawn:{child}")
        record.inbox = child

    def _do_join(self, record: _ThreadRecord, op: Join) -> None:
        assert op.tid in self._finished_unjoined
        result = self._finished_unjoined.pop(op.tid)
        for hook in self._c_join:
            hook(record.tid, op.tid)
        self._free_tids.append(op.tid)
        self._commit_sync(record, op, f"join:{op.tid}")
        record.inbox = result

    def _do_compute(self, record: _ThreadRecord, op: Compute) -> None:
        for hook in self._c_compute:
            hook(record.tid, op.amount)
        record.det_counter += self.counter_cost(op)

    def _do_output(self, record: _ThreadRecord, op: Output) -> None:
        record.output.append(op.value)
        record.det_counter += self.counter_cost(op)

    # -- thread lifecycle ----------------------------------------------------------

    def _create_thread(
        self, fn: Callable[..., Any], args: Tuple[Any, ...], parent: Optional[int]
    ) -> int:
        if not self._free_tids:
            raise RuntimeError(f"more than {self.max_threads} live threads")
        tid = self._free_tids.pop()
        gen = fn(self._ctx, *args)
        if not hasattr(gen, "send"):
            raise TypeError(f"thread function {fn!r} must be a generator function")
        record = _ThreadRecord(tid=tid, gen=gen, parent=parent, fn=fn, fn_args=args)
        if parent is not None:
            record.det_counter = self._threads[parent].det_counter
        self._threads[tid] = record
        self._records_ever[tid] = record
        for hook in self._c_thread_start:
            hook(tid, parent)
        if parent is not None:
            for hook in self._c_spawn:
                hook(parent, tid)
        return tid

    def _finish_thread(self, record: _ThreadRecord, result: Any) -> None:
        if self.recovery is not None:
            self.recovery.finish(record.tid)
        self._ready = None
        record.result = result
        record.status = ThreadStatus.DONE
        for hook in self._c_thread_exit:
            hook(record.tid)
        del self._threads[record.tid]
        self._finished_unjoined[record.tid] = result

    _HANDLERS: Dict[type, Callable] = {}
    _FEASIBILITY: Dict[type, Callable] = {}


class _Context:
    """Handle passed as the first argument to every thread function."""

    def __init__(self, scheduler: Scheduler) -> None:
        self._scheduler = scheduler

    @property
    def memory(self) -> SharedMemory:
        """The shared memory of the running program."""
        return self._scheduler.memory

    def alloc(self, size: int, align: int = 8) -> int:
        """Allocate shared memory (deterministic bump allocator)."""
        recovery = self._scheduler.recovery
        if recovery is not None:
            return recovery.alloc(self._scheduler.memory, size, align)
        return self._scheduler.memory.alloc(size, align)


class _InternalOp:
    """Base of scheduler-private continuation ops (never user-yielded)."""

    cost = 0
    is_sync = False


class _BarrierSleep(_InternalOp):
    """Internal: parked inside a barrier, waiting for it to trip."""

    def __init__(self, barrier: Barrier, generation: int) -> None:
        self.barrier = barrier
        self.generation = generation


class _CondSleep(_InternalOp):
    """Internal: parked on a condition variable until signalled."""

    def __init__(self, cond: Condition, lock: Lock) -> None:
        self.cond = cond
        self.lock = lock
        self.woken = False


class _Reacquire(_InternalOp):
    """Internal: reacquiring the lock after a condition wait."""

    is_sync = True

    def __init__(self, lock: Lock, cond: Condition) -> None:
        self.lock = lock
        self.cond = cond


def _describe_block(op: Op) -> str:
    if isinstance(op, (Acquire, _Reacquire)):
        return f"acquiring {op.lock.name}"
    if isinstance(op, _BarrierSleep):
        return f"inside {op.barrier.name}"
    if isinstance(op, BarrierWait):
        return f"arriving at {op.barrier.name}"
    if isinstance(op, _CondSleep):
        return f"waiting on {op.cond.name}"
    if isinstance(op, SemWait):
        return f"waiting on {op.sem.name}"
    if isinstance(op, Join):
        return f"joining thread {op.tid}"
    return f"gated {type(op).__name__}"


def _default_cost(op: Op) -> int:
    return op.cost


Scheduler._FEASIBILITY = {
    Acquire: lambda self, op: not op.lock.held,
    _Reacquire: lambda self, op: not op.lock.held,
    _BarrierSleep: lambda self, op: op.barrier.generation > op.generation,
    _CondSleep: lambda self, op: op.woken,
    SemWait: lambda self, op: op.sem.value > 0,
    Join: lambda self, op: op.tid in self._finished_unjoined,
}

Scheduler._HANDLERS = {
    Read: Scheduler._do_read,
    Write: Scheduler._do_write,
    AtomicRMW: Scheduler._do_rmw,
    Acquire: Scheduler._do_acquire,
    Release: Scheduler._do_release,
    BarrierWait: Scheduler._do_barrier,
    _BarrierSleep: Scheduler._do_barrier_sleep,
    CondWait: Scheduler._do_cond_wait,
    _CondSleep: Scheduler._do_cond_sleep,
    _Reacquire: Scheduler._do_reacquire,
    CondSignal: Scheduler._do_cond_signal,
    CondBroadcast: Scheduler._do_cond_broadcast,
    SemWait: Scheduler._do_sem_wait,
    SemPost: Scheduler._do_sem_post,
    Spawn: Scheduler._do_spawn,
    Join: Scheduler._do_join,
    Compute: Scheduler._do_compute,
    Output: Scheduler._do_output,
}
