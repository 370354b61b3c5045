"""Kendo-style deterministic synchronization (paper Sections 2.4, 3.3).

Kendo orders synchronization operations by *deterministic logical
clocks*: each thread owns a counter advanced by its own execution
(instructions retired, or instrumented basic blocks), and a thread may
perform a synchronization operation only when its counter — with the
thread id breaking ties — is the minimum among all running threads.

In this runtime the counters live in the scheduler (every completed
operation charges its cost via the scheduler's ``counter_cost`` model),
and :class:`KendoGate` is the monitor that enforces the minimum-turn
rule by naming the turn holder through :meth:`sync_turn`.  The
waiting-with-increment behaviour of Kendo's lock acquisition (a thread
whose turn it is but whose lock is unavailable bumps its own counter
and cedes the turn) is implemented by the scheduler's pump, which only
ever advances the minimum thread's counter — a pure function of counter
state, so the committed synchronization order is schedule-independent.
"""

from __future__ import annotations

from typing import Optional, Set

from ..runtime.ops import Op
from ..runtime.scheduler import ExecutionMonitor, Scheduler

__all__ = ["KendoGate"]


class KendoGate(ExecutionMonitor):
    """Monitor enforcing Kendo's minimum-turn rule for sync operations."""

    def __init__(self) -> None:
        self._scheduler: Optional[Scheduler] = None
        #: number of sync operations committed through this gate.
        self.admitted = 0
        #: number of sync operations that waited at least once for the turn.
        self.vetoed = 0
        self._waiting: Set[int] = set()
        self._materialize = False

    def attach(self, scheduler: Scheduler) -> None:
        self._scheduler = scheduler
        # Under the scheduler's pre-refactor reference dispatch
        # (``fused=False``) also restore this gate's original behaviour
        # of materializing the counter dict per decision, so hot-path
        # benchmarks measure the old stack faithfully.
        self._materialize = not getattr(scheduler, "fused", True)

    def sync_turn(self) -> int:
        """The tid holding the deterministic turn.

        The turn belongs to the live thread with the lexicographically
        smallest ``(counter, tid)`` pair — Kendo's rule with thread id
        as the tie-breaker.  It moves only when its holder's counter
        does, a thread starts or exits, the pump bumps counters or
        recovery rewinds one.
        """
        assert self._scheduler is not None, "gate used before attach()"
        if self._materialize:
            counters = self._scheduler.live_counters()
            return min((c, t) for t, c in counters.items())[1]
        threads = self._scheduler._threads
        return min((r.det_counter, t) for t, r in threads.items())[1]

    def on_sync_wait(self, tid: int, op: Op) -> None:
        if tid not in self._waiting:
            self._waiting.add(tid)
            self.vetoed += 1

    def on_sync_commit(self, tid: int, op: Op) -> None:
        self.admitted += 1
        self._waiting.discard(tid)
