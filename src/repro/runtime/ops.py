"""The operation vocabulary of the cooperative runtime.

Threads are written as Python generator functions that *yield* operations
to the scheduler; the scheduler completes each operation and sends its
result back into the generator:

    def worker(ctx, base):
        v = yield Read(base, 4)            # returns the loaded value
        yield Write(base, 4, v + 1)
        yield Acquire(lock)
        ...
        yield Release(lock)

Every yield point is an atomic step of the interleaved execution, exactly
like one instrumented instruction in the paper's compiler-instrumented
binaries.  Each operation carries a ``cost`` — its contribution to the
thread's deterministic (Kendo) counter and, for the timing models, its
nominal instruction count.

``private=True`` on memory operations marks stack-like accesses that a
compiler would *not* instrument (the paper's conservative estimate treats
all non-stack accesses as shared, Section 4.1); monitors such as the race
detector skip them, and the hardware simulator classifies them as
``private`` in the Figure-10 breakdown.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Tuple

__all__ = [
    "Op",
    "Read",
    "Write",
    "AtomicRMW",
    "Acquire",
    "Release",
    "BarrierWait",
    "CondWait",
    "CondSignal",
    "CondBroadcast",
    "SemWait",
    "SemPost",
    "Spawn",
    "Join",
    "Compute",
    "Output",
]


@dataclass(frozen=True)
class Op:
    """Base class of every yieldable operation."""

    @property
    def cost(self) -> int:
        """Deterministic-counter / instruction-count contribution."""
        return 1

    #: Whether this operation is a synchronization point (Kendo-gated).
    is_sync = False


@dataclass(frozen=True, init=False)
class Read(Op):
    """Load ``size`` bytes at ``address``; yields back the integer value."""

    address: int
    size: int = 1
    private: bool = False
    weight: int = 1

    def __init__(
        self, address: int, size: int = 1, private: bool = False, weight: int = 1
    ) -> None:
        # Filling __dict__ directly skips the frozen dataclass's
        # per-field object.__setattr__: memory ops are built per step.
        d = self.__dict__
        d["address"] = address
        d["size"] = size
        d["private"] = private
        d["weight"] = weight

    @property
    def cost(self) -> int:
        return self.weight


@dataclass(frozen=True, init=False)
class Write(Op):
    """Store ``value`` (little-endian) into ``size`` bytes at ``address``."""

    address: int
    size: int = 1
    value: int = 0
    private: bool = False
    weight: int = 1

    def __init__(
        self,
        address: int,
        size: int = 1,
        value: int = 0,
        private: bool = False,
        weight: int = 1,
    ) -> None:
        d = self.__dict__  # see Read.__init__
        d["address"] = address
        d["size"] = size
        d["value"] = value
        d["private"] = private
        d["weight"] = weight

    @property
    def cost(self) -> int:
        return self.weight


@dataclass(frozen=True)
class AtomicRMW(Op):
    """Atomic read-modify-write: ``new = fn(old)``; yields back ``old``.

    Atomic instructions are *not* synchronization under CLEAN's model —
    lock-free code built on them still races (the paper's canneal), so
    monitors see this as a read followed by a write with no
    happens-before edges.
    """

    address: int
    size: int
    fn: Callable[[int], int]

    @property
    def cost(self) -> int:
        return 2


@dataclass(frozen=True)
class Acquire(Op):
    """Acquire a :class:`~repro.runtime.sync.Lock` (blocking)."""

    lock: Any

    is_sync = True


@dataclass(frozen=True)
class Release(Op):
    """Release a held :class:`~repro.runtime.sync.Lock`."""

    lock: Any

    is_sync = True


@dataclass(frozen=True)
class BarrierWait(Op):
    """Wait at a :class:`~repro.runtime.sync.Barrier` until all parties arrive."""

    barrier: Any

    is_sync = True


@dataclass(frozen=True)
class CondWait(Op):
    """Wait on a condition variable, releasing ``lock`` while waiting."""

    cond: Any
    lock: Any

    is_sync = True


@dataclass(frozen=True)
class CondSignal(Op):
    """Wake one waiter of a condition variable."""

    cond: Any

    is_sync = True


@dataclass(frozen=True)
class CondBroadcast(Op):
    """Wake every waiter of a condition variable."""

    cond: Any

    is_sync = True


@dataclass(frozen=True)
class SemWait(Op):
    """Decrement a semaphore, blocking while its value is zero."""

    sem: Any

    is_sync = True


@dataclass(frozen=True)
class SemPost(Op):
    """Increment a semaphore, waking one blocked waiter if any."""

    sem: Any

    is_sync = True


@dataclass(frozen=True)
class Spawn(Op):
    """Start a new thread running ``fn(ctx, *args)``; yields back its tid."""

    fn: Callable[..., Any]
    args: Tuple[Any, ...] = field(default_factory=tuple)

    is_sync = True


@dataclass(frozen=True)
class Join(Op):
    """Block until thread ``tid`` finishes; yields back its return value."""

    tid: int

    is_sync = True


@dataclass(frozen=True, init=False)
class Compute(Op):
    """Local computation worth ``amount`` instructions (no memory traffic)."""

    amount: int = 1

    def __init__(self, amount: int = 1) -> None:
        self.__dict__["amount"] = amount  # see Read.__init__

    @property
    def cost(self) -> int:
        return self.amount


@dataclass(frozen=True)
class Output(Op):
    """Append ``value`` to the thread's output stream (determinism oracle)."""

    value: Any = None
