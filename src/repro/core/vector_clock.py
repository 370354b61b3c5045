"""Vector clocks with epoch-valued elements.

CLEAN keeps one vector clock per running thread and per lock (Section
3.2); these are updated only on synchronization and thread create/join,
exactly as in classical vector-clock race detectors.

Following the software implementation described in Section 4.1, every
element of a vector clock is stored as an *epoch*: the element at index
``i`` holds ``EPOCH(i, clock_i)``.  The tid bits are redundant (the index
already identifies the thread) but they make an element directly
comparable with a location's epoch word — the single-comparison check at
lines 3 and 5 of Figure 2.
"""

from __future__ import annotations

from typing import Iterator, List

from .epoch import DEFAULT_LAYOUT, EpochLayout

__all__ = ["VectorClock"]


class VectorClock:
    """A fixed-arity vector of epoch-encoded scalar clocks."""

    __slots__ = ("layout", "_elems")

    def __init__(self, size: int, layout: EpochLayout = DEFAULT_LAYOUT) -> None:
        if size < 1:
            raise ValueError("vector clock needs at least one element")
        if size - 1 > layout.max_tid:
            raise ValueError(
                f"{size} threads do not fit in {layout.tid_bits} tid bits"
            )
        self.layout = layout
        self._elems: List[int] = [layout.pack(i, 0) for i in range(size)]

    # -- accessors ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._elems)

    def __iter__(self) -> Iterator[int]:
        return iter(self._elems)

    def element(self, tid: int) -> int:
        """The epoch-encoded element for thread ``tid``."""
        return self._elems[tid]

    def clock_of(self, tid: int) -> int:
        """The scalar clock this vector holds for thread ``tid``."""
        return self.layout.clock(self._elems[tid])

    def clocks(self) -> List[int]:
        """All scalar clocks, by thread index."""
        mask = self.layout.clock_max
        return [e & mask for e in self._elems]

    def elements(self) -> List[int]:
        """A copy of every epoch-encoded element, by thread index."""
        return self._elems[:]

    # -- mutation ----------------------------------------------------------

    def set_clock(self, tid: int, clock: int) -> None:
        """Set thread ``tid``'s scalar clock to ``clock``."""
        self._elems[tid] = self.layout.pack(tid, clock)

    def increment(self, tid: int) -> int:
        """Advance thread ``tid``'s scalar clock by one; return the new clock.

        Raises :class:`OverflowError` if the clock no longer fits the
        layout — callers (the rollover controller) must reset metadata
        *before* this happens (Section 4.5).
        """
        if tid < 0:
            raise ValueError(
                f"tid {tid} does not fit in {self.layout.tid_bits} bits"
            )
        elems = self._elems
        clock_max = self.layout.clock_max
        word = elems[tid]
        if word & clock_max == clock_max:
            raise OverflowError(
                f"clock of thread {tid} exceeded {self.layout.clock_bits} bits"
            )
        # The tid bits sit above the clock, so the packed word bumps in
        # place once the clock is known not to carry into them.
        elems[tid] = word + 1
        return (word + 1) & clock_max

    def join(self, other: "VectorClock") -> None:
        """Element-wise maximum (by clock component) with ``other``.

        Element ``i`` is always ``EPOCH(i, clock)``: both words carry the
        same tid bits, so they order exactly as their clocks do and the
        maximum of the raw words is the element with the larger clock.
        """
        if other.layout is not self.layout and other.layout != self.layout:
            raise ValueError("cannot join vector clocks with different layouts")
        mine, theirs = self._elems, other._elems
        if len(theirs) != len(mine):
            raise ValueError("cannot join vector clocks of different sizes")
        self._elems = [a if a >= b else b for a, b in zip(mine, theirs)]

    def reset(self) -> None:
        """Zero every clock (used by the deterministic rollover reset)."""
        self._elems = [self.layout.pack(i, 0) for i in range(len(self._elems))]

    def copy(self) -> "VectorClock":
        """An independent copy of this vector clock."""
        dup = VectorClock.__new__(VectorClock)
        dup.layout = self.layout
        dup._elems = list(self._elems)
        return dup

    # -- comparison --------------------------------------------------------

    def happens_before(self, other: "VectorClock") -> bool:
        """Whether every clock in ``self`` is <= its counterpart in ``other``."""
        layout = self.layout
        return all(
            layout.clock(mine) <= layout.clock(theirs)
            for mine, theirs in zip(self._elems, other._elems)
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VectorClock):
            return NotImplemented
        return self.layout == other.layout and self._elems == other._elems

    def __hash__(self) -> int:  # pragma: no cover - not used as dict key
        return hash((self.layout, tuple(self._elems)))

    def __repr__(self) -> str:
        return f"VectorClock({self.clocks()})"
