"""Fixed-width epochs: the metadata word CLEAN keeps per shared byte.

An *epoch* packs the identity of the last write to a memory location into
one machine word (paper, Section 2.3 and 4.1):

    [ expanded : 1 ][ tid : T ][ clock : C ]

* ``clock`` is the *main element* of the writing thread's vector clock at
  the time of the write.
* ``tid`` is the writing thread's (reusable) identifier.
* ``expanded`` is a single bit used only by the hardware implementation
  (Section 5.3) to mark that the epoch's data line is in the *expanded*
  metadata state.  Software CLEAN leaves it zero.

The paper's default configuration is a 32-bit epoch with a 23-bit clock,
an 8-bit tid and the 1 reserved hardware bit.  The evaluation also uses a
28-bit-clock configuration (Table 1) and hypothetical 8-bit epochs
(Figure 11), so the layout is parametric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

__all__ = [
    "EpochLayout",
    "DEFAULT_LAYOUT",
    "WIDE_CLOCK_LAYOUT",
    "TINY_LAYOUT",
]


@dataclass(frozen=True)
class EpochLayout:
    """Bit-level layout of an epoch word.

    Parameters
    ----------
    clock_bits:
        Width of the scalar-clock component.  Clocks that would exceed
        ``clock_max`` trigger the rollover procedure (Section 4.5).
    tid_bits:
        Width of the thread-id component.  Bounds the number of threads
        that may run concurrently; ids of joined threads are reusable.
    reserve_expanded_bit:
        Whether one extra (highest) bit is reserved for the hardware
        compact/expanded line state (Section 5.3).
    """

    clock_bits: int = 23
    tid_bits: int = 8
    reserve_expanded_bit: bool = True

    #: Largest representable clock value.
    clock_max: ClassVar[int]
    #: Largest representable thread id.
    max_tid: ClassVar[int]
    #: Bit mask of the hardware expanded bit (0 if not reserved).
    expanded_mask: ClassVar[int]

    def __post_init__(self) -> None:
        if self.clock_bits < 1:
            raise ValueError("clock_bits must be positive")
        if self.tid_bits < 1:
            raise ValueError("tid_bits must be positive")
        # Derived masks, computed once: every check reads them.  They
        # are plain attributes, not fields, so equality and hashing stay
        # over the three parameters.
        expanded = 1 << (self.clock_bits + self.tid_bits)
        object.__setattr__(self, "clock_max", (1 << self.clock_bits) - 1)
        object.__setattr__(self, "max_tid", (1 << self.tid_bits) - 1)
        object.__setattr__(
            self, "expanded_mask", expanded if self.reserve_expanded_bit else 0
        )

    @property
    def width_bits(self) -> int:
        """Total width of the epoch word in bits."""
        return self.clock_bits + self.tid_bits + (1 if self.reserve_expanded_bit else 0)

    @property
    def width_bytes(self) -> int:
        """Width of the epoch word rounded up to whole bytes."""
        return (self.width_bits + 7) // 8

    # -- packing ---------------------------------------------------------

    def pack(self, tid: int, clock: int) -> int:
        """Build an epoch word for ``tid`` at ``clock`` (expanded bit clear).

        This is the paper's ``EPOCH(tid, clock)`` macro.
        """
        if not 0 <= tid <= self.max_tid:
            raise ValueError(f"tid {tid} does not fit in {self.tid_bits} bits")
        if not 0 <= clock <= self.clock_max:
            raise ValueError(f"clock {clock} does not fit in {self.clock_bits} bits")
        return (tid << self.clock_bits) | clock

    def tid(self, epoch: int) -> int:
        """Extract the thread-id component (the paper's ``TID`` macro)."""
        return (epoch >> self.clock_bits) & self.max_tid

    def clock(self, epoch: int) -> int:
        """Extract the clock component (the paper's ``CLOCK`` macro)."""
        return epoch & self.clock_max

    def is_expanded(self, epoch: int) -> bool:
        """Whether the hardware expanded bit is set in ``epoch``."""
        return bool(epoch & self.expanded_mask)

    def set_expanded(self, epoch: int) -> int:
        """Return ``epoch`` with the expanded bit set."""
        if not self.reserve_expanded_bit:
            raise ValueError("layout reserves no expanded bit")
        return epoch | self.expanded_mask

    def clear_expanded(self, epoch: int) -> int:
        """Return ``epoch`` with the expanded bit cleared."""
        return epoch & ~self.expanded_mask

    def would_rollover(self, clock: int) -> bool:
        """Whether incrementing a clock at ``clock`` exceeds the layout."""
        return clock >= self.clock_max


#: The paper's default 32-bit epoch: 23-bit clock, 8-bit tid, 1 hw bit.
DEFAULT_LAYOUT = EpochLayout(clock_bits=23, tid_bits=8, reserve_expanded_bit=True)

#: The 28-bit-clock configuration used in the Table 1 rollover study.
WIDE_CLOCK_LAYOUT = EpochLayout(clock_bits=28, tid_bits=3, reserve_expanded_bit=True)

#: A hypothetical 8-bit epoch (Figure 11 upper-bound design).
TINY_LAYOUT = EpochLayout(clock_bits=5, tid_bits=3, reserve_expanded_bit=False)
