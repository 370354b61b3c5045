"""Hardware epoch-metadata organization (paper Section 5.3, Figure 5).

Three layouts are modelled, matching the designs of Figures 9-11:

* ``"clean"`` — the paper's design: 32-bit epochs with *line compaction*.
  A 64-byte data line starts *compact*: one epoch per 4-byte group, all
  sixteen fitting in a single metadata line in the compact region.  When
  a byte of a group needs an epoch different from the rest of its group,
  the line *expands*: one epoch per byte, spread over 4 metadata lines
  (the first of which reuses the compact slot, the other 3 live in the
  expanded region).  The highest epoch bit marks the state, and hardware
  always guesses the compact address first, paying a small penalty when
  the guess is wrong.
* ``"epoch1"`` — hypothetical 8-bit epochs, one per data byte, no
  compaction: metadata is 1:1 with data (the Figure-11 upper bound).
* ``"epoch4"`` — 32-bit epochs, one per data byte, no compaction:
  metadata is 4:1 with data (the Figure-11 pessimal design).

The module is *functional* (it tracks actual epoch values, so
sameThread/sameEpoch outcomes and expansions are real, not sampled) and
*spatial* (every epoch has a metadata address, so metadata traffic goes
through the simulated cache hierarchy like regular data — the paper's
key cache-pressure mechanism).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from .cache import LINE_SIZE

__all__ = ["MetadataLayout", "MetadataAccess", "GROUP"]

#: A compact epoch covers a 4-byte group of data (Figure 5b).
GROUP = 4

#: Base of the metadata region in the simulated address space — far above
#: any data the bump allocator hands out.
EPOCHS_BASE = 1 << 40

#: Base of the expanded region (3 extra lines per data line).
EXPANDED_BASE = 1 << 42

#: Base of the per-thread vector-clock area (Section 5.3).
VC_BASE = 1 << 44


@dataclass
class MetadataAccess:
    """Metadata traffic of one race check.

    ``reads``/``writes`` are (address, size) pairs to issue through the
    cache hierarchy; ``expanded`` says the data line was in expanded
    state; ``expansion`` says this access *caused* a compact->expanded
    transition; ``miscalculated`` says the hardware's compact-address
    guess was wrong (Section 5.3's reload penalty).
    """

    reads: List[Tuple[int, int]]
    writes: List[Tuple[int, int]]
    expanded: bool = False
    expansion: bool = False
    miscalculated: bool = False


class MetadataLayout:
    """Functional + spatial model of one epoch-metadata organization."""

    def __init__(self, mode: str = "clean") -> None:
        if mode not in {"clean", "epoch1", "epoch4"}:
            raise ValueError(f"unknown metadata mode {mode!r}")
        self.mode = mode
        #: group address (aligned to 4) -> epoch, for compact lines.
        self._group_epochs: Dict[int, int] = {}
        #: byte address -> epoch, for expanded lines.
        self._byte_epochs: Dict[int, int] = {}
        #: data line -> True if expanded ("clean" mode only).
        self._expanded_lines: Dict[int, bool] = {}
        self.expansions = 0

    # -- address mapping ---------------------------------------------------------

    def epoch_bytes(self) -> int:
        """Size of one epoch in bytes."""
        return 1 if self.mode == "epoch1" else 4

    def compact_line_address(self, data_line: int) -> int:
        """Metadata line address hardware guesses first (compact region)."""
        return EPOCHS_BASE + (data_line // LINE_SIZE) * LINE_SIZE

    def expanded_address(self, byte_address: int) -> int:
        """Address of the per-byte epoch of ``byte_address`` (expanded)."""
        data_line = byte_address - (byte_address % LINE_SIZE)
        offset = byte_address % LINE_SIZE
        return EXPANDED_BASE + (data_line // LINE_SIZE) * (4 * LINE_SIZE) + 4 * offset

    def flat_address(self, byte_address: int) -> int:
        """Metadata address in the no-compaction designs."""
        return EPOCHS_BASE + byte_address * self.epoch_bytes()

    def vc_element_address(self, tid: int) -> int:
        """Address of thread ``tid``'s in-memory vector-clock element —
        one line per thread so VC traffic does not false-share."""
        return VC_BASE + tid * LINE_SIZE

    # -- functional epoch state --------------------------------------------------

    def is_expanded(self, data_line: int) -> bool:
        """Whether ``data_line`` is in the expanded metadata state."""
        return self._expanded_lines.get(data_line, False)

    def group_of(self, address: int) -> int:
        return address - (address % GROUP)

    def epochs_for(self, address: int, size: int) -> List[int]:
        """Current epoch of every byte of the access (functional view)."""
        byte_epochs = self._byte_epochs
        if self.mode != "clean":
            return [byte_epochs.get(a, 0) for a in range(address, address + size)]
        out = []
        for a in range(address, address + size):
            if a - a % LINE_SIZE in self._expanded_lines:
                out.append(byte_epochs.get(a, 0))
            else:
                out.append(self._group_epochs.get(a - a % GROUP, 0))
        return out

    # -- the check's metadata plan -------------------------------------------------

    def plan_read_check(self, address: int, size: int) -> MetadataAccess:
        """Metadata reads needed to check (not update) an access."""
        if self.mode == "clean":
            return self._plan_clean(address, size, writes=False)
        return MetadataAccess(
            reads=self._flat_ranges(address, size), writes=[]
        )

    def apply_write(self, address: int, size: int, epoch: int) -> MetadataAccess:
        """Update metadata for a write; returns the metadata traffic.

        In "clean" mode this is where compact lines expand: a write that
        covers only part of a 4-byte group with a new epoch forces the
        per-byte representation (Section 5.3).
        """
        if self.mode != "clean":
            plan = MetadataAccess(
                reads=self._flat_ranges(address, size),
                writes=self._flat_ranges(address, size),
            )
            for a in range(address, address + size):
                self._byte_epochs[a] = epoch
            return plan
        plan = self._plan_clean(address, size, writes=True)
        for line in _lines_spanned(address, size):
            lo = max(address, line)
            hi = min(address + size, line + LINE_SIZE)
            if self.is_expanded(line):
                for a in range(lo, hi):
                    self._byte_epochs[a] = epoch
                continue
            if self._write_expands(lo, hi - lo, epoch):
                self._expand_line(line)
                plan.expansion = True
                plan.expanded = True
                # Stretching writes the 4 expanded metadata lines.
                base = EXPANDED_BASE + (line // LINE_SIZE) * (4 * LINE_SIZE)
                plan.writes.extend(
                    (base + i * LINE_SIZE, LINE_SIZE) for i in range(4)
                )
                for a in range(lo, hi):
                    self._byte_epochs[a] = epoch
                continue
            # Stays compact: set whole-group epochs.
            group = self.group_of(lo)
            while group < hi:
                if lo <= group and group + GROUP <= hi:
                    self._group_epochs[group] = epoch
                # Partial coverage with the same epoch: nothing to change
                # (the expansion test above rejected differing epochs).
                group += GROUP
        return plan

    def _write_expands(self, address: int, size: int, epoch: int) -> bool:
        """Does this (still-compact) write require per-byte epochs?"""
        group = self.group_of(address)
        end = address + size
        while group < end:
            covers_whole = address <= group and group + GROUP <= end
            if not covers_whole and self._group_epochs.get(group, 0) != epoch:
                return True
            group += GROUP
        return False

    def _expand_line(self, data_line: int) -> None:
        self._expanded_lines[data_line] = True
        self.expansions += 1
        for group in range(data_line, data_line + LINE_SIZE, GROUP):
            epoch = self._group_epochs.get(group, 0)
            for a in range(group, group + GROUP):
                self._byte_epochs[a] = epoch

    # -- helpers -------------------------------------------------------------------

    def _plan_clean(self, address: int, size: int, writes: bool) -> MetadataAccess:
        reads: List[Tuple[int, int]] = []
        write_list: List[Tuple[int, int]] = []
        expanded_any = False
        miscalculated = False
        for line in _lines_spanned(address, size):
            lo = max(address, line)
            hi = min(address + size, line + LINE_SIZE)
            # Hardware always guesses the compact address first.
            compact_addr = self.compact_line_address(line) + (
                (lo % LINE_SIZE) // GROUP
            ) * 4
            n_groups = (self.group_of(hi - 1) - self.group_of(lo)) // GROUP + 1
            reads.append((compact_addr, n_groups * 4))
            if self.is_expanded(line):
                expanded_any = True
                miscalculated = True
                # Reload from the true expanded addresses: 4 bytes of
                # metadata per data byte.
                reads.append((self.expanded_address(lo), 4 * (hi - lo)))
                if writes:
                    write_list.append((self.expanded_address(lo), 4 * (hi - lo)))
            elif writes:
                write_list.append((compact_addr, n_groups * 4))
        return MetadataAccess(
            reads=reads,
            writes=write_list,
            expanded=expanded_any,
            miscalculated=miscalculated,
        )

    def _flat_ranges(self, address: int, size: int) -> List[Tuple[int, int]]:
        start = self.flat_address(address)
        return [(start, size * self.epoch_bytes())]


def _lines_spanned(address: int, size: int):
    first = address - (address % LINE_SIZE)
    last = (address + size - 1) - ((address + size - 1) % LINE_SIZE)
    line = first
    while line <= last:
        yield line
        line += LINE_SIZE
