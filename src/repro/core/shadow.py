"""Epoch shadow memory: one epoch word per shared program byte.

Software CLEAN (Section 4.2) reserves a fixed region of the address space
and places the epoch for data byte ``x`` at ``epochs_base + 4 * x``.  The
layout is fixed because CLEAN never inflates an epoch into a vector clock,
so ``EPOCH_ADDRESS`` is a single shift-and-add.

Two interchangeable stores are provided:

* :class:`SparseShadow` — a hash map, pay-as-you-go, mirroring the paper's
  "only accessed epochs are ever backed by physical memory" property.
* :class:`DenseShadow` — a flat :mod:`numpy` array over a fixed address
  window, for workloads with a known footprint (faster, and the natural
  model for the hardware simulator).

Both support the O(1) *reset* used by the rollover procedure (Section
4.5): the paper remaps epoch pages to the zero page instead of zeroing
memory; we swap the underlying store for an empty/zeroed one and count the
reset.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

import numpy as np

__all__ = [
    "SparseShadow",
    "DenseShadow",
    "FlatShadow",
    "EPOCH_BYTES_PER_DATA_BYTE",
]

#: The paper's software layout dedicates 4 metadata bytes per data byte.
EPOCH_BYTES_PER_DATA_BYTE = 4


class SparseShadow:
    """Hash-map epoch store; unwritten locations read as epoch 0."""

    __slots__ = ("_epochs", "resets", "stores", "loads")

    def __init__(self) -> None:
        self._epochs: Dict[int, int] = {}
        self.resets = 0
        self.stores = 0
        self.loads = 0

    def load(self, address: int) -> int:
        """Epoch of the byte at ``address`` (0 if never written)."""
        self.loads += 1
        return self._epochs.get(address, 0)

    def store(self, address: int, epoch: int) -> None:
        """Unconditionally set the epoch of the byte at ``address``."""
        self.stores += 1
        self._epochs[address] = epoch

    def compare_and_swap(self, address: int, expected: int, new: int) -> bool:
        """Atomically replace ``expected`` with ``new``; the CAS of §4.3.

        Returns ``False`` (and leaves the epoch untouched) when a
        concurrent check already replaced the epoch — which software
        CLEAN interprets as a WAW race.
        """
        current = self._epochs.get(address, 0)
        if current != expected:
            return False
        self.stores += 1
        self._epochs[address] = new
        return True

    def load_range(self, address: int, size: int) -> List[int]:
        """Epochs of ``size`` consecutive bytes starting at ``address``."""
        get = self._epochs.get
        self.loads += size
        return [get(address + i, 0) for i in range(size)]

    def peek(self, address: int) -> int:
        """Epoch at ``address`` without touching the access counters.

        Recovery-path inspection only — never part of a race check, so
        it must not skew the cost-model statistics.
        """
        return self._epochs.get(address, 0)

    def clear(self, address: int) -> None:
        """Forget the epoch at ``address`` (reads as 0 afterwards).

        Recovery uses this to scrub the metadata of discarded SFR
        writes; uncounted for the same reason as :meth:`peek`.
        """
        self._epochs.pop(address, None)

    def store_range(self, address: int, size: int, epoch: int) -> None:
        """Set ``size`` consecutive bytes' epochs to the same ``epoch``."""
        self.stores += size
        for i in range(size):
            self._epochs[address + i] = epoch

    def reset(self) -> None:
        """O(1)-style global reset (rollover): drop every epoch."""
        self._epochs = {}
        self.resets += 1

    @property
    def touched_bytes(self) -> int:
        """Number of data bytes currently holding a non-default epoch."""
        return len(self._epochs)

    @property
    def metadata_bytes(self) -> int:
        """Metadata footprint under the paper's 4-bytes-per-byte layout."""
        return self.touched_bytes * EPOCH_BYTES_PER_DATA_BYTE

    def items(self) -> Iterable[Tuple[int, int]]:
        """Iterate over ``(address, epoch)`` pairs with explicit epochs."""
        return self._epochs.items()


class FlatShadow:
    """Growable flat-array epoch store: the batch-first hot path.

    Generalizes :class:`DenseShadow` to an unbounded address space: a
    flat ``uint32`` array covers the low, dense window the bump
    allocator hands out (growing geometrically on demand), and a spill
    dict absorbs the rare address outside it, so the store is a drop-in
    replacement for :class:`SparseShadow` with array speed.

    The scalar surface (``load``/``store``/``load_range``/…) keeps the
    exact counter semantics of the other stores.  The *batch* surface —
    :meth:`gather` / :meth:`scatter` / :meth:`scatter_where` — is
    deliberately **uncounted**: vectorized callers account ``loads`` and
    ``stores`` explicitly for exactly the bytes the scalar path would
    have touched, so the counters never drift under batching.

    Reset stays O(1)-style: a fresh zero array is calloc-backed (pages
    materialize lazily), mirroring the paper's zero-page remap.

    The scalar surface reads and writes through a :class:`memoryview`
    of the array (plain ints, no numpy boxing); the view is rebound
    whenever the array is replaced, so both surfaces share one buffer.
    """

    __slots__ = (
        "_epochs", "_view", "_window", "_spill", "resets", "stores", "loads"
    )

    #: Addresses below this live in the flat array; beyond it, the spill
    #: dict (64 MiB of epoch words for 16 MiB of data bytes).
    DEFAULT_WINDOW = 1 << 24

    def __init__(self, capacity: int = 4096, window: int = DEFAULT_WINDOW) -> None:
        if capacity <= 0:
            raise ValueError("initial capacity must be positive")
        self._window = window
        self._set_array(np.zeros(min(capacity, window), dtype=np.uint32))
        self._spill: Dict[int, int] = {}
        self.resets = 0
        self.stores = 0
        self.loads = 0

    # -- growth -------------------------------------------------------------

    def _ensure(self, upto: int) -> None:
        """Grow the flat array to cover addresses ``[0, upto)``."""
        if upto <= len(self._epochs):
            return
        capacity = len(self._epochs)
        while capacity < upto:
            capacity *= 2
        capacity = min(capacity, self._window)
        grown = np.zeros(capacity, dtype=np.uint32)
        grown[: len(self._epochs)] = self._epochs
        self._set_array(grown)

    def _set_array(self, epochs: "np.ndarray") -> None:
        self._epochs = epochs
        self._view = memoryview(epochs)

    def _in_window(self, address: int) -> bool:
        return 0 <= address < self._window

    # -- scalar surface (counted, same semantics as the other stores) -------

    def load(self, address: int) -> int:
        self.loads += 1
        return self.peek(address)

    def store(self, address: int, epoch: int) -> None:
        self.stores += 1
        if self._in_window(address):
            self._ensure(address + 1)
            self._view[address] = epoch
        else:
            self._spill[address] = epoch

    def compare_and_swap(self, address: int, expected: int, new: int) -> bool:
        view = self._view
        if 0 <= address < len(view):
            if view[address] != expected:
                return False
            self.stores += 1
            view[address] = new
            return True
        if self.peek(address) != expected:
            return False
        self.store(address, new)
        return True

    def load_range(self, address: int, size: int) -> List[int]:
        self.loads += size
        end = address + size
        if 0 <= address and end <= self._window:
            if end > len(self._view):
                self._ensure(end)
            return self._view[address:end].tolist()
        return [self.peek(address + i) for i in range(size)]

    def peek(self, address: int) -> int:
        """Uncounted epoch inspection (see :meth:`SparseShadow.peek`)."""
        if 0 <= address < len(self._view):
            return self._view[address]
        if self._in_window(address):
            return 0
        return self._spill.get(address, 0)

    def clear(self, address: int) -> None:
        """Uncounted epoch scrub (see :meth:`SparseShadow.clear`)."""
        if self._in_window(address):
            if address < len(self._view):
                self._view[address] = 0
        else:
            self._spill.pop(address, None)

    def store_range(self, address: int, size: int, epoch: int) -> None:
        self.stores += size
        if self._in_window(address) and self._in_window(address + size - 1):
            self._ensure(address + size)
            self._epochs[address : address + size] = epoch
        else:
            for i in range(size):
                if self._in_window(address + i):
                    self._ensure(address + i + 1)
                    self._epochs[address + i] = epoch
                else:
                    self._spill[address + i] = epoch

    def reset(self) -> None:
        """O(1)-style global reset (rollover): swap in a zero page."""
        self._set_array(np.zeros(len(self._epochs), dtype=np.uint32))
        self._spill = {}
        self.resets += 1

    # -- batch surface (uncounted; batch callers account explicitly) --------

    def gather(self, addresses: "np.ndarray") -> "np.ndarray":
        """Epochs at ``addresses`` (a ``uint64`` array), uncounted.

        Vectorized callers bump ``loads`` themselves for exactly the
        bytes the scalar path would have loaded.
        """
        if addresses.size == 0:
            return np.zeros(0, dtype=np.uint32)
        hi = int(addresses.max())
        if hi < self._window and int(addresses.min()) >= 0:
            self._ensure(hi + 1)
            return self._epochs[addresses]
        return np.fromiter(
            (self.peek(int(a)) for a in addresses),
            dtype=np.uint32,
            count=addresses.size,
        )

    def scatter(self, addresses: "np.ndarray", epochs) -> None:
        """Set the epochs at ``addresses``, uncounted.

        ``epochs`` is one epoch for every address or an array holding
        one epoch per address.
        """
        if addresses.size == 0:
            return
        hi = int(addresses.max())
        if hi < self._window and int(addresses.min()) >= 0:
            self._ensure(hi + 1)
            self._epochs[addresses] = epochs
            return
        epochs = np.broadcast_to(epochs, addresses.shape)
        for address, epoch in zip(addresses.tolist(), epochs.tolist()):
            if self._in_window(address):
                self._ensure(address + 1)
                self._epochs[address] = epoch
            else:
                self._spill[address] = epoch

    # -- introspection ------------------------------------------------------

    @property
    def touched_bytes(self) -> int:
        return int(np.count_nonzero(self._epochs)) + len(self._spill)

    @property
    def metadata_bytes(self) -> int:
        return self.touched_bytes * EPOCH_BYTES_PER_DATA_BYTE

    def items(self) -> Iterable[Tuple[int, int]]:
        nz = np.nonzero(self._epochs)[0]
        for i in nz:
            yield int(i), int(self._epochs[i])
        for address, epoch in self._spill.items():
            yield address, epoch


class DenseShadow:
    """Flat array epoch store over the window ``[base, base + size)``."""

    __slots__ = ("base", "size", "_epochs", "resets", "stores", "loads")

    def __init__(self, base: int, size: int) -> None:
        if size <= 0:
            raise ValueError("shadow window must be non-empty")
        self.base = base
        self.size = size
        self._epochs = np.zeros(size, dtype=np.uint32)
        self.resets = 0
        self.stores = 0
        self.loads = 0

    def _index(self, address: int) -> int:
        offset = address - self.base
        if not 0 <= offset < self.size:
            raise IndexError(
                f"address {address:#x} outside shadow window "
                f"[{self.base:#x}, {self.base + self.size:#x})"
            )
        return offset

    def load(self, address: int) -> int:
        self.loads += 1
        return int(self._epochs[self._index(address)])

    def store(self, address: int, epoch: int) -> None:
        self.stores += 1
        self._epochs[self._index(address)] = epoch

    def compare_and_swap(self, address: int, expected: int, new: int) -> bool:
        idx = self._index(address)
        if int(self._epochs[idx]) != expected:
            return False
        self.stores += 1
        self._epochs[idx] = new
        return True

    def load_range(self, address: int, size: int) -> List[int]:
        start = self._index(address)
        self._index(address + size - 1)
        self.loads += size
        return [int(e) for e in self._epochs[start : start + size]]

    def peek(self, address: int) -> int:
        """Uncounted epoch inspection (see :meth:`SparseShadow.peek`)."""
        return int(self._epochs[self._index(address)])

    def clear(self, address: int) -> None:
        """Uncounted epoch scrub (see :meth:`SparseShadow.clear`)."""
        self._epochs[self._index(address)] = 0

    def store_range(self, address: int, size: int, epoch: int) -> None:
        start = self._index(address)
        self._index(address + size - 1)
        self.stores += size
        self._epochs[start : start + size] = epoch

    def reset(self) -> None:
        self._epochs = np.zeros(self.size, dtype=np.uint32)
        self.resets += 1

    @property
    def touched_bytes(self) -> int:
        return int(np.count_nonzero(self._epochs))

    @property
    def metadata_bytes(self) -> int:
        return self.touched_bytes * EPOCH_BYTES_PER_DATA_BYTE

    def items(self) -> Iterable[Tuple[int, int]]:
        nz = np.nonzero(self._epochs)[0]
        return ((self.base + int(i), int(self._epochs[i])) for i in nz)
