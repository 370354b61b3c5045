"""Access traces: the interface between the runtime and the hardware sim.

The paper's hardware evaluation is driven by a Pin-based simulator that
observes every memory access of the running benchmark (Section 6.3.1).
Our equivalent: a :class:`TraceRecorder` monitor captures each thread's
stream of memory and synchronization events while a workload runs on the
cooperative runtime; the resulting :class:`Trace` is then replayed by the
trace-driven multicore simulator in :mod:`repro.hardware`.

Events deliberately carry the same information Pin provides the paper's
simulator: address, size, read/write, a stack/private flag ("potentially
shared" is approximated as non-stack, Section 6.3.1), and an instruction
weight for the non-memory work between accesses.

Persistence
-----------

The native on-disk format is *chunked binary*: a magic header followed by
per-thread chunks of struct-packed records, each chunk optionally
zlib-compressed and carrying its own sync-name table.  Binary traces can
be replayed without materializing the full event lists — see
:class:`StreamingTrace` and :func:`open_trace` — so a long recorded
workload streams through the simulator chunk by chunk.

The original JSON-lines format remains supported: :meth:`Trace.save`
writes it when the path ends in ``.jsonl`` (or ``format="jsonl"`` is
forced), and :meth:`Trace.load` auto-detects the format from the magic
bytes, so old traces keep loading unchanged.
"""

from __future__ import annotations

import io
import json
import struct
import zlib
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import BinaryIO, Dict, Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from ..core.events import AccessEvent
from .scheduler import ExecutionMonitor

__all__ = [
    "TraceEvent",
    "TraceChunk",
    "Trace",
    "TraceRecorder",
    "StreamingTrace",
    "open_trace",
    "event_tuples",
    "verify_trace",
    "verify_trace_bytes",
    "write_frame",
    "read_frames",
    "READ",
    "WRITE",
    "SYNC",
    "TRACE_MAGIC",
]

READ = "R"
WRITE = "W"
SYNC = "S"

#: Magic bytes opening every binary trace file, followed by one format
#: version byte.  Files not starting with these bytes are treated as the
#: legacy JSON-lines format.
TRACE_MAGIC = b"CLNTRACE"
_TRACE_VERSION = 1

#: Chunk header: tid, flags, event count, payload size uncompressed /
#: as stored.  ``flags`` bit 0 marks a zlib-compressed payload; bit 1
#: marks a CRC32 of the stored bytes appended inside the stored region
#: (``stored_len`` includes the 4 checksum bytes, so readers unaware of
#: the flag still skip the chunk correctly and old files — which never
#: set the bit — keep loading unchanged).
_CHUNK_HEADER = struct.Struct("<HBIII")
#: One packed record: kind/private byte, address, size, gap, sync-name
#: index into the chunk's name table (0xFFFF = none).
_RECORD = struct.Struct("<BQIIH")
_NAME_LEN = struct.Struct("<H")
_CRC = struct.Struct("<I")

_KIND_CODE = {READ: 0, WRITE: 1, SYNC: 2}
_CODE_KIND = {0: READ, 1: WRITE, 2: SYNC}
_PRIVATE_BIT = 0x80
_NO_NAME = 0xFFFF
_FLAG_ZLIB = 0x01
_FLAG_CRC32 = 0x02

#: Events per binary chunk: large enough to amortize headers and
#: compression, small enough that streaming replay stays lightweight.
DEFAULT_CHUNK_EVENTS = 4096

#: Numpy view of the packed record stream: one field per :data:`_RECORD`
#: column, no padding (``itemsize == _RECORD.size``), so a whole chunk
#: decodes to column arrays in a single ``frombuffer`` call — the entry
#: point of the batch replay path.
_RECORD_DTYPE = np.dtype(
    [
        ("code", "u1"),
        ("address", "<u8"),
        ("size", "<u4"),
        ("gap", "<u4"),
        ("name", "<u2"),
    ]
)
assert _RECORD_DTYPE.itemsize == _RECORD.size


@dataclass(frozen=True)
class TraceEvent:
    """One event of one thread's trace.

    ``kind`` is :data:`READ`, :data:`WRITE` or :data:`SYNC`.  ``gap``
    counts the non-memory instructions executed since the thread's
    previous event (the simulator charges them one cycle each).
    """

    kind: str
    address: int = 0
    size: int = 0
    private: bool = False
    gap: int = 0
    sync_name: str = ""


@dataclass
class TraceChunk:
    """One run of a thread's events, decoded to column arrays.

    The currency of the batch replay path: a binary chunk's packed
    records become five numpy columns in one ``frombuffer`` call (no
    per-event Python objects), and the offline analysis engine
    race-checks its shared accesses straight from them.  ``names`` is
    the chunk's sync-name table;
    ``name_idx`` holds :data:`_NO_NAME` for non-sync events.
    """

    tid: int
    codes: "np.ndarray"
    addresses: "np.ndarray"
    sizes: "np.ndarray"
    gaps: "np.ndarray"
    name_idx: "np.ndarray"
    names: List[str]

    def __len__(self) -> int:
        return len(self.codes)

    @property
    def kinds(self) -> "np.ndarray":
        """Kind codes (0=read, 1=write, 2=sync) with the private bit off."""
        return self.codes & ~np.uint8(_PRIVATE_BIT)

    @property
    def private(self) -> "np.ndarray":
        """Boolean private flag per event."""
        return (self.codes & np.uint8(_PRIVATE_BIT)) != 0

    def sync_name_at(self, i: int) -> str:
        """The sync name of event ``i`` ("" for memory events)."""
        idx = int(self.name_idx[i])
        return "" if idx == _NO_NAME else self.names[idx]

    def events(self) -> List[TraceEvent]:
        """Materialize the chunk as :class:`TraceEvent` objects."""
        kinds = self.kinds
        private = self.private
        names = self.names
        return [
            TraceEvent(
                kind=_CODE_KIND[int(kinds[i])],
                address=int(self.addresses[i]),
                size=int(self.sizes[i]),
                private=bool(private[i]),
                gap=int(self.gaps[i]),
                sync_name=(
                    "" if self.name_idx[i] == _NO_NAME
                    else names[int(self.name_idx[i])]
                ),
            )
            for i in range(len(self.codes))
        ]

    @classmethod
    def from_events(cls, tid: int, events: List[TraceEvent]) -> "TraceChunk":
        """Column-ize an in-memory event list (the recorder's output)."""
        n = len(events)
        names: List[str] = []
        name_pos: Dict[str, int] = {}
        name_idx = np.full(n, _NO_NAME, dtype=np.uint16)
        codes = np.zeros(n, dtype=np.uint8)
        addresses = np.zeros(n, dtype=np.uint64)
        sizes = np.zeros(n, dtype=np.uint32)
        gaps = np.zeros(n, dtype=np.uint32)
        for i, e in enumerate(events):
            codes[i] = _KIND_CODE[e.kind] | (_PRIVATE_BIT if e.private else 0)
            addresses[i] = e.address
            sizes[i] = e.size
            gaps[i] = e.gap
            if e.sync_name:
                idx = name_pos.get(e.sync_name)
                if idx is None:
                    idx = len(names)
                    name_pos[e.sync_name] = idx
                    names.append(e.sync_name)
                name_idx[i] = idx
        return cls(tid, codes, addresses, sizes, gaps, name_idx, names)


# -- binary chunk encode/decode ---------------------------------------------


def _corrupt(path: object, index: int, offset: int, detail: str) -> ValueError:
    """The uniform error for any damaged binary trace data."""
    return ValueError(
        f"truncated/corrupt trace: {path}: chunk {index} at offset "
        f"{offset}: {detail}"
    )


def _note_salvaged(count: int) -> None:
    """Count skipped chunks in the ambient telemetry registry."""
    if not count:
        return
    from ..obs.context import current_registry

    registry = current_registry()
    if registry is not None:
        registry.inc("trace.salvaged_chunks", count)


def _encode_chunk(
    tid: int, events: List[TraceEvent], compress: bool, crc: bool = True
) -> bytes:
    names: List[str] = []
    name_idx: Dict[str, int] = {}
    records = bytearray()
    for e in events:
        if e.sync_name:
            idx = name_idx.get(e.sync_name)
            if idx is None:
                idx = len(names)
                name_idx[e.sync_name] = idx
                names.append(e.sync_name)
        else:
            idx = _NO_NAME
        code = _KIND_CODE[e.kind] | (_PRIVATE_BIT if e.private else 0)
        records += _RECORD.pack(code, e.address, e.size, e.gap, idx)
    table = bytearray(_NAME_LEN.pack(len(names)))
    for name in names:
        raw = name.encode("utf-8")
        table += _NAME_LEN.pack(len(raw)) + raw
    payload = bytes(table) + bytes(records)
    flags = 0
    stored = payload
    if compress:
        flags |= _FLAG_ZLIB
        stored = zlib.compress(payload)
    if crc:
        flags |= _FLAG_CRC32
        stored = stored + _CRC.pack(zlib.crc32(stored) & 0xFFFFFFFF)
    header = _CHUNK_HEADER.pack(tid, flags, len(events), len(payload), len(stored))
    return header + stored


def _decode_payload(payload: bytes, n_events: int) -> List[TraceEvent]:
    (n_names,) = _NAME_LEN.unpack_from(payload, 0)
    offset = _NAME_LEN.size
    names: List[str] = []
    for _ in range(n_names):
        (length,) = _NAME_LEN.unpack_from(payload, offset)
        offset += _NAME_LEN.size
        names.append(payload[offset : offset + length].decode("utf-8"))
        offset += length
    events: List[TraceEvent] = []
    for code, address, size, gap, idx in _RECORD.iter_unpack(payload[offset:]):
        events.append(
            TraceEvent(
                kind=_CODE_KIND[code & ~_PRIVATE_BIT],
                address=address,
                size=size,
                private=bool(code & _PRIVATE_BIT),
                gap=gap,
                sync_name="" if idx == _NO_NAME else names[idx],
            )
        )
    if len(events) != n_events:
        raise ValueError(
            f"corrupt trace chunk: header says {n_events} events, "
            f"payload decodes to {len(events)}"
        )
    return events


def _read_chunk_raw(
    fh: BinaryIO, path: object, index: int
) -> Optional[Tuple[int, int, int, int, bytes, int]]:
    """Read one chunk's header and stored bytes, without decoding.

    Returns ``(tid, flags, n_events, raw_len, stored, offset)`` or
    ``None`` at a clean end of file.  Any short read raises the wrapped
    ``truncated/corrupt trace`` :class:`ValueError` — a failure here
    means the rest of the file cannot be walked.
    """
    offset = fh.tell()
    header = fh.read(_CHUNK_HEADER.size)
    if not header:
        return None
    if len(header) != _CHUNK_HEADER.size:
        raise _corrupt(
            path, index, offset,
            f"truncated chunk header ({len(header)}/{_CHUNK_HEADER.size} bytes)",
        )
    tid, flags, n_events, raw_len, stored_len = _CHUNK_HEADER.unpack(header)
    stored = fh.read(stored_len)
    if len(stored) != stored_len:
        raise _corrupt(
            path, index, offset,
            f"truncated chunk payload ({len(stored)}/{stored_len} bytes)",
        )
    return tid, flags, n_events, raw_len, stored, offset


def _verify_stored(
    stored: bytes,
    flags: int,
    raw_len: int,
    path: object,
    index: int,
    offset: int,
) -> bytes:
    """Checksum-verify and decompress one chunk's stored bytes."""
    if flags & _FLAG_CRC32:
        if len(stored) < _CRC.size:
            raise _corrupt(path, index, offset, "chunk too short for its checksum")
        (expected,) = _CRC.unpack_from(stored, len(stored) - _CRC.size)
        stored = stored[: -_CRC.size]
        actual = zlib.crc32(stored) & 0xFFFFFFFF
        if actual != expected:
            raise _corrupt(
                path, index, offset,
                f"CRC mismatch (stored {expected:#010x}, computed {actual:#010x})",
            )
    try:
        payload = zlib.decompress(stored) if flags & _FLAG_ZLIB else stored
    except zlib.error as exc:
        raise _corrupt(path, index, offset, f"decompression failed: {exc}") from None
    if len(payload) != raw_len:
        raise _corrupt(
            path, index, offset,
            f"payload length mismatch ({len(payload)} != {raw_len})",
        )
    return payload


def _decode_stored(
    stored: bytes,
    flags: int,
    n_events: int,
    raw_len: int,
    path: object,
    index: int,
    offset: int,
) -> List[TraceEvent]:
    """Verify, decompress and decode one chunk's stored bytes.

    Every failure mode — checksum mismatch, zlib damage, record-level
    garbage — surfaces as the wrapped ``truncated/corrupt trace``
    :class:`ValueError` with file, chunk and offset context.  A failure
    here damages only this chunk; the file remains walkable.
    """
    payload = _verify_stored(stored, flags, raw_len, path, index, offset)
    try:
        return _decode_payload(payload, n_events)
    except (ValueError, struct.error, IndexError, UnicodeDecodeError) as exc:
        raise _corrupt(path, index, offset, str(exc)) from None


def _payload_to_chunk(tid: int, payload: bytes, n_events: int) -> TraceChunk:
    """Decode a verified payload straight to column arrays.

    The batch-path twin of :func:`_decode_payload`: the name table is
    walked in Python (it is tiny), then every packed record lands in
    numpy columns via one ``frombuffer`` — no per-event objects.
    """
    (n_names,) = _NAME_LEN.unpack_from(payload, 0)
    offset = _NAME_LEN.size
    names: List[str] = []
    for _ in range(n_names):
        (length,) = _NAME_LEN.unpack_from(payload, offset)
        offset += _NAME_LEN.size
        names.append(payload[offset : offset + length].decode("utf-8"))
        offset += length
    records = payload[offset:]
    if len(records) != n_events * _RECORD.size:
        raise ValueError(
            f"corrupt trace chunk: header says {n_events} events, "
            f"payload holds {len(records) // _RECORD.size}"
        )
    arr = np.frombuffer(records, dtype=_RECORD_DTYPE, count=n_events)
    codes = arr["code"].copy()
    kinds = codes & ~np.uint8(_PRIVATE_BIT)
    if n_events and int(kinds.max()) > max(_CODE_KIND):
        raise ValueError(f"unknown event kind code {int(kinds.max())}")
    name_idx = arr["name"].copy()
    named = name_idx[name_idx != _NO_NAME]
    if named.size and int(named.max()) >= len(names):
        raise ValueError(f"sync-name index {int(named.max())} out of range")
    return TraceChunk(
        tid=tid,
        codes=codes,
        addresses=arr["address"].copy(),
        sizes=arr["size"].copy(),
        gaps=arr["gap"].copy(),
        name_idx=name_idx,
        names=names,
    )


def _decode_stored_chunk(
    stored: bytes,
    flags: int,
    n_events: int,
    raw_len: int,
    path: object,
    index: int,
    offset: int,
    tid: int,
) -> TraceChunk:
    """Column-array twin of :func:`_decode_stored` (same error surface)."""
    payload = _verify_stored(stored, flags, raw_len, path, index, offset)
    try:
        return _payload_to_chunk(tid, payload, n_events)
    except (ValueError, struct.error, IndexError, UnicodeDecodeError) as exc:
        raise _corrupt(path, index, offset, str(exc)) from None


def _is_binary_trace(path: Union[str, Path]) -> bool:
    with open(path, "rb") as fh:
        return fh.read(len(TRACE_MAGIC)) == TRACE_MAGIC


@dataclass
class Trace:
    """Per-thread event streams of one execution, held in memory.

    ``salvaged_chunks`` counts binary chunks that were skipped because
    their payload was damaged — nonzero only after a salvage-mode
    :meth:`load` of a partially corrupted file.
    """

    per_thread: Dict[int, List[TraceEvent]] = field(default_factory=dict)
    salvaged_chunks: int = 0

    def thread_ids(self) -> List[int]:
        """Sorted tids present in the trace."""
        return sorted(self.per_thread)

    def events(self, tid: int) -> List[TraceEvent]:
        """The event list of thread ``tid``."""
        return self.per_thread.get(tid, [])

    def iter_events(self, tid: int) -> Iterator[TraceEvent]:
        """Iterate thread ``tid``'s events (the simulator's protocol)."""
        return iter(self.per_thread.get(tid, ()))

    def iter_chunks(
        self, tid: int, chunk_events: int = DEFAULT_CHUNK_EVENTS
    ) -> Iterator[TraceChunk]:
        """Yield thread ``tid``'s events as column-array chunks.

        In-memory traces have no native chunk structure, so slices of
        ``chunk_events`` events are column-ized on the fly — same
        protocol as :meth:`StreamingTrace.iter_chunks`.
        """
        events = self.per_thread.get(tid, [])
        for start in range(0, len(events), chunk_events):
            yield TraceChunk.from_events(tid, events[start : start + chunk_events])

    def __iter__(self) -> Iterator[TraceEvent]:
        for tid in self.thread_ids():
            yield from self.per_thread[tid]

    @property
    def total_events(self) -> int:
        """Total number of events across all threads."""
        return sum(len(v) for v in self.per_thread.values())

    @property
    def total_accesses(self) -> int:
        """Total number of memory (non-sync) events."""
        return sum(
            1
            for events in self.per_thread.values()
            for e in events
            if e.kind != SYNC
        )

    def shared_accesses(self) -> int:
        """Memory events not marked private."""
        return sum(
            1
            for events in self.per_thread.values()
            for e in events
            if e.kind != SYNC and not e.private
        )

    # -- persistence ---------------------------------------------------------

    def save(
        self,
        path: Union[str, Path],
        format: Optional[str] = None,
        compress: bool = True,
        chunk_events: int = DEFAULT_CHUNK_EVENTS,
        crc: bool = True,
    ) -> None:
        """Write the trace to ``path``.

        ``format`` is ``"binary"`` (chunked struct records, the native
        format), ``"jsonl"`` (the legacy self-describing text format) or
        ``None`` to pick by extension: ``.jsonl`` paths get JSON-lines,
        everything else the binary format.  ``compress`` zlib-compresses
        each binary chunk; ``chunk_events`` bounds events per chunk;
        ``crc`` stamps each binary chunk with a CRC32 of its stored
        bytes so loaders can detect bit damage.
        """
        if format is None:
            format = "jsonl" if str(path).endswith(".jsonl") else "binary"
        if format == "jsonl":
            self._save_jsonl(path)
        elif format == "binary":
            self._save_binary(
                path, compress=compress, chunk_events=chunk_events, crc=crc
            )
        else:
            raise ValueError(f"unknown trace format {format!r}")

    def _save_jsonl(self, path: Union[str, Path]) -> None:
        with open(path, "w") as fh:
            for tid in self.thread_ids():
                events = [
                    [e.kind, e.address, e.size, int(e.private), e.gap, e.sync_name]
                    for e in self.per_thread[tid]
                ]
                fh.write(json.dumps({"tid": tid, "events": events}) + "\n")

    def _save_binary(
        self,
        path: Union[str, Path],
        compress: bool,
        chunk_events: int,
        crc: bool = True,
    ) -> None:
        if chunk_events < 1:
            raise ValueError("chunk_events must be positive")
        with open(path, "wb") as fh:
            fh.write(TRACE_MAGIC + bytes([_TRACE_VERSION]))
            for tid in self.thread_ids():
                events = self.per_thread[tid]
                if not events:
                    # An empty chunk keeps the thread visible to readers.
                    fh.write(_encode_chunk(tid, [], compress, crc=crc))
                for start in range(0, len(events), chunk_events):
                    fh.write(
                        _encode_chunk(
                            tid,
                            events[start : start + chunk_events],
                            compress,
                            crc=crc,
                        )
                    )

    @classmethod
    def load(cls, path: Union[str, Path], salvage: bool = False) -> "Trace":
        """Read a trace written by :meth:`save` (either format).

        The format is detected from the file's magic bytes, not its
        name, so renamed files load fine.  With ``salvage=True``, binary
        chunks whose payload is damaged (bad CRC, zlib damage, garbled
        records) are skipped instead of raising; the skipped count lands
        in :attr:`salvaged_chunks` and the ``trace.salvaged_chunks``
        telemetry counter.  Damage to the chunk *structure* itself — a
        truncated header or short stored region — still raises, because
        the rest of the file cannot be walked past it.
        """
        if _is_binary_trace(path):
            return cls._load_binary(path, salvage=salvage)
        return cls._load_jsonl(path)

    @classmethod
    def _load_binary(
        cls, path: Union[str, Path], salvage: bool = False
    ) -> "Trace":
        per_thread: Dict[int, List[TraceEvent]] = {}
        salvaged = 0
        with open(path, "rb") as fh:
            _check_magic(fh, path)
            index = 0
            while True:
                chunk = _read_chunk_raw(fh, path, index)
                if chunk is None:
                    break
                tid, flags, n_events, raw_len, stored, offset = chunk
                try:
                    events = _decode_stored(
                        stored, flags, n_events, raw_len, path, index, offset
                    )
                except ValueError:
                    if not salvage:
                        raise
                    salvaged += 1
                else:
                    per_thread.setdefault(tid, []).extend(events)
                index += 1
        _note_salvaged(salvaged)
        return cls(per_thread=per_thread, salvaged_chunks=salvaged)

    @classmethod
    def _load_jsonl(cls, path: Union[str, Path]) -> "Trace":
        per_thread: Dict[int, List[TraceEvent]] = {}
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                record = json.loads(line)
                per_thread[int(record["tid"])] = [
                    TraceEvent(
                        kind=kind,
                        address=address,
                        size=size,
                        private=bool(private),
                        gap=gap,
                        sync_name=sync_name,
                    )
                    for kind, address, size, private, gap, sync_name in record[
                        "events"
                    ]
                ]
        return cls(per_thread=per_thread)


def _check_magic(fh: BinaryIO, path: Union[str, Path]) -> None:
    head = fh.read(len(TRACE_MAGIC) + 1)
    if len(head) != len(TRACE_MAGIC) + 1:
        raise ValueError(
            f"truncated/corrupt trace: {path}: file shorter than its header"
        )
    if head[: len(TRACE_MAGIC)] != TRACE_MAGIC:
        raise ValueError(f"{path} is not a binary trace")
    version = head[-1]
    if version != _TRACE_VERSION:
        raise ValueError(
            f"unsupported trace version {version} (expected {_TRACE_VERSION})"
        )


class StreamingTrace:
    """A binary trace replayed chunk by chunk, never fully in memory.

    Implements the protocol the simulator consumes — :meth:`thread_ids`
    and re-iterable :meth:`iter_events` — by indexing chunk *offsets* at
    open time (one header-hopping scan, no payloads read) and decoding
    one chunk at a time during iteration.  Each :meth:`iter_events` call
    opens its own file handle, so the simulator can interleave many
    threads' iterators, and the warmup pass can simply iterate again.

    With ``salvage=True`` every chunk's payload is *validated* during
    the open-time scan (damaged ones are dropped from the index and
    counted in :attr:`salvaged_chunks`) so that later iteration can
    never blow up mid-simulation.  Salvage pays the full decode cost up
    front; the default mode keeps the cheap header-hopping scan and
    raises lazily from :meth:`iter_events` if a chunk turns out damaged.
    """

    def __init__(self, path: Union[str, Path], salvage: bool = False) -> None:
        self._path = Path(path)
        self.salvaged_chunks = 0
        #: tid -> [(chunk index, payload offset, flags, n_events, raw_len,
        #: stored_len)]
        self._index: Dict[int, List[Tuple[int, int, int, int, int, int]]] = {}
        file_size = self._path.stat().st_size
        with open(self._path, "rb") as fh:
            _check_magic(fh, path)
            index = 0
            while True:
                if salvage:
                    chunk = _read_chunk_raw(fh, path, index)
                    if chunk is None:
                        break
                    tid, flags, n_events, raw_len, stored, offset = chunk
                    payload_offset = offset + _CHUNK_HEADER.size
                    stored_len = len(stored)
                    try:
                        _decode_stored(
                            stored, flags, n_events, raw_len, path, index, offset
                        )
                    except ValueError:
                        self.salvaged_chunks += 1
                        index += 1
                        continue
                else:
                    offset = fh.tell()
                    header = fh.read(_CHUNK_HEADER.size)
                    if not header:
                        break
                    if len(header) != _CHUNK_HEADER.size:
                        raise _corrupt(
                            path, index, offset,
                            f"truncated chunk header "
                            f"({len(header)}/{_CHUNK_HEADER.size} bytes)",
                        )
                    tid, flags, n_events, raw_len, stored_len = (
                        _CHUNK_HEADER.unpack(header)
                    )
                    payload_offset = fh.tell()
                    if payload_offset + stored_len > file_size:
                        raise _corrupt(
                            path, index, offset,
                            f"truncated chunk payload "
                            f"({file_size - payload_offset}/{stored_len} bytes)",
                        )
                    fh.seek(stored_len, 1)
                self._index.setdefault(tid, []).append(
                    (index, payload_offset, flags, n_events, raw_len, stored_len)
                )
                index += 1
        _note_salvaged(self.salvaged_chunks)

    def thread_ids(self) -> List[int]:
        """Sorted tids present in the trace."""
        return sorted(self._index)

    def iter_events(self, tid: int) -> Iterator[TraceEvent]:
        """Lazily yield thread ``tid``'s events, one chunk in memory at
        a time.  Fresh iterator per call — safe to replay repeatedly."""
        chunks = self._index.get(tid, [])
        if not chunks:
            return
        with open(self._path, "rb") as fh:
            for index, offset, flags, n_events, raw_len, stored_len in chunks:
                fh.seek(offset)
                stored = fh.read(stored_len)
                if len(stored) != stored_len:
                    raise _corrupt(
                        self._path, index, offset - _CHUNK_HEADER.size,
                        f"truncated chunk payload "
                        f"({len(stored)}/{stored_len} bytes)",
                    )
                for event in _decode_stored(
                    stored, flags, n_events, raw_len,
                    self._path, index, offset - _CHUNK_HEADER.size,
                ):
                    yield event

    def iter_chunks(self, tid: int) -> Iterator[TraceChunk]:
        """Yield thread ``tid``'s stored chunks as column arrays.

        The batch replay fast path: each chunk's packed records decode
        straight into numpy columns (one ``frombuffer``), skipping
        per-event :class:`TraceEvent` construction entirely.  Fresh
        file handle per call, like :meth:`iter_events`.
        """
        chunks = self._index.get(tid, [])
        if not chunks:
            return
        with open(self._path, "rb") as fh:
            for index, offset, flags, n_events, raw_len, stored_len in chunks:
                fh.seek(offset)
                stored = fh.read(stored_len)
                if len(stored) != stored_len:
                    raise _corrupt(
                        self._path, index, offset - _CHUNK_HEADER.size,
                        f"truncated chunk payload "
                        f"({len(stored)}/{stored_len} bytes)",
                    )
                yield _decode_stored_chunk(
                    stored, flags, n_events, raw_len,
                    self._path, index, offset - _CHUNK_HEADER.size, tid,
                )

    def events(self, tid: int) -> List[TraceEvent]:
        """Materialize thread ``tid``'s events (compatibility helper)."""
        return list(self.iter_events(tid))

    def __iter__(self) -> Iterator[TraceEvent]:
        for tid in self.thread_ids():
            yield from self.iter_events(tid)

    @property
    def total_events(self) -> int:
        """Total event count, known from chunk headers alone."""
        return sum(
            n for chunks in self._index.values() for _, _, _, n, _, _ in chunks
        )


def open_trace(
    path: Union[str, Path], salvage: bool = False
) -> Union[Trace, StreamingTrace]:
    """Open a trace file for replay with minimal memory.

    Binary traces come back as a :class:`StreamingTrace`; legacy
    JSON-lines traces (which have no chunk structure to stream) are
    loaded in memory.  Both satisfy the simulator's protocol.
    ``salvage=True`` validates and drops damaged binary chunks at open
    time instead of raising (see :class:`StreamingTrace`).
    """
    if _is_binary_trace(path):
        return StreamingTrace(path, salvage=salvage)
    return Trace._load_jsonl(path)


def _verify_walk(fh: BinaryIO, path: object) -> int:
    _check_magic(fh, path)
    events = 0
    index = 0
    while True:
        chunk = _read_chunk_raw(fh, path, index)
        if chunk is None:
            return events
        tid, flags, n_events, raw_len, stored, offset = chunk
        _decode_stored_chunk(
            stored, flags, n_events, raw_len, path, index, offset, tid
        )
        events += n_events
        index += 1


def verify_trace(path: Union[str, Path]) -> int:
    """Validate a binary trace end to end; returns its event count.

    Walks every chunk through the CRC check, decompression and the
    columnar record decode — exactly what replay would hit — and raises
    the usual ``truncated/corrupt trace`` :class:`ValueError` on the
    first damaged chunk.  The ingestion admission check of the
    ``repro serve`` daemon: cheap enough to run on every upload, strict
    enough that an accepted trace cannot later blow up a worker.
    """
    with open(path, "rb") as fh:
        return _verify_walk(fh, path)


def verify_trace_bytes(data: bytes, name: str = "<upload>") -> int:
    """:func:`verify_trace` for a trace still in memory (e.g. an HTTP
    request body, validated before it is spooled to disk)."""
    return _verify_walk(io.BytesIO(data), name)


# -- generic CRC-framed record streams ----------------------------------------
#
# The same per-record checksum discipline the binary trace chunks use,
# packaged for append-only logs: each record is a little-endian
# ``(length, crc32(payload))`` header followed by the payload bytes.  A
# writer that dies mid-append leaves a *torn tail* — a partial header,
# a short payload, or a payload whose CRC no longer matches — and the
# salvage read mode recognizes exactly that and cuts the stream at the
# last intact record instead of raising.  The ``repro serve``
# write-ahead submission journal is built on these frames.

_FRAME_HEADER = struct.Struct("<II")


def write_frame(fh: BinaryIO, payload: bytes) -> int:
    """Append one CRC-framed record to ``fh``; returns bytes written."""
    fh.write(
        _FRAME_HEADER.pack(len(payload), zlib.crc32(payload) & 0xFFFFFFFF)
    )
    fh.write(payload)
    return _FRAME_HEADER.size + len(payload)


def read_frames(
    data: bytes, name: str = "<frames>", salvage: bool = False
) -> Tuple[List[bytes], int]:
    """Decode a CRC-framed record stream; returns ``(payloads, good_bytes)``.

    ``good_bytes`` is the offset just past the last intact record — the
    length a salvaging writer should truncate the file to.  With
    ``salvage=False`` any damage (torn header, short payload, CRC
    mismatch) raises ``ValueError``; with ``salvage=True`` the stream is
    cut at the damage point and whatever decoded cleanly before it is
    returned.  A record is either returned intact or not at all — a
    torn tail can lose the final record, never invent one.
    """
    payloads: List[bytes] = []
    offset = 0
    total = len(data)
    while offset < total:
        if offset + _FRAME_HEADER.size > total:
            if salvage:
                break
            raise ValueError(
                f"truncated/corrupt frame stream: {name}: torn header at "
                f"offset {offset} ({total - offset}/{_FRAME_HEADER.size} bytes)"
            )
        length, expected = _FRAME_HEADER.unpack_from(data, offset)
        start = offset + _FRAME_HEADER.size
        end = start + length
        if end > total:
            if salvage:
                break
            raise ValueError(
                f"truncated/corrupt frame stream: {name}: torn payload at "
                f"offset {offset} ({total - start}/{length} bytes)"
            )
        payload = data[start:end]
        actual = zlib.crc32(payload) & 0xFFFFFFFF
        if actual != expected:
            if salvage:
                break
            raise ValueError(
                f"truncated/corrupt frame stream: {name}: CRC mismatch at "
                f"offset {offset} (stored {expected:#010x}, "
                f"computed {actual:#010x})"
            )
        payloads.append(payload)
        offset = end
    return payloads, offset


def event_tuples(
    trace: object, tid: int, chunk_events: int = DEFAULT_CHUNK_EVENTS
) -> Iterator[List[Tuple[str, int, int, bool, int]]]:
    """Yield thread ``tid``'s events as ``(kind, address, size, private,
    gap)`` tuples, one chunk-sized list at a time.

    The simulator's input: plain tuples unpack faster than
    :class:`TraceEvent` attribute reads.  :class:`StreamingTrace` decodes
    each stored chunk once, straight from its column arrays; anything
    else satisfying ``iter_events`` (an in-memory :class:`Trace`) is
    converted a batch at a time.
    """
    if isinstance(trace, StreamingTrace):
        for chunk in trace.iter_chunks(tid):
            kinds = [_CODE_KIND[k] for k in chunk.kinds.tolist()]
            yield list(zip(
                kinds, chunk.addresses.tolist(), chunk.sizes.tolist(),
                chunk.private.tolist(), chunk.gaps.tolist(),
            ))
        return
    events = iter(trace.iter_events(tid))
    while True:
        batch = [
            (e.kind, e.address, e.size, e.private, e.gap)
            for e in islice(events, chunk_events)
        ]
        if not batch:
            return
        yield batch


class TraceRecorder(ExecutionMonitor):
    """Monitor that builds a :class:`Trace` while a program runs.

    Sync events are recorded *replayably*: each carries a descriptor
    naming the operation and its target (``"Acquire:L"``,
    ``"BarrierWait:B@3"``, ``"Spawn:2"``, ...) in ``sync_name``, and the
    global synchronization commit order — the scheduler's deterministic
    sync sequence — in the otherwise-unused ``address`` field (1-based;
    0 marks traces from older recorders).  Offline analysis rebuilds the
    exact happens-before relation from these without re-running the
    program.
    """

    def __init__(self) -> None:
        self.trace = Trace()
        self._gap: Dict[int, int] = {}
        self._sync_seq = 0
        #: Last child tid spawned per parent, captured by :meth:`on_spawn`
        #: so the Spawn commit right after it can name the child.
        self._spawned: Dict[int, int] = {}

    def _emit(self, tid: int, event: TraceEvent) -> None:
        self.trace.per_thread.setdefault(tid, []).append(event)

    def _take_gap(self, tid: int) -> int:
        gap = self._gap.get(tid, 0)
        self._gap[tid] = 0
        return gap

    def on_compute(self, tid: int, amount: int) -> None:
        """Accumulate non-memory instruction work for ``tid``."""
        self._gap[tid] = self._gap.get(tid, 0) + amount

    def on_thread_start(self, tid: int, parent: Optional[int]) -> None:
        self.trace.per_thread.setdefault(tid, [])
        self._gap[tid] = 0

    def after_access(self, event: AccessEvent) -> None:
        tid = event.tid
        self._emit(
            tid,
            TraceEvent(
                WRITE if event.is_write else READ,
                event.address,
                event.size,
                event.private,
                gap=self._take_gap(tid),
            ),
        )

    def on_spawn(self, parent: int, child: int) -> None:
        self._spawned[parent] = child

    def _sync_descriptor(self, tid: int, op: object) -> str:
        """``"Kind:target"`` descriptor for a committed sync operation.

        Targets are the stable sync-object names the detector itself
        keys vector clocks by, so replay applies happens-before edges to
        exactly the objects the live run used.  The barrier generation
        is read *at commit*, before the trip increments it, so every
        arriver of one episode records the same ``B@gen`` key.
        """
        kind = type(op).__name__
        lock = getattr(op, "lock", None)
        cond = getattr(op, "cond", None)
        if kind == "_Reacquire":
            # Waking from a cond wait: reacquire the lock, ordered after
            # the signaller.  Replay must acquire both L and C.
            return f"CondWake:{lock.name}:{cond.name}"
        if kind == "CondWait":
            return f"CondWait:{cond.name}:{lock.name}"
        if lock is not None:
            return f"{kind}:{lock.name}"
        if cond is not None:
            return f"{kind}:{cond.name}"
        barrier = getattr(op, "barrier", None)
        if barrier is not None:
            return f"{kind}:{barrier.name}@{barrier.generation}"
        sem = getattr(op, "sem", None)
        if sem is not None:
            return f"{kind}:{sem.name}"
        if kind == "Spawn":
            return f"Spawn:{self._spawned.get(tid, -1)}"
        if kind == "Join":
            return f"Join:{getattr(op, 'tid', -1)}"
        return kind

    def on_sync_commit(self, tid: int, op: object) -> None:
        self._sync_seq += 1
        self._emit(
            tid,
            TraceEvent(
                SYNC,
                address=self._sync_seq,
                gap=self._take_gap(tid),
                sync_name=self._sync_descriptor(tid, op),
            ),
        )
