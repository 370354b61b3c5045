"""Parametrized kernels: turn a :class:`BenchmarkSpec` into a program.

Four kernel families cover the synchronization structures of SPLASH-2
and PARSEC:

* ``barrier_phases`` — iterative data-parallel/stencil codes: threads own
  slot partitions, write only their own partition, read neighbours'
  *previous-phase* values; barriers separate phases, so the race-free
  variant is race-free by construction.
* ``task_locks`` — task-parallel codes sharing structures under locks:
  a slot's lock is ``slot-group % n_locks``; the race-free variant always
  holds the right lock for shared-structure accesses.
* ``pipeline`` — producer/consumer stages over bounded buffers guarded by
  semaphores; ownership handoff makes buffer accesses race-free.
* ``lock_free`` — canneal-style atomic-RMW synchronization, which is a
  data race under CLEAN's model by design (no race-free variant).

The *racy* variant of each kernel injects unprotected accesses to
contended shared slots with probability ``spec.race_density``, the stand-
in for the real benchmarks' known races.

All randomness is drawn from per-thread generators seeded by
``(spec.name, variant, seed, tid)``, and no draw depends on a value the
program reads, so a kernel thread's op stream is a pure function of the
*build key* ``(spec, scale, racy, seed, n_threads)``.  Each family is
therefore defined once, as a *plan builder*: it makes the thread's draws
in order and records its ops as a packed plan (one int per op, see
``_word``), and every kernel thread of every run executes its plan
through the shared :func:`_replay` generator.  The replay computes the
few value-dependent ops from the values it actually reads — the locked
``value + item`` update, the pipeline's forward copy (byte-wise for
dedup) and the ``current + 1`` stats update — and the thread's checksum
(shared reads and atomic old values; private reads do not count).

Plans hold synchronization objects by *index*: the ``Lock``,
``Semaphore`` and ``Barrier`` objects are created per run, in the
program's ``main``, so one built program runs any number of independent
times.  The plans of the most recent build key are kept (one entry), so
rebuilding the same program for another schedule seed — Section 6.2.2's
repeated runs, Table 1's narrow/wide pair — draws nothing again.
"""

from __future__ import annotations

import random
from array import array
from typing import List, NamedTuple, Optional, Tuple

from ..runtime.ops import (
    Acquire,
    AtomicRMW,
    BarrierWait,
    Compute,
    Join,
    Output,
    Read,
    Release,
    SemPost,
    SemWait,
    Spawn,
    Write,
)
from ..runtime.program import Program
from ..runtime.scheduler import randbelow
from ..runtime.sync import Barrier, Lock, Semaphore
from .spec import BenchmarkSpec

__all__ = ["build_program", "N_THREADS"]

#: The paper runs every benchmark with 8 threads (Section 6.1).
N_THREADS = 8

SLOT = 8
_PRIVATE_SLOTS = 64
_MASK64 = 0xFFFFFFFFFFFFFFFF
_MASK32 = 0xFFFFFFFF

# Plan op kinds.  A plan word is ``offset << 8 | size << 4 | kind``;
# ``offset`` is relative to the base the kind names (the thread's
# private region, the shared region, or the stats word), and for SYNC it
# is the index into the run's sync-op table.  ``item`` counts the
# thread's COMPUTE ops (every kernel starts each work item with one) and
# ``value`` is the last value a READ/READB/ITEM produced.
READ = 0     # value = Read(shared + offset, size); checksum ^= value
WRITE = 1    # Write(shared + offset, size, item)
COMPUTE = 2  # item += 1; the thread's Compute op
PREAD = 3    # Read(private + offset, 8), private; not checksummed
PWRITE = 4   # Write(private + offset, 8, item), private
SYNC = 5     # the run's sync op number ``offset``
ADD = 6      # v = Read(shared + offset, 8); Write(..., (v + item) & mask)
RMW = 7      # checksum ^= AtomicRMW(shared + offset, size, +1 mod 256)
READB = 8    # value = 8 one-byte Reads, little-endian; checksum ^= value
ITEM = 9     # value = item; checksum ^= value
STORE = 10   # Write(shared + offset, size, value)
STOREB = 11  # 8 one-byte Writes of value, little-endian
INCR = 12    # v = Read(stats, 8); Write(stats, 8, v + 1)


def _word(kind: int, offset: int = 0, size: int = 0) -> int:
    return offset << 8 | size << 4 | kind


def _bump_byte(old: int) -> int:
    return (old + 1) & 0xFF


class _Plans(NamedTuple):
    """Everything a build key determines; shared by every run.

    ``regions`` are the shared allocations ``(size, align)`` made before
    the threads spawn (the first is ``shared``, a second one ``stats``);
    ``objects`` are ``(class, args)`` recipes for the run's sync objects
    and ``sync_ops`` the ``(op class, object index)`` table SYNC words
    index; ``threads`` holds each thread's ``(compute amount, words)``.
    """

    regions: Tuple[Tuple[int, int], ...]
    objects: Tuple[Tuple[type, tuple], ...]
    sync_ops: Tuple[Tuple[type, int], ...]
    threads: Tuple[Tuple[int, array], ...]


def build_program(
    spec: BenchmarkSpec,
    scale: str = "simsmall",
    racy: bool = False,
    seed: int = 0,
    n_threads: int = N_THREADS,
) -> Program:
    """Build the runnable program for ``spec`` at ``scale``.

    ``racy=True`` selects the unmodified (racy) variant; it is an error
    for specs whose unmodified version is race-free, and lock_free specs
    (canneal) have *only* the racy variant (Section 6.1).
    """
    if racy and not spec.racy:
        raise ValueError(f"{spec.name} has no racy variant (unmodified is race-free)")
    if spec.style == "lock_free" and not racy:
        raise ValueError(
            f"{spec.name} is lock-free synchronized; it has no race-free variant"
        )
    return _program(_plans_for(spec, scale, racy, seed, n_threads))


#: ``(build key, plans)`` of the most recent build.  Plans are never
#: mutated once built, so every caller may share them; one entry bounds
#: the memory held to one program's plans.
_memo: Tuple[tuple, Optional[_Plans]] = ((), None)


def _plans_for(spec, scale, racy, seed, n_threads) -> _Plans:
    global _memo
    key = (spec, scale, racy, seed, n_threads)
    memo_key, plans = _memo  # one read: another thread may replace _memo
    if memo_key != key:
        plans = _PLANNERS[spec.style](spec, scale, racy, seed, n_threads)
        _memo = (key, plans)
    return plans


def _program(plans: _Plans) -> Program:
    def main(ctx):
        bases = [ctx.alloc(size, align=align) for size, align in plans.regions]
        shared = bases[0]
        stats = bases[1] if len(bases) > 1 else 0
        objects = [cls(*args) for cls, args in plans.objects]
        sync_ops = tuple(cls(objects[i]) for cls, i in plans.sync_ops)
        children = []
        for amount, words in plans.threads:
            private = ctx.alloc(_PRIVATE_SLOTS * SLOT, align=64)
            child = yield Spawn(
                _replay,
                (words, Compute(amount), sync_ops, shared, stats, private),
            )
            children.append(child)
        total = 0
        for child in children:
            total ^= yield Join(child)
        yield Output(total)
        return total

    return Program(main)


def _replay(ctx, words, compute, sync_ops, shared, stats, private):
    """Run one kernel thread's plan (see the plan op kinds above)."""
    checksum = 0
    item = 0
    value = 0
    for word in words:
        kind = word & 15
        if kind == READ:
            value = yield Read(shared + (word >> 8), word >> 4 & 15)
            checksum ^= value
        elif kind == WRITE:
            yield Write(shared + (word >> 8), word >> 4 & 15, item)
        elif kind == COMPUTE:
            item += 1
            yield compute
        elif kind == PREAD:
            yield Read(private + (word >> 8), 8, True)
        elif kind == PWRITE:
            yield Write(private + (word >> 8), 8, item, True)
        elif kind == SYNC:
            yield sync_ops[word >> 8]
        elif kind == ADD:
            address = shared + (word >> 8)
            old = yield Read(address, 8)
            yield Write(address, 8, (old + item) & _MASK64)
            checksum ^= old
        elif kind == RMW:
            checksum ^= yield AtomicRMW(
                shared + (word >> 8), word >> 4 & 15, _bump_byte
            )
        elif kind == READB:
            address = shared + (word >> 8)
            value = 0
            for i in range(8):
                value |= (yield Read(address + i, 1)) << (8 * i)
            checksum ^= value
        elif kind == ITEM:
            value = item
            checksum ^= value
        elif kind == STORE:
            yield Write(shared + (word >> 8), word >> 4 & 15, value)
        elif kind == STOREB:
            address = shared + (word >> 8)
            for i in range(8):
                yield Write(address + i, 1, (value >> (8 * i)) & 0xFF)
        else:  # INCR
            current = yield Read(stats, 8)
            yield Write(stats, 8, current + 1)
    checksum &= _MASK32
    yield Output(checksum)
    return checksum


# ---------------------------------------------------------------------------
# per-thread draws
# ---------------------------------------------------------------------------


def _rng_for(spec: BenchmarkSpec, racy: bool, seed: int, tid: int) -> random.Random:
    return random.Random(f"{spec.name}/{int(racy)}/{seed}/{tid}")


def _pick_size(
    rng: random.Random, spec: BenchmarkSpec, is_write: bool = False
) -> int:
    total = sum(w for _, w in spec.access_sizes)
    roll = randbelow(rng.getrandbits, total)
    size = spec.access_sizes[-1][0]
    for candidate, weight in spec.access_sizes:
        roll -= weight
        if roll < 0:
            size = candidate
            break
    if is_write and size < 4 and not spec.byte_granular:
        # Sub-word *writes* to shared data are rare in real codes (they
        # are what forces hardware metadata expansion); only the
        # byte-granular benchmarks (dedup) issue them.
        size = 4
    return size


def _slot_offset(base: int, slot: int, rng: random.Random, size: int) -> int:
    offset = size * randbelow(rng.getrandbits, SLOT // size) if size < SLOT else 0
    return base + slot * SLOT + offset


def _per_item_counts(rng: random.Random, rate: float) -> int:
    """Integer draw with expectation ``rate`` (deterministic in rng)."""
    whole = int(rate)
    if rng.random() < rate - whole:
        whole += 1
    return whole


def _compute_amount(spec: BenchmarkSpec, tid: int, n_threads: int) -> int:
    """Per-item compute, skewed across threads by ``spec.imbalance``."""
    if not spec.imbalance:
        return max(1, spec.compute_per_item)
    # Thread 1 lightest, thread n heaviest; mean stays compute_per_item.
    skew = 1.0 + spec.imbalance * ((2 * (tid - 1) / max(1, n_threads - 1)) - 1.0)
    return max(1, int(spec.compute_per_item * skew))


def _start_item(rng, spec, words) -> None:
    """A work item's COMPUTE plus its private (stack-like) accesses."""
    words.append(COMPUTE)
    for _ in range(_per_item_counts(rng, spec.private_per_item)):
        offset = randbelow(rng.getrandbits, _PRIVATE_SLOTS) * SLOT
        kind = PWRITE if rng.random() < 0.5 else PREAD
        words.append(_word(kind, offset, 8))


def _choose_slot(rng, spec, hot: List[int], n_slots: int,
                 bias: float = None) -> int:
    """Locality model: reuse a hot slot or stride to a fresh one.

    ``bias`` overrides the spec's reuse probability; writes use a high
    floor (real codes rewrite hot data many times between
    synchronizations, which is what makes the hardware same-epoch fast
    path common).
    """
    reuse = spec.locality if bias is None else bias
    if hot and rng.random() < reuse:
        slot = hot[randbelow(rng.getrandbits, len(hot))]
    else:
        slot = randbelow(rng.getrandbits, n_slots)
        hot.append(slot)
        if len(hot) > 16:
            hot.pop(0)
    return slot


def _write_bias(spec) -> float:
    return max(spec.locality, 0.85)


# ---------------------------------------------------------------------------
# barrier_phases
# ---------------------------------------------------------------------------


def _plan_barrier_phases(spec, scale, racy, seed, n_threads) -> _Plans:
    items = spec.items_at(scale)
    n_slots = max(n_threads * 16, spec.slots_at(scale))
    phases = max(1, min(items, int(items * spec.sync_per_item)))
    items_per_phase = max(1, items // phases)
    per_thread = n_slots // n_threads
    threads = []
    for tid_index in range(n_threads):
        rng = _rng_for(spec, racy, seed, tid_index)
        words = array("q")
        my_lo = tid_index * per_thread
        hot_own: List[int] = []   # partition-relative (writes)
        hot_read: List[int] = []  # array-relative (reads)
        for phase in range(phases):
            # Double buffering: each phase reads the previous phase's
            # array and writes the other; the barrier between phases
            # orders reads after the writes they observe, so the
            # race-free variant is race-free.
            write_array = (phase % 2) * n_slots * SLOT
            read_array = ((phase + 1) % 2) * n_slots * SLOT
            for _ in range(items_per_phase):
                _start_item(rng, spec, words)
                for _ in range(_per_item_counts(rng, spec.shared_per_item)):
                    if racy and rng.random() < spec.race_density:
                        # Unmodified benchmark: unsynchronized access to a
                        # small contended region of the write array.
                        is_write = rng.random() < 0.7
                        size = _pick_size(rng, spec, is_write)
                        slot = randbelow(rng.getrandbits, min(4, n_slots))
                        offset = _slot_offset(write_array, slot, rng, size)
                        words.append(_word(WRITE if is_write else READ, offset, size))
                        continue
                    is_write = rng.random() < spec.write_fraction
                    size = _pick_size(rng, spec, is_write)
                    if is_write:
                        # Writes stay in the thread's own partition of the
                        # current write array.
                        slot = my_lo + _choose_slot(
                            rng, spec, hot_own, per_thread, bias=_write_bias(spec)
                        )
                        offset = _slot_offset(write_array, slot, rng, size)
                        words.append(_word(WRITE, offset, size))
                    else:
                        # Reads mostly stay in the thread's own partition
                        # (interior points); a minority cross partitions
                        # (boundary exchange), barrier-ordered either way.
                        if rng.random() < 0.85:
                            slot = my_lo + _choose_slot(
                                rng, spec, hot_own, per_thread
                            )
                        else:
                            slot = _choose_slot(rng, spec, hot_read, n_slots)
                        offset = _slot_offset(read_array, slot, rng, size)
                        words.append(_word(READ, offset, size))
            words.append(_word(SYNC, 0))
        threads.append((_compute_amount(spec, tid_index + 1, n_threads), words))
    return _Plans(
        regions=((2 * n_slots * SLOT, 64),),
        objects=((Barrier, (n_threads, f"{spec.name}-barrier")),),
        sync_ops=((BarrierWait, 0),),
        threads=tuple(threads),
    )


# ---------------------------------------------------------------------------
# task_locks
# ---------------------------------------------------------------------------


def _plan_task_locks(spec, scale, racy, seed, n_threads) -> _Plans:
    items = spec.items_at(scale)
    n_slots = max(n_threads * 16, spec.slots_at(scale))
    n_locks = 8
    # Shared structures (locked) occupy the low quarter of the slots; the
    # rest is per-thread-owned data accessed without locks.
    shared_slots = max(n_locks, n_slots // 4)
    owned_per_thread = (n_slots - shared_slots) // n_threads
    threads = []
    for tid_index in range(n_threads):
        rng = _rng_for(spec, racy, seed, tid_index)
        words = array("q")
        my_lo = shared_slots + tid_index * owned_per_thread
        hot: List[int] = []
        for _item in range(items):
            _start_item(rng, spec, words)
            n_lock_sections = _per_item_counts(rng, spec.sync_per_item / 2)
            for _ in range(n_lock_sections):
                group = randbelow(rng.getrandbits, n_locks)
                skip_lock = racy and rng.random() < spec.race_density
                if not skip_lock:
                    words.append(_word(SYNC, group))  # Acquire
                # Shared structures are hot: only a few rows per lock, so
                # unprotected accesses in the racy variant reliably
                # conflict with other threads' locked updates.  The racy
                # variant's unprotected sections hit the hottest row.
                rows = 1 if skip_lock else max(1, min(4, shared_slots // n_locks))
                slot = group + n_locks * randbelow(rng.getrandbits, rows)
                words.append(_word(ADD, _slot_offset(0, slot, rng, 8), 8))
                if not skip_lock:
                    words.append(_word(SYNC, n_locks + group))  # Release
            for _ in range(_per_item_counts(rng, spec.shared_per_item)):
                is_write = rng.random() < spec.write_fraction
                size = _pick_size(rng, spec, is_write)
                slot = my_lo + _choose_slot(
                    rng, spec, hot, owned_per_thread,
                    bias=_write_bias(spec) if is_write else None,
                )
                offset = _slot_offset(0, slot, rng, size)
                words.append(_word(WRITE if is_write else READ, offset, size))
        threads.append((_compute_amount(spec, tid_index + 1, n_threads), words))
    return _Plans(
        regions=((n_slots * SLOT, 64),),
        objects=tuple((Lock, (f"{spec.name}-lock{i}",)) for i in range(n_locks)),
        sync_ops=tuple((Acquire, i) for i in range(n_locks))
        + tuple((Release, i) for i in range(n_locks)),
        threads=tuple(threads),
    )


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------

_CELL = 32   # bytes per pipeline buffer cell
_BATCH = 16  # items handed between stages per queue operation
_RING = 2    # batches in flight per inter-stage ring


def _plan_pipeline(spec, scale, racy, seed, n_threads) -> _Plans:
    total_items = spec.items_at(scale)
    n_stages = n_threads
    rings = n_stages - 1  # ring i connects stage i -> stage i+1
    n_batches = -(-total_items // _BATCH)
    # Sync-op table: full[i] waits, empty[i] waits, empty[i] posts,
    # full[i] posts, then the stats lock's acquire and release.  Objects
    # are the empty semaphores, the full ones, then the stats lock.
    wait_full, wait_empty, post_empty, post_full = (
        k * rings for k in range(4)
    )
    acquire_stats = 4 * rings
    # Byte-granular benchmarks (dedup) move their payload a byte at a
    # time; the byte writes by different stages stamp different epochs
    # into the same 4-byte metadata groups -> hardware line expansion.
    load, store = (READB, STOREB) if spec.byte_granular else (READ, STORE)

    def cell(ring, batch, j):
        return ((ring * _RING + batch % _RING) * _BATCH + j) * _CELL

    threads = []
    for stage in range(n_stages):
        rng = _rng_for(spec, racy, seed, stage)
        words = array("q")
        for batch in range(n_batches):
            # Queue operations happen per *batch*, as real pipelines do
            # (fine-grained per-item handoff would drown in sync cost).
            if stage > 0:
                words.append(_word(SYNC, wait_full + stage - 1))
            if stage < n_stages - 1:
                words.append(_word(SYNC, wait_empty + stage))
            for j in range(_BATCH):
                if batch * _BATCH + j + 1 > total_items:
                    break
                _start_item(rng, spec, words)
                if stage > 0:
                    words.append(_word(load, cell(stage - 1, batch, j), 8))
                else:
                    words.append(ITEM)
                if stage < n_stages - 1:
                    words.append(_word(store, cell(stage, batch, j), 8))
                if racy and rng.random() < spec.race_density:
                    # Unmodified benchmark: a stats counter updated
                    # without the lock.
                    words.append(INCR)
            if stage > 0:
                words.append(_word(SYNC, post_empty + stage - 1))
            if stage < n_stages - 1:
                words.append(_word(SYNC, post_full + stage))
            if rng.random() < spec.sync_per_item:
                words.append(_word(SYNC, acquire_stats))
                words.append(INCR)
                words.append(_word(SYNC, acquire_stats + 1))
        threads.append((_compute_amount(spec, stage + 1, n_stages), words))
    full = tuple((Semaphore, (0, f"{spec.name}-full{i}")) for i in range(rings))
    empty = tuple(
        (Semaphore, (_RING, f"{spec.name}-empty{i}")) for i in range(rings)
    )
    stats_lock = 2 * rings
    return _Plans(
        regions=((rings * _RING * _BATCH * _CELL, 64), (SLOT, 8)),
        objects=empty + full + ((Lock, (f"{spec.name}-stats",)),),
        sync_ops=tuple((SemWait, rings + i) for i in range(rings))
        + tuple((SemWait, i) for i in range(rings))
        + tuple((SemPost, i) for i in range(rings))
        + tuple((SemPost, rings + i) for i in range(rings))
        + ((Acquire, stats_lock), (Release, stats_lock)),
        threads=tuple(threads),
    )


# ---------------------------------------------------------------------------
# lock_free (canneal)
# ---------------------------------------------------------------------------


def _plan_lock_free(spec, scale, racy, seed, n_threads) -> _Plans:
    items = spec.items_at(scale)
    n_slots = max(n_threads * 16, spec.slots_at(scale))
    threads = []
    for tid_index in range(n_threads):
        rng = _rng_for(spec, racy, seed, tid_index)
        words = array("q")
        hot: List[int] = []
        for _item in range(items):
            _start_item(rng, spec, words)
            for _ in range(_per_item_counts(rng, spec.shared_per_item)):
                roll = rng.random()
                is_write = 0.2 <= roll < 0.2 + spec.write_fraction
                size = _pick_size(rng, spec, is_write)
                slot = _choose_slot(rng, spec, hot, n_slots)
                offset = _slot_offset(0, slot, rng, size)
                if roll < 0.2:
                    # Lock-free swap attempt: atomic RMW on a shared
                    # element — a WAW/RAW race under CLEAN's model.
                    words.append(_word(RMW, offset, size))
                else:
                    words.append(_word(WRITE if is_write else READ, offset, size))
        threads.append((_compute_amount(spec, tid_index + 1, n_threads), words))
    return _Plans(
        regions=((n_slots * SLOT, 64),),
        objects=(),
        sync_ops=(),
        threads=tuple(threads),
    )


_PLANNERS: dict = {
    "barrier_phases": _plan_barrier_phases,
    "task_locks": _plan_task_locks,
    "pipeline": _plan_pipeline,
    "lock_free": _plan_lock_free,
}
