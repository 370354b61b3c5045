"""Tests for the unified access-event core.

Four groups, matching the hot-path refactor's guarantees:

1. **Stable sync keys** — per-sync vector clocks are keyed by
   :func:`~repro.core.events.stable_sync_id`, never object identity, so
   a reconstructed lock (record/replay, pickling) keeps its
   happens-before history.
2. **Binary trace format** — round trips for both on-disk formats,
   magic-byte auto-detection, and the streaming reader's equivalence to
   the in-memory one.
3. **Verdict invariance** — the fused dispatch + same-epoch-filter hot
   path raises a race exception iff the pre-refactor reference stack
   (``fused=False``, filter off) does, with identical provenance; on
   the 26 suite models the fused live lane equals the reference field
   by field.
4. **Offline analysis equivalence** — scalar and windowed batch trace
   analysis agree on every verdict, race payload and ``clean.*``
   counter total, at any window size and across clock rollovers, and
   race-free replays are counter-exact against the live run that
   recorded them.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.analysis
from repro.analysis import analyze_trace
from repro.clean import CleanMonitor, clean_stack
from repro.core import CleanDetector
from repro.core.epoch import EpochLayout
from repro.core.events import stable_sync_id
from repro.determinism.counters import PreciseCounter
from repro.experiments.traces import record_trace
from repro.hardware import SimConfig, simulate_trace
from repro.obs import MetricsRegistry
from repro.runtime import (
    READ,
    SYNC,
    WRITE,
    Lock,
    Program,
    RandomPolicy,
    StreamingTrace,
    Trace,
    TraceEvent,
    TraceRecorder,
    open_trace,
)
from repro.workloads import get_benchmark
from repro.workloads.kernels import build_program
from repro.workloads.randprog import make_random_program
from repro.workloads.suite import ALL_BENCHMARKS

MAX_THREADS = 8


# ---------------------------------------------------------------------------
# 1. Stable sync keys
# ---------------------------------------------------------------------------


class TestStableSyncId:
    def test_named_object_maps_to_its_name(self):
        assert stable_sync_id(Lock("shared")) == "shared"

    def test_two_instances_same_name_collapse(self):
        assert stable_sync_id(Lock("shared")) == stable_sync_id(Lock("shared"))

    def test_tuple_maps_elementwise(self):
        barrier_like = Lock("b1")  # anything with a .name
        assert stable_sync_id((barrier_like, 3)) == ("b1", 3)

    def test_plain_hashables_pass_through(self):
        assert stable_sync_id("lock") == "lock"
        assert stable_sync_id(17) == 17


class TestLockKeyRegression:
    """A reconstructed lock object must carry the same vector clock.

    Before the event-core refactor the detector keyed ``_lock_vcs`` by
    the lock *object*, so releasing on one ``Lock("shared")`` instance
    and acquiring on another (as replay of a persisted trace does)
    silently dropped the happens-before edge and reported a phantom
    race.
    """

    def test_edge_survives_lock_reconstruction(self):
        det = CleanDetector(max_threads=4)
        t0 = det.spawn_root()
        t1 = det.fork(t0)
        det.check_write(t0, 0x100, 8)
        det.release(t0, Lock("shared"))
        # A *different* object with the same stable name: the edge must
        # still be found, so t1's write is ordered after t0's.
        det.acquire(t1, Lock("shared"))
        det.check_write(t1, 0x100, 8)  # must not raise

    def test_identity_keying_would_have_raced(self):
        from repro.core.exceptions import WawRaceException

        det = CleanDetector(max_threads=4)
        t0 = det.spawn_root()
        t1 = det.fork(t0)
        det.check_write(t0, 0x100, 8)
        det.release(t0, Lock("shared"))
        det.acquire(t1, Lock("other"))  # genuinely different lock
        with pytest.raises(WawRaceException):
            det.check_write(t1, 0x100, 8)

    def test_one_clock_per_name_not_per_instance(self):
        det = CleanDetector(max_threads=4)
        t0 = det.spawn_root()
        det.release(t0, Lock("shared"))
        det.release(t0, Lock("shared"))
        assert list(det._lock_vcs) == ["shared"]


# ---------------------------------------------------------------------------
# 2. Binary trace format
# ---------------------------------------------------------------------------


def small_trace():
    return Trace(
        per_thread={
            1: [
                TraceEvent(WRITE, 0x1000, 8, gap=3),
                TraceEvent(SYNC, gap=1, sync_name="Release"),
                TraceEvent(READ, 0x1000, 4, private=True, gap=0),
            ],
            2: [TraceEvent(READ, 0x2000, 1, gap=7)],
        }
    )


class TestBinaryTraceRoundTrip:
    @pytest.mark.parametrize("compress", [True, False])
    def test_roundtrip(self, tmp_path, compress):
        path = tmp_path / "t.trace"
        original = small_trace()
        original.save(path, compress=compress)
        loaded = Trace.load(path)
        assert loaded.per_thread == original.per_thread

    def test_roundtrip_empty_trace(self, tmp_path):
        path = tmp_path / "empty.trace"
        Trace(per_thread={}).save(path)
        assert Trace.load(path).per_thread == {}

    def test_empty_thread_stays_visible(self, tmp_path):
        path = tmp_path / "t.trace"
        original = Trace(per_thread={3: [], 5: [TraceEvent(WRITE, 0x10, 1)]})
        original.save(path)
        loaded = Trace.load(path)
        assert loaded.thread_ids() == [3, 5]
        assert loaded.per_thread[3] == []

    def test_chunking_preserves_order(self, tmp_path):
        events = [TraceEvent(WRITE, 0x1000 + i, 1, gap=i % 5) for i in range(50)]
        path = tmp_path / "t.trace"
        Trace(per_thread={1: events}).save(path, chunk_events=7)
        assert Trace.load(path).per_thread[1] == events

    def test_extension_picks_format(self, tmp_path):
        jsonl = tmp_path / "t.jsonl"
        binary = tmp_path / "t.trace"
        small_trace().save(jsonl)
        small_trace().save(binary)
        assert jsonl.read_bytes()[:1] == b"{"
        from repro.runtime.trace import TRACE_MAGIC

        assert binary.read_bytes().startswith(TRACE_MAGIC)

    def test_magic_autodetect_ignores_extension(self, tmp_path):
        # Binary trace saved under a .jsonl-looking name still loads,
        # and a JSONL trace under a binary-looking name does too: the
        # loader trusts the magic bytes, not the file name.
        misnamed_binary = tmp_path / "renamed.jsonl"
        small_trace().save(misnamed_binary, format="binary")
        assert Trace.load(misnamed_binary).per_thread == small_trace().per_thread

        misnamed_jsonl = tmp_path / "renamed.trace"
        small_trace().save(misnamed_jsonl, format="jsonl")
        assert Trace.load(misnamed_jsonl).per_thread == small_trace().per_thread

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            small_trace().save(tmp_path / "t", format="csv")

    def test_unsupported_version_rejected(self, tmp_path):
        from repro.runtime.trace import TRACE_MAGIC

        path = tmp_path / "future.trace"
        path.write_bytes(TRACE_MAGIC + bytes([99]))
        with pytest.raises(ValueError):
            Trace.load(path)


class TestStreamingTrace:
    def test_open_trace_dispatches_by_magic(self, tmp_path):
        binary = tmp_path / "t.trace"
        jsonl = tmp_path / "t.jsonl"
        small_trace().save(binary)
        small_trace().save(jsonl)
        assert isinstance(open_trace(binary), StreamingTrace)
        assert isinstance(open_trace(jsonl), Trace)

    def test_matches_in_memory_load(self, tmp_path):
        path = tmp_path / "t.trace"
        original = small_trace()
        original.save(path, chunk_events=2)
        streaming = StreamingTrace(path)
        assert streaming.thread_ids() == original.thread_ids()
        assert streaming.total_events == original.total_events
        for tid in original.thread_ids():
            assert list(streaming.iter_events(tid)) == original.per_thread[tid]

    def test_iter_events_is_reiterable(self, tmp_path):
        path = tmp_path / "t.trace"
        small_trace().save(path)
        streaming = StreamingTrace(path)
        first = list(streaming.iter_events(1))
        second = list(streaming.iter_events(1))
        assert first == second and first

    def test_interleaved_iterators_are_independent(self, tmp_path):
        path = tmp_path / "t.trace"
        small_trace().save(path, chunk_events=1)
        streaming = StreamingTrace(path)
        it1, it2 = iter(streaming.iter_events(1)), iter(streaming.iter_events(2))
        a = next(it1)
        b = next(it2)
        assert a == small_trace().per_thread[1][0]
        assert b == small_trace().per_thread[2][0]
        assert next(it1) == small_trace().per_thread[1][1]

    def test_simulator_accepts_streaming_trace(self, tmp_path):
        from repro.experiments.traces import record_trace
        from repro.workloads import get_benchmark

        trace = record_trace(get_benchmark("swaptions"), scale="test")
        path = tmp_path / "sw.trace"
        trace.save(path)
        in_memory = simulate_trace(trace, SimConfig(detection=True))
        streamed = simulate_trace(open_trace(path), SimConfig(detection=True))
        assert streamed.cycles == in_memory.cycles


# ---------------------------------------------------------------------------
# 3. Verdict invariance of the fused + filtered hot path
# ---------------------------------------------------------------------------


def run_stack(program, sseed, fused, fastpath):
    """One CLEAN execution on either the fused or the reference stack."""
    monitors, clean, _gate = clean_stack(
        max_threads=MAX_THREADS, fastpath=fastpath
    )
    result = program.run(
        policy=RandomPolicy(sseed),
        monitors=monitors,
        max_threads=MAX_THREADS,
        counter_cost=PreciseCounter(),
        fused=fused,
    )
    return result, clean


program_seeds = st.integers(min_value=0, max_value=10_000)
schedule_seeds = st.integers(min_value=0, max_value=10_000)
race_probs = st.sampled_from([0.0, 0.2, 0.5, 0.9])


class TestVerdictInvariance:
    """The optimized hot path (fused dispatch + same-epoch filter) must
    be observationally equivalent to the pre-refactor stack: same
    race/no-race verdict on the same seeded schedule, and when a race is
    reported, identical (kind, tid, address) provenance."""

    @settings(max_examples=40, deadline=None)
    @given(pseed=program_seeds, sseed=schedule_seeds, prob=race_probs)
    def test_fused_filtered_equals_reference(self, pseed, sseed, prob):
        program, _plan = make_random_program(
            pseed, n_threads=3, ops_per_thread=10, race_probability=prob
        )
        new, _ = run_stack(program, sseed, fused=True, fastpath=True)
        old, _ = run_stack(program, sseed, fused=False, fastpath=False)
        if old.race is None:
            assert new.race is None, (
                f"fused+filtered stack raised {new.race!r} where the "
                f"reference stack completed"
            )
        else:
            assert new.race is not None, (
                f"reference stack raised {old.race!r} but the "
                f"fused+filtered stack stayed silent"
            )
            assert new.race.kind == old.race.kind
            assert new.race.accessing_tid == old.race.accessing_tid
            assert new.race.address == old.race.address
            assert new.race.prior_writer_tid == old.race.prior_writer_tid

    @settings(max_examples=20, deadline=None)
    @given(pseed=program_seeds, sseed=schedule_seeds)
    def test_filter_accounting_is_exact(self, pseed, sseed):
        """Hits + misses equals the checks the unfiltered stack runs, and
        the detector's access statistics are figure-identical."""
        program, _plan = make_random_program(
            pseed, n_threads=3, ops_per_thread=10, race_probability=0.2
        )
        on, clean_on = run_stack(program, sseed, fused=True, fastpath=True)
        off, clean_off = run_stack(program, sseed, fused=True, fastpath=False)
        assert clean_on.fastpath_enabled
        assert not clean_off.fastpath_enabled
        assert (on.race is None) == (off.race is None)
        stats_on = clean_on.detector.stats
        stats_off = clean_off.detector.stats
        assert stats_on.reads == stats_off.reads
        assert stats_on.writes == stats_off.writes

    def test_fastpath_disabled_for_metadata_mutating_backends(self):
        from repro.baselines import FastTrackDetector

        monitor = CleanMonitor(
            detector=FastTrackDetector(max_threads=4, record_only=True),
            fastpath=True,
        )
        assert not monitor.fastpath_enabled


SUITE_VARIANTS = [
    (spec.name, racy)
    for spec in ALL_BENCHMARKS
    for racy in (True, False)
    if (spec.racy if racy else spec.style != "lock_free")
]


class TestSuiteLiveLanes:
    """The fused live lane (cached ready set, inlined epoch check) equals
    the reference dispatch on every suite model, racy and race-free:
    same outcome, schedule, sync log, counters and race."""

    @pytest.mark.parametrize(
        "name,racy", SUITE_VARIANTS,
        ids=[f"{n}-{'racy' if r else 'clean'}" for n, r in SUITE_VARIANTS],
    )
    def test_fused_equals_reference(self, name, racy):
        spec = get_benchmark(name)
        for seed in range(3):
            lanes = []
            for fused in (True, False):
                monitors, clean, _gate = clean_stack(max_threads=24)
                result = build_program(spec, scale="test", racy=racy).run(
                    policy=RandomPolicy(seed),
                    monitors=monitors,
                    max_threads=24,
                    fused=fused,
                )
                race = result.race
                lanes.append((
                    result.fingerprint(),
                    result.steps,
                    result.sync_log,
                    result.det_counters,
                    None if race is None else (
                        race.kind, race.address, race.size,
                        race.accessing_tid, race.prior_writer_tid,
                        race.prior_writer_clock,
                    ),
                    clean_counters(clean),
                ))
            assert lanes[0] == lanes[1], (name, racy, seed)


# ---------------------------------------------------------------------------
# 4. Offline analysis equivalence (scalar / batch)
# ---------------------------------------------------------------------------


def record_only(program, sseed):
    """Record a trace with no detector attached.

    Offline analysis of *racy* programs needs record-only traces: a live
    detector raises before the racing access reaches the recorder, so a
    detection-recorded racy trace is truncated just short of its race.
    """
    recorder = TraceRecorder()
    program.run(
        policy=RandomPolicy(sseed),
        monitors=[recorder],
        max_threads=MAX_THREADS,
        counter_cost=PreciseCounter(),
    )
    return recorder.trace


def clean_counters(monitor):
    """The monitor's ``clean.*`` totals, as offline analysis reports them."""
    registry = MetricsRegistry()
    monitor.accumulate_metrics(registry)
    return {
        name: value
        for name, value in registry.snapshot().items()
        if isinstance(value, (int, float))
    }


RACE_KEYS = (
    "kind",
    "address",
    "size",
    "accessing_tid",
    "prior_writer_tid",
    "prior_writer_clock",
    "position",
)


def assert_same_race(left, right):
    assert (left is None) == (right is None)
    if left is not None:
        for key in RACE_KEYS:
            assert left[key] == right[key], key


class TestAnalysisEquivalence:
    """The windowed batch kernel is a drop-in equivalent of the scalar
    path: same verdict, same race payload, same ``clean.*`` counter
    totals on every trace."""

    @settings(max_examples=25, deadline=None)
    @given(pseed=program_seeds, sseed=schedule_seeds, prob=race_probs)
    def test_scalar_equals_batch(self, pseed, sseed, prob):
        program, _plan = make_random_program(
            pseed, n_threads=3, ops_per_thread=10, race_probability=prob
        )
        trace = record_only(program, sseed)
        scalar = analyze_trace(trace, mode="scalar")
        batch = analyze_trace(trace, mode="batch")
        assert scalar.racy == batch.racy
        assert_same_race(scalar.race, batch.race)
        assert scalar.counters == batch.counters
        assert (scalar.threads, scalar.events, scalar.accesses) == (
            batch.threads,
            batch.events,
            batch.accesses,
        )

    @settings(max_examples=15, deadline=None)
    @given(pseed=program_seeds, sseed=schedule_seeds)
    def test_race_free_replay_matches_live_counters(self, pseed, sseed):
        """On a race-free trace the offline replay is figure-exact: every
        ``clean.*`` counter equals the live run that recorded it."""
        program, _plan = make_random_program(
            pseed, n_threads=3, ops_per_thread=10, race_probability=0.0
        )
        monitors, clean, _gate = clean_stack(max_threads=MAX_THREADS)
        recorder = TraceRecorder()
        result = program.run(
            policy=RandomPolicy(sseed),
            monitors=monitors + [recorder],
            max_threads=MAX_THREADS,
            counter_cost=PreciseCounter(),
        )
        assert result.race is None  # race-free by construction
        for mode in ("scalar", "batch"):
            report = analyze_trace(recorder.trace, mode=mode)
            assert not report.racy
            assert report.counters == clean_counters(clean), mode

    @pytest.mark.parametrize("window", [1, 2**30])
    def test_window_size_does_not_change_the_payload(self, monkeypatch, window):
        # One window per segment and one window for the whole trace bound
        # every carry and race-stop case between them.
        monkeypatch.setattr(repro.analysis, "WINDOW", window)
        verdicts = set()
        for seed in range(8):
            for prob in (0.0, 0.9):
                program, _plan = make_random_program(
                    seed, n_threads=3, ops_per_thread=12, race_probability=prob
                )
                trace = record_only(program, seed)
                scalar = analyze_trace(trace, mode="scalar", hot_sites=4)
                batch = analyze_trace(trace, mode="batch", hot_sites=4)
                expected = dict(scalar.to_payload(), mode="batch")
                assert batch.to_payload() == expected, (seed, prob)
                verdicts.add(scalar.racy)
        assert verdicts == {False, True}

    def test_hot_sites_match_a_per_address_tally(self):
        program, _plan = make_random_program(
            3, n_threads=3, ops_per_thread=20, race_probability=0.5
        )
        trace = record_only(program, 3)
        tally = {}  # address -> [reads, writes, tids]
        for tid, events in trace.per_thread.items():
            for e in events:
                if e.kind != SYNC and not e.private:
                    entry = tally.setdefault(e.address, [0, 0, set()])
                    entry[e.kind == WRITE] += 1
                    entry[2].add(tid)
        report = analyze_trace(trace, mode="batch", hot_sites=5)
        race_addr = report.race["address"] if report.racy else None
        ranked = sorted(tally, key=lambda a: (-tally[a][0] - tally[a][1], a))
        assert report.hot_sites == [
            {
                "address": a,
                "accesses": tally[a][0] + tally[a][1],
                "reads": tally[a][0],
                "writes": tally[a][1],
                "threads": len(tally[a][2]),
                "racy": a == race_addr,
            }
            for a in ranked[:5]
        ]

    @pytest.mark.parametrize(
        "name,racy",
        [("barnes", False), ("facesim", False), ("fmm", True),
         ("water_nsquared", True)],
    )
    def test_lanes_agree_across_clock_rollovers(self, name, racy):
        # 4-bit clocks roll over every few dozen syncs: windows must close
        # before every metadata reset.
        layout = EpochLayout(clock_bits=4, tid_bits=8, reserve_expanded_bit=False)
        trace = record_trace(get_benchmark(name), scale="simsmall", racy=racy)
        scalar = analyze_trace(trace, mode="scalar", layout=layout)
        batch = analyze_trace(trace, mode="batch", layout=layout)
        assert batch.to_payload() == dict(scalar.to_payload(), mode="batch")
        if not racy:
            assert scalar.counters["clean.rollovers"] > 0

    def test_legacy_traces_are_rejected(self):
        # Pre-batch recorders left the SYNC address field zero; without
        # the global sync order replay cannot be reconstructed.
        trace = Trace(
            per_thread={0: [TraceEvent(SYNC, sync_name="Acquire:L")]}
        )
        with pytest.raises(ValueError, match="re-record"):
            analyze_trace(trace)

    @pytest.mark.parametrize("mode", ["scalar", "batch"])
    def test_join_of_an_absent_thread_is_rejected(self, tmp_path, mode):
        # Thread 1 is spawned and joined but has no events in the file.
        trace = Trace(per_thread={0: [
            TraceEvent(WRITE, 0x1000, 4),
            TraceEvent(SYNC, address=1, sync_name="Spawn:1"),
            TraceEvent(SYNC, address=2, sync_name="Join:1"),
            TraceEvent(READ, 0x1000, 4),
        ]})
        path = tmp_path / "absent.trace"
        trace.save(path)
        with pytest.raises(ValueError, match="joins thread 1"):
            analyze_trace(path, mode=mode)

    @pytest.mark.parametrize("mode", ["scalar", "batch"])
    def test_repeated_sync_order_is_rejected(self, mode):
        trace = Trace(per_thread={
            0: [TraceEvent(SYNC, address=1, sync_name="Spawn:1"),
                TraceEvent(SYNC, address=2, sync_name="Release:L")],
            1: [TraceEvent(SYNC, address=2, sync_name="Acquire:L")],
        })
        with pytest.raises(ValueError, match="repeats sync order 2"):
            analyze_trace(trace, mode=mode)

    @pytest.mark.parametrize("window", [1, 4096])
    @pytest.mark.parametrize("racy", [False, True])
    def test_window_spanning_a_huge_address_range(
        self, monkeypatch, racy, window
    ):
        # The window sorts bytes by a packed (address, replay order) key;
        # addresses 2**60 apart cannot pack into 63 bits, so the window
        # must fall back to a stable sort on addresses alone.  With one
        # segment per window, later windows read the epochs it carried.
        monkeypatch.setattr(repro.analysis, "WINDOW", window)
        low, high = 0x1000, 1 << 60
        child = [TraceEvent(READ, high, 4),
                 TraceEvent(SYNC, address=3, sync_name="Acquire:L"),
                 TraceEvent(WRITE, low, 4)]
        if not racy:  # acquire before the read instead
            child[:2] = child[1::-1]
        trace = Trace(per_thread={
            0: [TraceEvent(WRITE, low, 4), TraceEvent(WRITE, high, 8),
                TraceEvent(SYNC, address=1, sync_name="Spawn:1"),
                TraceEvent(WRITE, low + 2, 4), TraceEvent(WRITE, high, 4),
                TraceEvent(SYNC, address=2, sync_name="Release:L")],
            1: child,
        })
        scalar = analyze_trace(trace, mode="scalar", hot_sites=4)
        batch = analyze_trace(trace, mode="batch", hot_sites=4)
        assert scalar.racy == racy
        assert batch.to_payload() == dict(scalar.to_payload(), mode="batch")
