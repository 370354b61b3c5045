"""Edge-case and misuse tests across the runtime and detectors."""

import pytest

from repro.core import CleanDetector, DeadlockError, MetadataError
from repro.determinism import KendoGate
from repro.runtime import (
    Acquire,
    Barrier,
    BarrierWait,
    Compute,
    CondSignal,
    Condition,
    Join,
    Lock,
    Program,
    RandomPolicy,
    Read,
    Release,
    Spawn,
    Write,
)


class TestSchedulerMisuse:
    def test_join_nonexistent_thread_deadlocks(self):
        def main(ctx):
            yield Join(42)

        with pytest.raises(DeadlockError):
            Program(main).run()

    def test_double_join_deadlocks(self):
        def child(ctx):
            yield Compute(1)

        def main(ctx):
            kid = yield Spawn(child)
            yield Join(kid)
            yield Join(kid)  # tid already reaped

        with pytest.raises(DeadlockError):
            Program(main).run()

    def test_release_of_other_threads_lock(self):
        lock = Lock()

        def holder(ctx):
            yield Acquire(lock)
            yield Compute(10)
            yield Release(lock)

        def thief(ctx):
            yield Compute(1)
            yield Release(lock)  # does not hold it

        def main(ctx):
            a = yield Spawn(holder)
            b = yield Spawn(thief)
            yield Join(a)
            yield Join(b)

        with pytest.raises(RuntimeError, match="released"):
            Program(main).run()

    def test_signal_without_waiters_is_lost(self):
        cond = Condition()

        def main(ctx):
            yield CondSignal(cond)
            yield CondSignal(cond)
            return "done"

        assert Program(main).run().thread_results[0] == "done"

    def test_main_thread_returning_value_with_children_unjoined(self):
        """Unjoined finished children don't block program completion."""

        def child(ctx):
            yield Compute(1)
            return "orphan"

        def main(ctx):
            yield Spawn(child)
            yield Compute(10)
            return "main"

        result = Program(main).run()
        assert result.thread_results[0] == "main"

    def test_generator_exception_propagates(self):
        def main(ctx):
            yield Compute(1)
            raise ValueError("inside the program")

        with pytest.raises(ValueError, match="inside the program"):
            Program(main).run()

    def test_zero_size_read_rejected_by_memory_detector_chain(self):
        detector = CleanDetector()
        detector.spawn_root()
        with pytest.raises(ValueError):
            detector.check_write(0, 0, 0)


class TestKendoEdges:
    def test_gate_before_attach_fails_loudly(self):
        gate = KendoGate()
        with pytest.raises(AssertionError):
            gate.sync_turn()

    def test_single_thread_always_has_turn(self):
        def main(ctx):
            lock = Lock()
            for _ in range(5):
                yield Acquire(lock)
                yield Release(lock)
            return "ok"

        result = Program(main).run(monitors=[KendoGate()])
        assert result.thread_results[0] == "ok"

    def test_kendo_with_barrier_only_program(self):
        barrier = Barrier(3)

        def worker(ctx, weight):
            for _ in range(3):
                yield Compute(weight)
                yield BarrierWait(barrier)

        def main(ctx):
            kids = []
            for weight in (1, 50, 200):
                kids.append((yield Spawn(worker, (weight,))))
            for kid in kids:
                yield Join(kid)

        fingerprints = set()
        for seed in range(4):
            result = Program(main).run(
                policy=RandomPolicy(seed), monitors=[KendoGate()]
            )
            fingerprints.add(
                tuple((c.tid, c.kind) for c in result.sync_log)
            )
        assert len(fingerprints) == 1

    def test_deadlock_still_detected_under_kendo(self):
        l1, l2 = Lock("a"), Lock("b")

        def t1(ctx):
            yield Acquire(l1)
            yield Compute(5)
            yield Acquire(l2)

        def t2(ctx):
            yield Acquire(l2)
            yield Compute(5)
            yield Acquire(l1)

        def main(ctx):
            a = yield Spawn(t1)
            b = yield Spawn(t2)
            yield Join(a)
            yield Join(b)

        # Under Kendo the lock order is deterministic: either the ABBA
        # deadlock always happens or it never does; whichever way, the
        # run must terminate (deadlock -> DeadlockError).
        outcomes = set()
        for seed in range(4):
            try:
                Program(main).run(
                    policy=RandomPolicy(seed), monitors=[KendoGate()]
                )
                outcomes.add("completed")
            except DeadlockError:
                outcomes.add("deadlock")
        assert len(outcomes) == 1


class TestDetectorEdges:
    def test_operations_on_never_spawned_detector(self):
        detector = CleanDetector()
        with pytest.raises(MetadataError):
            detector.check_read(0, 0)

    def test_join_of_unknown_child(self):
        detector = CleanDetector()
        detector.spawn_root()
        with pytest.raises(MetadataError):
            detector.join(0, 5)

    def test_huge_access_spans_many_epochs(self):
        detector = CleanDetector()
        detector.spawn_root()
        detector.check_write(0, 0, 256)
        assert detector.shadow.touched_bytes == 256

    def test_interleaved_sizes_same_location(self):
        """1/2/4/8-byte accesses to overlapping ranges stay consistent."""
        detector = CleanDetector()
        detector.spawn_root()
        detector.check_write(0, 0, 8)
        detector.check_write(0, 2, 2)
        detector.check_read(0, 0, 4)
        detector.check_read(0, 7, 1)
        assert detector.stats.races_raised == 0
