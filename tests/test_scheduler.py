"""Unit tests for the cooperative runtime scheduler."""

import pytest

from repro.core.exceptions import DeadlockError
from repro.runtime import (
    Acquire,
    AtomicRMW,
    Barrier,
    BarrierWait,
    Compute,
    CondBroadcast,
    Condition,
    CondSignal,
    CondWait,
    Join,
    Lock,
    Output,
    Program,
    RandomPolicy,
    Read,
    Release,
    RoundRobinPolicy,
    ScriptedPolicy,
    Semaphore,
    SemPost,
    SemWait,
    Spawn,
    Write,
)


class TestBasics:
    def test_single_thread_read_write(self):
        def main(ctx):
            addr = ctx.alloc(8)
            yield Write(addr, 8, 0xDEADBEEF)
            value = yield Read(addr, 8)
            return value

        result = Program(main).run()
        assert result.thread_results[0] == 0xDEADBEEF

    def test_alloc_is_deterministic(self):
        def main(ctx):
            a = ctx.alloc(16)
            b = ctx.alloc(16)
            yield Output((a, b))

        r1 = Program(main).run()
        r2 = Program(main).run()
        assert r1.outputs[0] == r2.outputs[0]
        a, b = r1.outputs[0][0]
        assert b >= a + 16

    def test_little_endian_bytes(self):
        def main(ctx):
            addr = ctx.alloc(4)
            yield Write(addr, 4, 0x0A0B0C0D)
            low = yield Read(addr, 1)
            high = yield Read(addr + 3, 1)
            return (low, high)

        result = Program(main).run()
        assert result.thread_results[0] == (0x0D, 0x0A)

    def test_outputs_collected(self):
        def main(ctx):
            yield Output("a")
            yield Output("b")

        assert Program(main).run().outputs[0] == ["a", "b"]

    def test_non_op_yield_rejected(self):
        def main(ctx):
            yield 42

        with pytest.raises(TypeError):
            Program(main).run()

    def test_non_generator_thread_rejected(self):
        def main(ctx):
            return 1

        with pytest.raises(TypeError):
            Program(main).run()

    def test_step_budget(self):
        def main(ctx):
            while True:
                yield Compute(1)

        with pytest.raises(RuntimeError, match="step budget"):
            Program(main).run(max_steps=100)

    def test_atomic_rmw_returns_old(self):
        def main(ctx):
            addr = ctx.alloc(4)
            yield Write(addr, 4, 10)
            old = yield AtomicRMW(addr, 4, lambda v: v + 5)
            new = yield Read(addr, 4)
            return (old, new)

        assert Program(main).run().thread_results[0] == (10, 15)


class TestSpawnJoin:
    def test_join_returns_child_result(self):
        def child(ctx, x):
            yield Compute(1)
            return x * 2

        def main(ctx):
            kid = yield Spawn(child, (21,))
            return (yield Join(kid))

        assert Program(main).run().thread_results[0] == 42

    def test_tids_sequential(self):
        def child(ctx):
            yield Compute(1)

        def main(ctx):
            a = yield Spawn(child)
            b = yield Spawn(child)
            yield Join(a)
            yield Join(b)
            return (a, b)

        assert Program(main).run().thread_results[0] == (1, 2)

    def test_tid_reuse_after_join(self):
        def child(ctx):
            yield Compute(1)

        def main(ctx):
            a = yield Spawn(child)
            yield Join(a)
            b = yield Spawn(child)
            yield Join(b)
            return (a, b)

        a, b = Program(main).run().thread_results[0]
        assert a == b == 1

    def test_nested_spawn(self):
        def grandchild(ctx):
            yield Compute(1)
            return "gc"

        def child(ctx):
            kid = yield Spawn(grandchild)
            return (yield Join(kid))

        def main(ctx):
            kid = yield Spawn(child)
            return (yield Join(kid))

        assert Program(main).run().thread_results[0] == "gc"

    def test_thread_limit(self):
        def child(ctx):
            yield BarrierWait(Barrier(2))  # blocks forever

        def main(ctx):
            yield Spawn(child)
            yield Spawn(child)
            yield Spawn(child)

        with pytest.raises(RuntimeError, match="live threads"):
            Program(main).run(max_threads=3)


class TestLocks:
    def test_mutual_exclusion(self):
        lock = Lock("m")
        trace = []

        def worker(ctx, name):
            yield Acquire(lock)
            trace.append(("enter", name))
            yield Compute(3)
            trace.append(("exit", name))
            yield Release(lock)

        def main(ctx):
            a = yield Spawn(worker, ("a",))
            b = yield Spawn(worker, ("b",))
            yield Join(a)
            yield Join(b)

        Program(main).run(policy=RandomPolicy(3))
        # Critical sections never interleave.
        for i in range(0, len(trace), 2):
            assert trace[i][0] == "enter"
            assert trace[i + 1][0] == "exit"
            assert trace[i][1] == trace[i + 1][1]

    def test_release_unheld_lock_is_error(self):
        lock = Lock()

        def main(ctx):
            yield Release(lock)

        with pytest.raises(RuntimeError, match="released"):
            Program(main).run()

    def test_self_deadlock_detected(self):
        lock = Lock()

        def main(ctx):
            yield Acquire(lock)
            yield Acquire(lock)

        with pytest.raises(DeadlockError):
            Program(main).run()

    def test_abba_deadlock_detected(self):
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

        # With round-robin both threads grab their first lock, then hang.
        with pytest.raises(DeadlockError):
            Program(main).run(policy=RoundRobinPolicy())


class TestBarrier:
    def test_barrier_rendezvous(self):
        barrier = Barrier(3)
        order = []

        def worker(ctx, name, work):
            yield Compute(work)
            order.append(("before", name))
            yield BarrierWait(barrier)
            order.append(("after", name))

        def main(ctx):
            kids = []
            for i, work in enumerate([1, 5, 9]):
                kids.append((yield Spawn(worker, (i, work))))
            for k in kids:
                yield Join(k)

        Program(main).run(policy=RandomPolicy(7))
        befores = [i for i, e in enumerate(order) if e[0] == "before"]
        afters = [i for i, e in enumerate(order) if e[0] == "after"]
        assert max(befores) < min(afters)

    def test_barrier_reusable_across_generations(self):
        barrier = Barrier(2)
        hits = []

        def worker(ctx, name):
            for phase in range(3):
                yield BarrierWait(barrier)
                hits.append((phase, name))

        def main(ctx):
            a = yield Spawn(worker, ("a",))
            b = yield Spawn(worker, ("b",))
            yield Join(a)
            yield Join(b)

        Program(main).run(policy=RandomPolicy(11))
        assert barrier.generation == 3
        assert len(hits) == 6

    def test_single_party_barrier_never_blocks(self):
        barrier = Barrier(1)

        def main(ctx):
            yield BarrierWait(barrier)
            yield BarrierWait(barrier)
            return "done"

        assert Program(main).run().thread_results[0] == "done"


class TestConditionVariables:
    def test_producer_consumer_handshake(self):
        lock = Lock()
        cond = Condition()

        def consumer(ctx, flag_addr):
            yield Acquire(lock)
            while (yield Read(flag_addr, 1)) == 0:
                yield CondWait(cond, lock)
            value = yield Read(flag_addr + 1, 1)
            yield Release(lock)
            return value

        def main(ctx):
            flag = ctx.alloc(2)
            kid = yield Spawn(consumer, (flag,))
            yield Compute(5)
            yield Acquire(lock)
            yield Write(flag + 1, 1, 99)
            yield Write(flag, 1, 1)
            yield CondSignal(cond)
            yield Release(lock)
            return (yield Join(kid))

        for seed in range(6):
            result = Program(main).run(policy=RandomPolicy(seed))
            assert result.thread_results[0] == 99

    def test_broadcast_wakes_all(self):
        lock = Lock()
        cond = Condition()

        def waiter(ctx, flag):
            yield Acquire(lock)
            while (yield Read(flag, 1)) == 0:
                yield CondWait(cond, lock)
            yield Release(lock)
            return "woke"

        def main(ctx):
            flag = ctx.alloc(1)
            kids = []
            for _ in range(3):
                kids.append((yield Spawn(waiter, (flag,))))
            yield Compute(20)
            yield Acquire(lock)
            yield Write(flag, 1, 1)
            yield CondBroadcast(cond)
            yield Release(lock)
            results = []
            for k in kids:
                results.append((yield Join(k)))
            return results

        assert Program(main).run(policy=RandomPolicy(2)).thread_results[0] == [
            "woke",
            "woke",
            "woke",
        ]

    def test_lost_signal_without_predicate_deadlocks(self):
        lock = Lock()
        cond = Condition()

        def waiter(ctx):
            yield Acquire(lock)
            yield CondWait(cond, lock)  # no predicate: signal already gone
            yield Release(lock)

        def main(ctx):
            yield CondSignal(cond)  # fires before the waiter waits
            kid = yield Spawn(waiter)
            yield Join(kid)

        with pytest.raises(DeadlockError):
            Program(main).run(policy=ScriptedPolicy([0, 0, 0, 1, 1, 1]))


class TestSemaphores:
    def test_bounded_handoff(self):
        sem = Semaphore(0)

        def consumer(ctx, addr):
            yield SemWait(sem)
            return (yield Read(addr, 4))

        def main(ctx):
            addr = ctx.alloc(4)
            kid = yield Spawn(consumer, (addr,))
            yield Write(addr, 4, 1234)
            yield SemPost(sem)
            return (yield Join(kid))

        for seed in range(5):
            assert Program(main).run(policy=RandomPolicy(seed)).thread_results[0] == 1234

    def test_initial_value_consumed(self):
        sem = Semaphore(2)

        def main(ctx):
            yield SemWait(sem)
            yield SemWait(sem)
            return sem.value

        assert Program(main).run().thread_results[0] == 0


class TestDeterminismOfLog:
    def test_sync_log_records_commits(self):
        lock = Lock("m")

        def main(ctx):
            yield Acquire(lock)
            yield Release(lock)

        log = Program(main).run().sync_log
        assert [c.kind for c in log] == ["Acquire", "Release"]
        assert all(c.tid == 0 for c in log)

    def test_fingerprint_equal_for_identical_runs(self):
        def main(ctx):
            addr = ctx.alloc(4)
            yield Write(addr, 4, 5)
            yield Output("x")

        f1 = Program(main).run().fingerprint()
        f2 = Program(main).run().fingerprint()
        assert f1 == f2

    def test_det_counters_accumulate_costs(self):
        def main(ctx):
            yield Compute(10)
            yield Compute(5)

        result = Program(main).run()
        assert result.det_counters[0] == 15


class TestDeadlockCoverage:
    """DeadlockError fires whenever *every* live thread is blocked,
    whatever primitive mix it is blocked on — the scheduler must stop
    with a structured error, never spin or hang."""

    def test_condvar_never_signaled(self):
        lock = Lock("m")
        cond = Condition("cv")

        def waiter(ctx):
            yield Acquire(lock)
            yield CondWait(cond, lock)
            yield Release(lock)

        def main(ctx):
            kid = yield Spawn(waiter)
            yield Join(kid)  # nobody ever signals

        with pytest.raises(DeadlockError) as err:
            Program(main).run()
        assert err.value.blocked  # names the stuck tids

    def test_barrier_missing_participant(self):
        barrier = Barrier(3)  # only two threads will ever arrive

        def party(ctx):
            yield BarrierWait(barrier)

        def main(ctx):
            a = yield Spawn(party)
            b = yield Spawn(party)
            yield Join(a)
            yield Join(b)

        with pytest.raises(DeadlockError):
            Program(main).run()

    def test_mixed_lock_condvar_barrier_all_blocked(self):
        lock = Lock("m")
        cond = Condition("cv")
        barrier = Barrier(2)

        def lock_then_barrier(ctx):
            yield Acquire(lock)
            # Holds the lock forever while waiting at a barrier no one
            # else can reach.
            yield BarrierWait(barrier)
            yield Release(lock)

        def cond_waiter(ctx):
            yield Acquire(lock)  # blocks behind lock_then_barrier
            yield CondWait(cond, lock)
            yield Release(lock)

        def main(ctx):
            a = yield Spawn(lock_then_barrier)
            yield Compute(3)
            b = yield Spawn(cond_waiter)
            yield Join(a)
            yield Join(b)

        with pytest.raises(DeadlockError) as err:
            Program(main).run(policy=RoundRobinPolicy())
        # All three survivors (main included) are accounted for.
        assert len(err.value.blocked) == 3

    def test_semaphore_starvation_deadlocks(self):
        sem = Semaphore(0)

        def consumer(ctx):
            yield SemWait(sem)  # no producer exists

        def main(ctx):
            kid = yield Spawn(consumer)
            yield Join(kid)

        with pytest.raises(DeadlockError):
            Program(main).run()


class TestRandomDraws:
    """``randbelow`` and ``RandomPolicy.pick`` reproduce ``randrange``
    draw for draw, so schedules and kernel op streams stay as they were."""

    @pytest.mark.parametrize("seed", [0, 1, 31])
    def test_randbelow_matches_randrange(self, seed):
        import random

        from repro.runtime.scheduler import randbelow

        ours, ref = random.Random(seed), random.Random(seed)
        for n in list(range(1, 65)) * 20:
            assert randbelow(ours.getrandbits, n) == ref.randrange(n)
        # Same generator state afterwards, including the bit drawn for n=1.
        assert ours.random() == ref.random()

    def test_pick_matches_randrange(self):
        import random

        policy, ref = RandomPolicy(5), random.Random(5)
        for n in list(range(1, 65)) * 20:
            candidates = list(range(100, 100 + n))
            assert policy.pick(candidates, 0) == candidates[ref.randrange(n)]
