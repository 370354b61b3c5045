"""Tests for Kendo deterministic synchronization."""

import pytest

from repro.determinism import InstrumentedCounter, KendoGate, PreciseCounter
from repro.runtime import (
    Acquire,
    Compute,
    Join,
    Lock,
    Output,
    Program,
    RandomPolicy,
    Read,
    Release,
    RoundRobinPolicy,
    Spawn,
    Write,
)


def counting_program(n_threads=4, iters=3):
    """Threads of very different speeds contend on one lock-protected
    counter; without deterministic synchronization the increments
    interleave differently across schedules."""
    lock = Lock("counter")

    def worker(ctx, addr, speed, name):
        for _ in range(iters):
            yield Compute(speed)
            yield Acquire(lock)
            value = yield Read(addr, 4)
            yield Write(addr, 4, value + 1)
            yield Output((name, value))
            yield Release(lock)

    def main(ctx):
        addr = ctx.alloc(4)
        kids = []
        for i in range(n_threads):
            kids.append((yield Spawn(worker, (addr, (i + 1) * 7, i))))
        for kid in kids:
            yield Join(kid)
        return (yield Read(addr, 4))

    return main


class TestKendoDeterminism:
    def test_sync_order_identical_across_seeds(self):
        logs = set()
        for seed in range(8):
            result = Program(counting_program()).run(
                policy=RandomPolicy(seed), monitors=[KendoGate()]
            )
            logs.add(tuple((c.tid, c.kind, c.target) for c in result.sync_log))
        assert len(logs) == 1

    def test_fingerprints_identical_across_policies(self):
        fingerprints = set()
        policies = [RoundRobinPolicy()] + [RandomPolicy(s) for s in range(6)]
        for policy in policies:
            result = Program(counting_program()).run(
                policy=policy, monitors=[KendoGate()]
            )
            fingerprints.add(result.fingerprint())
        assert len(fingerprints) == 1

    def test_without_kendo_order_varies(self):
        logs = set()
        for seed in range(12):
            result = Program(counting_program()).run(policy=RandomPolicy(seed))
            logs.add(tuple((c.tid, c.kind) for c in result.sync_log))
        assert len(logs) > 1, "expected nondeterministic sync order without Kendo"

    def test_final_value_correct_under_kendo(self):
        result = Program(counting_program(n_threads=4, iters=3)).run(
            policy=RandomPolicy(1), monitors=[KendoGate()]
        )
        assert result.thread_results[0] == 12

    def test_gate_vetoes_happen(self):
        # Counted per sync op, not per consultation, so the totals do
        # not depend on how often the scheduler rescans: the reference
        # dispatch (fused=False) rescans every step and agrees.
        for fused in (True, False):
            gate = KendoGate()
            result = Program(counting_program()).run(
                policy=RandomPolicy(5), monitors=[gate], fused=fused
            )
            assert gate.admitted == len(result.sync_log) == 32
            assert gate.vetoed == 27

    def test_spawn_order_deterministic(self):
        def child(ctx, name):
            yield Output(name)

        def main(ctx):
            kids = []
            for i in range(5):
                kids.append((yield Spawn(child, (i,))))
            for kid in kids:
                yield Join(kid)
            return tuple(kids)

        tids = set()
        for seed in range(5):
            result = Program(main).run(
                policy=RandomPolicy(seed), monitors=[KendoGate()]
            )
            tids.add(result.thread_results[0])
        assert len(tids) == 1

    def test_pump_resolves_contention_not_deadlock(self):
        """A thread whose turn it is but whose lock is held must not jam
        the system: the pump bumps it past the holder (Kendo's
        wait-with-increment)."""
        lock = Lock()

        def slow_holder(ctx):
            yield Acquire(lock)
            yield Compute(1000)
            yield Release(lock)

        def fast_contender(ctx):
            yield Compute(1)
            yield Acquire(lock)
            yield Release(lock)

        def main(ctx):
            a = yield Spawn(slow_holder)
            b = yield Spawn(fast_contender)
            yield Join(a)
            yield Join(b)
            return "ok"

        for seed in range(6):
            result = Program(main).run(
                policy=RandomPolicy(seed), monitors=[KendoGate()]
            )
            assert result.thread_results[0] == "ok"


class TestCounterModels:
    def test_precise_counts_everything(self):
        model = PreciseCounter()

        def main(ctx):
            yield Compute(3)
            yield Compute(100)

        result = Program(main).run(counter_cost=model)
        assert result.det_counters[0] == 103

    def test_instrumented_skips_small_blocks(self):
        model = InstrumentedCounter(cutoff=10)

        def main(ctx):
            yield Compute(3)    # below cutoff: skipped
            yield Compute(100)  # counted

        result = Program(main).run(counter_cost=model)
        assert result.det_counters[0] == 100
        assert model.skipped == 3

    def test_instrumented_still_counts_memory_ops(self):
        model = InstrumentedCounter(cutoff=10)

        def main(ctx):
            addr = ctx.alloc(4)
            yield Write(addr, 4, 1)
            yield Read(addr, 4)

        result = Program(main).run(counter_cost=model)
        assert result.det_counters[0] == 2

    def test_negative_cutoff_rejected(self):
        with pytest.raises(ValueError):
            InstrumentedCounter(cutoff=-1)

    def test_imprecise_counters_still_deterministic(self):
        """Counter imprecision slows Kendo down but must not break
        determinism (Section 6.2.3)."""
        fingerprints = set()
        for seed in range(6):
            result = Program(counting_program()).run(
                policy=RandomPolicy(seed),
                monitors=[KendoGate()],
                counter_cost=InstrumentedCounter(cutoff=10),
            )
            fingerprints.add(result.fingerprint())
        assert len(fingerprints) == 1
