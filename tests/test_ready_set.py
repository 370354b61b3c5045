"""The scheduler's cached ready set equals a full rescan at every step.

The fused scheduler keeps its sorted candidate list across steps and
rebuilds it only after a step that can change it (see
``docs/runtime_semantics.md`` §3).  :class:`OracleScheduler` checks that
claim directly: before every step that reuses the cache it rescans
every thread and asserts the two lists are equal.  It runs over random
programs (Kendo on and off, random and round-robin policies, every
recovery mode), a program using every blocking primitive, and the 26
suite models.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.clean import clean_stack
from repro.runtime import (
    Acquire,
    Barrier,
    BarrierWait,
    Compute,
    CondBroadcast,
    CondSignal,
    CondWait,
    Condition,
    Join,
    Lock,
    Output,
    Program,
    RandomPolicy,
    Read,
    Release,
    RoundRobinPolicy,
    Scheduler,
    Semaphore,
    SemPost,
    SemWait,
    Spawn,
    Write,
)
from repro.workloads.kernels import build_program
from repro.workloads.randprog import make_random_program
from repro.workloads.suite import ALL_BENCHMARKS


class OracleScheduler(Scheduler):
    """Asserts, before each step, that the cached ready set is exact."""

    cached_steps = 0

    def _step(self):
        if self._ready is not None:
            fresh, _watch = self._scan()
            assert self._ready == fresh, (self._steps, self._ready, fresh)
            self.cached_steps += 1
        super()._step()


def run_checked(make_program, policy, monitors, max_threads=8, recovery=None):
    """Run a fresh program under the oracle and under a plain scheduler
    with fresh copies of the same stack; both must agree."""
    outcomes = []
    for cls in (OracleScheduler, Scheduler):
        program = make_program()
        sched = cls(
            monitors=monitors(),
            policy=policy(),
            max_threads=max_threads,
            recovery=recovery,
        )
        sched.start(program.main, *program.args)
        try:
            result = sched.run()
            outcome = (result.fingerprint(), repr(result.race))
        except TypeError as exc:
            # randprog's main sums its children's results; a quarantined
            # child joins with a sentinel instead of an int.
            outcome = repr(exc)
        outcomes.append((sched, (outcome, sched._steps, sched._sync_log)))
    (oracle, checked), (_plain, plain) = outcomes
    assert checked == plain
    return oracle


POLICIES = {
    "random": RandomPolicy,
    "round-robin": lambda seed: RoundRobinPolicy(),
}


class TestCachedReadySet:
    @settings(max_examples=150, deadline=None)
    # A rollback lowers the faulting thread's counter, so the turn can
    # move without its holder stepping: recovery must drop the cache.
    @example(
        pseed=111, sseed=60, prob=0.9, kendo=True, policy="random",
        recovery="rollback-retry",
    )
    @given(
        pseed=st.integers(0, 10_000),
        sseed=st.integers(0, 10_000),
        prob=st.sampled_from([0.0, 0.3, 0.9]),
        kendo=st.booleans(),
        policy=st.sampled_from(sorted(POLICIES)),
        recovery=st.sampled_from([None, "abort", "quarantine", "rollback-retry"]),
    )
    def test_random_programs(self, pseed, sseed, prob, kendo, policy, recovery):
        oracle = run_checked(
            lambda: make_random_program(
                pseed, n_threads=3, ops_per_thread=20, race_probability=prob
            )[0],
            lambda: POLICIES[policy](sseed),
            lambda: clean_stack(deterministic=kendo, max_threads=8)[0],
            recovery=recovery,
        )
        assert oracle.cached_steps > 0

    @pytest.mark.parametrize("kendo", [True, False])
    @pytest.mark.parametrize("seed", range(4))
    def test_every_blocking_primitive(self, kendo, seed):
        oracle = run_checked(
            lambda: Program(_primitives_main),
            lambda: RandomPolicy(seed),
            lambda: clean_stack(deterministic=kendo, max_threads=8)[0],
        )
        assert oracle.cached_steps > 0

    @pytest.mark.parametrize(
        "spec", ALL_BENCHMARKS, ids=[s.name for s in ALL_BENCHMARKS]
    )
    def test_suite_models(self, spec):
        # Racy models have a racy variant; all but canneal a race-free one.
        variants = [True] * spec.racy + [False] * (spec.style != "lock_free")
        for racy in variants:
            oracle = run_checked(
                lambda: build_program(spec, scale="test", racy=racy, seed=0),
                lambda: RandomPolicy(1),
                lambda: clean_stack(max_threads=24)[0],
                max_threads=24,
            )
            assert oracle.cached_steps > 0


def _primitives_main(ctx):
    """Locks, a barrier, a condition variable with signal and
    broadcast, and a semaphore hand-off, all in one race-free program."""
    base = ctx.alloc(64)
    lock = Lock("m")
    cond = Condition("c")
    barrier = Barrier(3, "b")
    sem = Semaphore(0, "s")

    def worker(ctx, index):
        yield Compute(index + 1)
        yield Acquire(lock)
        value = yield Read(base, 4)
        yield Write(base, 4, value + 1)
        while (yield Read(base + 8, 4)) == 0:
            yield CondWait(cond, lock)
        yield Release(lock)
        yield BarrierWait(barrier)
        yield Write(base + 16 + 8 * index, 4, index)
        yield SemPost(sem)
        return index

    kids = []
    for index in range(3):
        kids.append((yield Spawn(worker, (index,))))
    for _ in range(2):
        yield Acquire(lock)
        yield Write(base + 8, 4, 1)
        yield CondSignal(cond)
        yield CondBroadcast(cond)
        yield Release(lock)
    for _ in kids:
        yield SemWait(sem)
    total = 0
    for kid in kids:
        total += yield Join(kid)
    yield Output((yield Read(base, 4)))
    return total
