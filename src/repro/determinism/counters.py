"""Deterministic-counter models: how thread progress is measured.

The paper's software implementation advances deterministic counters by
compiler instrumentation, counting only basic blocks whose instruction
count exceeds a cutoff (Section 6.2.1).  This keeps instrumentation
overhead down but makes the counters an *imprecise* reflection of real
progress — threads doing much fine-grained work appear slower than they
are, which inflates the waiting of deterministic synchronization (the
paper names dedup, ferret and vips as the benchmarks this hurts).

A counter model is a callable usable as the scheduler's ``counter_cost``;
it maps each completed operation to its counter contribution.
"""

from __future__ import annotations

from ..runtime.ops import Compute, Op

__all__ = ["PreciseCounter", "InstrumentedCounter"]


class PreciseCounter:
    """Every operation contributes its full cost (hardware counters)."""

    def __call__(self, op: object) -> int:
        return op.cost


class InstrumentedCounter:
    """Basic-block instrumentation with a cutoff (software counters).

    ``Compute`` operations model basic blocks; blocks shorter than
    ``cutoff`` are not instrumented and contribute nothing, making the
    counter an under-estimate of real progress.  Memory and sync
    operations always contribute (the instrumentation the detector
    inserts doubles as a counter update).

    ``skipped`` accumulates the uncounted work, which the software cost
    model turns into extra deterministic-wait time.
    """

    def __init__(self, cutoff: int = 8) -> None:
        if cutoff < 0:
            raise ValueError("cutoff must be non-negative")
        self.cutoff = cutoff
        self.skipped = 0

    def __call__(self, op: object) -> int:
        if isinstance(op, Compute) and op.amount < self.cutoff:
            self.skipped += op.amount
            return 0
        return getattr(op, "cost", 0)
