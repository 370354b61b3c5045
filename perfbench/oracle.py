"""Known answers for race verdicts.

A trace's expected verdict is its variant's label (racy or race-free).
A seeded racy variant sometimes records no race — at ``simsmall`` about
one trace in a hundred — so the label alone is not a known answer.
Where a verdict disagrees with the label, the answer is decided by the
vector-clock reference detector (``repro.baselines.vcdetector``: all
three race kinds, no false positives or negatives) run over the same
program, scale, seed and round-robin schedule the recorder used.  The
expected verdict is racy iff it reports a WAW or RAW race.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.baselines.vcdetector import VcRaceDetector
from repro.clean import CleanMonitor
from repro.core.exceptions import WarRaceException
from repro.runtime.scheduler import RoundRobinPolicy
from repro.workloads.kernels import build_program
from repro.workloads.suite import get_benchmark

#: thread bound the trace recorder runs with
MAX_THREADS = 16


def reference_racy(name: str, scale: str, seed: int, racy_variant: bool) -> bool:
    """Does the recorded interleaving hold a WAW or RAW race?"""
    detector = VcRaceDetector(max_threads=MAX_THREADS, record_only=True)
    monitor = CleanMonitor(detector=detector, max_threads=MAX_THREADS)
    program = build_program(get_benchmark(name), scale=scale, racy=racy_variant,
                            seed=seed)
    program.run(policy=RoundRobinPolicy(), monitors=[monitor],
                max_threads=MAX_THREADS, raise_on_race=False)
    return any(not isinstance(r, WarRaceException) for r in detector.reported)


class Answers:
    """Expected verdicts, asking the reference detector only when a
    verdict disagrees with the label (each trace at most once)."""

    def __init__(self, scale: str) -> None:
        self.scale = scale
        self._reference: Dict[Tuple[str, int, bool], bool] = {}

    def expected_racy(self, name: str, seed: int, racy_variant: bool,
                      verdict_racy: bool) -> bool:
        if verdict_racy == racy_variant:
            return racy_variant
        key = (name, seed, racy_variant)
        if key not in self._reference:
            self._reference[key] = reference_racy(name, self.scale, seed,
                                                  racy_variant)
        return self._reference[key]

    def relabelled(self) -> List[str]:
        """Traces whose reference answer differs from their label."""
        return [
            f"{name}/seed{seed}/{'racy' if racy else 'clean'}"
            for (name, seed, racy), answer in sorted(self._reference.items())
            if answer != racy
        ]
