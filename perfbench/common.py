"""What every workload shares: the run's settings and set-up timing."""

from __future__ import annotations

import os
import resource
import time
from dataclasses import dataclass, field
from statistics import median
from typing import Any, Callable, Dict, List, Tuple

from metrics import Tally
from spans import SpanRecorder

now = time.perf_counter

#: detector counters that must not move unless the detector's work does
DETECTOR_COUNTERS = (
    "clean.checks", "clean.same_epoch.hits", "clean.same_epoch.misses",
    "clean.shadow.loads", "clean.epoch_updates",
)


@dataclass
class Run:
    """One invocation of one workload."""

    seed: int
    seconds: float
    trace: bool
    #: fresh directory inside the checkout for this run's files
    work: str
    tally: Tally = field(default_factory=Tally)
    recorder: SpanRecorder = field(default_factory=SpanRecorder)
    #: metric name -> (value, unit): every figure measured; ``run.py``
    #: prints those ``BENCHMARK.json`` lists for this kind of run
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: sample counts and other notes printed beside the metrics
    details: Dict[str, Any] = field(default_factory=dict)

    def path(self, *parts: str) -> str:
        return os.path.join(self.work, *parts)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (value, unit)

    def window_open(self, start: float) -> bool:
        return now() - start < self.seconds


def timed_setup(run: Run, setup: Callable[[int], Any], teardown: Callable[[Any], None],
                reps: int) -> Any:
    """Run ``setup(rep)`` ``reps`` times (once when traced: set-up time
    is an end-to-end metric), record the median as ``setup_s`` and keep
    the last result; earlier ones go to ``teardown`` right away."""
    reps = 1 if run.trace else reps
    times: List[float] = []
    result = None
    for rep in range(reps):
        if result is not None:
            teardown(result)
        t0 = now()
        result = setup(rep)
        times.append(now() - t0)
    if not run.trace:
        run.metric("setup_s", median(times), "s")
    run.details["setup_s_samples"] = [round(t, 4) for t in times]
    return result


def record_peak_rss(run: Run) -> None:
    """Peak resident set of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    run.metric("peak_rss_mb", (own + children) / 1024.0, "MB")


def fsync_paths(paths: List[str]) -> None:
    """Flush set-up writes — files, then their directory — so their
    writeback cannot land in the window."""
    for path in paths:
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
