"""``analyze-suite``: offline analysis of the 26 paper workloads.

Set-up records, from every modelled benchmark at ``native`` scale, the
race-free variant (25; canneal has none) and the racy variant (17) at
the workload seed, to fresh trace files.  The window then alternates two passes until it
closes:

* a **batch** pass: ``analyze_trace(path, mode="batch", hot_sites=8)``
  over every trace, as the service calls it;
* a **scalar** pass over the 25 race-free traces, the reference lane.

Known answers: every verdict is the expected one (its variant's label,
or the reference detector's where the two disagree; see ``oracle``),
every batch pass reproduces the first pass's counters, and scalar
counters equal batch counters trace by trace.  Racy traces stop at the first race, so
their time is decode and plan building more than replay.

Traced runs alternate an untraced round with a batch pass whose trace
decode, ``CleanMonitor.check_block`` and synchronization hooks are
wrapped in spans.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from statistics import median
from typing import Dict, List

from common import (DETECTOR_COUNTERS, Run, fsync_paths, now, record_peak_rss,
                    timed_setup)
from metrics import geomean, percentile, self_times
from oracle import Answers

from repro.analysis import analyze_trace
from repro.clean import CleanMonitor
from repro.experiments.traces import record_trace_file
from repro.runtime.trace import StreamingTrace
from repro.workloads.suite import RACE_FREE_VARIANTS, RACY_BENCHMARKS

SCALE = "native"
HOT_SITES = 8
SETUP_REPS = 2
#: blocks with fewer accesses than this count as short
SHORT_BLOCK = 16
#: the synchronization hooks the offline replay drives
SYNC_HOOKS = (
    "on_thread_start", "on_spawn", "on_join", "on_acquire", "on_release",
    "on_barrier_arrive", "on_barrier_depart", "on_cond_signal",
    "on_cond_wake", "on_sem_post", "on_sem_wait", "on_sync_commit",
)


@dataclass
class Case:
    name: str
    racy: bool
    path: str = ""

    @property
    def key(self) -> str:
        return f"{self.name}.{'racy' if self.racy else 'clean'}"


@dataclass
class Pass:
    wall: float
    #: trace key -> its analysis time in this pass
    seconds: Dict[str, float]
    accesses: Dict[str, int]
    counters: Dict[str, float]
    position_missing: int


def _setup(run: Run, rep: int) -> List[Case]:
    out = run.path(f"traces-{rep}")
    os.makedirs(out)
    cases = [Case(n, False) for n in RACE_FREE_VARIANTS]
    cases += [Case(n, True) for n in RACY_BENCHMARKS]
    for case in cases:
        case.path = os.path.join(out, case.key + ".trace")
        record_trace_file(case.name, case.path, scale=SCALE, seed=run.seed,
                          racy=case.racy)
    fsync_paths([c.path for c in cases] + [out])
    return cases


def _analyze(run: Run, case: Case, mode: str, reference: Dict[str, dict],
             checks: list, traced: bool):
    """One analysis; returns (seconds, report), or None when it crashed.
    Its known-answer check goes to ``checks``, settled after the window."""
    span = run.recorder.begin("analyze_trace", case.key, mode=mode) if traced else None
    t0 = now()
    try:
        report = analyze_trace(case.path, mode=mode, hot_sites=HOT_SITES)
    except Exception as exc:  # a crash is a failed operation, not an abort
        run.tally.check(False, f"{mode} {case.key}: {exc!r}")
        return None
    finally:
        if span is not None:
            run.recorder.end(span)
    seconds = now() - t0
    expected = reference.get(case.key)
    if expected is None and mode == "batch":
        expected = reference[case.key] = dict(report.counters)
    # scalar without batch counters to compare with fails the check
    checks.append((mode, case, report.racy, report.counters == expected))
    return seconds, report


def _settle(run: Run, checks: list) -> None:
    """Tally every analysis against its known answer (see ``oracle``)."""
    answers = Answers(SCALE)
    for mode, case, racy, counters_ok in checks:
        expected = answers.expected_racy(case.name, run.seed, case.racy, racy)
        run.tally.check(racy == expected and counters_ok,
                        f"{mode} {case.key}: racy={racy}, expected={expected}, "
                        f"counters match={counters_ok}")
    run.details["relabelled"] = answers.relabelled()


def _pass(run: Run, cases: List[Case], mode: str, reference: Dict[str, dict],
          checks: list, traced: bool = False) -> Pass:
    t0 = now()
    result = Pass(0.0, {}, {}, {name: 0.0 for name in DETECTOR_COUNTERS}, 0)
    for case in cases:
        if mode == "scalar" and case.racy:
            continue
        out = _analyze(run, case, mode, reference, checks, traced)
        if out is None:
            continue
        seconds, report = out
        result.seconds[case.key] = seconds
        result.accesses[case.key] = report.accesses
        for name in DETECTOR_COUNTERS:
            result.counters[name] += report.counters.get(name, 0)
        if report.racy and report.race.get("position") is None:
            result.position_missing += 1
    result.wall = now() - t0
    return result


def _median_seconds(passes: List[Pass]) -> Dict[str, float]:
    """Each trace's median analysis time over the passes: robust to a
    pause landing in one pass, where a per-pass sum is not."""
    samples: Dict[str, List[float]] = {}
    for p in passes:
        for key, seconds in p.seconds.items():
            samples.setdefault(key, []).append(seconds)
    return {key: median(values) for key, values in samples.items()}


def _accesses(passes: List[Pass]) -> Dict[str, int]:
    accesses: Dict[str, int] = {}
    for p in passes:
        accesses.update(p.accesses)
    return accesses


def _rate(seconds: Dict[str, float], accesses: Dict[str, int],
          keys: List[str]) -> float:
    """Accesses over analysis time, summed over ``keys``."""
    keys = [k for k in keys if k in seconds]
    return sum(accesses[k] for k in keys) / sum(seconds[k] for k in keys)


def _install(run: Run) -> None:
    rec = run.recorder
    rec.wrap_generator(StreamingTrace, "iter_chunks", "trace.iter_chunks")
    rec.wrap(CleanMonitor, "check_block", "check_block",
             attrs=lambda self, tid, block, *a, **k: {"accesses": len(block[1])})
    for hook in SYNC_HOOKS:
        rec.wrap(CleanMonitor, hook, "sync." + hook)


def _layer_metrics(spans: list) -> Dict[str, float]:
    selfs = self_times((s.id, s.parent, s.start, s.end) for s in spans)
    blocks = [s for s in spans if s.name == "check_block"]
    sizes = [s.attrs["accesses"] for s in blocks]
    hooks = [s for s in spans if s.name.startswith("sync.")]
    hook_ids = {s.id for s in hooks}
    return {
        "trace.decode_s": sum(s.attrs["busy"] for s in spans
                              if s.name == "trace.iter_chunks"),
        "analysis.check_block_s": sum(s.duration for s in blocks),
        "analysis.check_block_calls": len(blocks),
        "analysis.accesses_per_block_p50": percentile(sizes, 50) if sizes else 0,
        "analysis.short_block_share": (
            sum(1 for n in sizes if n < SHORT_BLOCK) / len(sizes) if sizes else 0
        ),
        "analysis.sync_apply_s": sum(
            s.duration for s in hooks if s.parent not in hook_ids
        ),
        "analysis.sync_hooks": len(hooks),
        "analysis.other_s": sum(
            selfs[s.id] for s in spans if s.name == "analyze_trace"
        ),
    }


LAYER_UNITS = {
    "trace.decode_s": "s",
    "analysis.check_block_s": "s",
    "analysis.check_block_calls": "count",
    "analysis.accesses_per_block_p50": "count",
    "analysis.short_block_share": "ratio",
    "analysis.sync_apply_s": "s",
    "analysis.sync_hooks": "count",
    "analysis.other_s": "s",
}


def run_workload(run: Run) -> None:
    cases = timed_setup(run, lambda rep: _setup(run, rep), lambda _c: None,
                        SETUP_REPS)
    run.details["traces"] = len(cases)
    reference: Dict[str, dict] = {}
    checks: list = []
    batch: List[Pass] = []
    scalar: List[Pass] = []
    traced: List[Pass] = []
    layers: List[Dict[str, float]] = []
    start = now()
    while True:
        batch.append(_pass(run, cases, "batch", reference, checks))
        scalar.append(_pass(run, cases, "scalar", reference, checks))
        if run.trace:
            mark = len(run.recorder.spans)
            _install(run)
            try:
                traced.append(_pass(run, cases, "batch", reference, checks,
                                    traced=True))
            finally:
                run.recorder.restore()
            layers.append(_layer_metrics(run.recorder.spans[mark:]))
            if len(traced) > 1:  # keep (and write) the first pass's spans only
                del run.recorder.spans[mark:]
        if not run.window_open(start):
            break
    _settle(run, checks)
    run.details["batch_passes"] = len(batch)
    run.details["scalar_passes"] = len(scalar)
    clean = [c.key for c in cases if not c.racy]
    racy = [c.key for c in cases if c.racy]
    seconds, accesses = _median_seconds(batch), _accesses(batch)
    run.details["accesses_per_pass"] = sum(accesses[k] for k in clean if k in accesses)
    run.metric("throughput_per_s", _rate(seconds, accesses, clean), "1/s")
    run.metric("analyze.geomean_accesses_per_s", geomean(
        [accesses[k] / seconds[k] for k in clean if k in seconds]
    ), "1/s")
    run.metric("analyze.racy_verdict_s",
               sum(seconds[k] for k in racy if k in seconds), "s")
    run.metric("analyze.scalar_accesses_per_s",
               _rate(_median_seconds(scalar), accesses, clean), "1/s")
    if not run.trace:
        record_peak_rss(run)
        return
    run.details["traced_passes"] = len(traced)
    for name, unit in LAYER_UNITS.items():
        run.metric(name, median([m[name] for m in layers]), unit)
    for name in DETECTOR_COUNTERS:
        run.metric(name, traced[0].counters[name], "count")
    run.metric("analysis.race_position_missing", traced[0].position_missing,
               "count")
    run.metric("trace_overhead_share",
               median([p.wall for p in traced]) / median([p.wall for p in batch]),
               "ratio")
