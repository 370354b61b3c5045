"""Golden exactness test for offline trace analysis.

The full ``AnalysisReport.to_payload()`` of both lanes — verdict, race
payload with its position, hot sites and every ``clean.*`` counter — is
pinned against ``tests/data/analysis_golden.json``.  The replay's fast
paths must reproduce these payloads bit for bit, so any drift here is a
bug, never a fixture refresh.

Cases:

* ``suite/*`` — the race-free and racy variants of every suite model at
  ``simsmall``, seed 2;
* ``rollover/*`` — sync-dense models under a 4-bit-clock layout, so the
  replay crosses many metadata resets;
* ``primitives/*`` — a program using every blocking primitive (locks,
  a barrier, condition wait/signal/broadcast, a semaphore) under
  several schedules.  Suite traces never emit the condition-variable
  descriptors, so these are their only analysis coverage; each one's
  offline counters must also equal the live run that recorded it.

Regenerate (only when the *analysis* deliberately changes) with::

    PYTHONPATH=src python tests/test_analysis_golden.py
"""

import json
import sys
from functools import lru_cache
from pathlib import Path

import pytest

from repro.analysis import analyze_trace
from repro.clean import clean_stack
from repro.core.epoch import EpochLayout
from repro.determinism.counters import PreciseCounter
from repro.experiments.traces import record_trace
from repro.obs import MetricsRegistry
from repro.runtime import Program, RandomPolicy, TraceRecorder
from repro.workloads.suite import (
    RACE_FREE_VARIANTS,
    RACY_BENCHMARKS,
    get_benchmark,
)

# Run as a script (to regenerate), the repository root is not on the path.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from tests.test_ready_set import _primitives_main  # noqa: E402

FIXTURE = Path(__file__).parent / "data" / "analysis_golden.json"

SCALE = "simsmall"
SEED = 2
HOT_SITES = 8
ROLLOVER_LAYOUT = EpochLayout(
    clock_bits=4, tid_bits=8, reserve_expanded_bit=False
)
ROLLOVER = ("fluidanimate", "radiosity", "facesim", "barnes")
PRIMITIVE_SEEDS = range(6)
MAX_THREADS = 8


def _case_ids():
    ids = [f"suite/{name}.clean" for name in RACE_FREE_VARIANTS]
    ids += [f"suite/{name}.racy" for name in RACY_BENCHMARKS]
    ids += [f"rollover/{name}" for name in ROLLOVER]
    ids += [f"primitives/{seed}" for seed in PRIMITIVE_SEEDS]
    return ids


@lru_cache(maxsize=None)
def _suite_trace(name: str, racy: bool):
    return record_trace(get_benchmark(name), scale=SCALE, seed=SEED, racy=racy)


def _live_counters(monitor) -> dict:
    registry = MetricsRegistry()
    monitor.accumulate_metrics(registry)
    return {
        name: value
        for name, value in registry.snapshot().items()
        if isinstance(value, (int, float))
    }


def _primitives(seed: int):
    """Record ``_primitives_main`` live; returns (trace, live counters)."""
    monitors, clean, _gate = clean_stack(max_threads=MAX_THREADS)
    recorder = TraceRecorder()
    result = Program(_primitives_main).run(
        policy=RandomPolicy(seed),
        monitors=monitors + [recorder],
        max_threads=MAX_THREADS,
        counter_cost=PreciseCounter(),
    )
    assert result.race is None
    return recorder.trace, _live_counters(clean)


def _analyze(case: str) -> dict:
    """``{lane: payload}`` for one case, checking live counters where
    the case has a live run."""
    group, _, name = case.partition("/")
    layout = ROLLOVER_LAYOUT if group == "rollover" else None
    live = None
    if group == "suite":
        bench, _, variant = name.partition(".")
        trace = _suite_trace(bench, variant == "racy")
    elif group == "rollover":
        trace = _suite_trace(name, False)
    else:
        trace, live = _primitives(int(name))
    kwargs = {"layout": layout} if layout is not None else {}
    out = {}
    for mode in ("scalar", "batch"):
        report = analyze_trace(trace, mode=mode, hot_sites=HOT_SITES, **kwargs)
        if live is not None:
            assert report.counters == live, (case, mode)
        out[mode] = report.to_payload()
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(_case_ids())


@pytest.mark.parametrize("case", _case_ids())
def test_analysis_matches_golden(case, golden):
    assert _analyze(case) == golden[case]


def test_cases_reach_their_paths(golden):
    """The fixture exercises what it claims: races in both lanes, clock
    rollovers, and every condition-variable descriptor."""
    racy = [c for c in golden if golden[c]["batch"]["racy"]]
    assert len(racy) >= len(RACY_BENCHMARKS) // 2
    assert all(golden[c]["batch"]["race"]["position"] is not None
               for c in racy)
    for name in ROLLOVER:
        counters = golden[f"rollover/{name}"]["batch"]["counters"]
        assert counters["clean.rollovers"] > 0
    trace, _live = _primitives(0)
    kinds = {
        e.sync_name.partition(":")[0]
        for events in trace.per_thread.values()
        for e in events
        if e.sync_name
    }
    assert {"CondWait", "CondWake", "CondSignal", "CondBroadcast"} <= kinds


def _regenerate() -> None:
    data = {case: _analyze(case) for case in _case_ids()}
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    with FIXTURE.open("w") as fh:
        fh.write("{\n")
        for i, case in enumerate(sorted(data)):
            sep = "," if i + 1 < len(data) else ""
            line = json.dumps(
                data[case], sort_keys=True, separators=(",", ":")
            )
            fh.write(f"{json.dumps(case)}:{line}{sep}\n")
        fh.write("}\n")
    print(f"wrote {len(data)} cases to {FIXTURE}", file=sys.stderr)


if __name__ == "__main__":
    _regenerate()
