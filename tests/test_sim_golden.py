"""Golden exactness test for the trace-driven hardware simulator.

Every simulator result is pinned against ``tests/data/sim_golden.json``:
cycle counts, per-core cycles, instruction and access counts, metadata
expansions and the full ``sim.*`` metrics snapshot.  The simulator's
fast paths must reproduce the straightforward model bit for bit, so any
drift here is a bug, never a fixture refresh.

Cases cover the hardware job's distinct configurations on six suite
benchmarks at ``test`` scale, plus hand-built traces for paths the suite
never reaches (line-crossing accesses, line expansion and the wrong-guess
reload, epoch4 metadata crossing a line, two threads sharing a core, a
thread with no events).  Each hand-built trace runs both in memory and
streamed from a saved binary file, and once in memory without the warmup
pass, so the measured replay itself pays the line expansions.

Regenerate (only when the *model* deliberately changes) with::

    PYTHONPATH=src python tests/test_sim_golden.py
"""

import json
import sys
from pathlib import Path

import pytest

from repro.experiments.fig11_epochsize import FIG11_MACHINE
from repro.experiments.traces import record_trace
from repro.hardware import MulticoreSim, SimConfig
from repro.runtime.trace import READ, SYNC, WRITE, StreamingTrace, Trace, TraceEvent
from repro.workloads.suite import get_benchmark

FIXTURE = Path(__file__).parent / "data" / "sim_golden.json"

#: The distinct (machine, detection) configurations of one hw job.
CONFIGS = {
    "base": SimConfig(detection=False),
    "clean": SimConfig(detection=True),
    "precise": SimConfig(detection=True, check_unit="precise"),
    "fig11_base": SimConfig(detection=False, **FIG11_MACHINE),
    "fig11_clean": SimConfig(detection=True, **FIG11_MACHINE),
    "fig11_epoch1": SimConfig(
        detection=True, metadata_mode="epoch1", **FIG11_MACHINE
    ),
    "fig11_epoch4": SimConfig(
        detection=True, metadata_mode="epoch4", **FIG11_MACHINE
    ),
}

SUITE = ("barnes", "dedup", "fft", "lu_cb", "ocean_cp", "radix")


def _r(address, size, private=False, gap=0):
    return TraceEvent(READ, address, size, private, gap)


def _w(address, size, private=False, gap=0):
    return TraceEvent(WRITE, address, size, private, gap)


def _s(name="Acquire:L", gap=0):
    return TraceEvent(SYNC, gap=gap, sync_name=name)


def _line_cross() -> Trace:
    """Accesses spanning two data lines, shared and private."""
    base = 0x10000
    return Trace({
        1: [_w(base + 60, 8, gap=2), _s(), _r(base + 56, 16), _w(base + 62, 4),
            _r(base + 120, 16, private=True), _w(base + 60, 8)],
        2: [_r(base + 60, 8, gap=1), _w(base + 60, 8), _s(), _r(base + 62, 4),
            _w(base + 124, 8), _r(base + 60, 8)],
    })


def _expand_reload() -> Trace:
    """Sub-group writes by two threads expand a line; reads then pay the
    wrong compact-address guess."""
    base = 0x20000
    t1 = [_w(base, 1), _w(base + 5, 2, gap=3), _s(), _r(base, 4)]
    t2 = [_w(base + 1, 1), _w(base + 6, 1), _s(), _r(base, 8), _w(base + 2, 2)]
    t3 = [_r(base + 1, 1, gap=1), _r(base + 4, 4), _s(), _r(base + 8, 4),
          _w(base + 12, 4), _r(base, 16)]
    return Trace({1: t1 * 3, 2: t2 * 3, 3: t3 * 2})


def _epoch4_cross() -> Trace:
    """Accesses whose 4:1 flat metadata crosses a metadata line."""
    base = 0x30000
    return Trace({
        1: [_w(base + 12, 8), _r(base + 14, 4), _s(), _w(base + 28, 8)],
        2: [_r(base + 12, 8), _s(), _w(base + 13, 6), _r(base + 28, 8)],
    })


def _shared_core() -> Trace:
    """Main (tid 0) and worker 8 both map to core 0 of 8 cores."""
    base = 0x40000
    per_thread = {}
    for tid in range(9):
        own = base + 256 * tid
        per_thread[tid] = [
            _w(own, 4, gap=tid), _r(base, 8), _s(), _w(base + 4 * tid, 4),
            _r(own, 4, private=True), _s("Release:L"), _r(base, 64),
        ]
    return Trace(per_thread)


def _empty_thread() -> Trace:
    """A thread with no events alongside active ones."""
    base = 0x50000
    return Trace({
        0: [_s("Spawn:1"), _w(base, 8)],
        1: [_r(base, 8, gap=4), _w(base + 8, 8)],
        2: [],
    })


HAND_BUILT = {
    "line_cross": _line_cross,
    "expand_reload": _expand_reload,
    "epoch4_cross": _epoch4_cross,
    "shared_core": _shared_core,
    "empty_thread": _empty_thread,
}


def _result_record(result) -> dict:
    """The pinned view of a :class:`SimResult`, JSON round-trippable."""
    return json.loads(json.dumps({
        "cycles": result.cycles,
        "per_core_cycles": {str(k): v for k, v in result.per_core_cycles.items()},
        "instructions": result.instructions,
        "data_accesses": result.data_accesses,
        "expansions": result.expansions,
        "metrics": result.metrics,
    }))


def _streamed(trace: Trace, tmp_dir: Path, name: str) -> StreamingTrace:
    path = tmp_dir / f"{name}.trace"
    # Small chunks so replay crosses chunk boundaries mid-thread.
    trace.save(path, chunk_events=3)
    return StreamingTrace(path)


def _case_ids():
    ids = [f"{bench}/{cfg}" for bench in SUITE for cfg in CONFIGS]
    for name in HAND_BUILT:
        for source in ("memory", "streamed", "cold"):
            ids.extend(f"{name}:{source}/{cfg}" for cfg in CONFIGS)
    return ids


_SUITE_TRACES: dict = {}


def _suite_trace(bench: str) -> Trace:
    if bench not in _SUITE_TRACES:
        _SUITE_TRACES[bench] = record_trace(
            get_benchmark(bench), scale="test", seed=0
        )
    return _SUITE_TRACES[bench]


def _trace_for(case: str, tmp_dir: Path):
    source, _ = case.split("/")
    if ":" not in source:
        return _suite_trace(source)
    name, how = source.split(":")
    trace = HAND_BUILT[name]()
    return _streamed(trace, tmp_dir, name) if how == "streamed" else trace


def _simulate(case: str, tmp_dir: Path) -> dict:
    trace = _trace_for(case, tmp_dir)
    sim = MulticoreSim(CONFIGS[case.split("/")[1]])
    return _result_record(sim.run(trace, warmup=":cold/" not in case))


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(_case_ids())


@pytest.mark.parametrize("case", _case_ids())
def test_simulation_matches_golden(case, golden, tmp_path):
    assert _simulate(case, tmp_path) == golden[case]


def test_hand_built_traces_reach_their_paths(golden):
    """The hand-built cases exercise what they claim to."""
    assert golden["expand_reload:memory/clean"]["expansions"] > 0
    assert golden["expand_reload:cold/clean"]["metrics"][
        "sim.race_unit.by_class.expand"
    ] > 0
    assert golden["line_cross:memory/base"]["metrics"][
        "sim.hierarchy.accesses"
    ] > golden["line_cross:memory/base"]["data_accesses"]
    assert golden["shared_core:memory/clean"]["per_core_cycles"]["0"] > 0
    assert golden["empty_thread:memory/base"]["instructions"] > 0


def _regenerate() -> None:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        data = {case: _simulate(case, Path(tmp)) for case in _case_ids()}
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(data)} cases to {FIXTURE}", file=sys.stderr)


if __name__ == "__main__":
    _regenerate()
