"""Golden exactness test for live execution on the cooperative runtime.

Every live run the report makes is pinned against
``tests/data/live_golden.json``:

* Section 6.2.2: all 42 suite variants (17 racy, 25 race-free) under
  schedule seeds 0-9 at ``simsmall``, each built and run exactly as
  ``sec62_detection`` does.  Per run: a digest of the fingerprint,
  steps, a digest of the full ``sync_log`` (index, tid, kind, target,
  counter), the final deterministic counters, the race fields and the
  run's ``clean.*`` counters.
* Table 1: the ``SwCleanRun`` fields of the narrow- and wide-clock runs
  of the five models that roll over, at the report's ``simlarge``.

Live runs are deterministic functions of their inputs, so the runtime's
fast paths (kernel plans, schedule picks, the step path) must reproduce
these bit for bit.  Any drift is a bug, never a fixture refresh.

Regenerate (only when a *kernel or the runtime semantics* deliberately
change) with::

    PYTHONPATH=src python tests/test_live_golden.py
"""

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.clean import run_clean
from repro.experiments.sec62_detection import _run_once
from repro.experiments.table1_rollover import NARROW_LAYOUT, PAPER_ROSTER, WIDE_LAYOUT
from repro.obs.context import telemetry_scope
from repro.runtime.scheduler import RandomPolicy
from repro.swclean.runner import run_software_clean
from repro.workloads.kernels import build_program
from repro.workloads.suite import ALL_BENCHMARKS, get_benchmark

FIXTURE = Path(__file__).parent / "data" / "live_golden.json"

SEC62_SCALE = "simsmall"
SEC62_SEEDS = range(10)
TABLE1_SCALE = "simlarge"

#: Every suite variant: (benchmark, racy).
VARIANTS = [(s.name, True) for s in ALL_BENCHMARKS if s.racy] + [
    (s.name, False) for s in ALL_BENCHMARKS if s.style != "lock_free"
]


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:24]


def _race_fields(race):
    if race is None:
        return None
    return [race.kind, race.address, race.accessing_tid,
            race.prior_writer_tid, race.prior_writer_clock, race.size,
            race.region_id]


def summarize(result, registry) -> dict:
    """The pinned view of one live run."""
    clean = registry.snapshot()
    return {
        "fingerprint": _digest(result.fingerprint()),
        "steps": result.steps,
        "sync_log": [len(result.sync_log), _digest(
            [(c.index, c.tid, c.kind, c.target, c.counter)
             for c in result.sync_log])],
        "det_counters": sorted(result.det_counters.items()),
        "race": _race_fields(result.race),
        "clean": sorted(
            (k, v) for k, v in clean.items() if k.startswith("clean.")
        ),
    }


def sec62_case(name: str, racy: bool, seed: int) -> dict:
    with telemetry_scope() as ctx:
        result = _run_once(get_benchmark(name), SEC62_SCALE, racy, seed)
        return summarize(result, ctx.registry)


def table1_case(name: str) -> dict:
    out = {}
    for label, layout in (("narrow", NARROW_LAYOUT), ("wide", WIDE_LAYOUT)):
        run = run_software_clean(
            get_benchmark(name), scale=TABLE1_SCALE, seed=0, layout=layout,
            rollover_slack=4,
        )
        fields = {
            f.name: getattr(run, f.name)
            for f in dataclasses.fields(run) if f.name not in ("stats", "result")
        }
        fields["stats"] = dataclasses.asdict(run.stats)
        fields["fingerprint"] = _digest(run.result.fingerprint())
        fields["steps"] = run.result.steps
        out[label] = fields
    return out


def _key(name: str, racy: bool) -> str:
    return f"{name}/{'racy' if racy else 'racefree'}"


def _normalize(value):
    """JSON round trip, so computed values compare like loaded ones."""
    return json.loads(json.dumps(value))


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("name,racy", VARIANTS, ids=[_key(*v) for v in VARIANTS])
def test_sec62_runs_match_golden(golden, name, racy):
    expected = golden["sec62"][_key(name, racy)]
    for seed in SEC62_SEEDS:
        got = _normalize(sec62_case(name, racy, seed))
        assert got == expected[seed], f"{_key(name, racy)} seed {seed}"


@pytest.mark.parametrize("name,racy", VARIANTS, ids=[_key(*v) for v in VARIANTS])
def test_one_build_reruns_like_fresh_builds(golden, name, racy):
    """``Program.run`` promises independent runs: one built program run
    under several schedule seeds equals a fresh build per seed (the
    fixture's runs), so no run inherits another's sync-object state."""
    program = build_program(get_benchmark(name), SEC62_SCALE, racy=racy)
    expected = golden["sec62"][_key(name, racy)]
    for seed in range(4):
        with telemetry_scope() as ctx:
            result = run_clean(
                program, policy=RandomPolicy(seed), max_threads=24
            )
            got = _normalize(summarize(result, ctx.registry))
        assert got == expected[seed], f"{_key(name, racy)} seed {seed}"


@pytest.mark.parametrize("name", PAPER_ROSTER)
def test_table1_runs_match_golden(golden, name):
    assert _normalize(table1_case(name)) == golden["table1"][name]


def test_fixture_covers_every_variant(golden):
    assert len(VARIANTS) == 42
    assert sorted(golden["sec62"]) == sorted(_key(*v) for v in VARIANTS)
    racy = [k for k, runs in golden["sec62"].items() if k.endswith("/racy")]
    # The unmodified benchmarks always stop (Section 6.2.2).
    assert all(
        run["race"] is not None for k in racy for run in golden["sec62"][k]
    )


def _generate() -> dict:
    return {
        "sec62": {
            _key(name, racy): [sec62_case(name, racy, s) for s in SEC62_SEEDS]
            for name, racy in VARIANTS
        },
        "table1": {name: table1_case(name) for name in PAPER_ROSTER},
    }


def _dump(golden: dict) -> str:
    """One line per pinned run, so a drift diffs to the runs it hit."""
    compact = dict(sort_keys=True, separators=(",", ":"))
    lines = ['{"sec62": {']
    for i, (key, runs) in enumerate(sorted(golden["sec62"].items())):
        lines.append(f" {json.dumps(key)}: [")
        lines.append(",\n".join("  " + json.dumps(r, **compact) for r in runs))
        lines.append(" ]," if i < len(golden["sec62"]) - 1 else " ]")
    lines.append('}, "table1": {')
    rows = sorted(golden["table1"].items())
    lines.append(",\n".join(
        f" {json.dumps(k)}: {json.dumps(v, **compact)}" for k, v in rows
    ))
    lines.append("}}")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    FIXTURE.write_text(_dump(_generate()))
    print(f"wrote {FIXTURE}", file=sys.stderr)
