"""Run every checked benchmark gate and summarize them in one table.

The gates are each benchmark's own ``--check`` mode: the ones CI runs
(``bench_batch`` single-trace and whole-suite, ``bench_service``) plus
the release-time ones (``bench_forensics``, ``bench_hotpath``,
``bench_runner``, ``bench_obs``).  Each benchmark owns its bounds and
prints one ``GATE`` line per numeric bound (see ``gates.py``); this
script prints those lines under the gate's name, plus the ``FAIL``
lines of a gate that exits non-zero.  A gate passes iff its benchmark
exits 0, and the exit status is 1 if any gate fails.

    PYTHONPATH=src python benchmarks/run_all.py

The benchmarks' ``BENCH_*.json`` reports go to a temporary directory.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: ``(name, script, arguments besides --check/--out)`` of every gate.
GATES = (
    ("batch", "bench_batch.py", ("--repeats", "1")),
    ("batch-suite", "bench_batch.py", ("--suite", "simsmall", "--repeats", "1")),
    ("service", "bench_service.py", ("--seconds", "5")),
    ("forensics", "bench_forensics.py", ()),
    ("hotpath", "bench_hotpath.py", ()),
    ("runner", "bench_runner.py", ()),
    ("obs", "bench_obs.py", ()),
)


def run_gate(name: str, script: str, args, out_dir: str) -> bool:
    """Run one gate and print its rows; True iff it passed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(HERE.parent / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(HERE / script), *args, "--check",
         "--out", os.path.join(out_dir, f"{name}.json")],
        env=env, capture_output=True, text=True,
    )
    for line in proc.stdout.splitlines():
        if line.startswith("GATE "):
            print(f"{name:<12} {line[len('GATE '):]}", flush=True)
    if proc.returncode == 0:
        return True
    stderr = proc.stderr.splitlines()
    reasons = [line for line in stderr if line.startswith("FAIL")] or stderr[-3:]
    for line in reasons:
        print(f"{name:<12} exit {proc.returncode}: {line}", flush=True)
    return False


def main() -> int:
    with tempfile.TemporaryDirectory() as out_dir:
        failed = [name for name, script, args in GATES
                  if not run_gate(name, script, args, out_dir)]
    print(f"{len(GATES) - len(failed)}/{len(GATES)} gates pass"
          + (f"; failing: {', '.join(failed)}" if failed else ""))
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
