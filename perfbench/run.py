"""The repository's benchmark: one workload per invocation.

Run from the root of a checkout::

    python3 perfbench/run.py --workload analyze-suite --seed 1 --seconds 30 --trace 0

``--trace 0`` measures with nothing wrapped and prints every end-to-end
metric ``BENCHMARK.json`` lists; ``--trace 1`` wraps each layer's entry
points in spans, prints every per-layer metric it lists (0 for a layer
the workload does not enter) and writes the spans to
``.perfbench/spans-<workload>.jsonl``.  Other figures the workload
measured go to the detail line.  The last line of standard
output is the result object ``{"correct", "attempted", "failed",
"metrics"}``; the line before it carries the run context and sample
counts, which also go to ``.perfbench/results/``.  Each run's traces
and spool stay in ``.perfbench/run-<workload>-<pid>/``.  The exit code is 0
only when every known-answer check passed.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys

WORKLOADS = {
    "analyze-suite": "wl_analyze",
    "report-full": "wl_report",
    # Not in BENCHMARK.json: on a shared disk its fsync-bound figures
    # spread past any bound, so it is run by hand, parent and change
    # in pairs.
    "serve-ci": "wl_serve",
}
OUT_DIR = ".perfbench"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _manifest_metrics(root: str, run) -> dict:
    """The metrics ``BENCHMARK.json`` lists for this kind of run: every
    end-to-end metric untraced, every per-layer metric traced.  What
    else the workload measured goes to the detail line."""
    from metrics import select_metrics

    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    listed = manifest["per_layer" if run.trace else "end_to_end"]
    metrics, extra, missing = select_metrics(
        run.metrics, {m["name"]: m["unit"] for m in listed},
        fill_missing=run.trace)
    run.details["other_metrics"] = {name: value for name, (value, _unit)
                                    in sorted(extra.items())}
    if missing:
        run.details["layers_not_entered"] = missing
    return metrics


def main(argv=None) -> int:
    args = _parse(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: run from the root of a checkout holding src/repro",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    from common import Run
    from hostinfo import run_context

    out_dir = os.path.join(root, OUT_DIR)
    os.makedirs(os.path.join(out_dir, "results"), exist_ok=True)
    work = os.path.join(out_dir, f"run-{args.workload}-{os.getpid()}")
    os.makedirs(work)
    run = Run(seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
              work=work)
    # The run directory stays behind: its files were fsync'd, and
    # unlinking an fsync'd file costs tens of milliseconds on ext4.
    module = importlib.import_module(WORKLOADS[args.workload])
    module.run_workload(run)
    context = run_context(root, args.workload, args.seed, args.seconds,
                          run.trace, work)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if run.trace:
        path = os.path.join(out_dir, f"spans-{args.workload}.jsonl")
        context["spans_file"] = os.path.relpath(path, root)
        context["spans"] = run.recorder.write_jsonl(path)
    try:
        metrics = _manifest_metrics(root, run)
    except (OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    result = run.tally.result(metrics)
    record = {"context": context, "details": run.details,
              "failures": run.tally.failures, "result": result}
    with open(os.path.join(out_dir, "results", tag + ".json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps({k: record[k] for k in ("context", "details", "failures")},
                     sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
