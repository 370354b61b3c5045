"""Pure metric derivation shared by every workload.

Nothing here touches the program under test: these functions turn
samples, spans and known-answer checks into the numbers the benchmark
prints, so they can be tested on hand-made inputs (``test_metrics.py``).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Percentiles a timing may be reported at, lowest first.
PERCENTILE_LADDER: Tuple[float, ...] = (50.0, 90.0, 95.0, 99.0, 99.9)

#: A percentile is supported only when at least this many samples lie
#: beyond it.
MIN_BEYOND = 10


def supported_percentile(
    n: int,
    ladder: Sequence[float] = PERCENTILE_LADDER,
    min_beyond: int = MIN_BEYOND,
) -> Optional[float]:
    """Highest percentile of ``ladder`` with ``min_beyond`` samples past it.

    ``None`` when even the lowest rung is unsupported (fewer than
    ``2 * min_beyond`` samples for the median).
    """
    best = None
    for p in ladder:
        if n * (100.0 - p) / 100.0 >= min_beyond:
            best = p
    return best


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank ``p``-th percentile (the smallest sample with at
    least ``p`` percent of the samples at or below it)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def geomean(values: Sequence[float]) -> float:
    if not values or any(v <= 0 for v in values):
        raise ValueError("geomean needs positive samples")
    return math.exp(sum(math.log(v) for v in values) / len(values))


# -- spans ----------------------------------------------------------------------


def covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total = 0.0
    cur_a: Optional[float] = None
    cur_b = 0.0
    for a, b in clipped:
        if cur_a is None or a > cur_b:
            if cur_a is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_a is not None:
        total += cur_b - cur_a
    return total


def self_times(
    spans: Iterable[Tuple[int, Optional[int], float, float]],
) -> Dict[int, float]:
    """Self time of every span: its duration minus the part of it that
    its child spans cover.

    ``spans`` are ``(id, parent_id, start, end)`` tuples.  Overlapping
    children (spans ended on other threads) count once.
    """
    spans = list(spans)
    children: Dict[int, List[Tuple[float, float]]] = {}
    for _sid, parent, start, end in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    return {
        sid: (end - start) - covered(children.get(sid, ()), start, end)
        for sid, _parent, start, end in spans
    }


# -- known answers ------------------------------------------------------------------


def _table_lines(lines: Iterable[str]) -> List[str]:
    return sorted(line.rstrip() for line in lines if line.strip())


def report_sections(text: str) -> Dict[str, List[str]]:
    """Each ``== title ==`` block of a rendered report (as committed in
    ``EXPERIMENTS.md``), keyed by its title line, as the sorted list of
    its non-blank lines."""
    sections: Dict[str, List[str]] = {}
    title: Optional[str] = None
    body: List[str] = []
    for line in text.splitlines() + ["```"]:
        if line.startswith("== ") or line.startswith("```"):
            if title is not None:
                sections[title] = _table_lines(body)
            title, body = (line.rstrip(), []) if line.startswith("== ") else (None, [])
        elif title is not None:
            body.append(line)
    return sections


def same_table(rendered: str, sections: Dict[str, List[str]]) -> bool:
    """True when ``rendered`` (title line first) has exactly the lines of
    the committed section with the same title, in any row order."""
    lines = rendered.splitlines()
    if not lines or lines[0].rstrip() not in sections:
        return False
    return _table_lines(lines[1:]) == sections[lines[0].rstrip()]


# -- the manifest's metric lists ----------------------------------------------------


def select_metrics(
    measured: Dict[str, Tuple[float, str]],
    wanted: Dict[str, str],
    fill_missing: bool,
) -> Tuple[Dict[str, Tuple[float, str]], Dict[str, Tuple[float, str]], List[str]]:
    """Split what a workload measured into the manifest's list and the rest.

    ``wanted`` maps each metric the result must hold to its unit.
    Returns ``(metrics, extra, missing)``: the wanted metrics, the other
    measured ones, and the wanted names the workload did not measure.
    A missing metric is an error unless ``fill_missing``; then it reads
    0, which for a per-layer metric means the workload does not enter
    that layer.  A unit other than the manifest's is always an error.
    """
    metrics: Dict[str, Tuple[float, str]] = {}
    missing: List[str] = []
    for name, unit in wanted.items():
        if name not in measured:
            if not fill_missing:
                raise ValueError(f"metric {name} was not measured")
            missing.append(name)
            metrics[name] = (0.0, unit)
            continue
        value, got = measured[name]
        if got != unit:
            raise ValueError(f"metric {name} is in {got}, not {unit}")
        metrics[name] = (value, unit)
    extra = {name: m for name, m in measured.items() if name not in wanted}
    return metrics, extra, missing


# -- known-answer accounting ------------------------------------------------------


class Tally:
    """Operations attempted and failed; a failure is a wrong, refused or
    crashed output, and every one is counted — none is skipped."""

    #: failure messages kept for the detail line; all are counted
    KEEP = 20

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def check(self, ok: bool, what: str = "") -> bool:
        """Count one operation; ``ok`` False counts it as failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < self.KEEP:
                self.failures.append(what)
        return ok

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0

    def result(self, metrics: Dict[str, Tuple[float, str]]) -> Dict[str, object]:
        """The benchmark's final result object."""
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": float(value), "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }
