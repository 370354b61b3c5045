"""The line a benchmark's ``--check`` prints for each numeric bound.

Each gated benchmark states its bounds once, through :func:`within`,
which prints ``GATE <label>: <value> <op> <bound> pass|FAIL`` to stdout.
``run_all.py`` collects those lines, so a bound lives only in the
benchmark that enforces it.
"""

from __future__ import annotations

import operator

_OPS = {">=": operator.ge, "<=": operator.le}


def within(label: str, value: float, op: str, bound: float) -> bool:
    """Print the ``GATE`` line for ``value op bound``; True iff it holds."""
    ok = _OPS[op](value, bound)
    print(f"GATE {label}: {value:.4g} {op} {bound:g} {'pass' if ok else 'FAIL'}")
    return ok
