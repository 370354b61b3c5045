"""Where a benchmark number was measured: the host and the code.

Every ``BENCH_*.json`` that makes a performance claim records both, so
a number is never read against a machine or a tree it was not measured
on: the CPU count, Python and platform, the git HEAD with a flag for
uncommitted changes under ``src/``, and a digest of ``src/`` itself
(which names the measured tree even when it is dirty).
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
from pathlib import Path
from typing import Dict, Optional

ROOT = Path(__file__).resolve().parent.parent


def _git(*args: str) -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True,
            timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def host() -> Dict[str, object]:
    """The measuring host: CPUs, Python, platform."""
    return {
        "cpu_count": os.cpu_count() or 1,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def code() -> Dict[str, object]:
    """The measured code: git HEAD, ``src/`` dirty flag, ``src/`` digest."""
    status = _git("status", "--porcelain", "--", "src")
    return {
        "git_sha": _git("rev-parse", "HEAD"),
        "src_dirty": bool(status) if status is not None else None,
        "src_digest": _src_digest(),
    }
