"""The run context every result carries: host, interpreter, code, seed."""

from __future__ import annotations

import ctypes
import ctypes.util
import hashlib
import os
import platform
import subprocess
from typing import Any, Dict, Optional

#: statfs(2) ``f_type`` magic numbers of the filesystems worth naming.
_FS_MAGIC = {
    0xEF53: "ext2/3/4",
    0x01021994: "tmpfs",
    0x58465342: "xfs",
    0x9123683E: "btrfs",
    0x794C7630: "overlayfs",
    0x6969: "nfs",
    0x65735546: "fuse",
    0x858458F6: "ramfs",
}


def fs_type(path: str) -> str:
    """Filesystem type of ``path`` from statfs(2), without reading any
    file outside the checkout."""
    libc_name = ctypes.util.find_library("c")
    if libc_name is None:
        return "unknown"
    libc = ctypes.CDLL(libc_name, use_errno=True)
    libc.statfs.argtypes = [ctypes.c_char_p, ctypes.c_void_p]
    libc.statfs.restype = ctypes.c_int
    buf = ctypes.create_string_buffer(256)  # larger than any struct statfs
    if libc.statfs(os.fsencode(path), buf) != 0:
        return "unknown"
    magic = ctypes.c_long.from_buffer(buf).value & 0xFFFFFFFF
    return _FS_MAGIC.get(magic, hex(magic))


def git_sha(root: str) -> Optional[str]:
    """HEAD of the checkout at ``root`` if it is a git repository."""
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def source_digest(src: str) -> str:
    """SHA-256 over every file under ``src`` (path and bytes): names
    the code measured when no git metadata is present."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()[:16]


def run_context(
    root: str, workload: str, seed: int, seconds: int, trace: bool, spool: str
) -> Dict[str, Any]:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "host": {
            "cpus": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "spool_fs": fs_type(spool),
        },
        "git_sha": git_sha(root),
        "src_digest": source_digest(os.path.join(root, "src")),
    }
