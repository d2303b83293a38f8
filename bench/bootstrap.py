"""Locate the checkout, import the package from its ``src`` tree, describe the machine."""

from __future__ import annotations

import hashlib
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"


class MissingPackage(RuntimeError):
    """The checkout has no importable ``gossip_bandits`` under ``src``."""


def import_package():
    """Import ``gossip_bandits`` from this checkout only, never from site-packages."""
    if not (SRC / "gossip_bandits" / "__init__.py").is_file():
        raise MissingPackage(f"no gossip_bandits package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import gossip_bandits

    origin = Path(gossip_bandits.__file__).resolve()
    if SRC not in origin.parents:
        raise MissingPackage(f"gossip_bandits imported from {origin}, outside {SRC}")
    return gossip_bandits


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    """HEAD of the checkout if it is a git work tree; read directly, no git binary."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest() -> str:
    """SHA-256 over the package sources, so results identify the code without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "gossip_bandits").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
    }
