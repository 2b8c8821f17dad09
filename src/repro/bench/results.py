"""Provenance for ``repro-bench`` artifacts.

:func:`bench_meta` is the block a ``repro-bench --trace`` artifact
carries (interpreter version, platform, core count, git revision), and
:func:`git_revision` / :func:`git_dirty` stamp telemetry the same way.
Performance numbers come from the contract benchmark (``BENCHMARK.json``,
``benchmark/run.py``), which records its own provenance.
"""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path
from typing import Any, Optional

__all__ = [
    "bench_meta",
    "git_dirty",
    "git_revision",
    "repo_root",
    "write_trace_artifacts",
]


def repo_root() -> Path:
    """The repository root (parent of ``src/``)."""
    return Path(__file__).resolve().parents[3]


def git_revision() -> Optional[str]:
    """Short commit hash of the working tree, or ``None`` outside git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=repo_root(),
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):  # pragma: no cover
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def git_dirty() -> Optional[bool]:
    """Whether the working tree differs from HEAD (``None`` outside
    git).  An artifact whose ``dirty`` flag is true was produced
    by code no commit hash identifies."""
    try:
        out = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=repo_root(),
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):  # pragma: no cover
        return None
    if out.returncode != 0:
        return None
    return bool(out.stdout.strip())


def bench_meta(**extra: Any) -> dict:
    """The provenance block every benchmark JSON starts with.

    Keyword arguments are appended verbatim (workload sizes, mode
    flags, ...) after the common fields.
    """
    meta: dict[str, Any] = {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "git_sha": git_revision(),
        "dirty": git_dirty(),
    }
    meta.update(extra)
    return meta


def write_trace_artifacts(
    rec: Any,
    base: Optional[str],
    default_name: str,
    **extra_meta: Any,
) -> "tuple[Path, Path]":
    """Write a recorder's trace artifacts.

    ``rec`` is an installed :class:`repro.obs.spans.ObsRecorder`;
    ``base`` is a path stem, or ``None`` for ``default_name`` in the
    repo root.  Both files get the :func:`bench_meta` provenance block, so
    a trace carries the same evidence chain as the numbers it explains.
    Returns ``(chrome_trace_path, summary_path)``.
    """
    from repro.obs.export import write_artifacts

    stem = Path(base) if base else repo_root() / default_name
    trace, summ = write_artifacts(rec, str(stem), extra_meta=bench_meta(**extra_meta))
    return Path(trace), Path(summ)
