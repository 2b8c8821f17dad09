"""Provenance for ``repro-bench`` artifacts.

:func:`bench_meta` is the block a ``repro-bench --trace`` artifact
carries (interpreter version, platform, core count, git revision); the
git pair comes from :mod:`repro.obs.telemetry`, which stamps live
telemetry the same way.
Performance numbers come from the contract benchmark (``BENCHMARK.json``,
``benchmark/run.py``), which records its own provenance.
"""

from __future__ import annotations

import os
import platform
from pathlib import Path
from typing import Any, Optional

from repro.obs.telemetry import git_dirty, git_revision

__all__ = [
    "bench_meta",
    "repo_root",
    "write_trace_artifacts",
]


def repo_root() -> Path:
    """The repository root (parent of ``src/``)."""
    return Path(__file__).resolve().parents[3]


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
