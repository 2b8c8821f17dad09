"""Smoke test of the benchmark itself: ``--quick`` runs of every
workload, untraced and traced, in this process.

Not part of tier 1 (``testpaths`` is ``tests``); run it explicitly:

    python -m pytest benchmark/tests -q
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent
sys.path[:0] = [str(BENCH), str(REPO / "src")]

import run  # noqa: E402  (benchmark/run.py)

SPEC = run.load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _children() -> "list[int]":
    """Pids whose parent is this process."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                stat = Path(f"/proc/{entry}/stat").read_text()
            except OSError:
                continue  # it ended while we looked
            if int(stat.rsplit(")", 1)[1].split()[1]) == me:
                found.append(int(entry))
    return found


def _sockets() -> int:
    count = 0
    for fd in os.listdir("/proc/self/fd"):
        try:
            count += os.readlink(f"/proc/self/fd/{fd}").startswith("socket:")
        except OSError:
            pass  # the listing's own descriptor
    return count


@pytest.mark.parametrize("traced", [False, True], ids=["end_to_end", "traced"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_run(workload: str, traced: bool) -> None:
    sockets_before, cpus_before = _sockets(), os.sched_getaffinity(0)
    result = asyncio.run(run.run_workload(workload, 7, run.QUICK_SECONDS, traced, True))
    assert _children() == [], "a child process was left behind"
    assert _sockets() == sockets_before, "a socket was left open"
    assert os.sched_getaffinity(0) == cpus_before, "this process was left pinned"

    assert result["errors"] == []
    assert result["failed"] == 0 and result["attempted"] >= 1
    obj = run.contract_object(result, SPEC)
    assert set(obj) == {"correct", "attempted", "failed", "metrics"}
    assert obj["correct"] is True
    declared = SPEC["per_layer" if traced else "end_to_end"]
    assert set(obj["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        got = obj["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"] and got["unit"]
        assert math.isfinite(got["value"]), metric["name"]
        if not traced:
            assert got["value"] > 0, metric["name"]
    if traced:
        layer = result["per_layer"]
        assert layer["bench.trace_unresolved_parents"] == 0
        assert layer["bench.trace_spans"] > 0
        assert (run.OUT / f"{workload}.trace.json").exists()
        # The probes run whatever the workload, so these are never 0.
        for name in ("core.aio.pump.zero_copy_mb_s", "core.aio.mux.msg_us",
                     "simnet.kernel.us_per_event", "apps.knapsack.search.nodes_per_s"):
            assert layer[name] > 0, name


def test_command_line_contract() -> None:
    """The driver's invocation: the last line is the result object."""
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "pingpong", "--seed", "11",
         "--seconds", "1", "--trace", "0", "--quick"],
        cwd=REPO, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0


def test_refuses_to_run_without_the_program(tmp_path: Path) -> None:
    """With only BENCHMARK.json and benchmark/ there is nothing to
    measure: non-zero exit and no result line."""
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__", "out", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "pingpong", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_spec_matches_the_contract() -> None:
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert set(WORKLOADS) == set(run.workload_classes())
    assert any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in SPEC["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + WORKLOADS
    assert len(names) == len(set(names))
