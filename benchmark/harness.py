"""Helpers shared by the benchmark's files: the program-side child
process and its CPU and memory accounting, the ramp payload,
percentiles and the in-memory span recorder.

Nothing here imports the program; the files that do (``live.py``,
``probes.py``, ``sut_host.py``, ``sim_host.py``) get it through
``PYTHONPATH``, which :class:`Child` and ``run.py`` point at ``src/``.
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SRC = REPO / "src"
OUT = HERE / "out"
GOLDEN = HERE / "golden"
MIB = 1 << 20


def plan_cpus() -> "tuple[Optional[int], Optional[set[int]]]":
    """``(child_cpu, generator_cpus)``, or ``(None, None)`` on one CPU.

    The child gets the lowest allowed CPU and the load generator the
    rest, so neither steals cycles from the other (README, rule 2).
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    return cpus[0], set(cpus[1:])


def pctl(sorted_values: "list[float]", q: float) -> float:
    """Nearest-rank percentile of an already sorted list."""
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


class Child:
    """One program-side child: JSON lines out, one-word commands in."""

    def __init__(
        self,
        script: str,
        args: "tuple[str, ...]" = (),
        cpu: Optional[int] = None,
    ) -> None:
        self.script = script
        child_env = dict(os.environ)
        inherited = child_env.get("PYTHONPATH")
        child_env["PYTHONPATH"] = str(SRC) + (os.pathsep + inherited if inherited else "")
        #: Start of the spawn, the origin of ``setup_s``.
        self.spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / script), *args],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=child_env,
        )
        if cpu is not None:
            os.sched_setaffinity(self.proc.pid, {cpu})
        self._buf = b""

    def read(self, timeout: float) -> "dict[str, Any]":
        """The child's next JSON line."""
        assert self.proc.stdout is not None
        fd = self.proc.stdout.fileno()
        deadline = time.monotonic() + timeout
        while b"\n" not in self._buf:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                raise TimeoutError(f"{self.script}: no reply within {timeout:.0f} s")
            data = os.read(fd, 1 << 16)
            if not data:
                raise RuntimeError(
                    f"{self.script} exited with code {self.proc.wait()} before replying"
                )
            self._buf += data
        line, _, self._buf = self._buf.partition(b"\n")
        return json.loads(line)

    def send(self, command: str) -> None:
        assert self.proc.stdin is not None
        self.proc.stdin.write(command.encode() + b"\n")
        self.proc.stdin.flush()

    def ask(self, command: str, timeout: float) -> "dict[str, Any]":
        self.send(command)
        return self.read(timeout)

    def cpu_s(self) -> float:
        """User + system CPU seconds the child has used so far, from
        its process CPU-time clock (``/proc/<pid>/stat`` counts in
        10 ms ticks, which is one Table 4 row in 240)."""
        # MAKE_PROCESS_CPUCLOCK(pid, CPUCLOCK_SCHED) of <linux/posix-timers.h>.
        return time.clock_gettime(((~self.proc.pid) << 3) | 2)

    def peak_rss_mb(self) -> float:
        """The child's resident-set high-water mark (``VmHWM``)."""
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
        raise RuntimeError(f"{self.script}: no VmHWM in /proc status")

    def close(self) -> None:
        """Ask the child to exit, wait for it, kill it if it will not."""
        try:
            if self.proc.poll() is None:
                try:
                    self.send("exit")
                except OSError:
                    pass
                try:
                    self.proc.wait(10)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
        finally:
            self.proc.wait()
            for pipe in (self.proc.stdin, self.proc.stdout):
                if pipe is not None:
                    pipe.close()


class Workload:
    """What ``run.py`` needs of a workload.  ``measure()`` runs one
    measured phase and may be called again on the same set-up."""

    name = ""
    #: The benchmark file that runs the program side, and its arguments.
    host_script = ""
    #: Measured phases per untraced run (run.py takes medians over them).
    phases = 5
    #: Set by run.py for the set-up of a traced run, so its spans are kept.
    tracer: "Optional[Tracer]" = None

    def __init__(self, child: Child, ready: "dict[str, Any]", seed: int, quick: bool) -> None:
        """``ready`` is the first line the child printed."""
        self.child = child

    @classmethod
    def host_args(cls, seed: int, quick: bool) -> "tuple[str, ...]":
        return ()

    async def setup(self) -> None:
        """Everything up to the first measured op."""

    async def measure(self, seconds: float, tracer: "Optional[Tracer]") -> "Measured":
        raise NotImplementedError

    async def teardown(self) -> None:
        """Close what ``setup()`` opened (the child is closed by run.py)."""

    def derived(self, layer: "dict[str, float]") -> "dict[str, float]":
        """Layer metrics that need a probe's figure as well as this run's."""
        return {}


class Ramp:
    """The payload: a position-dependent 256-byte ramp.

    Byte ``p`` of a stream is ``(p + phase) & 0xFF``; ``--seed`` picks
    the phase.  A sink checks whatever chunk sizes the kernel hands it
    against the expected bytes at that stream position with one
    ``memcmp`` (``bytes.startswith``) and no copy.
    """

    def __init__(self, phase: int) -> None:
        pattern = bytes((i + phase) & 0xFF for i in range(256))
        self.expected = pattern * (2 * MIB // 256 + 1)

    def take(self, pos: int, nbytes: int) -> bytes:
        off = pos & 0xFF
        return self.expected[off:off + nbytes]

    def matches(self, chunk: "bytes | memoryview", pos: int) -> bool:
        return self.expected.startswith(chunk, pos & 0xFF)


@dataclass
class Measured:
    """What one measured phase of a workload yields."""

    #: One latency sample per completed op, microseconds.
    op_us: "list[float]"
    #: Ops completed inside ``rate_wall_s`` (the closed-loop window).
    rate_ops: int
    rate_wall_s: float
    attempted: int
    failed: int
    #: Output checks that failed (byte mismatches, golden differences).
    errors: "list[str]" = field(default_factory=list)
    #: Layer metrics taken from this workload's own run.
    layer: "dict[str, float]" = field(default_factory=dict)


class Tracer:
    """Benchmark-side spans, held in memory until the run ends."""

    def __init__(self) -> None:
        # [name, trace_id, parent, start, end]; the span id is index + 1.
        self.spans: "list[list[Any]]" = []

    def begin(self, name: str, trace_id: "int | str", parent: Optional[int] = None) -> int:
        self.spans.append([name, trace_id, parent, time.perf_counter(), None])
        return len(self.spans)

    def end(self, span_id: int) -> None:
        self.spans[span_id - 1][4] = time.perf_counter()

    def extend(self, spans: "list[list[Any]]") -> None:
        """Adopt spans recorded in a child (ids are list positions, so
        parents are rebased onto this recorder's numbering)."""
        base = len(self.spans)
        for name, trace_id, parent, start, end in spans:
            self.spans.append(
                [name, trace_id, None if parent is None else parent + base, start, end]
            )

    def median_us(self, name: str) -> float:
        durations = sorted(
            (s[4] - s[3]) * 1e6 for s in self.spans if s[0] == name and s[4] is not None
        )
        return pctl(durations, 0.5) if durations else 0.0

    def unresolved_parents(self) -> int:
        n = len(self.spans)
        return sum(
            1 for s in self.spans
            if s[4] is None or (s[2] is not None and not 1 <= s[2] <= n)
        )

    def summary(self) -> "dict[str, dict[str, float]]":
        """Per span name: count, total time and self time (the span
        minus the part of it its children cover)."""
        children: "dict[int, list[tuple[float, float]]]" = {}
        for _, _, parent, start, end in self.spans:
            if parent is not None and end is not None:
                children.setdefault(parent, []).append((start, end))
        out: "dict[str, dict[str, float]]" = {}
        for index, (name, _, _, start, end) in enumerate(self.spans):
            if end is None:
                continue
            covered, cursor = 0.0, start
            for c_start, c_end in sorted(children.get(index + 1, ())):
                c_start, c_end = max(c_start, cursor), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    cursor = c_end
            row = out.setdefault(name, {"count": 0, "total_us": 0.0, "self_us": 0.0})
            row["count"] += 1
            row["total_us"] += (end - start) * 1e6
            row["self_us"] += (end - start - covered) * 1e6
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        spans = [
            {"id": i + 1, "name": s[0], "trace_id": s[1], "parent": s[2],
             "start": s[3], "end": s[4]}
            for i, s in enumerate(self.spans)
        ]
        path.write_text(json.dumps({"summary": self.summary(), "spans": spans}))
