"""Each process loads only the plane it runs.

A relay daemon is two small user-level processes on the gateway hosts:
it must not import the simulator, the experiment harness, numpy,
networkx or multiprocessing.  The simulated relay, in turn, needs
neither networkx nor numpy, and a Table 4 run loads the simulator but
no numpy, asyncio or process pool.  Each case runs its imports in a
fresh interpreter and lists what ``sys.modules`` then holds.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: What a live relay daemon never loads.
NOT_IN_DAEMON = (
    "networkx",
    "numpy",
    "multiprocessing",
    "repro.bench",
    "repro.simnet.kernel",
    "repro.simnet.topology",
    "repro.core.api",
    "repro.core.frames",
    "repro.core.outer",
    "repro.core.inner",
)
#: The simulator: networkx, the simnet package and the simulated relay.
SIMULATOR = ("networkx", "repro.simnet", "repro.core.api", "repro.core.frames",
             "repro.core.outer", "repro.core.inner", "repro.core.pump")

#: What a Table 4 run (instance, testbed, sweep runner) never loads.
NOT_IN_TABLE4 = ("numpy", "asyncio", "multiprocessing", "concurrent.futures")

TABLE4_RUN = """
import repro.bench.sweep, repro.bench.table4, repro.bench.table56
from repro.bench.table4 import Table4Config
from repro.cluster.testbed import Testbed

Table4Config().instance()
Testbed()
"""

STARTED_TELEMETRY = """
import asyncio
import repro.core.aio.cli
from repro.obs.telemetry import TelemetryServer

async def main():
    server = await TelemetryServer(dict).start()
    await server.stop()

asyncio.run(main())
"""


def loaded_modules(code: str) -> "list[str]":
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


def offending(modules: "list[str]", banned: "tuple[str, ...]") -> "list[str]":
    """``modules`` that are one of ``banned`` or inside one."""
    return [m for m in modules if any(m == b or m.startswith(b + ".") for b in banned)]


@pytest.mark.parametrize("code", [
    pytest.param("from repro.core.aio import AioOuterServer, AioInnerServer", id="relay"),
    pytest.param("import repro.core.aio.cli", id="daemon-cli"),
    pytest.param(STARTED_TELEMETRY, id="daemon-telemetry"),
])
def test_relay_daemon_loads_no_simulator_or_harness(code):
    assert offending(loaded_modules(code), NOT_IN_DAEMON) == []


def test_live_client_loads_no_simulator():
    modules = loaded_modules("from repro.core.aio import AioProxyClient")
    assert offending(modules, SIMULATOR) == []


def test_simulated_relay_loads_neither_networkx_nor_numpy():
    modules = loaded_modules("import repro.cluster.testbed, repro.core.api")
    assert offending(modules, ("networkx", "numpy")) == []


def test_table4_run_loads_no_numpy_asyncio_or_process_pool():
    assert offending(loaded_modules(TABLE4_RUN), NOT_IN_TABLE4) == []


def test_bench_package_loads_none_of_its_submodules():
    assert offending(loaded_modules("import repro.bench"), ("repro.bench",)) == ["repro.bench"]
