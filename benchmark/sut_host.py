"""The live plane's program side, run as a child of the benchmark.

Builds ``AioOuterServer()`` + ``AioInnerServer()`` with default
arguments on one event loop — or, with ``--fleet``, a one-worker
``FleetManager`` — prints the ports as one JSON line, then serves
one-word commands on stdin: ``stats`` prints both servers'
``AioRelayStats.snapshot()``, ``exit`` (or end of input, so a dead
parent never leaves this process behind) stops the servers.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import logging
import sys


def say(obj: dict) -> None:
    print(json.dumps(obj), flush=True)


async def commands():
    """Yield the parent's commands as they arrive on stdin."""
    loop = asyncio.get_running_loop()
    reader = asyncio.StreamReader()
    await loop.connect_read_pipe(lambda: asyncio.StreamReaderProtocol(reader), sys.stdin)
    while True:
        line = await reader.readline()
        command = line.strip().decode()
        if not line or command == "exit":
            return
        yield command


async def serve_relay() -> None:
    from repro.core.aio import AioInnerServer, AioOuterServer

    outer = await AioOuterServer().start()
    inner = await AioInnerServer().start()
    try:
        say({"control_port": outer.control_port, "nxport": inner.nxport})
        async for command in commands():
            if command == "stats":
                say({"outer": outer.stats.snapshot(), "inner": inner.stats.snapshot()})
    finally:
        await outer.stop()
        await inner.stop()


async def serve_fleet() -> None:
    from repro.core.aio.fleet import FleetManager, FleetSpec

    fleet = await FleetManager(FleetSpec(workers=1)).start()
    try:
        say({"control_port": fleet.port})
        async for _ in commands():
            pass
    finally:
        await fleet.stop()


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fleet", action="store_true")
    args = parser.parse_args()
    # Stopping the servers under chains a probe has just closed logs a
    # warning per chain; a failed op shows in the benchmark's counts.
    logging.getLogger("repro.nexus_proxy").setLevel(logging.ERROR)
    asyncio.run(serve_fleet() if args.fleet else serve_relay())
