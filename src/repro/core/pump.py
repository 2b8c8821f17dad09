"""The relay data path, shared by the outer and inner servers.

One pump per connection direction: receive a chunk, spend relay CPU
(occupying a core on the relay host — this is the per-stream
throughput bound and the cross-stream contention), then forward after
the non-occupying scheduling delay.  Chunks of one direction all carry
the same delay, and the transport's per-connection send lock is FIFO,
so pipelined forwarding preserves order.

Close propagation is drain-aware: when the source side resets, chunks
already inside the forwarding delay are delivered before the
destination is closed — otherwise a sender that writes-then-closes
(the normal last-message pattern) would lose its tail through the
relay.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Optional

from repro.obs import spans as _obs
from repro.obs import trace as _trace
from repro.simnet.host import Host
from repro.simnet.kernel import Event
from repro.simnet.socket import Connection, ConnectionReset

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.config import RelayConfig
    from repro.core.outer import RelayStats

__all__ = ["relay_pump"]


def relay_pump(
    host: Host,
    config: "RelayConfig",
    stats: "RelayStats",
    src: Connection,
    dst: Connection,
) -> Iterator[Event]:
    """Generator: forward chunks ``src -> dst`` until either side dies."""
    sim = host.sim
    outstanding = 0
    drained: Optional[Event] = None
    t_start = sim.now
    pump_frames = 0
    pump_bytes = 0

    def _finish() -> None:
        stats.chain_bytes.record(pump_bytes)
        rec = _obs.RECORDER
        if rec is not None:
            rec.sim_span("relay", "pump", t_start, sim.now,
                         track=f"relay:{host.name}",
                         frames=pump_frames, bytes=pump_bytes)

    def _forward(payload, nbytes: int) -> Iterator[Event]:
        nonlocal outstanding, drained
        try:
            if config.per_chunk_delay > 0:
                yield sim.timeout(config.per_chunk_delay)
            if not dst.closed:
                yield dst.send(payload, nbytes=nbytes)
        finally:
            outstanding -= 1
            if outstanding == 0 and drained is not None:
                drained.succeed()
                drained = None

    while True:
        try:
            msg = yield src.recv()
        except ConnectionReset:
            # Drain in-flight forwards before closing the far side.
            if outstanding > 0:
                drained = sim.event()
                yield drained
            dst.close()
            _finish()
            return
        # Occupying CPU: one read+copy+write wake-up for the frame.
        yield from host.execute(
            config.per_chunk_cpu + config.per_byte_cpu * msg.nbytes
        )
        stats.frames_relayed += 1
        stats.bytes_relayed += msg.nbytes
        stats.chunk_bytes.record(msg.nbytes)
        pump_frames += 1
        pump_bytes += msg.nbytes
        if _trace.ENABLED:
            # Per-trace byte attribution: which job's traffic paid
            # this relay hop.  Tagged frames only exist when causal
            # tracing is on, so untagged runs never take this branch.
            rec = _obs.RECORDER
            if rec is not None:
                wire = getattr(msg.payload, "tctx", None)
                if wire is not None:
                    rec.count_pair(
                        "relay.trace_bytes", wire.split("/", 1)[0], msg.nbytes,
                    )
        if dst.closed:
            src.close()
            _finish()
            return
        outstanding += 1
        sim.process(_forward(msg.payload, msg.nbytes), name=f"fwd@{host.name}")
