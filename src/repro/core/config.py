"""Relay tuning parameters.

One :class:`RelayConfig` is shared by the outer server, the inner
server and the client libraries of a deployment.  The CPU costs model a
*user-level* relay daemon on a late-1990s server (select wakeup, read,
write, context switch per forwarded chunk) and are the quantities the
Table 2 calibration fits; see ``repro.bench.calibrate`` for how the
defaults were chosen and EXPERIMENTS.md for the resulting numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["RelayConfig", "DEFAULT_RELAY_CONFIG"]


@dataclass(frozen=True, slots=True)
class RelayConfig:
    """Deployment-wide relay parameters (times in seconds)."""

    #: Port the outer server listens on for control connections.
    control_port: int = 7000
    #: Port the inner server listens on — the *nxport*, the single
    #: inbound firewall hole of the whole mechanism.
    nxport: int = 7100
    #: First public port the outer server hands out for binds.
    public_port_base: int = 7500
    #: Relay read-buffer granularity: one forwarded chunk.
    chunk_bytes: int = 1024
    #: CPU cost per forwarded chunk, on a speed-1.0 host.  This
    #: *occupies* a relay core and therefore bounds per-stream
    #: throughput (the order-of-magnitude LAN bandwidth drop of
    #: Table 2) and creates contention between concurrent streams.
    per_chunk_cpu: float = 3.0e-3
    #: CPU cost per forwarded byte (buffer copies).
    per_byte_cpu: float = 0.20e-6
    #: Additional *non-occupying* forwarding delay per chunk: select
    #: wakeup, scheduling, protocol stack traversal on the relay box.
    #: Pure latency — concurrent chunks pipeline through it.  Two
    #: relay traversals of (cpu + delay) reproduce the paper's ≈25 ms
    #: proxied latency.
    per_chunk_delay: float = 9.5e-3
    #: CPU cost of handling one control request (connect/bind/relay-to).
    request_cpu: float = 2.0e-3
    #: Backlog for relay listen sockets.
    backlog: int = 256
    #: Optional shared secret for control requests.  When set, the
    #: outer server refuses connect/bind requests that do not carry
    #: it — hardening the publicly reachable control port (the paper
    #: leans on privileged-port binding for the same purpose; a
    #: credential works for unprivileged deployments too).
    secret: "str | None" = None

    def with_overrides(self, **kwargs) -> "RelayConfig":
        """A copy with some fields replaced (for ablation sweeps)."""
        return replace(self, **kwargs)

    def chunk_cost(self, nbytes: int) -> float:
        """Relay CPU to forward one chunk of ``nbytes`` payload."""
        return self.per_chunk_cpu + self.per_byte_cpu * nbytes

    def chunks_for(self, nbytes: int) -> int:
        """Chunks a message of ``nbytes`` is carved into."""
        return max(1, -(-nbytes // self.chunk_bytes))

    def validate(self) -> None:
        if self.chunk_bytes <= 0:
            raise ValueError("chunk_bytes must be positive")
        if min(self.per_chunk_cpu, self.per_byte_cpu, self.request_cpu,
               self.per_chunk_delay) < 0:
            raise ValueError("CPU costs and delays must be non-negative")
        ports = (self.control_port, self.nxport, self.public_port_base)
        if len(set(ports)) != 3:
            raise ValueError(f"relay ports must be distinct, got {ports}")
        for p in ports:
            if not (1 <= p <= 65535):
                raise ValueError(f"invalid port {p}")


#: The calibrated defaults used throughout the benchmarks.
DEFAULT_RELAY_CONFIG = RelayConfig()
