"""Simulated TCP-style sockets: connect / bind / listen / accept / send / recv.

The transport model is deliberately *application-level*: links are
parameterized by their measured effective bandwidth (what a Nexus-era
TCP actually delivered, e.g. ~6.3 MB/s on 100Base-T), and a message is
carved into MSS-sized segments that pipeline hop-by-hop through the
route.  Endpoint CPU costs (per message and per segment, scaled by the
host's relative CPU speed) are the calibration knobs that make the
simulated Table 2 come out with the paper's shape.

Connection semantics mirror BSD sockets closely enough for the Nexus
Proxy to be implemented on top *unchanged in structure* from the real
asyncio implementation in :mod:`repro.core.aio`:

* ``listen`` binds a port on a host; ``accept`` blocks for a peer.
* ``connect`` performs an SYN/ACK round trip, is refused when nothing
  listens, and — crucially — is **silently dropped** when a deny-based
  firewall filters it, surfacing only as a timeout
  (:class:`~repro.simnet.firewall.FirewallBlocked` with
  ``silent_drop=True``).  That asymmetry (refused vs. dropped) is the
  user-visible difference the paper's mechanism exists to remove.
* ``send`` is message-oriented (Nexus messages, not a byte stream) but
  sized in bytes; ``recv`` yields whole messages in order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator, Optional

from repro.obs import trace as _trace
from repro.simnet.firewall import Direction, FirewallBlocked
from repro.simnet.kernel import AnyOf, Event, Process, SimError, Simulator
from repro.simnet.link import Link
from repro.simnet.primitives import Channel, ChannelClosed, Resource

if TYPE_CHECKING:  # pragma: no cover
    from repro.simnet.host import Host
    from repro.simnet.topology import Network

__all__ = [
    "Address",
    "NetConfig",
    "SocketError",
    "ConnectionRefused",
    "ConnectionReset",
    "ConnectTimeout",
    "Message",
    "Connection",
    "ListenSocket",
    "open_connection",
    "wire_size",
]


@dataclass(frozen=True, slots=True)
class Address:
    """A (host, port) endpoint name."""

    host: str
    port: int

    def __str__(self) -> str:
        return f"{self.host}:{self.port}"


class SocketError(OSError):
    """Base class for simulated socket failures."""


class ConnectionRefused(SocketError):
    """Active RST: nothing listening at the destination."""


class ConnectionReset(SocketError):
    """The peer closed while an operation was pending."""


class ConnectTimeout(SocketError):
    """connect() gave up waiting (e.g. SYN silently dropped)."""


@dataclass
class NetConfig:
    """Transport tuning knobs, shared by a whole :class:`Network`.

    Defaults are the values calibrated against Table 2 (see
    ``repro.bench.calibrate``); time units are seconds.
    """

    #: Maximum segment size: relay chunks and pipelining granularity.
    mss: int = 4096
    #: How long connect() waits before declaring a silent drop.
    connect_timeout: float = 30.0
    #: Handshake CPU cost at each endpoint (added to the RTT).
    connect_overhead: float = 50e-6
    #: Sender CPU per message (buffer setup, header build).
    send_overhead: float = 100e-6
    #: Sender CPU per segment (syscall + copy), scaled by CPU speed.
    per_segment_cpu: float = 25e-6
    #: Receiver CPU per message (dispatch to the waiting thread).
    recv_overhead: float = 100e-6
    #: Segments in flight per connection direction (window).
    window_segments: int = 64
    #: One-way latency for host-local (loopback) connections.
    local_latency: float = 15e-6
    #: Wire size assumed for payloads with no natural length.
    default_msg_bytes: int = 64

    def validate(self) -> None:
        if self.mss <= 0:
            raise SimError("mss must be positive")
        if self.window_segments <= 0:
            raise SimError("window must be positive")
        for name in (
            "connect_timeout",
            "connect_overhead",
            "send_overhead",
            "per_segment_cpu",
            "recv_overhead",
            "local_latency",
        ):
            if getattr(self, name) < 0:
                raise SimError(f"{name} must be non-negative")


def wire_size(payload: Any, default: int = 64) -> int:
    """Bytes a payload occupies on the simulated wire.

    Bytes-like and sized payloads use their length; anything else falls
    back to ``default``.  Protocol layers that know better pass an
    explicit ``nbytes`` to :meth:`Connection.send`.
    """
    if isinstance(payload, (bytes, bytearray, memoryview)):
        return max(1, len(payload))
    try:
        return max(1, len(payload))  # type: ignore[arg-type]
    except TypeError:
        return default


@dataclass(frozen=True, slots=True)
class Message:
    """One delivered application message."""

    payload: Any
    nbytes: int
    msgid: int
    sent_at: float
    delivered_at: float
    #: Optional causal trace context (wire form), sniffed from tagged
    #: payloads; ``None`` whenever causal tracing is off.
    tctx: Optional[str] = None

    @property
    def transit_time(self) -> float:
        return self.delivered_at - self.sent_at


_msgid_counter = itertools.count(1)


class Connection:
    """One end of an established simulated TCP connection."""

    def __init__(
        self,
        network: "Network",
        local: "Host",
        remote: "Host",
        local_addr: Address,
        remote_addr: Address,
        tx_path: list[Link],
    ) -> None:
        self.network = network
        self.sim: Simulator = network.sim
        self.local = local
        self.remote = remote
        self.local_addr = local_addr
        self.remote_addr = remote_addr
        #: Oriented links this end transmits over (may be empty: loopback).
        self.tx_path = tx_path
        self.peer: Optional["Connection"] = None
        self._rx: Channel[Message] = Channel(self.sim)
        self._send_lock = Resource(self.sim, capacity=1)
        self._window = Resource(self.sim, capacity=network.config.window_segments)
        self._reassembly: dict[int, int] = {}
        self.closed = False
        #: Counters for the harness.
        self.bytes_sent = 0
        self.bytes_received = 0
        self.messages_sent = 0
        self.messages_received = 0

    # -- sending -----------------------------------------------------------

    def send(self, payload: Any, nbytes: Optional[int] = None) -> Process:
        """Transmit one message; the returned process event fires when
        the sender-side work (CPU + hand-off to the first link) is done.

        ``nbytes`` is the simulated wire size; when omitted it is
        inferred via :func:`wire_size`.
        """
        if self.closed:
            raise ConnectionReset(f"send on closed connection to {self.remote_addr}")
        if nbytes is None:
            nbytes = wire_size(payload, self.network.config.default_msg_bytes)
        if nbytes <= 0:
            raise SocketError(f"message size must be positive, got {nbytes}")
        return self.sim.process(
            self._send_proc(payload, nbytes), name=f"send->{self.remote_addr}"
        )

    def _send_proc(self, payload: Any, nbytes: int) -> Iterator[Event]:
        cfg = self.network.config
        sim = self.sim
        msgid = next(_msgid_counter)
        sent_at = sim.now
        tctx = None
        if _trace.ENABLED:
            tctx = getattr(payload, "tctx", None)
        nsegs = max(1, -(-nbytes // cfg.mss))
        # Serialize sender-side work between back-to-back sends.
        yield self._send_lock.request()
        try:
            oh = cfg.send_overhead / self.local.cpu_speed
            if oh > 0:
                yield sim.timeout(oh)
            seg_cpu = cfg.per_segment_cpu / self.local.cpu_speed
            remaining = nbytes
            for index in range(nsegs):
                seg_bytes = min(cfg.mss, remaining)
                remaining -= seg_bytes
                # Per-segment CPU is paid inline so it overlaps the
                # previous segment's time on the wire (copy/syscall
                # pipelining); it only shows up end-to-end for small
                # messages, which is what Table 2 exhibits.
                if seg_cpu > 0:
                    yield sim.timeout(seg_cpu)
                yield self._window.request()
                last = index == nsegs - 1
                sim.process(
                    self._segment_walk(
                        msgid, nsegs, seg_bytes, payload if last else None,
                        nbytes, sent_at, tctx,
                    ),
                    name=f"seg:{msgid}:{index}",
                )
        finally:
            self._send_lock.release()
        self.bytes_sent += nbytes
        self.messages_sent += 1

    def _segment_walk(
        self,
        msgid: int,
        nsegs: int,
        seg_bytes: int,
        payload: Any,
        total_bytes: int,
        sent_at: float,
        tctx: Optional[str] = None,
    ) -> Iterator[Event]:
        sim = self.sim
        cfg = self.network.config
        try:
            if self.tx_path:
                for link in self.tx_path:
                    yield from link.transmit(seg_bytes)
            else:
                yield sim.timeout(cfg.local_latency)
        finally:
            self._window.release()
        peer = self.peer
        if peer is None or peer.closed:
            return  # receiver went away; bytes fall on the floor
        outstanding = peer._reassembly.get(msgid, nsegs) - 1
        if outstanding > 0:
            peer._reassembly[msgid] = outstanding
            return
        peer._reassembly.pop(msgid, None)
        # Last segment of the message: pay receiver dispatch cost.
        rcpu = cfg.recv_overhead / peer.local.cpu_speed
        if rcpu > 0:
            yield sim.timeout(rcpu)
        msg = Message(
            payload=payload,
            nbytes=total_bytes,
            msgid=msgid,
            sent_at=sent_at,
            delivered_at=sim.now,
            tctx=tctx,
        )
        peer.bytes_received += total_bytes
        peer.messages_received += 1
        peer._rx.try_put(msg)  # dropped if closed in the recv-CPU window

    # -- receiving --------------------------------------------------------

    def recv(self, timeout: Optional[float] = None) -> Event:
        """Event firing with the next :class:`Message`.

        With ``timeout`` the event fails with :class:`ConnectTimeout`
        if nothing arrives in time.  A closed/reset connection fails
        the event with :class:`ConnectionReset`.
        """
        get = self._rx.get()
        if timeout is None:
            return self._wrap_recv(get)
        return self._wrap_recv_timeout(get, timeout)

    def _wrap_recv(self, get: Event) -> Event:
        out = Event(self.sim)

        def on_done(ev: Event) -> None:
            if out.triggered:
                return
            if ev.ok:
                out.succeed(ev.value)
            else:
                ev.defuse()
                out.fail(ConnectionReset(f"connection to {self.remote_addr} closed"))

        if get.callbacks is None:
            on_done(get)
        else:
            get.callbacks.append(on_done)
        return out

    def _wrap_recv_timeout(self, get: Event, timeout: float) -> Event:
        out = Event(self.sim)
        timer = self.sim.timeout(timeout)

        def on_get(ev: Event) -> None:
            if out.triggered:
                # Timed out already: hand the message back so the next
                # recv sees it (no silent loss on a lost race).
                if ev.ok:
                    self._rx.requeue_front(ev.value)
                else:
                    ev.defuse()
                return
            if ev.ok:
                out.succeed(ev.value)
            else:
                ev.defuse()
                out.fail(ConnectionReset(f"connection to {self.remote_addr} closed"))

        def on_timer(_: Event) -> None:
            if out.triggered:
                return
            out.fail(ConnectTimeout(f"recv timed out after {timeout}s"))

        get.callbacks.append(on_get)
        assert timer.callbacks is not None
        timer.callbacks.append(on_timer)
        return out

    # -- teardown -----------------------------------------------------------

    def close(self) -> None:
        """Close this end; a FIN travels the path *behind* queued data.

        Data from sends that were yielded (awaited) before the close is
        delivered before the peer observes the reset — the FIN is an
        ordinary frame subject to the same link FIFO ordering.
        """
        if self.closed:
            return
        self.closed = True
        self._rx.close()
        peer = self.peer
        if peer is None or peer.closed:
            return
        sim = self.sim
        cfg = self.network.config

        def _fin() -> Iterator[Event]:
            if self.tx_path:
                for link in self.tx_path:
                    yield from link.transmit(1)
            else:
                yield sim.timeout(cfg.local_latency)
            # FIN processing costs the same receiver dispatch as data,
            # keeping it strictly behind the last delivered message.
            rcpu = cfg.recv_overhead / peer.local.cpu_speed
            if rcpu > 0:
                yield sim.timeout(rcpu)
            if not peer.closed:
                # Full close, not a half-close: once the FIN arrives the
                # peer's sends fail too (so daemons notice dead peers).
                peer.closed = True
                peer._rx.close()

        sim.process(_fin(), name=f"fin->{self.remote_addr}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self.closed else "open"
        return f"<Connection {self.local_addr} -> {self.remote_addr} {state}>"


class ListenSocket:
    """A bound, listening port on a host."""

    def __init__(self, host: "Host", port: int, backlog: int = 128) -> None:
        self.host = host
        self.port = port
        self.sim = host.sim
        self._backlog: Channel[Connection] = Channel(self.sim, capacity=backlog)
        self.closed = False

    @property
    def addr(self) -> Address:
        return Address(self.host.name, self.port)

    def accept(self, timeout: Optional[float] = None) -> Event:
        """Event firing with the next established :class:`Connection`."""
        if self.closed:
            ev = Event(self.sim)
            ev.fail(SocketError(f"accept on closed listener {self.addr}"))
            return ev
        get = self._backlog.get()
        if timeout is None:
            out = Event(self.sim)

            def on_done(ev: Event) -> None:
                if ev.ok:
                    out.succeed(ev.value)
                else:
                    ev.defuse()
                    out.fail(SocketError(f"listener {self.addr} closed"))

            if get.callbacks is None:
                on_done(get)
            else:
                get.callbacks.append(on_done)
            return out
        out = Event(self.sim)
        timer = self.sim.timeout(timeout)

        def on_get(ev: Event) -> None:
            if out.triggered:
                if ev.ok:
                    # Timed out: put the pending connection back.
                    self._backlog.requeue_front(ev.value)
                else:
                    ev.defuse()
                return
            if ev.ok:
                out.succeed(ev.value)
            else:
                ev.defuse()
                out.fail(SocketError(f"listener {self.addr} closed"))

        def on_timer(_: Event) -> None:
            if not out.triggered:
                out.fail(ConnectTimeout(f"accept timed out after {timeout}s"))

        get.callbacks.append(on_get)
        assert timer.callbacks is not None
        timer.callbacks.append(on_timer)
        return out

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        self._backlog.close()
        self.host._unbind(self.port, self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ListenSocket {self.addr} {'closed' if self.closed else 'open'}>"


def open_connection(
    network: "Network",
    src: "Host",
    dst_addr: Address,
    timeout: Optional[float] = None,
) -> Iterator[Event]:
    """Generator implementing the client side of ``connect``.

    Use as ``conn = yield from host.connect(addr)``.

    The sequence models a real three-way handshake over the routed
    path, with the firewall consulted where the SYN crosses each site
    boundary.  A deny-based firewall *drops*: the caller burns the full
    connect timeout before seeing :class:`FirewallBlocked`.
    """
    sim = network.sim
    cfg = network.config
    if timeout is None:
        timeout = cfg.connect_timeout

    dst = network.hosts.get(dst_addr.host)
    if dst is None:
        raise SocketError(f"no such host: {dst_addr.host!r}")

    verdict = network.filter_connection(src, dst, dst_addr.port)
    if verdict is not None:
        # Filtered. Reject-mode firewalls answer immediately (one RTT);
        # drop-mode firewalls say nothing and we time out.
        if verdict.reject:
            yield sim.timeout(network.rtt_between(src, dst))
            raise FirewallBlocked(
                f"{src.name} -> {dst_addr}: rejected by firewall {verdict.name!r}",
                silent_drop=False,
            )
        yield sim.timeout(timeout)
        raise FirewallBlocked(
            f"{src.name} -> {dst_addr}: SYN dropped by firewall "
            f"{verdict.name!r} (timed out after {timeout}s)",
            silent_drop=True,
        )

    path = network.path_links(src, dst)
    one_way = sum(l.latency for l in path) if path else cfg.local_latency
    # SYN travels to the destination...
    yield sim.timeout(one_way)
    if dst.crashed:
        # A dead host answers nothing: burn the rest of the timeout.
        yield sim.timeout(max(0.0, timeout - one_way))
        raise ConnectTimeout(
            f"{dst_addr}: host is down (connect timed out after {timeout}s)"
        )
    listener = dst._ports.get(dst_addr.port)
    if listener is None or listener.closed:
        # RST comes back.
        yield sim.timeout(one_way)
        raise ConnectionRefused(f"{dst_addr}: connection refused")
    # SYN/ACK returns; handshake CPU at both ends.
    yield sim.timeout(one_way + 2 * cfg.connect_overhead)

    local_port = src._ephemeral_port()
    client = Connection(
        network,
        local=src,
        remote=dst,
        local_addr=Address(src.name, local_port),
        remote_addr=dst_addr,
        tx_path=path,
    )
    server = Connection(
        network,
        local=dst,
        remote=src,
        local_addr=dst_addr,
        remote_addr=Address(src.name, local_port),
        tx_path=network.path_links(dst, src),
    )
    client.peer = server
    server.peer = client
    for endpoint_host, conn in ((src, client), (dst, server)):
        endpoint_host.connections.append(conn)
        if len(endpoint_host.connections) > 256:
            # Amortized pruning keeps long simulations bounded.
            endpoint_host.connections = [
                c for c in endpoint_host.connections if not c.closed
            ]
    if not listener._backlog.try_put(server):
        client.closed = True
        server.closed = True
        raise ConnectionRefused(f"{dst_addr}: backlog full")
    return client
