"""Chunk framing for relayed communication.

The real Nexus Proxy is transparent at the byte level: the relay reads
whatever the socket delivers (its read-buffer granularity) and writes
it onward.  Our simulated transport is message-oriented, so we make the
chunking explicit: a :class:`FramedConnection` splits every application
message into :class:`DataFrame` chunks of the relay's buffer size and
reassembles them at the far end.  Relay servers forward frames
*opaquely* — they never look inside — paying their per-chunk processing
cost for each one, which is exactly the cost structure that produces
the paper's Table 2 (large per-chunk cost ⇒ 25 ms proxied latency and
an order-of-magnitude bandwidth drop on fast LANs, yet negligible
overhead when a 1.5 Mbps WAN is the bottleneck).

Both proxied and direct Nexus connections use the same framing (Nexus
has its own message protocol on the wire), so a proxied endpoint can
talk to a direct one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Iterator, Optional

from repro.simnet.kernel import Event, Process
from repro.simnet.socket import Connection, SocketError

__all__ = [
    "DataFrame",
    "FrameError",
    "FramedConnection",
    "FRAME_HEADER_BYTES",
]

#: Wire overhead per chunk frame (message id, index, count, length).
FRAME_HEADER_BYTES = 16

#: Default chunk size — the relay's read-buffer granularity.
DEFAULT_CHUNK_BYTES = 1024

_stream_ids = itertools.count(1)


class FrameError(SocketError):
    """Protocol violation in the frame stream (e.g. out-of-order chunk)."""


@dataclass(frozen=True, slots=True)
class DataFrame:
    """One chunk of an application message.

    Only the final frame of a message carries the Python-level
    ``payload`` (the simulator doesn't slice real bytes); all frames
    carry their simulated sizes.
    """

    stream_id: int
    msg_seq: int
    index: int
    count: int
    chunk_bytes: int
    total_bytes: int
    payload: Any = None
    #: Optional causal trace context (wire form).  Stamped on every
    #: frame of a tagged message so relays can attribute forwarded
    #: bytes per trace without looking at the payload; ``None`` (the
    #: seed wire format) everywhere else.
    tctx: Optional[str] = None

    @property
    def is_last(self) -> bool:
        return self.index == self.count - 1

    @property
    def wire_bytes(self) -> int:
        return FRAME_HEADER_BYTES + self.chunk_bytes


class FramedConnection:
    """Message send/recv over chunk frames on a transport connection.

    ``send`` splits a message into ``chunk_bytes`` frames; ``recv``
    reassembles.  Because the sender serializes frames of one message,
    frames never interleave between messages on a single connection.
    """

    def __init__(self, conn: Connection, chunk_bytes: int = DEFAULT_CHUNK_BYTES) -> None:
        if chunk_bytes <= 0:
            raise FrameError(f"chunk_bytes must be positive, got {chunk_bytes}")
        self.conn = conn
        self.chunk_bytes = chunk_bytes
        self.stream_id = next(_stream_ids)
        self._send_seq = 0
        #: Messages fully sent / received through this wrapper.
        self.messages_sent = 0
        self.messages_received = 0

    # -- passthrough conveniences -----------------------------------------

    @property
    def sim(self):
        return self.conn.sim

    @property
    def local_addr(self):
        return self.conn.local_addr

    @property
    def remote_addr(self):
        return self.conn.remote_addr

    @property
    def closed(self) -> bool:
        return self.conn.closed

    def close(self) -> None:
        self.conn.close()

    # -- sending ------------------------------------------------------------

    def send(
        self,
        payload: Any,
        nbytes: Optional[int] = None,
        tctx: Optional[str] = None,
    ) -> Process:
        """Send one message as a train of chunk frames.

        ``tctx`` tags every frame with a causal trace context; when
        omitted and tracing is on, it is sniffed from the payload's
        own ``tctx`` attribute (MPI envelopes, control requests).
        """
        if nbytes is None:
            from repro.simnet.socket import wire_size

            nbytes = wire_size(payload, self.conn.network.config.default_msg_bytes)
        if nbytes <= 0:
            raise FrameError(f"message size must be positive, got {nbytes}")
        if tctx is None:
            from repro.obs import trace as _trace

            if _trace.ENABLED:
                tctx = getattr(payload, "tctx", None)
        return self.sim.process(
            self._send_proc(payload, nbytes, tctx),
            name=f"framed-send->{self.remote_addr}",
        )

    def _send_proc(
        self, payload: Any, nbytes: int, tctx: Optional[str] = None
    ) -> Iterator[Event]:
        self._send_seq += 1
        seq = self._send_seq
        count = max(1, -(-nbytes // self.chunk_bytes))
        remaining = nbytes
        for index in range(count):
            chunk = min(self.chunk_bytes, remaining)
            remaining -= chunk
            frame = DataFrame(
                stream_id=self.stream_id,
                msg_seq=seq,
                index=index,
                count=count,
                chunk_bytes=chunk,
                total_bytes=nbytes,
                payload=payload if index == count - 1 else None,
                tctx=tctx,
            )
            yield self.conn.send(frame, nbytes=frame.wire_bytes)
        self.messages_sent += 1

    # -- receiving -----------------------------------------------------------

    def recv(self, timeout: Optional[float] = None) -> Iterator[Event]:
        """Generator: ``msg = yield from framed.recv()``.

        Returns ``(payload, nbytes)``; validates frame sequencing and
        raises :class:`FrameError` on corruption.
        """
        first = yield self.conn.recv(timeout=timeout)
        frame = first.payload
        if not isinstance(frame, DataFrame):
            raise FrameError(f"expected DataFrame, got {type(frame).__name__}")
        if frame.index != 0:
            raise FrameError(
                f"message starts at chunk {frame.index}, expected 0 "
                f"(msg {frame.msg_seq})"
            )
        count = frame.count
        total = frame.total_bytes
        seq = frame.msg_seq
        for expected in range(1, count):
            msg = yield self.conn.recv(timeout=timeout)
            frame = msg.payload
            if not isinstance(frame, DataFrame):
                raise FrameError(f"expected DataFrame, got {type(frame).__name__}")
            if frame.msg_seq != seq or frame.index != expected:
                raise FrameError(
                    f"out-of-order frame: got (msg {frame.msg_seq}, "
                    f"chunk {frame.index}), expected (msg {seq}, chunk {expected})"
                )
        self.messages_received += 1
        return frame.payload, total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FramedConnection {self.conn!r} chunk={self.chunk_bytes}>"
