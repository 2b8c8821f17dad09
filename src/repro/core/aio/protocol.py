"""Byte-level protocols of the live relay: JSON control lines, and
the NXMUX/1 frames of the multiplexed nxport link (below).

Control messages are single newline-terminated JSON objects — one
request, one reply — after which the connection switches to opaque
byte relaying.  JSON keeps the protocol debuggable with ``nc``; the
data path never touches it.

Ops:

* ``{"op": "connect", "host": H, "port": P}`` → outer server; reply
  ``{"ok": true}`` then raw relay (Fig. 3).
* ``{"op": "bind", "client_host": H, "client_port": P,
  "inner_host": IH, "inner_port": IP}`` → outer server; reply
  ``{"ok": true, "proxy_host": ..., "proxy_port": ...}``.  The control
  connection then stays open; its EOF releases the bind (Fig. 4).

The nxport speaks one dialect: a connection opens with ``NXMUX/1\\n``
and then carries length-prefixed frames for many chains
(:mod:`repro.core.aio.mux`); any other first line is refused with one
error reply.  (The per-chain ``relayto`` op exists only on the sim
plane, :mod:`repro.core.protocol`.)  Frame layout::

    +----------+------+-----------+----------------+
    | chain_id | type |  length   | payload ...    |
    |  u32 BE  |  u8  |  u32 BE   | length bytes   |
    +----------+------+-----------+----------------+

* ``OPEN``  — outer→inner; payload is a JSON ``{"host": H, "port": P}``
  naming the firewalled client's private listener.  The inner server
  dials it and answers ``OPEN_OK`` or ``OPEN_ERR`` (payload: reason).
* ``DATA``  — opaque chain bytes, either direction.
* ``EOF``   — half-close of the sender's direction.
* ``RST``   — hard teardown of one chain (sibling chains unaffected).
* ``WINDOW`` — flow-control credit: payload is a u32 count of bytes
  the receiver has consumed and the sender may now send again.
"""

from __future__ import annotations

import asyncio
import json
import struct
from typing import Any, Iterator

__all__ = [
    "MAX_CONTROL_LINE",
    "ProtocolError",
    "parse_control_line",
    "read_control",
    "encode_control",
    "write_control",
    "ok_reply",
    "error_reply",
    "adopt",
    "MUX_MAGIC",
    "FrameType",
    "FrameDecoder",
    "MuxError",
    "ChainReset",
]

#: Upper bound on a control line; anything longer is a protocol error
#: (and a cheap defence against garbage on the control port).
MAX_CONTROL_LINE = 4096
#: Longest host field accepted (the DNS name limit).
MAX_HOST_BYTES = 255


class ProtocolError(ConnectionError):
    """Malformed control traffic."""


def parse_control_line(line: bytes) -> dict[str, Any]:
    """Parse one already-read control line; raises
    :class:`ProtocolError` on garbage, oversize lines, or EOF (empty
    line)."""
    if not line:
        raise ProtocolError("connection closed before control message")
    if len(line) > MAX_CONTROL_LINE:
        raise ProtocolError(f"control line too long ({len(line)} bytes)")
    try:
        msg = json.loads(line)
    except ValueError as exc:  # bad JSON, or bytes that are not UTF-8 at all
        raise ProtocolError(f"control line is not JSON: {exc}") from exc
    if not isinstance(msg, dict):
        raise ProtocolError(f"control message must be an object, got {type(msg).__name__}")
    return msg


async def read_control(reader: asyncio.StreamReader) -> dict[str, Any]:
    """Read one JSON control message; raises :class:`ProtocolError` on
    garbage, oversize lines, or early EOF."""
    try:
        line = await reader.readline()
    except (asyncio.LimitOverrunError, ValueError) as exc:
        raise ProtocolError(f"control line unreadable: {exc}") from exc
    return parse_control_line(line)


def encode_control(msg: dict[str, Any]) -> bytes:
    """One newline-terminated compact JSON line: the encoding of every
    control message, stripe hello and fleet control message."""
    return json.dumps(msg, separators=(",", ":")).encode() + b"\n"


def write_control(writer: asyncio.StreamWriter, msg: dict[str, Any]) -> None:
    """Queue one JSON control message (caller drains)."""
    data = encode_control(msg)
    if len(data) > MAX_CONTROL_LINE:
        raise ProtocolError(f"control message too long ({len(data)} bytes)")
    writer.write(data)


def ok_reply(**extra: Any) -> dict[str, Any]:
    return {"ok": True, **extra}


def error_reply(message: str) -> dict[str, Any]:
    return {"ok": False, "error": message}


def require_fields(msg: dict[str, Any], *fields: str) -> None:
    """Validate that ``msg`` carries every named field."""
    missing = [f for f in fields if f not in msg]
    if missing:
        raise ProtocolError(f"control message missing fields: {missing}")


def require_port(value: Any) -> int:
    """Validate a port number from the wire."""
    if not isinstance(value, int) or not (1 <= value <= 65535):
        raise ProtocolError(f"invalid port: {value!r}")
    return value


def require_host(value: Any) -> str:
    """Validate a host name/address from the wire.  Whatever fails here
    would otherwise raise ``TypeError``/``ValueError`` (not ``OSError``)
    out of the resolver, past the handlers' error replies."""
    if isinstance(value, str) and value and "\x00" not in value:
        try:
            if len(value.encode("idna")) <= MAX_HOST_BYTES:
                return value
        except UnicodeError:  # empty/over-long label, lone surrogate
            pass
    raise ProtocolError(f"invalid host: {value!r:.80}")


def adopt(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    protocol: asyncio.BaseProtocol,
) -> "bytes | None":
    """Hand an established stream's transport over to ``protocol``.

    When a connection switches from line-oriented control traffic to a
    protocol-driven byte plane, any payload the peer sent back-to-back
    with its control line is already sitting in the StreamReader's
    buffer: it is detached and returned (possibly ``b""``) for the
    caller to deliver before anything the new protocol reads.  Reading
    is resumed, in case the stream layer had paused it against its
    limit.  An EOF the stream already saw is not replayed: the caller
    checks ``reader.at_eof()``.

    Returns ``None`` and changes nothing when the stream has failed or
    its transport is closing.
    """
    transport = writer.transport
    if transport.is_closing() or reader.exception() is not None:
        return None
    buf = reader._buffer
    data = bytes(buf)
    buf.clear()
    transport.set_protocol(protocol)
    transport.resume_reading()
    return data


# ---------------------------------------------------------------------------
# NXMUX/1 frames
# ---------------------------------------------------------------------------

#: First line of every nxport connection.
MUX_MAGIC = b"NXMUX/1\n"

#: Hard cap on one DATA frame's payload (naturally bounded by the window).
MAX_FRAME_PAYLOAD = 1 << 20
#: Cap on any other frame's payload (OPEN JSON, OPEN_ERR reason) — with
#: one header, the most a decoder ever holds between feeds.
MAX_CONTROL_PAYLOAD = 4096

FRAME_HEADER = struct.Struct("!IBI")  # chain_id, frame type, payload length
U32 = struct.Struct("!I")


class FrameType:
    OPEN = 1
    OPEN_OK = 2
    OPEN_ERR = 3
    DATA = 4
    EOF = 5
    RST = 6
    WINDOW = 7

    NAMES = {1: "OPEN", 2: "OPEN_OK", 3: "OPEN_ERR",
             4: "DATA", 5: "EOF", 6: "RST", 7: "WINDOW"}


class MuxError(ConnectionError):
    """Protocol violation or link failure on the mux connection."""


class ChainReset(ConnectionError):
    """One logical chain was torn down (RST or link drop)."""


class FrameDecoder:
    """Sans-io NXMUX/1 parser: bytes in, ``(chain_id, type, payload)``
    events out, :class:`MuxError` on every malformed input.

    A DATA payload is streamed, not reassembled: each span of it is
    yielded as a ``memoryview`` of the fed buffer as it arrives (valid
    only until the consumer asks for the next event), counted down in
    ``data_left``.  Headers and the payloads of all other frames are
    small: they are gathered in ``stash`` (never more than a header +
    ``MAX_CONTROL_PAYLOAD``) and such a frame is yielded once, whole.
    """

    __slots__ = ("stash", "_data_chain", "data_left")

    def __init__(self) -> None:
        self.stash = bytearray()
        self._data_chain = 0
        self.data_left = 0

    def feed(self, data) -> "Iterator[tuple[int, int, bytes | memoryview]]":
        view = memoryview(data)
        off, end, hsize, stash = 0, view.nbytes, FRAME_HEADER.size, self.stash
        while off < end:
            if self.data_left:
                n = min(self.data_left, end - off)
                self.data_left -= n
                yield self._data_chain, FrameType.DATA, view[off:off + n]
                off += n
                continue
            # First the header, then the payload a checked header announced.
            want = hsize
            if len(stash) >= hsize:
                want += FRAME_HEADER.unpack_from(stash)[2]
            take = min(want - len(stash), end - off)
            stash += view[off:off + take]
            off += take
            if len(stash) < want:
                break
            chain_id, ftype, length = FRAME_HEADER.unpack_from(stash)
            if len(stash) == hsize:
                if ftype not in FrameType.NAMES:
                    raise MuxError(f"unknown frame type {ftype}")
                if length > (MAX_FRAME_PAYLOAD if ftype == FrameType.DATA
                             else MAX_CONTROL_PAYLOAD):
                    raise MuxError(f"oversized {FrameType.NAMES[ftype]} frame ({length} bytes)")
                if ftype == FrameType.WINDOW and length != U32.size:
                    raise MuxError(f"WINDOW payload of {length} bytes")
                if ftype == FrameType.DATA:
                    self._data_chain, self.data_left = chain_id, length
                    stash.clear()
                    continue
                if length:
                    continue
            payload = bytes(stash[hsize:])
            stash.clear()
            yield chain_id, ftype, payload
