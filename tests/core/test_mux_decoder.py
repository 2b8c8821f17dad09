"""The NXMUX/1 read path on every input, not just the ones our own
daemons send: ``FrameDecoder`` alone, then a whole ``_MuxSession``
driven without sockets (a recording transport stands in for the link).
"""

import asyncio
import struct
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aio.mux import DEFAULT_WINDOW, _MuxSession
from repro.core.aio.protocol import (
    MAX_CONTROL_PAYLOAD,
    MAX_FRAME_PAYLOAD,
    FrameDecoder,
    FrameType,
    MuxError,
)
from repro.core.aio.relay import AioRelayStats

HEADER = struct.Struct("!IBI")
DATA = FrameType.DATA
CONTROL = [t for t in FrameType.NAMES if t not in (DATA, FrameType.WINDOW)]


def frame(chain_id, ftype, payload=b""):
    return HEADER.pack(chain_id, ftype, len(payload)) + payload


def window(chain_id, credit):
    return frame(chain_id, FrameType.WINDOW, struct.pack("!I", credit))


def rechunk(stream, cuts):
    """``stream`` split at the (sorted, deduplicated) offsets ``cuts``."""
    edges = [0, *sorted({c % (len(stream) + 1) for c in cuts}), len(stream)]
    return [stream[a:b] for a, b in zip(edges, edges[1:])]


def decode(chunks, decoder=None):
    """Events of feeding ``chunks`` in order, DATA spans of one frame
    train merged (a span boundary is where a feed happened to end)."""
    decoder = decoder or FrameDecoder()
    events = []
    for chunk in chunks:
        for chain_id, ftype, payload in decoder.feed(chunk):
            if ftype == DATA and events and events[-1][:2] == (chain_id, DATA):
                events[-1] = (chain_id, DATA, events[-1][2] + bytes(payload))
            else:
                events.append((chain_id, ftype, bytes(payload)))
        assert len(decoder.stash) <= HEADER.size + MAX_CONTROL_PAYLOAD
    return events


chain_ids = st.integers(0, 5)
frames = st.one_of(
    st.tuples(chain_ids, st.sampled_from(CONTROL), st.binary(max_size=300)),
    st.tuples(chain_ids, st.just(DATA), st.binary(max_size=3000)),
    st.tuples(chain_ids, st.just(FrameType.WINDOW), st.binary(min_size=4, max_size=4)),
)


@settings(max_examples=80, deadline=None)
@given(st.lists(frames, max_size=12), st.lists(st.integers(0, 1 << 16), max_size=20))
def test_any_rechunking_yields_the_same_events(frame_list, cuts):
    stream = b"".join(frame(*f) for f in frame_list)
    whole = decode([stream])
    assert decode(rechunk(stream, cuts)) == whole
    assert decode([stream[i:i + 1] for i in range(len(stream))]) == whole
    # Control frames come out as sent, in order; DATA bytes per chain too.
    assert [e for e in whole if e[1] != DATA] == [f for f in frame_list if f[1] != DATA]
    for cid in {f[0] for f in frame_list}:
        sent = b"".join(f[2] for f in frame_list if f[:2] == (cid, DATA))
        assert b"".join(e[2] for e in whole if e[:2] == (cid, DATA)) == sent


@settings(max_examples=120, deadline=None)
@given(st.lists(st.one_of(frames.map(lambda f: frame(*f)), st.binary(max_size=40)),
                max_size=8),
       st.lists(st.integers(0, 1 << 16), max_size=8))
def test_arbitrary_bytes_yield_events_or_muxerror(pieces, cuts):
    """Valid frames spliced with garbage: events, or MuxError — no
    struct.error, IndexError or anything else."""
    try:
        decode(rechunk(b"".join(pieces), cuts))
    except MuxError:
        pass


def test_truncated_header_is_held_not_guessed():
    decoder = FrameDecoder()
    stream = frame(7, FrameType.OPEN, b"{}")
    assert list(decoder.feed(stream[:5])) == []
    assert len(decoder.stash) == 5
    assert list(decoder.feed(stream[5:])) == [(7, FrameType.OPEN, b"{}")]
    assert len(decoder.stash) == 0


@pytest.mark.parametrize("ftype", [0, 8, 255])
def test_unknown_type_is_refused(ftype):
    with pytest.raises(MuxError, match="unknown frame type"):
        list(FrameDecoder().feed(HEADER.pack(1, ftype, 0)))


def test_oversized_lengths_are_refused_from_the_header_alone():
    # At the caps: accepted (only the header is fed; nothing is emitted).
    assert list(FrameDecoder().feed(HEADER.pack(1, DATA, MAX_FRAME_PAYLOAD))) == []
    assert list(FrameDecoder().feed(
        HEADER.pack(1, FrameType.OPEN, MAX_CONTROL_PAYLOAD))) == []
    for ftype, length in [(DATA, MAX_FRAME_PAYLOAD + 1),
                          (FrameType.OPEN, MAX_CONTROL_PAYLOAD + 1),
                          (FrameType.OPEN_ERR, 0xFFFFFFFF)]:
        with pytest.raises(MuxError, match="oversized"):
            list(FrameDecoder().feed(HEADER.pack(1, ftype, length)))


@pytest.mark.parametrize("length", [0, 3, 5, 8])
def test_window_payload_must_be_four_bytes(length):
    with pytest.raises(MuxError, match="WINDOW"):
        list(FrameDecoder().feed(frame(1, FrameType.WINDOW, bytes(length))))


# -- a whole session's read path, no sockets ---------------------------------


class LinkTransport:
    """Records what the session writes to the link."""

    def __init__(self):
        self.sent = bytearray()
        self.closed = False

    def get_extra_info(self, name, default=None):
        return default  # no raw socket: the batcher uses write()

    def get_write_buffer_size(self):
        return 0

    def is_closing(self):
        return self.closed

    def write(self, data):
        self.sent += data

    def close(self):
        self.closed = True

    def set_protocol(self, protocol):
        pass

    def resume_reading(self):
        pass


def in_session(scenario):
    """Run ``scenario(session, opened, link)`` on an inner-style session
    whose OPENs are recorded in ``opened`` instead of dialled."""

    async def main():
        link = LinkTransport()
        opened = []
        session = _MuxSession(
            asyncio.StreamReader(), SimpleNamespace(transport=link, close=link.close),
            AioRelayStats(), on_open=lambda chain, payload: opened.append(chain),
        )
        return scenario(session, opened, link)

    return asyncio.run(main())


def test_frames_for_unknown_chains_are_dropped():
    def scenario(session, opened, link):
        # Never opened.
        session._feed(frame(9, DATA, b"x" * 10) + frame(9, FrameType.EOF)
                      + window(9, 5) + frame(9, FrameType.RST))
        # Opened, reset, then addressed again (frames that raced the RST).
        session._feed(frame(1, FrameType.OPEN, b"{}") + frame(1, FrameType.RST))
        assert opened[0]._reset is not None and 1 not in session.chains
        session._feed(frame(1, DATA, b"late") + frame(1, FrameType.EOF) + window(1, 4))
        # The id may be opened afresh, and the link never noticed.
        session._feed(frame(1, FrameType.OPEN, b"{}"))
        assert len(opened) == 2 and session.alive and not link.closed

    in_session(scenario)


@pytest.mark.parametrize("hostile, reason", [
    (frame(1, FrameType.OPEN, b"{}"), "duplicate OPEN"),
    (window(1, 1), "credit beyond the window"),
    (frame(1, DATA, bytes(1025)), "DATA beyond the window"),
    (frame(1, FrameType.WINDOW, b"\0\0\1"), "WINDOW payload"),
    (HEADER.pack(1, 9, 0), "unknown frame type"),
])
def test_protocol_violations_shut_the_session_down(hostile, reason):
    def scenario(session, opened, link):
        session._feed(frame(1, FrameType.OPEN, b"{}") + frame(2, FrameType.OPEN, b"{}")
                      # Chain 1 may now take only 1024 more bytes.
                      + frame(1, DATA, bytes(DEFAULT_WINDOW - 1024)))
        assert session.alive
        session._feed(hostile)
        assert not session.alive and link.closed and not session.chains
        assert all(chain._reset is not None for chain in opened)
        exc = session.closed.result()
        assert isinstance(exc, MuxError) and reason in str(exc)

    in_session(scenario)


def test_data_before_the_dial_completes_waits_in_a_window_bounded_inbox():
    def scenario(session, opened, link):
        session._feed(frame(1, FrameType.OPEN, b"{}")
                      + frame(1, DATA, bytes(DEFAULT_WINDOW - 24)))
        assert sum(map(len, opened[0]._inbox)) == DEFAULT_WINDOW - 24 and session.alive
        session._feed(frame(1, DATA, bytes(25)))  # one byte beyond the window
        assert not session.alive and not opened[0]._inbox

    in_session(scenario)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(frames.map(lambda f: frame(*f)), st.binary(max_size=40)),
                max_size=10),
       st.lists(st.integers(0, 1 << 16), max_size=6))
def test_session_read_path_survives_or_shuts_down_cleanly(pieces, cuts):
    """Whatever arrives, nothing but a MuxError ends the session, and
    an ended session holds no chain."""

    def scenario(session, opened, link):
        for chunk in rechunk(b"".join(pieces), cuts):
            session._feed(chunk)
        if session.alive:
            return
        assert isinstance(session.closed.result(), MuxError)
        assert not session.chains and link.closed
        assert all(chain._reset is not None for chain in opened)

    in_session(scenario)
