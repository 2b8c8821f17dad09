"""The striping layer without sockets: a model check of the two sans-io
engines (:class:`StripeSender` + :class:`StripeReceiver`) under
stream death, redial, reordering, duplication and delayed markers,
then the wire-facing read paths — the sink's ``!BQI`` BLOCK/END
decoder, the sender's MARK decoder and the hello line — on every
input: a typed error or a valid event, bounded memory, and the damage
confined to the one connection.
"""

import asyncio
import copy
import json
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.core.aio.protocol import ProtocolError
from repro.core.aio.streams import (
    _FRAME,
    StripeReceiver,
    StripeSender,
    _parse_hello,
    _Send,
    _SendStream,
    _SinkStream,
)

from tests.core.test_mux_decoder import rechunk

BLOCK, END, MARK = 1, 2, 3
K = 3  # streams in the model


def source(total):
    return bytes((i * 31 + (i >> 8)) & 0xFF for i in range(total))


# -- model check ---------------------------------------------------------------


class World:
    """Both engines joined by K streams.  A stream's wire holds blocks
    on their way to the receiver, in any delivery order; its marks hold
    restart markers on their way back, delivered oldest first.  A
    stream's ``reading`` is a block whose header the receiver has read
    and whose payload is half in place; ``zombies`` are such half-reads
    on streams the sender already counts dead but whose receiving end
    is still open (a relay tearing a chain down, a half-dead peer)."""

    def __init__(self, total, block, window):
        self.data = source(total)
        self.tx = StripeSender(total, block, window)
        self.rx = StripeReceiver("model", total, block)
        self.wire = {j: [] for j in range(K)}
        self.marks = {j: [] for j in range(K)}
        self.reading = {j: None for j in range(K)}
        self.zombies = []
        self.up = set()
        #: offset -> how many copies of it landed (the receiver said first).
        self.placed = Counter()
        for j in range(K):
            self.join(j)

    def join(self, j):
        self.tx.stream_up(j)
        self.up.add(j)
        self.wire[j], self.marks[j] = [], [self.rx.join()]

    def post_mark(self, j):
        mark = self.rx.take_mark()
        if mark is not None and j is not None:
            self.marks[j].append(mark)

    def half_read(self, offset, length):
        """A block's header and the first half of its payload; returns
        ``(offset, length, in place)``."""
        view = self.rx.claim(offset, length)
        if view is not None:
            assert view.obj is self.rx.buf and len(view) == length
            view[:length // 2] = self.data[offset:offset + length // 2]
        return offset, length, view is not None

    def finish_read(self, half_read, j):
        """The rest of a half-read payload; a zombie's (``j`` None)
        marker goes nowhere."""
        offset, length, in_place = half_read
        if in_place:
            rest = slice(offset + length // 2, offset + length)
            self.rx.buf[rest] = self.data[rest]
            if self.rx.arrived(offset):
                self.placed[offset] += 1
        self.post_mark(j)

    def arrive(self, j, offset, length):
        self.finish_read(self.half_read(offset, length), j)

    def drain(self):
        """Run without faults, every stream served in turn, until the
        sender completes (True) or nothing can move (False).  Zombies
        never finish: progress must not depend on them."""
        while not self.tx.done:
            moved = False
            for j in sorted(self.up):
                while (nxt := self.tx.next_block(j)) is not None:
                    self.wire[j].append(nxt)
                    moved = True
            for j in sorted(self.up):
                if self.reading[j] is not None:
                    self.finish_read(self.reading[j], j)
                    self.reading[j] = None
                    moved = True
                while self.wire[j]:
                    self.arrive(j, *self.wire[j].pop(0))
                    moved = True
                while self.marks[j]:
                    self.tx.mark(self.marks[j].pop(0))
                    moved = True
            if not moved:
                return False
        return True


streams_st = st.integers(0, K - 1)


class StripeModel(RuleBasedStateMachine):
    @initialize(nblocks=st.integers(1, 12), tail=st.integers(1, 5),
                window=st.integers(1, 3))
    def setup(self, nblocks, tail, window):
        self.w = World((nblocks - 1) * 5 + tail, 5, window)
        self.tx_wm = self.rx_wm = 0

    @rule(j=streams_st)
    def send(self, j):
        if j in self.w.up and (nxt := self.w.tx.next_block(j)) is not None:
            self.w.wire[j].append(nxt)

    @rule(j=streams_st, pick=st.integers(0, 64))
    def deliver_reordered(self, j, pick):
        wire = self.w.wire[j]
        if wire and self.w.reading[j] is None:
            self.w.arrive(j, *wire.pop(pick % len(wire)))

    @rule(j=streams_st)
    def start_read(self, j):
        w = self.w
        if w.wire[j] and w.reading[j] is None:
            w.reading[j] = w.half_read(*w.wire[j].pop(0))
            w.post_mark(j)

    @rule(j=streams_st)
    def finish_read(self, j):
        w = self.w
        if w.reading[j] is not None:
            w.finish_read(w.reading[j], j)
            w.reading[j] = None

    @rule(j=streams_st, k=streams_st)
    def duplicate(self, j, k):
        """A copy of an in-flight block also travels on stream k (a
        requeued block racing its original)."""
        if self.w.wire[j] and k in self.w.up:
            self.w.wire[k].append(self.w.wire[j][0])

    @rule(j=streams_st)
    def deliver_mark(self, j):
        # Not firing this rule is what delays a marker.
        if self.w.marks[j]:
            self.w.tx.mark(self.w.marks[j].pop(0))

    @rule(j=streams_st, linger=st.booleans())
    def kill(self, j, linger):
        """Stream j dies.  A half-read block dies with it, or (linger)
        its receiving end stays open, reading, after the sender has
        requeued the block."""
        w = self.w
        if j not in w.up:
            return
        if linger and w.reading[j] is not None:
            w.zombies.append(w.reading[j])
        w.up.discard(j)
        w.wire[j], w.marks[j], w.reading[j] = [], [], None
        w.tx.stream_dead(j)

    @rule(pick=st.integers(0, 8), finish=st.booleans())
    def zombie_ends(self, pick, finish):
        """A lingering receiving end reads the rest of its block, or closes."""
        w = self.w
        if w.zombies:
            zombie = w.zombies.pop(pick % len(w.zombies))
            if finish:
                w.finish_read(zombie, None)

    @rule(j=streams_st)
    def redial(self, j):
        if j not in self.w.up:
            self.w.join(j)

    @invariant()
    def watermarks_monotone(self):
        tx, rx = self.w.tx, self.w.rx
        assert tx.watermark >= self.tx_wm and rx.watermark >= self.rx_wm
        assert tx.watermark <= rx.watermark
        self.tx_wm, self.rx_wm = tx.watermark, rx.watermark

    @invariant()
    def every_byte_placed_once_and_right(self):
        w = self.w
        assert all(n == 1 for n in w.placed.values())
        assert w.rx.buf[:w.rx.watermark] == w.data[:w.rx.watermark]
        for offset in w.placed:
            assert w.rx.buf[offset:offset + 5] == w.data[offset:offset + 5]

    @invariant()
    def inflight_within_window_plus_one_rescue(self):
        tx = self.w.tx
        assert all(len(offsets) <= tx.window + 1 for offsets in tx.inflight.values())

    @invariant()
    def progress_unless_every_stream_is_dead(self):
        if not self.w.up:
            return
        w = copy.deepcopy(self.w)
        assert w.drain()
        assert w.rx.done and bytes(w.rx.buf) == w.data


TestStripeModel = StripeModel.TestCase
TestStripeModel.settings = settings(max_examples=150, stateful_step_count=40, deadline=None)


# -- read paths, no sockets ----------------------------------------------------


class FakeTransport:
    """Records what a protocol writes, and whether it hung up."""

    def __init__(self):
        self.sent = bytearray()
        self.closing = self.aborted = False

    def get_extra_info(self, name, default=None):
        return default  # no raw socket: send_segments uses write()

    def get_write_buffer_size(self):
        return 0

    def is_closing(self):
        return self.closing

    def write(self, data):
        self.sent += data

    def close(self):
        self.closing = True

    def abort(self):
        self.closing = self.aborted = True


TOTAL, BLK = 50, 8  # seven blocks, the last one short
DATA = source(TOTAL)


def block_frame(offset, payload=None):
    length = min(BLK, TOTAL - offset)
    return _FRAME.pack(BLOCK, offset, length) + (DATA[offset:offset + length]
                                                  if payload is None else payload)


def sink_stream():
    rx = StripeReceiver("x", TOTAL, BLK)
    sink = SimpleNamespace(_complete=lambda rx: None, _streams=set())
    transport = FakeTransport()
    return _SinkStream(sink, rx, SimpleNamespace(transport=transport)), rx, transport


def pour(stream, data, cap=1 << 20):
    """Deliver ``data`` as the event loop does — ``recv_into`` the
    protocol's buffer, reads of at most ``cap`` bytes — checking that
    each read sends at most one marker and the buffer stays bounded."""
    view = memoryview(data)
    while view and not stream.transport.is_closing():
        buf = stream.get_buffer(-1)
        assert 1 <= len(buf) <= max(BLK, _FRAME.size)
        n = min(len(buf), len(view), cap)
        buf[:n] = view[:n]
        view = view[n:]
        before = len(stream.transport.sent)
        stream.buffer_updated(n)
        assert len(stream.transport.sent) - before in (0, _FRAME.size)


def marks_of(transport):
    frames = list(_FRAME.iter_unpack(bytes(transport.sent)))
    assert all(ftype == MARK and length == 0 for ftype, _, length in frames)
    return [offset for _, offset, _ in frames]


def in_loop(fn):
    async def main():
        return fn()

    return asyncio.run(main())


offsets_st = st.sampled_from(range(0, TOTAL, BLK))


@settings(max_examples=100, deadline=None)
@given(st.lists(offsets_st, max_size=16), st.lists(st.integers(0, 200), max_size=10),
       st.integers(1, 20))
def test_any_rechunking_places_blocks_once_in_place(order, cuts, cap):
    def check():
        stream, rx, transport = sink_stream()
        wire = b"".join(block_frame(o) for o in order)
        for chunk in rechunk(wire, cuts):
            pour(stream, chunk, cap)
            stream.buffer_updated(0)  # an empty read
        assert not transport.closing
        assert rx.duplicate_blocks == len(order) - len(set(order))
        assert bytes(rx.buf[:rx.watermark]) == DATA[:rx.watermark]
        expected = 0
        while expected < TOTAL and expected in order:
            expected += BLK
        assert rx.watermark == min(expected, TOTAL)
        marks = marks_of(transport)
        assert marks == sorted(marks) and (not marks or marks[-1] == rx.watermark)

    in_loop(check)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(offsets_st.map(block_frame),
                          st.just(_FRAME.pack(END, 0, 0)),
                          st.binary(max_size=30)), max_size=8),
       st.lists(st.integers(0, 400), max_size=8), st.booleans())
def test_sink_read_path_places_or_refuses(pieces, cuts, as_leftover):
    """Valid frames spliced with garbage: blocks placed, END, or a
    refused (aborted) stream — never an escaping exception, a second
    marker per read or an unbounded buffer."""

    def check():
        stream, rx, transport = sink_stream()
        for chunk in rechunk(b"".join(pieces), cuts):
            if as_leftover:
                stream.buffer_updated(0, chunk)
            else:
                pour(stream, chunk)
            if transport.closing:
                break
        marks = marks_of(transport)
        assert marks == sorted(marks) and all(m <= rx.watermark for m in marks)

    in_loop(check)


@pytest.mark.parametrize("hostile", [
    _FRAME.pack(BLOCK, 0, BLK + 1),          # oversize length
    _FRAME.pack(BLOCK, 0, 0),                # empty block
    _FRAME.pack(BLOCK, 3, BLK),              # not on a block boundary
    _FRAME.pack(BLOCK, TOTAL, 1),            # past the end
    _FRAME.pack(BLOCK, 1 << 63, BLK),        # far out of range
    _FRAME.pack(BLOCK, 48, BLK),             # tail block claiming a full length
    _FRAME.pack(MARK, 0, 0),                 # sink-bound MARK
    _FRAME.pack(0, 0, 0),
    _FRAME.pack(255, 0, 0),
])
def test_sink_refuses_a_bad_frame_and_keeps_the_transfer(hostile):
    def check():
        stream, rx, transport = sink_stream()
        pour(stream, block_frame(0) + hostile + block_frame(8))
        assert transport.aborted
        assert rx.watermark == BLK and bytes(rx.buf[BLK:]) == bytes(TOTAL - BLK)
        # Connection-local: a sibling stream finishes the transfer.
        sibling, _, _ = sink_stream()
        sibling.rx = rx
        pour(sibling, b"".join(block_frame(o) for o in range(BLK, TOTAL, BLK)))
        assert rx.done and bytes(rx.buf) == DATA

    in_loop(check)


def test_a_stream_dying_mid_block_releases_it():
    def check():
        stream, rx, _ = sink_stream()
        frame = block_frame(0)
        pour(stream, frame[:-3])
        stream.connection_lost(ConnectionResetError())
        sibling, _, transport = sink_stream()
        sibling.rx = rx
        pour(sibling, frame)
        assert rx.watermark == BLK and rx.duplicate_blocks == 0
        assert marks_of(transport) == [BLK]

    in_loop(check)


@pytest.mark.parametrize("first_finishes", [False, True])
def test_a_copy_lands_while_another_stream_is_still_reading_it(first_finishes):
    """The sender requeued a block when its stream died, but the sink's
    end of that stream is still reading it (a relay tearing the chain
    down, a half-dead peer): the resent copy on a sibling lands, and the
    first copy then closes or lands as a duplicate."""

    def check():
        stream, rx, first = sink_stream()
        frame = block_frame(0)
        pour(stream, frame[:-3])
        sibling, _, transport = sink_stream()
        sibling.rx = rx
        pour(sibling, frame)
        assert rx.watermark == BLK and marks_of(transport) == [BLK]
        if first_finishes:
            pour(stream, frame[-3:])
            assert rx.duplicate_blocks == 1 and marks_of(first) == [BLK]
        else:
            stream.connection_lost(None)
        assert rx.watermark == BLK and bytes(rx.buf[:BLK]) == DATA[:BLK]

    in_loop(check)


def test_duplicates_land_in_scratch_and_earn_a_marker():
    """First copy wins; a copy below the watermark (the sender is
    behind, e.g. its marker was lost with a stream) is answered with
    the watermark — after completion, the final marker."""

    def check():
        stream, rx, transport = sink_stream()
        pour(stream, b"".join(block_frame(o) for o in range(0, TOTAL, BLK)))
        assert rx.done
        pour(stream, block_frame(8, b"X" * BLK))
        assert bytes(rx.buf) == DATA and rx.duplicate_blocks == 1
        assert marks_of(transport)[-2:] == [TOTAL, TOTAL]

    in_loop(check)


def send_side(streams=2, window=4):
    send = _Send(None, memoryview(DATA), streams, BLK, window, "x", 0, None)
    transports = []
    for j in range(streams):
        transport = FakeTransport()
        stream = _SendStream(send, j, SimpleNamespace(transport=transport))
        send.live[j] = stream
        send.tx.stream_up(j)
        send.pump(stream)
        transports.append(transport)
    return send, transports


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(st.integers(0, TOTAL).map(lambda o: _FRAME.pack(MARK, o, 0)),
                          st.binary(max_size=30)), max_size=8),
       st.lists(st.integers(0, 200), max_size=8))
def test_sender_read_path_applies_marks_or_refuses(pieces, cuts):
    def check():
        send, (transport, _) = send_side()
        stream = send.live[0]
        watermark = 0
        for chunk in rechunk(b"".join(pieces), cuts):
            stream.data_received(chunk)
            assert len(stream.stash) < _FRAME.size
            assert send.tx.watermark >= watermark
            watermark = send.tx.watermark
            if transport.aborted:
                break

    in_loop(check)


@pytest.mark.parametrize("hostile", [
    _FRAME.pack(BLOCK, 0, 8),   # a BLOCK sent toward the sender
    _FRAME.pack(END, 0, 0),
    _FRAME.pack(MARK, 3, 0),    # not a block boundary
    _FRAME.pack(MARK, TOTAL + BLK, 0),
])
def test_sender_refuses_a_bad_frame_on_that_stream_only(hostile):
    def check():
        send, (bad, good) = send_side()
        send.live[0].data_received(_FRAME.pack(MARK, 8, 0) + hostile)
        assert bad.aborted and send.tx.watermark == 8
        send.live[0].connection_lost(None)
        assert send.tx.stream_dead(0) == 0 and 0 not in send.live
        # The sibling carries on, and takes the dead stream's blocks.
        for offset in range(16, TOTAL + BLK, BLK):
            send.live[1].data_received(_FRAME.pack(MARK, min(offset, TOTAL), 0))
        assert send.finished.done() and not good.aborted
        assert good.closing and good.sent.endswith(_FRAME.pack(END, TOTAL, 0))

    in_loop(check)


@pytest.mark.parametrize("line", [
    b"",
    b"not json\n",
    b"[1, 2]\n",
    b'{"stripe": 2, "xfer": "a", "total": 1, "block": 1}\n',
    b'{"stripe": 1, "total": 1, "block": 1}\n',
    b'{"stripe": 1, "xfer": 7, "total": 1, "block": 1}\n',
    b'{"stripe": 1, "xfer": "a", "total": -1, "block": 1}\n',
    b'{"stripe": 1, "xfer": "a", "total": 1.5, "block": 1}\n',
    b'{"stripe": 1, "xfer": "a", "total": true, "block": 1}\n',
    b'{"stripe": 1, "xfer": "a", "total": 1, "block": 0}\n',
    b'{"stripe": 1, "xfer": "a", "total": 1}\n',
    b"{" + b" " * 5000 + b"}\n",
])
def test_bad_hello_is_a_protocol_error(line):
    with pytest.raises(ProtocolError):
        _parse_hello(line)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.binary(max_size=80),
                 st.dictionaries(st.sampled_from(["stripe", "xfer", "total", "block"]),
                                 st.one_of(st.integers(-5, 5), st.text(max_size=3),
                                           st.none(), st.booleans()))
                 .map(lambda d: json.dumps(d).encode() + b"\n")))
def test_any_hello_line_parses_or_is_refused(line):
    try:
        hello = _parse_hello(line)
    except ProtocolError:
        return
    StripeReceiver(hello["xfer"], hello["total"], hello["block"])  # geometry is valid
