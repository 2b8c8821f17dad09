"""Unit tests for the live relay's byte-level control protocol."""

import asyncio

import pytest

from repro.core.aio.protocol import (
    MAX_CONTROL_LINE,
    ProtocolError,
    error_reply,
    ok_reply,
    read_control,
    require_fields,
    require_host,
    require_port,
    write_control,
)


def run(coro):
    return asyncio.run(coro)


def make_reader(data: bytes) -> asyncio.StreamReader:
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    reader.feed_eof()
    return reader


def test_read_control_roundtrip():
    async def main():
        reader = make_reader(b'{"op": "connect", "host": "h", "port": 5}\n')
        msg = await read_control(reader)
        assert msg == {"op": "connect", "host": "h", "port": 5}

    run(main())


def test_read_control_rejects_garbage():
    async def main():
        for garbage in (b"not json\n", b"\xc3\x28 not even UTF-8\n"):
            with pytest.raises(ProtocolError, match="not JSON"):
                await read_control(make_reader(garbage))

    run(main())


def test_read_control_rejects_non_object():
    async def main():
        with pytest.raises(ProtocolError, match="must be an object"):
            await read_control(make_reader(b"[1, 2]\n"))

    run(main())


def test_read_control_rejects_eof():
    async def main():
        with pytest.raises(ProtocolError, match="closed before"):
            await read_control(make_reader(b""))

    run(main())


def test_write_control_line_format():
    class FakeWriter:
        def __init__(self):
            self.data = b""

        def write(self, b):
            self.data += b

    w = FakeWriter()
    write_control(w, ok_reply(proxy_port=7))
    assert w.data == b'{"ok":true,"proxy_port":7}\n'


def test_write_control_rejects_oversize():
    class FakeWriter:
        def write(self, b):
            pass

    with pytest.raises(ProtocolError, match="too long"):
        write_control(FakeWriter(), {"blob": "x" * (MAX_CONTROL_LINE + 10)})


def test_reply_helpers():
    assert ok_reply() == {"ok": True}
    assert ok_reply(a=1) == {"ok": True, "a": 1}
    assert error_reply("nope") == {"ok": False, "error": "nope"}


def test_require_fields():
    require_fields({"a": 1, "b": 2}, "a", "b")
    with pytest.raises(ProtocolError, match="missing fields.*'c'"):
        require_fields({"a": 1}, "a", "c")


@pytest.mark.parametrize("bad", ["80", 0, -1, 65536, None, 3.14])
def test_require_port_rejects(bad):
    with pytest.raises(ProtocolError, match="invalid port"):
        require_port(bad)


@pytest.mark.parametrize("good", [1, 80, 65535])
def test_require_port_accepts(good):
    assert require_port(good) == good


@pytest.mark.parametrize(
    "bad", [5, None, ["a"], "", "a\x00b", "a..b", "\ud800", "x" * 64 + ".com",
            "h." * 127 + "hh"]
)
def test_require_host_rejects(bad):
    with pytest.raises(ProtocolError, match="invalid host"):
        require_host(bad)


@pytest.mark.parametrize("good", ["127.0.0.1", "::1", "relay.example.org",
                                  "h." * 127 + "h"])
def test_require_host_accepts(good):
    assert require_host(good) == good
