"""Table 2: communication latency and bandwidth, direct vs. proxied.

Methodology (matching the Nexus-era harness the paper used):

* **latency** — half the round trip of a small (16-byte) ping-pong on
  an established connection;
* **bandwidth(S)** — ``S / (round trip of an S-byte echo / 2)`` for
  S = 4096 ("4096byte message") and S = 2\\ :sup:`20` ("1MB message").

Each row runs on a fresh :class:`~repro.cluster.testbed.Testbed`.
Direct rows use plain (framed) connections — possible without touching
the firewall because the measuring side dials *outbound*; indirect
rows publish the server end with ``NXProxyBind`` so traffic chains
through the outer and inner relay servers, exactly the Fig. 3/4 paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from repro.cluster.testbed import Testbed
from repro.core.api import NexusProxyClient
from repro.core.frames import FramedConnection
from repro.simnet.kernel import Event
from repro.util.stats import median
from repro.util.tables import Table
from repro.util.units import MIB_MESSAGE, SMALL_MESSAGE, fmt_rate, fmt_time

__all__ = ["PAPER_TABLE2", "Table2Row", "measure_paths", "render_table2",
           "run_table2", "table2_rows"]

#: Message size used for the latency measurement.
LATENCY_PROBE_BYTES = 16
#: Ping-pong repetitions per size (the simulation is deterministic,
#: but repetitions separate connection-warm-up from steady state).
REPS = 3


@dataclass(frozen=True, slots=True)
class Table2Row:
    """One measured Table 2 row."""

    label: str
    latency: float
    bandwidth_4k: float
    bandwidth_1mb: float


#: The legible cells of the paper's Table 2 (None = lost to the
#: scanned-PDF transcription), keyed by path in the paper's row order.
#: The scorecard (:mod:`repro.bench.score`) checks every legible one.
PAPER_TABLE2: dict[str, tuple[Optional[float], Optional[float], Optional[float]]] = {
    "RWCP-Sun <-> COMPaS (direct)": (0.41e-3, 3.29e6, 6.32e6),
    "RWCP-Sun <-> COMPaS (indirect)": (25.0e-3, 70.5e3, None),
    "RWCP-Sun <-> ETL-Sun (direct)": (3.9e-3, None, None),
    "RWCP-Sun <-> ETL-Sun (indirect)": (25.1e-3, None, None),
}


def _echo_server(listener_or_sock, proxied: bool, chunk: int) -> Iterator[Event]:
    """Accept one connection and echo every message back, same size."""
    if proxied:
        framed = yield from listener_or_sock.accept()
    else:
        conn = yield listener_or_sock.accept()
        framed = FramedConnection(conn, chunk)
    try:
        while True:
            payload, nbytes = yield from framed.recv()
            yield framed.send(payload, nbytes=nbytes)
    except Exception:
        return  # peer closed


def _pingpong_client(
    tb: Testbed,
    connect_gen,
    sizes: Sequence[int],
    out: dict[int, float],
) -> Iterator[Event]:
    framed = yield from connect_gen
    # Warm-up exchange: connection establishment and first-message
    # costs must not pollute the steady-state numbers.
    yield framed.send(b"w", nbytes=LATENCY_PROBE_BYTES)
    yield from framed.recv()
    for size in sizes:
        rtts = []
        for _ in range(REPS):
            t0 = tb.sim.now
            yield framed.send(b"p", nbytes=size)
            yield from framed.recv()
            rtts.append(tb.sim.now - t0)
        out[size] = median(rtts) / 2  # one-way time
    framed.close()


def _measure(label: str, sizes: Sequence[int]) -> dict[int, float]:
    """One-way time per message size on one path (fresh testbed)."""
    tb = Testbed()
    chunk = tb.relay_config.chunk_bytes
    indirect = label.endswith("(indirect)")
    if "COMPaS" in label:
        client_host, server_host = tb.rwcp_sun, tb.compas[0]
    else:
        client_host, server_host = tb.etl_sun, tb.rwcp_sun
        if not indirect:
            # "For the experiments, we have temporarily changed the
            # configuration of the firewall to enable direct communication
            # between RWCP-Sun and ETL-Sun." (§4.2 footnote)
            tb.open_firewall_for_direct_runs()

    out: dict[int, float] = {}

    if indirect:
        server_client = NexusProxyClient(server_host, **tb.proxy_addrs)

        def orchestrate() -> Iterator[Event]:
            listener = yield from server_client.bind()
            tb.sim.process(
                _echo_server(listener, proxied=True, chunk=chunk), name="echo"
            )
            peer = NexusProxyClient(client_host, **tb.proxy_addrs)
            yield from _pingpong_client(
                tb, peer.connect(listener.proxy_addr), sizes, out
            )
            listener.close()

        driver = tb.sim.process(orchestrate(), name="table2")
    else:
        lsock = server_host.listen(9900)
        tb.sim.process(_echo_server(lsock, proxied=False, chunk=chunk), name="echo")
        plain = NexusProxyClient(client_host)  # no proxy configured

        def orchestrate() -> Iterator[Event]:
            yield from _pingpong_client(
                tb, plain.connect((server_host.name, 9900)), sizes, out
            )

        driver = tb.sim.process(orchestrate(), name="table2")

    tb.sim.run(until=driver)
    return out


def measure_paths(sizes: Sequence[int]) -> dict[str, dict[int, float]]:
    """One-way time per message size on every Table 2 path.

    Each size is measured on the already-warm connection independently
    of the others, so extra sizes (the bandwidth curve of §4.2) leave
    the Table 2 sizes' times unchanged.
    """
    return {label: _measure(label, sizes) for label in PAPER_TABLE2}


def table2_rows(one_way: dict[str, dict[int, float]]) -> list[Table2Row]:
    """The Table 2 rows read off :func:`measure_paths`."""
    return [
        Table2Row(
            label=label,
            latency=t[LATENCY_PROBE_BYTES],
            bandwidth_4k=SMALL_MESSAGE / t[SMALL_MESSAGE],
            bandwidth_1mb=MIB_MESSAGE / t[MIB_MESSAGE],
        )
        for label, t in one_way.items()
    ]


def run_table2() -> list[Table2Row]:
    """Measure all four rows (fresh testbed per row)."""
    return table2_rows(
        measure_paths((LATENCY_PROBE_BYTES, SMALL_MESSAGE, MIB_MESSAGE))
    )


def render_table2(rows: list[Table2Row]) -> str:
    """Paper-style rendering with the legible paper cells alongside."""
    t = Table(
        ["", "latency", "bw (4096B)", "bw (1MB)",
         "paper latency", "paper bw 4K", "paper bw 1MB"],
        title="Table 2. Communication latency and bandwidth",
    )
    for row in rows:
        paper = PAPER_TABLE2.get(row.label, (None, None, None))

        def p(v, f):
            return f(v) if v is not None else "(illegible)"

        t.add_row(
            [
                row.label,
                fmt_time(row.latency),
                fmt_rate(row.bandwidth_4k),
                fmt_rate(row.bandwidth_1mb),
                p(paper[0], fmt_time),
                p(paper[1], fmt_rate),
                p(paper[2], fmt_rate),
            ]
        )
    return t.render()
