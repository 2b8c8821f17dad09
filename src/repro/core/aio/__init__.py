"""Real asyncio implementation of the Nexus Proxy.

The same mechanism as :mod:`repro.core`'s simulated servers, on actual
OS sockets: an outer relay daemon, an inner relay daemon, and a client
library with the Table 1 calls.  This is the adoptable artifact — a
firewall-traversing TCP relay that (unlike SOCKS, §3) supports
*passive* opens: a process behind the firewall can publish a listening
endpoint on the outer server.

Run the daemons with the installed console scripts::

    repro-outer-server --host 0.0.0.0 --control-port 7000
    repro-inner-server --host 0.0.0.0 --nxport 7100

or in-process via :class:`AioOuterServer` / :class:`AioInnerServer`
(see ``examples/real_relay_echo.py``).  The names below are imported
on first use: a daemon loads the relay, not the client, the striping
layer or the fleet (and with it :mod:`multiprocessing`).
"""

from repro._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(globals(), {
    "repro.core.aio.api": ("AioProxiedListener", "AioProxyClient"),
    "repro.core.aio.firewall": ("GuardedDialer",),
    "repro.core.aio.fleet": ("FleetManager", "FleetSpec"),
    "repro.core.aio.mux": ("MUX_MAGIC", "ChainReset", "MuxConnector"),
    "repro.core.aio.pump": ("SegmentBatcher", "send_segments", "tune_stream"),
    "repro.core.aio.relay": ("AioInnerServer", "AioOuterServer", "AioRelayStats"),
    "repro.core.aio.streams": (
        "DEFAULT_BLOCK", "DEFAULT_STREAMS", "DEFAULT_WINDOW", "StripeError",
        "StripeSink", "recv_striped", "send_striped",
    ),
})
