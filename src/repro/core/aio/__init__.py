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
(see ``examples/real_relay_echo.py``).
"""

from repro.core.aio.api import AioProxiedListener, AioProxyClient
from repro.core.aio.firewall import GuardedDialer
from repro.core.aio.fleet import FleetManager, FleetSpec
from repro.core.aio.mux import MUX_MAGIC, ChainReset, MuxConnector
from repro.core.aio.pump import SegmentBatcher, send_segments, tune_stream
from repro.core.aio.relay import AioInnerServer, AioOuterServer, AioRelayStats
from repro.core.aio.streams import (
    DEFAULT_BLOCK,
    DEFAULT_STREAMS,
    DEFAULT_WINDOW,
    StripeError,
    StripeSink,
    recv_striped,
    send_striped,
)

__all__ = [
    "AioInnerServer",
    "AioOuterServer",
    "AioProxiedListener",
    "AioProxyClient",
    "AioRelayStats",
    "ChainReset",
    "DEFAULT_BLOCK",
    "DEFAULT_STREAMS",
    "DEFAULT_WINDOW",
    "FleetManager",
    "FleetSpec",
    "GuardedDialer",
    "MUX_MAGIC",
    "MuxConnector",
    "SegmentBatcher",
    "StripeError",
    "StripeSink",
    "recv_striped",
    "send_segments",
    "send_striped",
    "tune_stream",
]
