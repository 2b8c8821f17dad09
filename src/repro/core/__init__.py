"""The Nexus Proxy — the paper's primary contribution.

A user-level TCP relay that carries Globus/Nexus communication across
deny-based firewalls:

* :class:`~repro.core.outer.OuterServer` runs outside the firewall and
  handles connect/bind requests;
* :class:`~repro.core.inner.InnerServer` runs inside, reachable only
  via the single *nxport* pinhole, and completes passive chains;
* :class:`~repro.core.api.NexusProxyClient` provides the Table 1
  library calls (``NXProxyConnect`` / ``NXProxyBind`` /
  ``NXProxyAccept``).

Two implementations share this package: the simulated one (on
:mod:`repro.simnet`, used by every performance experiment) and the
real asyncio one in :mod:`repro.core.aio` (run it on actual sockets:
``repro-outer-server`` / ``repro-inner-server``).
"""

from repro.core.api import DirectListener, NexusProxyClient, ProxiedListener
from repro.core.chain import ChainModel, RelayStage, WireLeg
from repro.core.config import DEFAULT_RELAY_CONFIG, RelayConfig
from repro.core.frames import DataFrame, FrameError, FramedConnection
from repro.core.inner import InnerServer
from repro.core.outer import OuterServer, RelayStats
from repro.core.protocol import (
    BindReply,
    BindRequest,
    ConnectRequest,
    NXProxyError,
    Reply,
    RelayTo,
)

__all__ = [
    "BindReply",
    "BindRequest",
    "ChainModel",
    "ConnectRequest",
    "DEFAULT_RELAY_CONFIG",
    "DataFrame",
    "DirectListener",
    "FrameError",
    "FramedConnection",
    "InnerServer",
    "NXProxyError",
    "NexusProxyClient",
    "OuterServer",
    "ProxiedListener",
    "RelayConfig",
    "RelayStage",
    "RelayStats",
    "Reply",
    "RelayTo",
    "WireLeg",
]
