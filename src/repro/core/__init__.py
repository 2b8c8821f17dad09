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
``repro-outer-server`` / ``repro-inner-server``).  The names below
are imported on first use, so a live daemon that imports
:mod:`repro.core.aio` never loads the simulated relay.
"""

from repro._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(globals(), {
    "repro.core.api": ("DirectListener", "NexusProxyClient", "ProxiedListener"),
    "repro.core.chain": ("ChainModel", "RelayStage", "WireLeg"),
    "repro.core.config": ("DEFAULT_RELAY_CONFIG", "RelayConfig"),
    "repro.core.frames": ("DataFrame", "FrameError", "FramedConnection"),
    "repro.core.inner": ("InnerServer",),
    "repro.core.outer": ("OuterServer", "RelayStats"),
    "repro.core.protocol": (
        "BindReply", "BindRequest", "ConnectRequest", "NXProxyError", "Reply", "RelayTo",
    ),
})
