"""The exception root both relay planes share.

:class:`SocketError` is the base of every socket-level failure: the
simulated ones in :mod:`repro.simnet.socket` and
:class:`repro.core.protocol.NXProxyError`, which the live asyncio
client raises too.  It lives in this leaf module so that catching it
does not load the simulator.
"""

__all__ = ["SocketError"]


class SocketError(OSError):
    """Base class for socket failures, simulated or relayed."""
