"""Discrete-event wide-area network simulator.

The substrate everything else runs on: a deterministic generator-based
DES kernel (:mod:`~repro.simnet.kernel`), synchronization primitives,
latency+bandwidth links, firewalled sites, and a TCP-like socket layer
(connect/bind/listen/accept/send/recv) with message pipelining.

Quick taste::

    from repro.simnet import Network, Firewall

    net = Network()
    lab = net.add_site("lab", firewall=Firewall.typical())
    inside = net.add_host("inside", site=lab)
    outside = net.add_host("outside")
    net.link(inside, outside, latency=2e-3, bandwidth=180e3)

    def server():
        lsock = inside.listen(5000)
        conn = yield lsock.accept()
        msg = yield conn.recv()
        yield conn.send(b"pong", nbytes=msg.nbytes)

    def client():
        conn = yield from outside.connect(("inside", 5000))  # blocked!
        ...

    net.sim.process(server())
    net.sim.process(client())
    net.sim.run()
"""

from repro.simnet.firewall import Action, Direction, Firewall, FirewallBlocked, Rule
from repro.simnet.host import Host
from repro.simnet.kernel import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Process,
    SimError,
    Simulator,
    Timeout,
)
from repro.simnet.link import DuplexLink, Link
from repro.simnet.primitives import Channel, ChannelClosed, Gate, Resource
from repro.simnet.socket import (
    Address,
    Connection,
    ConnectionRefused,
    ConnectionReset,
    ConnectTimeout,
    ListenSocket,
    Message,
    NetConfig,
    SocketError,
    wire_size,
)
from repro.simnet.topology import Network, Site

__all__ = [
    "Action",
    "Address",
    "AllOf",
    "AnyOf",
    "Channel",
    "ChannelClosed",
    "Connection",
    "ConnectionRefused",
    "ConnectionReset",
    "ConnectTimeout",
    "Direction",
    "DuplexLink",
    "Event",
    "Firewall",
    "FirewallBlocked",
    "Gate",
    "Host",
    "Interrupt",
    "Link",
    "ListenSocket",
    "Message",
    "NetConfig",
    "Network",
    "Process",
    "Resource",
    "Rule",
    "SimError",
    "Simulator",
    "Site",
    "SocketError",
    "Timeout",
    "wire_size",
]
