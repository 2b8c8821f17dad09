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

The names below are imported on first use, so importing one leaf
(say :mod:`repro.simnet.firewall`) does not load the kernel.
"""

from repro._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(globals(), {
    "repro.simnet.firewall": ("Action", "Direction", "Firewall", "FirewallBlocked", "Rule"),
    "repro.simnet.host": ("Host",),
    "repro.simnet.kernel": (
        "AllOf", "AnyOf", "Event", "Interrupt", "Process", "SimError", "Simulator", "Timeout",
    ),
    "repro.simnet.link": ("DuplexLink", "Link"),
    "repro.simnet.primitives": ("Channel", "ChannelClosed", "Gate", "Resource"),
    "repro.simnet.socket": (
        "Address", "Connection", "ConnectionRefused", "ConnectionReset", "ConnectTimeout",
        "ListenSocket", "Message", "NetConfig", "SocketError", "wire_size",
    ),
    "repro.simnet.topology": ("Network", "Site"),
})
