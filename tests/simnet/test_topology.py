"""Network construction, routing and multi-hop behaviour."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simnet import Firewall, Network, SimError
from repro.simnet.link import Link


def chain_network(n=4, latency=1e-3, bandwidth=1e6):
    """h0 -- h1 -- ... -- h{n-1}."""
    net = Network()
    hosts = [net.add_host(f"h{i}") for i in range(n)]
    for x, y in zip(hosts, hosts[1:]):
        net.link(x, y, latency=latency, bandwidth=bandwidth)
    return net, hosts


def test_duplicate_host_rejected():
    net = Network()
    net.add_host("x")
    with pytest.raises(SimError):
        net.add_host("x")


def test_duplicate_site_rejected():
    net = Network()
    net.add_site("s")
    with pytest.raises(SimError):
        net.add_site("s")


def test_link_validation():
    net = Network()
    a = net.add_host("a")
    b = net.add_host("b")
    with pytest.raises(SimError):
        net.link(a, "ghost", 1e-3, 1e6)
    with pytest.raises(SimError):
        net.link(a, a, 1e-3, 1e6)
    net.link(a, b, 1e-3, 1e6)
    with pytest.raises(SimError):
        net.link(a, b, 1e-3, 1e6)  # duplicate


def test_path_links_orientation():
    net, hosts = chain_network(3)
    path = net.path_links(hosts[0], hosts[2])
    assert len(path) == 2
    assert all(isinstance(l, Link) for l in path)
    back = net.path_links(hosts[2], hosts[0])
    assert len(back) == 2
    # Opposite directions use distinct unidirectional links.
    assert {id(l) for l in path}.isdisjoint({id(l) for l in back})


def test_loopback_path_empty():
    net, hosts = chain_network(2)
    assert net.path_links(hosts[0], hosts[0]) == []


def test_no_route_raises():
    net = Network()
    a = net.add_host("a")
    b = net.add_host("b")  # not linked
    with pytest.raises(SimError, match="no route"):
        net.path_links(a, b)


def test_shortest_path_prefers_low_latency():
    net = Network()
    a = net.add_host("a")
    b = net.add_host("b")
    slow = net.add_host("slow")
    fast = net.add_host("fast")
    net.link(a, slow, latency=50e-3, bandwidth=1e6)
    net.link(slow, b, latency=50e-3, bandwidth=1e6)
    net.link(a, fast, latency=1e-3, bandwidth=1e6)
    net.link(fast, b, latency=1e-3, bandwidth=1e6)
    path = net.path_links(a, b)
    assert sum(l.latency for l in path) == pytest.approx(2e-3)


def test_rtt_and_hop_count():
    net, hosts = chain_network(4, latency=2e-3)
    assert net.hop_count(hosts[0], hosts[3]) == 3
    assert net.rtt_between(hosts[0], hosts[3]) == pytest.approx(12e-3)


def test_multi_hop_delivery():
    net, hosts = chain_network(4, latency=1e-3, bandwidth=1e6)
    out = {}

    def server():
        lsock = hosts[3].listen(1)
        conn = yield lsock.accept()
        msg = yield conn.recv()
        out["t"] = net.sim.now
        out["payload"] = msg.payload

    def client():
        conn = yield from hosts[0].connect(("h3", 1))
        yield conn.send("end-to-end", nbytes=1000)

    net.sim.process(server())
    net.sim.process(client())
    net.sim.run()
    assert out["payload"] == "end-to-end"
    # handshake (2 * 3ms) + data one-way (3ms + 3 * 1ms serialization) + cpu
    assert 0.011 < out["t"] < 0.016


def test_route_cache_invalidated_on_new_link():
    net = Network()
    a = net.add_host("a")
    b = net.add_host("b")
    c = net.add_host("c")
    net.link(a, b, latency=10e-3, bandwidth=1e6)
    net.link(b, c, latency=10e-3, bandwidth=1e6)
    assert net.hop_count(a, c) == 2
    net.link(a, c, latency=1e-3, bandwidth=1e6)  # direct shortcut
    assert net.hop_count(a, c) == 1


def test_can_connect_static_check():
    net = Network()
    fw = Firewall.typical()
    fw.open_inbound_port(7100, src_host="outer", dst_host="inner")
    site = net.add_site("rwcp", firewall=fw)
    inner = net.add_host("inner", site=site)
    outer = net.add_host("outer")
    other = net.add_host("other")
    net.link(inner, outer, 1e-3, 1e6)
    net.link(outer, other, 1e-3, 1e6)
    assert net.can_connect("outer", "inner", 7100)
    assert not net.can_connect("other", "inner", 7100)
    assert not net.can_connect("outer", "inner", 7101)
    assert net.can_connect("inner", "outer", 12345)  # outbound allowed


def test_hosts_in_site_and_lookup():
    net = Network()
    site = net.add_site("s")
    h1 = net.add_host("h1", site="s")
    h2 = net.add_host("h2", site=site)
    net.add_host("h3")
    assert set(net.hosts_in_site("s")) == {h1, h2}
    assert net.host("h1") is h1
    with pytest.raises(SimError):
        net.host("ghost")


def test_site_host_names_and_repr():
    net = Network()
    site = net.add_site("s", firewall=Firewall.typical())
    net.add_host("h", site=site)
    assert site.host_names == ["h"]
    assert site.firewall.name == "fw:s"


def test_links_iterator():
    net, _ = chain_network(3)
    assert len(list(net.links())) == 2


# -- the router against brute force -------------------------------------------


@st.composite
def connected_graphs(draw):
    """(node count, [(u, v, latency)]): a random spanning tree plus
    extra edges, so cycles and equal-cost routes both occur.  Latencies
    are small integers, so path sums are exact."""
    n = draw(st.integers(2, 7))
    edges = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}
    pairs = [(u, v) for v in range(n) for u in range(v)]
    edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=8)))
    return n, [(u, v, float(draw(st.integers(1, 3)))) for u, v in sorted(edges)]


def build(n, edges):
    net = Network()
    hosts = [net.add_host(f"h{i}") for i in range(n)]
    hop = {}  # unidirectional Link -> (from, to)
    for u, v, latency in edges:
        duplex = net.link(hosts[u], hosts[v], latency=latency, bandwidth=1e6)
        hop[duplex.forward], hop[duplex.reverse] = (u, v), (v, u)
    return net, hosts, hop


def brute_force_min(n, edges, src, dst):
    adj = {i: [] for i in range(n)}
    for u, v, latency in edges:
        adj[u].append((v, latency))
        adj[v].append((u, latency))
    best = float("inf")

    def walk(node, seen, dist):
        nonlocal best
        if node == dst:
            best = min(best, dist)
            return
        for nbr, latency in adj[node]:
            if nbr not in seen:
                walk(nbr, seen | {nbr}, dist + latency)

    walk(src, {src}, 0.0)
    return best


@settings(max_examples=150, deadline=None)
@given(connected_graphs(), st.data())
def test_router_finds_a_shortest_route(graph, data):
    n, edges = graph
    src = data.draw(st.integers(0, n - 1))
    dst = data.draw(st.integers(0, n - 1).filter(lambda d: d != src))
    net, hosts, hop = build(n, edges)
    route = net.path_links(hosts[src], hosts[dst])
    nodes = [src] + [hop[link][1] for link in route]
    assert [hop[link][0] for link in route] == nodes[:-1]  # a walk ...
    assert nodes[-1] == dst and len(set(nodes)) == len(nodes)  # ... and a simple path
    assert sum(link.latency for link in route) == brute_force_min(n, edges, src, dst)
    # Deterministic: the same on a repeat call, after the cache is
    # cleared without changing any route, and whatever order the links
    # were added in.
    assert net.path_links(hosts[src], hosts[dst]) == route
    leaf = net.add_host("leaf")
    net.link(hosts[0], leaf, latency=1.0, bandwidth=1e6)
    assert net.path_links(hosts[src], hosts[dst]) == route
    rnet, rhosts, rhop = build(n, [(v, u, w) for u, v, w in reversed(edges)])
    rroute = rnet.path_links(rhosts[src], rhosts[dst])
    assert [src] + [rhop[link][1] for link in rroute] == nodes
    # Unreachable pairs raise; every duplex is listed exactly once.
    island = net.add_host("island")
    with pytest.raises(SimError, match="no route"):
        net.path_links(hosts[src], island)
    listed = list(net.links())
    assert len(listed) == len(set(map(id, listed))) == len(edges) + 1
