"""Grid Information Service: records, filters, server, client, bridge."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.gis import GISClient, GISError, GISServer, Record, publish_rmf_resources
from repro.gis.records import parse_filter
from repro.simnet import Address, Network


# -- records & filters ------------------------------------------------------


def test_record_validation():
    with pytest.raises(GISError):
        Record(dn="", attributes={})
    with pytest.raises(GISError):
        Record(dn="x", attributes={}, ttl=0)


def test_record_expiry():
    r = Record(dn="x", attributes={}, registered_at=10.0, ttl=5.0)
    assert not r.expired(14.9)
    assert r.expired(15.1)


def test_filter_equality_and_wildcard():
    f = parse_filter("(&(type=compute)(site=*))")
    assert f.matches(Record("a", {"type": "compute", "site": "rwcp"}))
    assert not f.matches(Record("b", {"type": "gatekeeper", "site": "rwcp"}))
    assert not f.matches(Record("c", {"type": "compute"}))  # site missing


def test_filter_numeric_operators():
    rec = Record("a", {"cpus": 8, "cpu_speed": 0.55})
    assert parse_filter("(cpus>=8)").matches(rec)
    assert not parse_filter("(cpus>8)").matches(rec)
    assert parse_filter("(cpus<=8)").matches(rec)
    assert parse_filter("(cpu_speed<1)").matches(rec)
    assert not parse_filter("(cpu_speed>=1)").matches(rec)


def test_filter_numeric_on_non_numeric_fails_closed():
    rec = Record("a", {"cpus": "many"})
    assert not parse_filter("(cpus>=1)").matches(rec)


def test_match_all_filters():
    rec = Record("a", {"x": 1})
    for text in ("", "(*)", "*"):
        assert parse_filter(text).matches(rec)


def test_malformed_filters_rejected():
    for bad in ("(", "(cpus)", "(&(a=1)garbage)", "nonsense"):
        with pytest.raises(GISError):
            parse_filter(bad)


@given(
    cpus=st.integers(min_value=0, max_value=128),
    bound=st.integers(min_value=0, max_value=128),
)
def test_filter_numeric_property(cpus, bound):
    rec = Record("a", {"cpus": cpus})
    assert parse_filter(f"(cpus>={bound})").matches(rec) == (cpus >= bound)


# -- server (direct API) -------------------------------------------------------


def make_server():
    net = Network()
    h = net.add_host("gis-host")
    return net, GISServer(h).start()


def test_register_query_unregister():
    net, gis = make_server()
    gis.register("a", {"type": "compute", "cpus": 4})
    gis.register("b", {"type": "compute", "cpus": 16})
    gis.register("c", {"type": "gatekeeper"})
    assert len(gis) == 3
    hits = gis.query("(&(type=compute)(cpus>=8))")
    assert [r.dn for r in hits] == ["b"]
    assert gis.unregister("b")
    assert not gis.unregister("b")
    assert len(gis) == 2


def test_reregistration_refreshes():
    net, gis = make_server()
    gis.register("a", {"v": 1}, ttl=10)
    gis.register("a", {"v": 2}, ttl=10)
    [hit] = gis.query("(v=2)")
    assert hit.get("v") == 2
    assert len(gis) == 1


def test_ttl_expiry_via_clock():
    net, gis = make_server()
    gis.register("a", {"x": 1}, ttl=5.0)

    def later():
        yield net.sim.timeout(6.0)
        return gis.query("")

    p = net.sim.process(later())
    net.sim.run()
    assert p.value == []


def test_double_start_rejected():
    net, gis = make_server()
    with pytest.raises(GISError):
        gis.start()


# -- client over the network ------------------------------------------------------


def test_client_roundtrip():
    net = Network()
    server_h = net.add_host("gis-host")
    client_h = net.add_host("client")
    net.link(server_h, client_h, 1e-3, 1e6)
    gis = GISServer(server_h).start()
    client = GISClient(client_h, gis.addr)
    out = {}

    def proc():
        yield from client.register("res-1", {"type": "compute", "cpus": 8})
        yield from client.register("res-2", {"type": "compute", "cpus": 2})
        hits = yield from client.search("(&(type=compute)(cpus>=4))")
        out["hits"] = [r.dn for r in hits]
        removed = yield from client.unregister("res-1")
        out["removed"] = removed
        out["after"] = [r.dn for r in (yield from client.search(""))]
        client.close()

    net.sim.process(proc())
    net.sim.run()
    assert out["hits"] == ["res-1"]
    assert out["removed"] is True
    assert out["after"] == ["res-2"]
    assert gis.queries_served == 2


def test_client_bad_filter_raises():
    net = Network()
    server_h = net.add_host("gis-host")
    client_h = net.add_host("client")
    net.link(server_h, client_h, 1e-3, 1e6)
    gis = GISServer(server_h).start()
    client = GISClient(client_h, gis.addr)

    def proc():
        with pytest.raises(GISError, match="unparsable"):
            yield from client.search("((((")
        return True

    p = net.sim.process(proc())
    net.sim.run()
    assert p.value is True


def test_firewalled_resource_can_publish_outbound():
    """The asymmetry the whole paper rides on, applied to discovery."""
    from repro.simnet import Firewall

    net = Network()
    fw = Firewall.typical(reject=True)
    site = net.add_site("rwcp", firewall=fw)
    inside = net.add_host("inside", site=site)
    gis_host = net.add_host("gis-host")
    net.link(inside, gis_host, 1e-3, 1e6)
    gis = GISServer(gis_host).start()
    client = GISClient(inside, gis.addr)

    def proc():
        yield from client.register("inside-res", {"type": "compute"})
        return True

    p = net.sim.process(proc())
    net.sim.run()
    assert p.value is True
    assert len(gis) == 1


# -- RMF bridge ---------------------------------------------------------------------


def test_publish_rmf_resources():
    from repro.cluster import Testbed
    from repro.rmf import RMFSystem

    tb = Testbed()
    rmf = RMFSystem(tb.outer_host, tb.inner_host)
    rmf.add_resource(tb.rwcp_sun, name="RWCP-Sun", cpus=4)
    rmf.add_resource(tb.compas[0], name="COMPaS-0", cpus=4)
    gis = GISServer(tb.outer_host).start()
    dns = publish_rmf_resources(gis, rmf, site="rwcp")
    assert len(dns) == 3  # gatekeeper + 2 resources

    gatekeepers = gis.query("(type=gatekeeper)")
    assert len(gatekeepers) == 1
    computes = gis.query("(&(type=compute)(behind_firewall=true))")
    assert {r.get("resource") for r in computes} == {"RWCP-Sun", "COMPaS-0"}
    # Discovery gives a client everything needed to submit.
    gk = gatekeepers[0]
    assert Address(gk.get("gatekeeper_host"), gk.get("gatekeeper_port")) == rmf.gatekeeper.addr
