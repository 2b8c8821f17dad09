"""The Figure 5 experimental environment, as a simulated network.

Topology::

    rwcp-sun ──┐
    compas-0..7┼── rwcp-lan ── rwcp-gw ── outer-server
    inner-srv ─┘                  │
                                IMNet (1.5 Mbps)
                                  │
    etl-sun ──┬── etl-lan ───── etl-gw
    etl-o2k ──┘

RWCP sits behind a deny-based firewall; "Although ETL also has a
firewall, ETL-Sun and ETL-O2K can be accessed directly from RWCP"
(§4.1) — so the ETL site is modelled open.  The outer server lives at
RWCP but *outside* the firewall (between the gateway and the WAN); the
inner server is an ordinary inside host with the single nxport
pinhole.

Link parameters are the Table 2 calibration (see
``repro.bench.calibrate`` and EXPERIMENTS.md): LAN links carry the
*effective* application-level bandwidth a late-90s TCP achieved on
100Base-T, and the WAN is the literal 1.5 Mbps IMNet.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from typing import Optional

from repro.core.config import DEFAULT_RELAY_CONFIG, RelayConfig
from repro.core.inner import InnerServer
from repro.core.outer import OuterServer
from repro.cluster.machine import CATALOGUE, COMPAS_NODES
from repro.simnet.firewall import Firewall
from repro.simnet.host import Host
from repro.simnet.socket import Address, NetConfig
from repro.simnet.topology import Network, Site
from repro.util.units import mbps

__all__ = ["TestbedParams", "Testbed"]


@dataclass(frozen=True)
class TestbedParams:
    """Network calibration constants (Table 2 fit)."""

    __test__ = False  # not a pytest test class despite the name

    #: One-way latency of one LAN hop (switch port to switch port).
    lan_latency: float = 0.05e-3
    #: Effective application bandwidth on 100Base-T.
    lan_bandwidth: float = 6.9e6
    #: One-way latency of the IMNet WAN link.
    wan_latency: float = 3.22e-3
    #: The 1.5 Mbps IMNet.
    wan_bandwidth: float = mbps(1.5)
    #: Link between the RWCP gateway and the outer server.
    dmz_latency: float = 0.05e-3
    dmz_bandwidth: float = 6.9e6


class Testbed:
    """The wired-up Figure 5 environment.

    Construction starts the Nexus Proxy servers and opens the nxport
    pinhole; use :attr:`proxy_addrs` when adding proxied MPI ranks.
    """

    __test__ = False  # not a pytest test class despite the name

    def __init__(
        self,
        params: TestbedParams = TestbedParams(),
        net_config: Optional[NetConfig] = None,
        relay_config: RelayConfig = DEFAULT_RELAY_CONFIG,
    ) -> None:
        # A finished world is cyclic (daemons parked on accept loops) and,
        # its processes freed by refcount, seldom collected: free it first.
        gc.collect()
        self.params = params
        self.relay_config = relay_config
        self.net = Network(config=net_config)
        sim = self.net.sim

        # -- sites -------------------------------------------------------
        self.rwcp_firewall = Firewall.typical(name="fw:rwcp", reject=True)
        self.rwcp: Site = self.net.add_site("rwcp", firewall=self.rwcp_firewall)
        self.etl: Site = self.net.add_site("etl")  # reachable from RWCP

        # -- RWCP inside hosts -----------------------------------------------
        sun = CATALOGUE["RWCP-Sun"]
        self.rwcp_sun: Host = self.net.add_host(
            "rwcp-sun", site=self.rwcp, cpu_speed=sun.cpu_speed, cores=sun.cpus
        )
        node = CATALOGUE["COMPaS-node"]
        self.compas: list[Host] = [
            self.net.add_host(
                f"compas-{i}", site=self.rwcp,
                cpu_speed=node.cpu_speed, cores=node.cpus,
            )
            for i in range(COMPAS_NODES)
        ]
        inner = CATALOGUE["Inner-Server"]
        self.inner_host: Host = self.net.add_host(
            "inner-server", site=self.rwcp,
            cpu_speed=inner.cpu_speed, cores=inner.cpus,
        )
        self.rwcp_lan: Host = self.net.add_router("rwcp-lan", site=self.rwcp)
        self.rwcp_gw: Host = self.net.add_router("rwcp-gw", site=self.rwcp)

        # -- the DMZ and the WAN ------------------------------------------------
        outer = CATALOGUE["Outer-Server"]
        self.outer_host: Host = self.net.add_host(
            "outer-server", cpu_speed=outer.cpu_speed, cores=outer.cpus
        )
        self.etl_gw: Host = self.net.add_router("etl-gw", site=self.etl)

        # -- ETL hosts -----------------------------------------------------------
        esun = CATALOGUE["ETL-Sun"]
        self.etl_sun: Host = self.net.add_host(
            "etl-sun", site=self.etl, cpu_speed=esun.cpu_speed, cores=esun.cpus
        )
        o2k = CATALOGUE["ETL-O2K"]
        self.etl_o2k: Host = self.net.add_host(
            "etl-o2k", site=self.etl, cpu_speed=o2k.cpu_speed, cores=o2k.cpus
        )
        self.etl_lan: Host = self.net.add_router("etl-lan", site=self.etl)

        # -- links ------------------------------------------------------------------
        p = params
        for h in (self.rwcp_sun, *self.compas, self.inner_host, self.rwcp_gw):
            self.net.link(h, self.rwcp_lan, p.lan_latency, p.lan_bandwidth)
        self.net.link(self.rwcp_gw, self.outer_host, p.dmz_latency, p.dmz_bandwidth)
        self.net.link(self.outer_host, self.etl_gw, p.wan_latency, p.wan_bandwidth,
                      name="IMNet")
        for h in (self.etl_sun, self.etl_o2k):
            self.net.link(h, self.etl_lan, p.lan_latency, p.lan_bandwidth)
        self.net.link(self.etl_gw, self.etl_lan, p.lan_latency, p.lan_bandwidth)

        # -- the Nexus Proxy deployment ------------------------------------------------
        self.outer_server = OuterServer(self.outer_host, relay_config)
        self.inner_server = InnerServer(self.inner_host, relay_config)
        self.inner_server.open_firewall_pinhole(self.outer_host.name)
        self.outer_server.start()
        self.inner_server.start()

    # -- conveniences ------------------------------------------------------

    @property
    def sim(self):
        return self.net.sim

    @property
    def proxy_addrs(self) -> dict[str, Address]:
        """Keyword arguments for proxied ranks / clients."""
        return {
            "outer_addr": self.outer_server.control_addr,
            "inner_addr": self.inner_server.addr,
        }

    def host(self, name: str) -> Host:
        return self.net.host(name)

    def open_firewall_for_direct_runs(self) -> None:
        """The §4.2/§4.4 footnote: "we have temporarily changed the
        configuration of the firewall to enable direct communication"."""
        self.rwcp_firewall.allow_everything()

    def restore_firewall(self) -> None:
        self.rwcp_firewall.restore_typical()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Testbed rwcp={1 + len(self.compas)} hosts "
            f"etl=2 hosts proxy={self.outer_server.running}>"
        )
