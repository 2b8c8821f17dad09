"""Network topology: sites, hosts, links, routing, firewall placement.

A :class:`Network` owns the simulator, a set of :class:`Site`\\ s (each
optionally behind a :class:`~repro.simnet.firewall.Firewall`), hosts,
and the link graph.  Routing is static shortest-path by latency
(Dijkstra over an adjacency dict, cached per endpoint pair) — adequate
for the paper's hub-and-spoke topology (site LANs hanging off a WAN),
a tree, where every route is the only one.

Firewall semantics: filtering happens where a connection crosses a
site boundary.  A connection from host *A* (site S\\ :sub:`A`) to *B*
(site S\\ :sub:`B`, port *p*) consults

1. S\\ :sub:`A`'s firewall with direction OUTBOUND, then
2. S\\ :sub:`B`'s firewall with direction INBOUND,

skipping either check when the corresponding site has no firewall or
both hosts share a site.  This matches the paper's model, where the
firewall is the site's gateway machine.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Optional

from repro.simnet.firewall import Direction, Firewall
from repro.simnet.host import Host
from repro.simnet.kernel import SimError, Simulator
from repro.simnet.link import DuplexLink, Link
from repro.simnet.socket import NetConfig

__all__ = ["Site", "Network"]


class Site:
    """An administrative domain: a named set of hosts, maybe firewalled."""

    def __init__(self, name: str, firewall: Optional[Firewall] = None) -> None:
        self.name = name
        self.firewall = firewall
        if firewall is not None and not firewall.name:
            firewall.name = f"fw:{name}"
        self.hosts: list[Host] = []

    @property
    def host_names(self) -> list[str]:
        return [h.name for h in self.hosts]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        fw = "firewalled" if self.firewall is not None else "open"
        return f"<Site {self.name} ({fw}, {len(self.hosts)} hosts)>"


class Network:
    """The world: simulator + sites + hosts + links + routes."""

    def __init__(
        self,
        sim: Optional[Simulator] = None,
        config: Optional[NetConfig] = None,
    ) -> None:
        self.sim = sim if sim is not None else Simulator()
        self.config = config if config is not None else NetConfig()
        self.config.validate()
        self.sites: dict[str, Site] = {}
        self.hosts: dict[str, Host] = {}
        #: node → {neighbour: the duplex link between them}.
        self._adj: dict[str, dict[str, DuplexLink]] = {}
        #: Every duplex link once, with the node it was attached from
        #: (its ``a`` end), in attachment order.
        self._links: dict[DuplexLink, str] = {}
        self._route_cache: dict[tuple[str, str], list[Link]] = {}

    # -- construction -----------------------------------------------------

    def add_site(self, name: str, firewall: Optional[Firewall] = None) -> Site:
        if name in self.sites:
            raise SimError(f"duplicate site {name!r}")
        site = Site(name, firewall)
        self.sites[name] = site
        return site

    def add_host(
        self,
        name: str,
        site: "Site | str | None" = None,
        cpu_speed: float = 1.0,
        cores: int = 1,
    ) -> Host:
        if name in self.hosts:
            raise SimError(f"duplicate host {name!r}")
        if isinstance(site, str):
            site = self.sites[site]
        host = Host(self, name, site=site, cpu_speed=cpu_speed, cores=cores)
        self.hosts[name] = host
        if site is not None:
            site.hosts.append(host)
        self._adj[name] = {}
        self._route_cache.clear()
        return host

    def add_router(self, name: str, site: "Site | str | None" = None) -> Host:
        """A forwarding-only node (switch, gateway, the Internet cloud)."""
        return self.add_host(name, site=site, cpu_speed=1.0, cores=1)

    def link(
        self,
        a: "Host | str",
        b: "Host | str",
        latency: float,
        bandwidth: float,
        name: str = "",
    ) -> DuplexLink:
        """Attach a full-duplex link between two nodes."""
        a_name = a if isinstance(a, str) else a.name
        b_name = b if isinstance(b, str) else b.name
        for n in (a_name, b_name):
            if n not in self.hosts:
                raise SimError(f"unknown host {n!r}")
        if a_name == b_name:
            raise SimError("cannot link a host to itself")
        if b_name in self._adj[a_name]:
            raise SimError(f"duplicate link {a_name} -- {b_name}")
        duplex = DuplexLink(
            self.sim, latency, bandwidth, name=name or f"{a_name}--{b_name}"
        )
        self._adj[a_name][b_name] = self._adj[b_name][a_name] = duplex
        self._links[duplex] = a_name
        self._route_cache.clear()
        return duplex

    # -- routing ------------------------------------------------------------

    def path_links(self, src: Host, dst: Host) -> list[Link]:
        """Oriented unidirectional links along the src→dst route.

        Empty list for loopback (src is dst).  Raises
        :class:`SimError` when no route exists.
        """
        if src.name == dst.name:
            return []
        key = (src.name, dst.name)
        cached = self._route_cache.get(key)
        if cached is not None:
            return cached
        # Dijkstra by latency.  Equal-cost ties go to the smaller node
        # name, so a route never depends on the order links were added.
        via: dict[str, tuple[str, DuplexLink]] = {}
        best, done, heap = {src.name: 0.0}, set(), [(0.0, src.name)]
        while heap:
            dist, node = heapq.heappop(heap)
            if node == dst.name:
                break
            if node in done:
                continue
            done.add(node)
            for nbr, duplex in self._adj[node].items():
                d = dist + duplex.latency
                if nbr not in best or d < best[nbr]:
                    best[nbr], via[nbr] = d, (node, duplex)
                    heapq.heappush(heap, (d, nbr))
        else:
            raise SimError(f"no route from {src.name} to {dst.name}")
        links: list[Link] = []
        while node != src.name:
            prev, duplex = via[node]
            links.append(duplex.direction(a_to_b=(self._links[duplex] == prev)))
            node = prev
        links.reverse()
        self._route_cache[key] = links
        return links

    def rtt_between(self, src: Host, dst: Host) -> float:
        """Round-trip propagation time between two hosts."""
        path = self.path_links(src, dst)
        one_way = sum(l.latency for l in path) if path else self.config.local_latency
        return 2 * one_way

    def hop_count(self, src: Host, dst: Host) -> int:
        return len(self.path_links(src, dst))

    # -- firewalling ----------------------------------------------------------

    def filter_connection(self, src: Host, dst: Host, dst_port: int) -> Optional[Firewall]:
        """Return the firewall that blocks this connection, or ``None``.

        Applied at connect time (SYN filtering), the granularity real
        deny-based packet filters act at for TCP.
        """
        src_site, dst_site = src.site, dst.site
        if src_site is dst_site:
            return None
        if src_site is not None and src_site.firewall is not None:
            if not src_site.firewall.permits(
                Direction.OUTBOUND, src.name, dst.name, dst_port
            ):
                return src_site.firewall
        if dst_site is not None and dst_site.firewall is not None:
            if not dst_site.firewall.permits(
                Direction.INBOUND, src.name, dst.name, dst_port
            ):
                return dst_site.firewall
        return None

    def can_connect(self, src: "Host | str", dst: "Host | str", dst_port: int) -> bool:
        """Static reachability question, without simulating a connect."""
        if isinstance(src, str):
            src = self.hosts[src]
        if isinstance(dst, str):
            dst = self.hosts[dst]
        return self.filter_connection(src, dst, dst_port) is None

    # -- conveniences -----------------------------------------------------------

    def host(self, name: str) -> Host:
        try:
            return self.hosts[name]
        except KeyError:
            raise SimError(f"unknown host {name!r}") from None

    def hosts_in_site(self, site: "Site | str") -> list[Host]:
        if isinstance(site, str):
            site = self.sites[site]
        return list(site.hosts)

    def links(self) -> Iterable[DuplexLink]:
        yield from self._links

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Network hosts={len(self.hosts)} sites={len(self.sites)} "
            f"links={len(self._links)} t={self.sim.now:.6f}>"
        )
