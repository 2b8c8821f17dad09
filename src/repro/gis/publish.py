"""Bridging RMF's resource table into the directory.

:func:`publish_rmf_resources` writes one ``type=compute`` record per
RMF resource (plus one for the gatekeeper itself), giving grid clients
the discovery step: *query GIS → find a gatekeeper and its capacity →
submit RSL*.  Attributes follow a flat MDS-like schema:

====================  ==========================================
``type``              ``compute`` | ``gatekeeper``
``site``              administrative domain name
``cpus``              processors the Q server advertises
``cpu_speed``         relative speed (RWCP-Sun = 1.0)
``gatekeeper_host``   where to submit
``gatekeeper_port``   —
``behind_firewall``   "true"/"false" — reachable only through RMF?
====================  ==========================================
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.gis.server import GISServer

if TYPE_CHECKING:  # pragma: no cover
    from repro.rmf.gatekeeper import RMFSystem

__all__ = ["publish_rmf_resources"]


def publish_rmf_resources(
    gis: GISServer, rmf: "RMFSystem", site: str = "", ttl: float = 300.0
) -> list[str]:
    """Register the deployment's gatekeeper and resources; returns the
    distinguished names written (direct/in-process registration — the
    daemons cohabit the service host in a real deployment too)."""
    gk_host, gk_port = rmf.gatekeeper.addr.host, rmf.gatekeeper.addr.port
    dns: list[str] = []

    dn = f"gk={gk_host}:{gk_port}"
    gis.register(
        dn,
        {
            "type": "gatekeeper",
            "site": site,
            "gatekeeper_host": gk_host,
            "gatekeeper_port": gk_port,
            "resources": len(rmf.qservers),
        },
        ttl=ttl,
    )
    dns.append(dn)

    for qs in rmf.qservers:
        host = qs.host
        behind = (
            host.site is not None
            and host.site.firewall is not None
        )
        dn = f"resource={qs.resource_name},gk={gk_host}:{gk_port}"
        gis.register(
            dn,
            {
                "type": "compute",
                "site": host.site_name or "",
                "resource": qs.resource_name,
                "cpus": qs.cpus,
                "cpu_speed": host.cpu_speed,
                "gatekeeper_host": gk_host,
                "gatekeeper_port": gk_port,
                "behind_firewall": "true" if behind else "false",
            },
            ttl=ttl,
        )
        dns.append(dn)
    return dns
