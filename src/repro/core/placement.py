"""Fleet placement and admission policy.

The relay fleet (:mod:`repro.core.aio.fleet`) shards the paper's single
outer daemon into N workers behind one logical endpoint.  *Which worker
gets the next chain* is pure policy — a function of worker health and
load, not of sockets — so it lives here, driven by the fleet manager's
wall clock and the heartbeat messages of its worker processes.

Policy pieces:

* :class:`ConsistentHashRing` — stable chain→worker mapping used when
  no load signal is available (cold fleet, stale heartbeats, ties).
  Hashes are :func:`hashlib.blake2b` digests, so placement is
  deterministic across processes and runs (``hash()`` is salted).
* :class:`WorkerView` — one worker as the placer sees it: health
  state plus an EWMA byte-rate derived from successive heartbeat
  ``bytes_relayed`` samples.
* :class:`LeastLoadedPlacer` — the placement decision: least live
  byte-rate among healthy workers (chains placed since the last
  heartbeat charged an estimated rate, so dial bursts spread instead
  of herding), tie-broken by chain count, with consistent hashing as
  the declared fallback when rates are unknown, stale, or
  indistinguishable.
* :class:`AdmissionControl` — per-client concurrent-chain quotas at
  the edge.

:func:`fleet_snapshot` builds the fleet-wide counter snapshot the
manager exposes to ``status`` and telemetry.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Any, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "ConsistentHashRing",
    "WorkerView",
    "LeastLoadedPlacer",
    "AdmissionControl",
    "PlacementStats",
    "fleet_snapshot",
    "WORKER_UP",
    "WORKER_DRAINING",
    "WORKER_GONE",
]

WORKER_UP = "up"
WORKER_DRAINING = "draining"
WORKER_GONE = "gone"

#: Two byte-rates closer than this (bytes/s) are a tie — the load
#: signal carries no information at that resolution and the placer
#: falls back to the hash ring for deterministic spread.
RATE_TIE_EPSILON = 4096.0

#: A worker whose last heartbeat is older than this (seconds) has an
#: unknown rate.
STALE_S = 5.0

#: Virtual nodes per worker on the hash ring.
VNODES = 64

#: EWMA smoothing for byte-rates: weight of the newest interval.
RATE_ALPHA = 0.5


def _stable_hash(key: str) -> int:
    """Process-stable 64-bit hash (``hash()`` is salted per process)."""
    return int.from_bytes(
        hashlib.blake2b(key.encode(), digest_size=8).digest(), "big"
    )


class ConsistentHashRing:
    """Consistent hashing over worker ids with virtual nodes.

    ``pick(key)`` walks clockwise from the key's point; removing a
    worker only remaps the chains that hashed to it (the property that
    makes drain cheap: surviving placements are untouched).
    """

    def __init__(self) -> None:
        self._points: List[int] = []
        self._owners: Dict[int, str] = {}

    def __contains__(self, worker_id: str) -> bool:
        return any(o == worker_id for o in self._owners.values())

    def add(self, worker_id: str) -> None:
        for v in range(VNODES):
            point = _stable_hash(f"{worker_id}#{v}")
            if point in self._owners:  # pragma: no cover - 64-bit collision
                continue
            bisect.insort(self._points, point)
            self._owners[point] = worker_id

    def remove(self, worker_id: str) -> None:
        dead = [p for p, o in self._owners.items() if o == worker_id]
        for point in dead:
            del self._owners[point]
            idx = bisect.bisect_left(self._points, point)
            if idx < len(self._points) and self._points[idx] == point:
                del self._points[idx]

    def pick(self, key: str, eligible: "Optional[set[str]]" = None) -> Optional[str]:
        """The worker owning ``key``'s arc, restricted to ``eligible``
        ids when given; ``None`` on an empty ring."""
        if not self._points:
            return None
        start = bisect.bisect(self._points, _stable_hash(key))
        n = len(self._points)
        for step in range(n):
            owner = self._owners[self._points[(start + step) % n]]
            if eligible is None or owner in eligible:
                return owner
        return None


class WorkerView:
    """One fleet worker as the placement policy sees it."""

    __slots__ = (
        "worker_id", "state", "active_chains", "bytes_relayed",
        "byte_rate", "heartbeats", "last_heartbeat", "pending_chains",
    )

    def __init__(self, worker_id: str) -> None:
        self.worker_id = worker_id
        self.state = WORKER_UP
        self.active_chains = 0
        self.bytes_relayed = 0
        #: EWMA of bytes/second over heartbeat intervals; meaningful
        #: only once ``heartbeats >= 2``.
        self.byte_rate = 0.0
        self.heartbeats = 0
        self.last_heartbeat: Optional[float] = None
        #: Chains placed here since the last load sample.  Heartbeats
        #: lag placement, so without this every dial in a burst would
        #: herd onto the momentarily-idlest worker; the placer charges
        #: pending chains an estimated rate until the next sample
        #: reflects them.
        self.pending_chains = 0

    def observe(
        self, now: float, bytes_relayed: int, active_chains: int
    ) -> None:
        """Fold one heartbeat/stats sample into the view."""
        if self.last_heartbeat is not None:
            dt = now - self.last_heartbeat
            if dt > 0:
                inst = max(0, bytes_relayed - self.bytes_relayed) / dt
                self.byte_rate += RATE_ALPHA * (inst - self.byte_rate)
        self.bytes_relayed = bytes_relayed
        self.active_chains = active_chains
        self.last_heartbeat = now
        self.heartbeats += 1
        self.pending_chains = 0

    def rate_known(self, now: float) -> bool:
        return (
            self.heartbeats >= 2
            and self.last_heartbeat is not None
            and now - self.last_heartbeat <= STALE_S
        )

    def snapshot(self) -> "dict[str, Any]":
        return {
            "state": self.state,
            "active_chains": self.active_chains,
            "bytes_relayed": self.bytes_relayed,
            "byte_rate": round(self.byte_rate, 1),
            "heartbeats": self.heartbeats,
        }


class PlacementStats:
    """Counters of every placement decision and edge-admission verdict."""

    __slots__ = (
        "placed_chains", "placed_least_loaded", "placed_hash_ring",
        "rejected_quota", "rejected_no_worker", "handoffs",
        "drains_started", "drains_completed",
    )

    def __init__(self) -> None:
        self.placed_chains = 0
        self.placed_least_loaded = 0
        self.placed_hash_ring = 0
        self.rejected_quota = 0
        self.rejected_no_worker = 0
        self.handoffs = 0
        self.drains_started = 0
        self.drains_completed = 0


class LeastLoadedPlacer:
    """Least-loaded chain placement with a consistent-hash fallback.

    The decision procedure, in order:

    1. eligible = workers in state ``up`` (draining/gone never get new
       chains);
    2. if every eligible worker has a *known* byte-rate (two or more
       heartbeats, the newest fresher than :data:`STALE_S`) and
       the *scores* are distinguishable (spread above
       :data:`RATE_TIE_EPSILON`), pick the lowest score, tie-breaking
       by fewest chains (active + pending) then worker id —
       **least-loaded**.  A worker's score is its EWMA byte-rate plus
       an estimated rate per chain it was handed since its last
       heartbeat — without that surcharge, a burst of dials between
       heartbeats would all herd onto the momentarily-idlest worker;
    3. otherwise pick by consistent hash of the chain id over the
       eligible workers — **hash-ring** (cold fleet, stale or tied
       load signal).
    """

    def __init__(self) -> None:
        self.ring = ConsistentHashRing()
        self.stats = PlacementStats()

    def add_worker(self, view: WorkerView) -> None:
        self.ring.add(view.worker_id)

    def remove_worker(self, worker_id: str) -> None:
        self.ring.remove(worker_id)

    def place(
        self,
        chain_key: str,
        workers: "Dict[str, WorkerView]",
        now: float,
    ) -> Tuple[Optional[str], str]:
        """Pick a worker for ``chain_key``; returns ``(worker_id,
        method)`` with method in ``{"least_loaded", "hash_ring",
        "none"}`` (``worker_id`` is None when no worker is eligible).
        """
        eligible = {
            wid: view for wid, view in workers.items()
            if view.state == WORKER_UP
        }
        if not eligible:
            self.stats.rejected_no_worker += 1
            return None, "none"
        rates_known = all(view.rate_known(now) for view in eligible.values())
        if rates_known and len(eligible) > 1:
            # A chain placed since the last heartbeat contributes no
            # byte-rate yet; charge it the fleet's mean rate per
            # active chain so rapid-fire dials spread instead of all
            # chasing the same stale minimum.
            chain_rate = sum(v.byte_rate for v in eligible.values()) / max(
                1, sum(v.active_chains for v in eligible.values())
            )

            def score(v: WorkerView) -> float:
                return v.byte_rate + v.pending_chains * chain_rate

            scores = [score(view) for view in eligible.values()]
            if max(scores) - min(scores) >= RATE_TIE_EPSILON:
                chosen = min(
                    eligible.values(),
                    key=lambda v: (
                        score(v),
                        v.active_chains + v.pending_chains,
                        v.worker_id,
                    ),
                )
                chosen.pending_chains += 1
                self.stats.placed_chains += 1
                self.stats.placed_least_loaded += 1
                return chosen.worker_id, "least_loaded"
        wid = self.ring.pick(chain_key, set(eligible))
        if wid is None:
            # Ring drifted from the view (worker removed): repair by
            # falling back to the id-ordered first eligible worker.
            wid = sorted(eligible)[0]
        eligible[wid].pending_chains += 1
        self.stats.placed_chains += 1
        self.stats.placed_hash_ring += 1
        return wid, "hash_ring"


class AdmissionControl:
    """Per-client concurrent-chain quota at the fleet edge.

    ``max_chains_per_client=None`` disables the quota (every admit
    succeeds).  Clients are whatever string the edge identifies peers
    by — the live front door uses the peer IP.
    """

    def __init__(self, max_chains_per_client: Optional[int] = None) -> None:
        if max_chains_per_client is not None and max_chains_per_client < 1:
            raise ValueError(
                f"max_chains_per_client must be >= 1 or None, "
                f"got {max_chains_per_client}"
            )
        self.max_chains_per_client = max_chains_per_client
        self.active: Dict[str, int] = {}

    def admit(self, client: str) -> bool:
        limit = self.max_chains_per_client
        if limit is not None and self.active.get(client, 0) >= limit:
            return False
        self.active[client] = self.active.get(client, 0) + 1
        return True

    def release(self, client: str) -> None:
        count = self.active.get(client, 0) - 1
        if count > 0:
            self.active[client] = count
        else:
            self.active.pop(client, None)


def fleet_snapshot(
    workers: "Iterable[WorkerView]", stats: PlacementStats
) -> "dict[str, Any]":
    """The fleet-wide counter snapshot."""
    return {
        "workers": {
            view.worker_id: view.snapshot() for view in workers
        },
        "placed_chains": stats.placed_chains,
        "placed_least_loaded": stats.placed_least_loaded,
        "placed_hash_ring": stats.placed_hash_ring,
        "rejected_quota": stats.rejected_quota,
        "rejected_no_worker": stats.rejected_no_worker,
        "handoffs": stats.handoffs,
        "drains_started": stats.drains_started,
        "drains_completed": stats.drains_completed,
    }
