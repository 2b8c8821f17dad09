"""Unit tests for the fleet placement and admission policy pieces."""

import pytest

from repro.core.placement import (
    RATE_TIE_EPSILON,
    WORKER_DRAINING,
    WORKER_UP,
    AdmissionControl,
    ConsistentHashRing,
    LeastLoadedPlacer,
    WorkerView,
    fleet_snapshot,
)


# -- consistent hash ring ---------------------------------------------------


def test_ring_is_deterministic_and_stable_under_removal():
    ring = ConsistentHashRing()
    for wid in ("w0", "w1", "w2"):
        ring.add(wid)
    keys = [f"chain-{i}" for i in range(200)]
    before = {k: ring.pick(k) for k in keys}
    # Deterministic: same key, same owner, every time.
    assert before == {k: ring.pick(k) for k in keys}
    # All workers own some arc at 64 vnodes each.
    assert set(before.values()) == {"w0", "w1", "w2"}
    ring.remove("w1")
    after = {k: ring.pick(k) for k in keys}
    # Only w1's chains moved; survivors' placements are untouched.
    moved = [k for k in keys if before[k] != after[k]]
    assert all(before[k] == "w1" for k in moved)
    assert "w1" not in set(after.values())


def test_ring_eligible_filter_and_empty():
    ring = ConsistentHashRing()
    assert ring.pick("x") is None
    ring.add("w0")
    ring.add("w1")
    assert ring.pick("x", {"w1"}) == "w1"
    assert ring.pick("x", set()) is None


# -- worker views -----------------------------------------------------------


def test_worker_view_rate_ewma_and_staleness():
    view = WorkerView("w0")
    assert not view.rate_known(0.0)
    view.observe(0.0, 0, 0)
    assert not view.rate_known(0.0)  # one sample: no interval yet
    view.observe(1.0, 1_000_000, 2)
    assert view.rate_known(1.0)
    # EWMA with alpha=0.5 from 0: half the instantaneous rate.
    assert view.byte_rate == pytest.approx(500_000.0)
    view.observe(2.0, 2_000_000, 2)
    assert view.byte_rate == pytest.approx(750_000.0)
    # Stale heartbeat: the rate stops being trustworthy.
    assert not view.rate_known(100.0)
    snap = view.snapshot()
    assert set(snap) == {
        "state", "active_chains", "bytes_relayed", "byte_rate", "heartbeats"
    }


# -- placer -----------------------------------------------------------------


def _warm_views(rates):
    views = {}
    for wid, rate in rates.items():
        v = WorkerView(wid)
        v.observe(0.0, 0, 0)
        # Two observations at alpha=0.5 from 0 leave byte_rate at
        # 0.75x the steady instantaneous rate; feed a constant rate.
        v.observe(1.0, int(rate), 0)
        v.observe(2.0, int(2 * rate), 0)
        views[wid] = v
    return views


def test_placer_least_loaded_when_rates_distinguishable():
    placer = LeastLoadedPlacer()
    views = _warm_views({"w0": 8_000_000, "w1": 1_000, "w2": 4_000_000})
    for v in views.values():
        placer.add_worker(v)
    wid, method = placer.place("c1", views, now=2.0)
    assert (wid, method) == ("w1", "least_loaded")
    assert placer.stats.placed_least_loaded == 1


def test_placer_spreads_dial_bursts_between_heartbeats():
    # Heartbeats lag placement: a burst of dials arriving between two
    # samples must not all herd onto the momentarily-idlest worker.
    placer = LeastLoadedPlacer()
    views = _warm_views({"w0": 8_000_000, "w1": 1_000, "w2": 2_000})
    for v in views.values():
        placer.add_worker(v)
    first, m1 = placer.place("b1", views, now=2.0)
    second, m2 = placer.place("b2", views, now=2.0)
    assert m1 == m2 == "least_loaded"
    assert {first, second} == {"w1", "w2"}
    assert views[first].pending_chains == 1
    # The next heartbeat carries the real load of those chains; the
    # pending surcharge resets with it.
    views[first].observe(3.0, views[first].bytes_relayed + 1_000, 1)
    assert views[first].pending_chains == 0


def test_placer_hash_ring_on_cold_fleet_and_ties():
    placer = LeastLoadedPlacer()
    views = {wid: WorkerView(wid) for wid in ("w0", "w1")}
    for v in views.values():
        placer.add_worker(v)
    wid, method = placer.place("c1", views, now=0.0)
    assert method == "hash_ring" and wid in views
    # Warm but indistinguishable rates (< epsilon apart): still hash.
    views = _warm_views({"w0": 0, "w1": RATE_TIE_EPSILON / 4})
    wid, method = placer.place("c2", views, now=2.0)
    assert method == "hash_ring"
    assert placer.stats.placed_hash_ring == 2


def test_placer_skips_draining_and_counts_no_worker():
    placer = LeastLoadedPlacer()
    views = {wid: WorkerView(wid) for wid in ("w0", "w1")}
    for v in views.values():
        placer.add_worker(v)
    views["w0"].state = WORKER_DRAINING
    for key in ("a", "b", "c"):
        wid, _ = placer.place(key, views, now=0.0)
        assert wid == "w1"
    views["w1"].state = WORKER_DRAINING
    wid, method = placer.place("d", views, now=0.0)
    assert (wid, method) == (None, "none")
    assert placer.stats.rejected_no_worker == 1


def test_placer_repairs_ring_view_drift():
    placer = LeastLoadedPlacer()
    v = WorkerView("w9")
    # Eligible worker that was never added to (or was removed from)
    # the ring: the placer must still place, by sorted-id fallback.
    wid, method = placer.place("k", {"w9": v}, now=0.0)
    assert (wid, method) == ("w9", "hash_ring")


# -- admission --------------------------------------------------------------


def test_admission_quota_and_release():
    adm = AdmissionControl(2)
    assert adm.admit("pa") and adm.admit("pa")
    assert not adm.admit("pa")
    assert adm.admit("pb")  # quotas are per client
    adm.release("pa")
    assert adm.admit("pa")
    # Unlimited when None.
    free = AdmissionControl(None)
    assert all(free.admit("pa") for _ in range(100))
    with pytest.raises(ValueError):
        AdmissionControl(0)


# -- snapshot schema --------------------------------------------------------

FLEET_SNAPSHOT_KEYS = {
    "workers", "placed_chains", "placed_least_loaded",
    "placed_hash_ring", "rejected_quota", "rejected_no_worker",
    "handoffs", "drains_started", "drains_completed",
}


def test_fleet_snapshot_schema_and_override():
    placer = LeastLoadedPlacer()
    v = WorkerView("w0")
    v.state = WORKER_UP
    snap = fleet_snapshot([v], placer.stats)
    assert set(snap) == FLEET_SNAPSHOT_KEYS
