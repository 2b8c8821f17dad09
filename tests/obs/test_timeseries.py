"""Time-series sampler: flattening, rollups, percentiles, and the
sim-domain byte-stability guarantee across kernel modes."""

import asyncio

import pytest

from repro.obs.export import dumps
from repro.obs.timeseries import (
    TIMESERIES_FORMAT_TAG,
    TIMESERIES_SCHEMA_VERSION,
    TimeSeriesSampler,
    flatten_numeric,
    hist_delta,
    hist_quantile,
    hist_total,
)


# -- flattening -----------------------------------------------------------


def test_flatten_numeric_separates_scalars_and_hists():
    scalars, hists = flatten_numeric({
        "relay": {
            "bytes": 42,
            "rate": 1.5,
            "ok": True,
            "name": "ignored-string",
            "chunk_hist": {"<=15": 2, "<=31": 1},
        },
        "top": 7,
    })
    assert scalars == {
        "relay.bytes": 42,
        "relay.rate": 1.5,
        "relay.ok": 1,
        "top": 7,
    }
    assert hists == {"relay.chunk_hist": {"<=15": 2, "<=31": 1}}


def test_flatten_numeric_empty_dict_is_not_a_hist():
    scalars, hists = flatten_numeric({"empty": {}})
    assert scalars == {} and hists == {}


# -- histogram helpers ----------------------------------------------------


def test_hist_delta_is_sparse_and_clamps_resets():
    newer = {"<=15": 5, "<=31": 2, "<=63": 1}
    older = {"<=15": 3, "<=31": 2, "<=127": 9}  # <=127 reset to absent
    assert hist_delta(newer, older) == {"<=15": 2, "<=63": 1}
    assert hist_delta(newer, None) == newer


def test_hist_quantile_upper_bound_semantics():
    hist = {"<=15": 50, "<=31": 40, "<=1023": 10}
    assert hist_total(hist) == 100
    assert hist_quantile(hist, 0.50) == 15
    assert hist_quantile(hist, 0.90) == 31
    assert hist_quantile(hist, 0.99) == 1023
    assert hist_quantile({}, 0.99) == 0


# -- sampler mechanics ----------------------------------------------------


def test_sampler_ring_evicts_and_counts():
    state = {"n": 0}

    def snap():
        state["n"] += 1
        return {"n": state["n"]}

    sampler = TimeSeriesSampler(snap, interval_s=1.0, capacity=4)
    for t in range(6):
        sampler.sample(float(t))
    assert len(sampler) == 4
    assert sampler.evicted == 2
    assert sampler.series("n") == [(2.0, 3), (3.0, 4), (4.0, 5), (5.0, 6)]
    # Windowing is relative to the newest sample.
    assert [t for t, _v in sampler.series("n", window_s=1.0)] == [4.0, 5.0]


def test_sampler_validates_construction():
    with pytest.raises(ValueError):
        TimeSeriesSampler(dict, interval_s=0.0)
    with pytest.raises(ValueError):
        TimeSeriesSampler(dict, capacity=1)
    with pytest.raises(ValueError):
        TimeSeriesSampler(dict, domain="wall").attach_sim(None)


def test_rollup_rates_deltas_and_window_percentiles():
    samples = [
        (0.0, {"bytes": 0, "gauge": 5.0}, {"lat": {"<=15": 10}}),
        (1.0, {"bytes": 512, "gauge": 3.0}, {"lat": {"<=15": 10, "<=31": 5}}),
        (2.0, {"bytes": 2048, "gauge": 9.0},
         {"lat": {"<=15": 10, "<=31": 5, "<=1023": 5}}),
    ]
    sampler = TimeSeriesSampler(dict, interval_s=1.0)
    # Feed pre-flattened samples directly; snapshot flattening is
    # covered above.
    sampler.samples.extend(samples)
    roll = sampler.rollup()
    assert roll["samples"] == 3 and roll["span_s"] == 2.0
    assert roll["scalars"]["bytes"] == {
        "last": 2048, "min": 0, "max": 2048, "delta": 2048, "rate": 1024.0,
    }
    assert roll["scalars"]["gauge"]["min"] == 3.0
    assert roll["scalars"]["gauge"]["max"] == 9.0
    # Percentiles come from the window's bucket-count delta: 5 in
    # <=31 and 5 in <=1023 (the <=15 bucket didn't move).
    lat = roll["hists"]["lat"]
    assert lat["window_is_delta"] is True
    assert lat["count"] == 10
    assert lat["p50"] == 31
    assert lat["p99"] == 1023
    # A narrow window with no histogram movement falls back to the
    # cumulative distribution.
    lat1 = sampler.rollup(window_s=0.0)["hists"]["lat"]
    assert lat1["window_is_delta"] is False
    assert lat1["count"] == 20


def test_export_document_shape():
    sampler = TimeSeriesSampler(lambda: {"v": 1}, interval_s=0.5, capacity=8)
    sampler.sample(0.0)
    sampler.sample(0.5)
    doc = sampler.export(extra_meta={"who": "test"})
    assert doc["format"] == TIMESERIES_FORMAT_TAG
    assert doc["schema_version"] == TIMESERIES_SCHEMA_VERSION
    assert doc["domain"] == "wall"
    assert doc["interval_s"] == 0.5
    assert len(doc["samples"]) == 2
    assert doc["rollup"]["scalars"]["v"]["last"] == 1
    assert doc["meta"] == {"who": "test"}
    dumps(doc)  # must be plain-JSON serializable


def test_wall_sampler_runs_on_the_loop():
    sampler = TimeSeriesSampler(lambda: {"v": 7}, interval_s=0.01)

    async def main():
        sampler.start_wall()
        await asyncio.sleep(0.08)
        await sampler.stop()

    asyncio.run(asyncio.wait_for(main(), timeout=15))
    assert len(sampler) >= 2
    assert all(scalars == {"v": 7} for _t, scalars, _h in sampler.samples)
    with pytest.raises(ValueError):
        TimeSeriesSampler(dict, domain="sim").start_wall()


# -- sim-plane determinism -----------------------------------------------


def _sampled_sim_relay_export() -> str:
    """Relayed sim traffic with a sim-domain sampler attached to the
    outer server's stats; returns the exported series as canonical
    JSON."""
    from repro.core import FramedConnection
    from tests.core.conftest import Deployment

    dep = Deployment()
    sampler = TimeSeriesSampler(
        dep.outer.stats.snapshot, interval_s=0.05, domain="sim"
    )
    sampler.attach_sim(dep.sim)

    def server():
        ls = dep.pb.listen(9000)
        while True:
            conn = yield ls.accept()
            fc = FramedConnection(conn, dep.config.chunk_bytes)
            yield from fc.recv()
            yield fc.send("pong", nbytes=2048)

    def client_proc(i):
        yield dep.sim.timeout(0.07 * i)
        fc = yield from dep.client().connect(("pb", 9000))
        yield fc.send("ping", nbytes=8192)
        yield from fc.recv()
        fc.close()

    dep.sim.process(server())
    for i in range(3):
        dep.sim.process(client_proc(i))
    dep.sim.run(until=1.0)
    assert len(sampler) >= 10
    return dumps(sampler.export())


def test_sim_series_byte_identical_across_kernels(monkeypatch):
    """The sampler's wakeups are ordinary heap events
    (:meth:`Simulator.every`), so the exported series — timestamps,
    values, rollup — is a pure function of the simulated program, not
    of the kernel implementation driving it."""
    payloads = {}
    for mode in ("seed", "fast"):
        monkeypatch.setenv("REPRO_SIM_KERNEL", mode)
        payloads[mode] = _sampled_sim_relay_export()
    assert payloads["seed"] == payloads["fast"]
    import json

    assert json.loads(payloads["seed"])["domain"] == "sim"
