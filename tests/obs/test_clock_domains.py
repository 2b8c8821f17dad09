"""System-level guarantees of the observability layer:

* sim-domain traces are byte-identical across kernel implementations;
* one traced wide-area run + one RMF submission covers every
  instrumented layer and exports a valid Chrome trace;
* an installed-but-null recorder costs under 3% on a Table 4-style run.
"""

from __future__ import annotations

import time

import pytest

from repro.apps.knapsack import (
    SchedulingParams,
    register_knapsack_executable,
    scaled_instance,
)
from repro.apps.knapsack.driver import run_system
from repro.cluster import Testbed
from repro.obs import spans
from repro.obs.export import dumps, to_chrome, validate_chrome_trace
from repro.obs.spans import NullRecorder
from repro.rmf import RMFSystem
from tests.simnet import seed_kernel


@pytest.fixture(autouse=True)
def no_leftover_recorder():
    assert spans.RECORDER is None
    yield
    spans.uninstall()


def _traced_wide_area_run(rec) -> None:
    testbed = Testbed()
    instance = scaled_instance(n=24, target_nodes=60_000, seed=5)
    with spans.observe(rec):
        run_system(testbed, "Wide-area Cluster", instance, SchedulingParams())


def _sim_domain_bytes(rec) -> str:
    events = [e.to_dict() for e in rec.events if e.domain == spans.SIM]
    return dumps(events) + dumps(rec.registry.snapshot())


def test_sim_trace_byte_identical_across_kernels(monkeypatch) -> None:
    """The determinism the sim domain promises: the recorded events —
    timestamps, ordering, args, registry — are a pure function of the
    simulated program, not of the kernel implementation driving it."""
    payloads = {}
    for mode in ("seed", "fast"):
        rec = spans.ObsRecorder()
        with monkeypatch.context() as patch:
            if mode == "seed":
                seed_kernel.install(patch)
            _traced_wide_area_run(rec)
        assert len(rec.events) > 100  # actually instrumented
        payloads[mode] = _sim_domain_bytes(rec)
    assert payloads["seed"] == payloads["fast"]


def test_traced_run_covers_all_layers(tmp_path) -> None:
    """One recorder session spanning the wide-area knapsack run and an
    RMF submission yields a single valid Chrome trace with events from
    the kernel, the relay, the RMF job lifecycle, and the steal
    protocol."""
    rec = spans.ObsRecorder()
    _traced_wide_area_run(rec)

    tb = Testbed()
    instance = scaled_instance(n=20, target_nodes=10_000, seed=3)
    rmf = RMFSystem(tb.outer_host, tb.inner_host)
    register_knapsack_executable(rmf.registry)
    rmf.add_resource(tb.compas[0], name="COMPaS-0", cpus=4)
    rmf.start()
    rmf.gatekeeper.staging.put("problem.txt", instance.serialize())
    with spans.observe(rec):
        proc = tb.sim.process(
            rmf.submit(
                tb.etl_sun,
                "&(executable=knapsack)(count=4)(arguments=problem.txt)"
                "(stage_in=problem.txt)(stage_out=answer.txt)",
            )
        )
        reply = tb.sim.run(until=proc)
    assert reply.all_succeeded

    chrome = to_chrome(rec)
    assert validate_chrome_trace(chrome) == []
    cats = {ev["cat"] for ev in chrome["traceEvents"] if ev["ph"] != "M"}
    assert {"kernel", "relay", "steal", "run", "rmf", "rmf.job"} <= cats
    # The RMF job went through its whole lifecycle.
    job_states = {
        ev["name"]
        for ev in chrome["traceEvents"]
        if ev.get("cat") == "rmf.job" and ev["ph"] == "i"
    }
    assert {"active", "done"} <= job_states
    # Mux/steal spans carry durations Perfetto can render.
    assert any(
        ev["ph"] == "X" and ev.get("dur", 0) > 0
        for ev in chrome["traceEvents"]
        if ev.get("cat") == "steal"
    )
    path = tmp_path / "four_layer.trace.json"
    path.write_text(dumps(chrome) + "\n")
    assert path.stat().st_size > 1000


def _timed_run(rec) -> float:
    testbed = Testbed()
    instance = scaled_instance(n=26, target_nodes=150_000, seed=5)
    t0 = time.perf_counter()
    if rec is None:
        run_system(testbed, "COMPaS", instance, SchedulingParams())
    else:
        with spans.observe(rec):
            run_system(testbed, "COMPaS", instance, SchedulingParams())
    return time.perf_counter() - t0


def test_disabled_recorder_overhead_under_3_percent() -> None:
    """With no recorder installed every instrumentation point is one
    load + one is-None branch; a NullRecorder adds only no-op dispatch.
    Either way the Table 4-style run must stay within 3%.

    Runs are interleaved in A/B pairs, alternating who goes first, so
    host-speed drift lands on both sides of a pair; the *min* of the
    paired ratios is bounded (any pair under the bound settles it): we
    are bounding systematic cost, not host noise.  The null recorder
    opens the first pair, so a cold start counts against it."""
    ratios = []
    for pair in range(15):
        order = (NullRecorder(), None) if pair % 2 == 0 else (None, NullRecorder())
        wall = {rec is None: _timed_run(rec) for rec in order}
        ratios.append(wall[False] / wall[True])
        if ratios[-1] < 1.03:
            return
    pytest.fail(f"null-recorder overhead {min(ratios):.4f}x exceeds 1.03x")
