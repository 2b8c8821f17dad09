"""The repo's benchmark: seven workloads against the program's public
API, each in a fresh child process, every output checked.

    python3 benchmark/run.py                       # all seven, end to end
    python3 benchmark/run.py --workload pingpong   # one
    python3 benchmark/run.py --traced              # layer table + trace files
    python3 benchmark/run.py --quick               # ~1 s per workload, smoke

``BENCHMARK.json`` names the workloads and metrics; README.md says how
a run is built and why.  With ``--workload`` the last line of output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics, or with ``--trace 1`` the per-layer ones.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Any, Optional

from harness import HERE, OUT, REPO, SRC, Child, Measured, Tracer, pctl, plan_cpus

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
SETUP_TIMEOUT_S = 90.0
QUICK_SECONDS = 1.0
BASELINE = HERE / "baseline.json"


def load_spec() -> "dict[str, Any]":
    return json.loads((REPO / "BENCHMARK.json").read_text())


def workload_classes() -> "dict[str, Any]":
    import live
    import sim

    return {**live.WORKLOADS, **sim.WORKLOADS}


async def set_up(cls, seed: int, quick: bool, child_cpu: Optional[int],
                 tracer: Optional[Tracer]) -> "tuple[Child, Any, float]":
    """A fresh child with the workload set up on it: spawn, import,
    ``bind()``, chains, fixed warm-up — everything ``setup_s`` counts."""
    child = Child(cls.host_script, cls.host_args(seed, quick), cpu=child_cpu)
    try:
        workload = cls(child, child.read(SETUP_TIMEOUT_S), seed, quick)
        workload.tracer = tracer
        await workload.setup()
        workload.tracer = None
    except BaseException:
        child.close()
        raise
    return child, workload, time.perf_counter() - child.spawned


async def phase(child: Child, workload, seconds: float,
                tracer: Optional[Tracer]) -> "tuple[Measured, dict[str, float]]":
    """One measured phase, and its figures per op and per process."""
    sut0, gen0, t0 = child.cpu_s(), time.process_time(), time.perf_counter()
    measured = await workload.measure(seconds, tracer)
    wall = time.perf_counter() - t0
    sut_cpu, gen_cpu = child.cpu_s() - sut0, time.process_time() - gen0
    done = measured.attempted - measured.failed
    samples = sorted(measured.op_us)
    if not samples or done <= 0 or measured.rate_ops <= 0:
        raise RuntimeError(f"{workload.name}: no op completed: {measured.errors[:3]}")
    return measured, {
        "ops_per_s": measured.rate_ops / measured.rate_wall_s,
        "op_p50_us": pctl(samples, 0.5),
        "op_p90_us": pctl(samples, 0.9),
        "op_p99_us": pctl(samples, 0.99),
        "sut_cpu_us_per_op": sut_cpu / done * 1e6,
        "sut_busy_pct": 100.0 * sut_cpu / wall,
        "gen_busy_pct": 100.0 * gen_cpu / wall,
    }


async def run_workload(name: str, seed: int, seconds: float, traced: bool,
                       quick: bool) -> "dict[str, Any]":
    """One run as the driver makes it.  Returns ``end_to_end`` and, for
    a traced run, ``per_layer`` values by name, with the op counts, the
    failed output checks and whether the processes were pinned."""
    cls = workload_classes()[name]
    allowed = os.sched_getaffinity(0)
    child_cpu, gen_cpus = plan_cpus()
    if gen_cpus is not None:
        os.sched_setaffinity(0, gen_cpus)
    try:
        return await _run_pinned(cls, seed, seconds, traced, quick, child_cpu)
    finally:
        os.sched_setaffinity(0, allowed)  # the next workload plans afresh


async def _run_pinned(cls, seed: int, seconds: float, traced: bool, quick: bool,
                      child_cpu: Optional[int]) -> "dict[str, Any]":
    import probes

    name = cls.name
    tracer = Tracer() if traced else None
    setups = []
    for _ in range(0 if traced or quick else SETUPS - 1):
        child, workload, setup_s = await set_up(cls, seed, quick, child_cpu, None)
        try:
            setups.append(setup_s)
            await workload.teardown()
        finally:
            child.close()
    child, workload, setup_s = await set_up(cls, seed, quick, child_cpu, tracer)
    try:
        setups.append(setup_s)
        if traced:
            # Same chains, same size: half the time untraced, half
            # traced; the difference is what the tracing costs.
            measured, cost = await phase(child, workload, seconds / 2, None)
            with_spans, traced_cost = await phase(child, workload, seconds / 2, tracer)
            measured.errors += with_spans.errors
            measured.attempted += with_spans.attempted
            measured.failed += with_spans.failed
        else:
            # Several short phases on the same chains, each metric the
            # median over them: a stall of the host (they last seconds
            # here) spoils one phase, not the run.
            count = 1 if quick else workload.phases
            parts = [await phase(child, workload, seconds / count, None) for _ in range(count)]
            measured = parts[0][0]
            for part, _ in parts[1:]:
                measured.errors += part.errors
                measured.attempted += part.attempted
                measured.failed += part.failed
            cost = {key: statistics.median(c[key] for _, c in parts) for key in parts[0][1]}
        await workload.teardown()
        # VmHWM is read at the child's end: set-up, phases and teardown.
        peak_rss_mb = child.peak_rss_mb()
    finally:
        child.close()

    errors = measured.errors
    result = {
        "workload": name, "seed": seed, "seconds": seconds, "quick": quick,
        "pinned": child_cpu is not None,
        "attempted": measured.attempted, "failed": measured.failed, "errors": errors,
        "end_to_end": {
            "setup_s": statistics.median(setups),
            "ops_per_s": cost["ops_per_s"],
            "op_p50_us": cost["op_p50_us"],
            "sut_cpu_us_per_op": cost["sut_cpu_us_per_op"],
            "peak_rss_mb": peak_rss_mb,
        },
        "busy": {"sut_busy_pct": cost["sut_busy_pct"], "gen_busy_pct": cost["gen_busy_pct"]},
    }
    if traced:
        layer = dict(with_spans.layer)
        layer.update(await probes.run_all(quick, child_cpu))
        layer.update(workload.derived(layer))
        layer.update({
            "bench.op_p90_us": traced_cost["op_p90_us"],
            "bench.op_p99_us": traced_cost["op_p99_us"],
            "bench.sut_busy_pct": traced_cost["sut_busy_pct"],
            "bench.gen_busy_pct": traced_cost["gen_busy_pct"],
            "bench.trace_overhead_pct":
                100.0 * (cost["ops_per_s"] - traced_cost["ops_per_s"]) / cost["ops_per_s"],
            "bench.trace_spans": float(len(tracer.spans)),
            "bench.trace_unresolved_parents": float(tracer.unresolved_parents()),
        })
        if tracer.unresolved_parents():
            errors.append(f"{tracer.unresolved_parents()} spans lack a resolvable parent")
        result["per_layer"] = layer
        tracer.write(OUT / f"{name}.trace.json")
    return result


def contract_object(result: "dict[str, Any]", spec: "dict[str, Any]") -> "dict[str, Any]":
    """The result in the shape the driver reads: every ``end_to_end``
    metric of BENCHMARK.json, or for a traced run every ``per_layer``
    one — 0 where the workload does not exercise the layer."""
    traced = "per_layer" in result
    values = result["per_layer" if traced else "end_to_end"]
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}
    unknown = sorted(set(values) - set(declared))
    if unknown:
        raise RuntimeError(f"metrics BENCHMARK.json does not declare: {unknown}")
    if not traced and set(declared) - set(values):
        raise RuntimeError(f"end-to-end metrics not measured: {sorted(set(declared) - set(values))}")
    return {
        "correct": not result["errors"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": float(values.get(name, 0.0)), "unit": unit}
                    for name, unit in declared.items()},
    }


def report(result: "dict[str, Any]", spec: "dict[str, Any]") -> None:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"== {result['workload']}  seed={result['seed']} seconds={result['seconds']:g} "
          f"pinned={result['pinned']} quick={result['quick']}")
    print(f"   ops_attempted={result['attempted']} ops_failed={result['failed']} "
          f"sut_busy={result['busy']['sut_busy_pct']:.0f}% gen_busy={result['busy']['gen_busy_pct']:.0f}%")
    for section in ("end_to_end", "per_layer"):
        for name, value in result.get(section, {}).items():
            print(f"   {name:<46} {value:>16.4f} {units[name]}")
    for error in result["errors"]:
        print(f"   CHECK FAILED: {error}")


# ---------------------------------------------------------------------------
# golden files and the recorded baseline
# ---------------------------------------------------------------------------


async def regen_golden() -> None:
    import sim

    for quick in (False, True):
        for cls in sim.WORKLOADS.values():
            child, workload, _ = await set_up(cls, 1, quick, None, None)
            try:
                await workload.measure(0.0, None)  # one whole unit
                diff = workload.regen(workload.outputs)
            finally:
                child.close()
            print(f"# {cls.name} ({'quick' if quick else 'full'}): "
                  + ("unchanged" if not diff else "rewritten"))
            print(diff, end="")


def environment() -> "dict[str, Any]":
    """Where a recorded set of numbers came from.  Raises when the
    program's tree is not the commit it would be stamped with."""
    def git(*args: str) -> str:
        return subprocess.run(("git", "-C", str(REPO)) + args, check=True,
                              capture_output=True, text=True).stdout.strip()

    dirty = git("status", "--porcelain", "--", "src")
    if dirty:
        raise RuntimeError(f"src/ differs from HEAD, nothing recorded:\n{dirty}")
    return {
        "program_sha": git("rev-parse", "HEAD"),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "kernel": platform.release(),
        "machine": platform.machine(),
    }


def main() -> int:
    spec = load_spec() if (REPO / "BENCHMARK.json").exists() else None
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="length of the measured phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true", help="same as --trace 1")
    parser.add_argument("--quick", action="store_true",
                        help=f"{QUICK_SECONDS:g} s phases on small inputs; a smoke run, never recorded")
    parser.add_argument("--record", action="store_true",
                        help=f"run everything, traced too, and write {BASELINE.name}")
    parser.add_argument("--regen-golden", action="store_true",
                        help="rewrite golden/ from this tree and print the diff")
    args = parser.parse_args()
    if spec is None or not (SRC / "repro").is_dir():
        print(f"run.py: needs BENCHMARK.json and src/repro under {REPO}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.regen_golden:
        asyncio.run(regen_golden())
        return 0
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None:
        if args.workload not in names:
            parser.error(f"--workload must be one of {names}")
        names = [args.workload]
    if args.record and (args.quick or args.workload):
        parser.error("--record takes the whole set at full size")
    env = environment() if args.record else None
    seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
    if args.quick:
        seconds = min(seconds, QUICK_SECONDS)
    modes = (False, True) if args.record else (bool(args.trace or args.traced),)

    results, objects = [], {}
    for traced in modes:
        for name in names:
            result = asyncio.run(run_workload(name, args.seed, seconds, traced, args.quick))
            report(result, spec)
            results.append(result)
            objects[name] = contract_object(result, spec)
    if args.record:
        env["pinned"] = all(r["pinned"] for r in results)
        BASELINE.write_text(json.dumps({"environment": env, "results": results}, indent=1) + "\n")
        print(f"wrote {BASELINE}")
    print(json.dumps(objects[names[0]] if args.workload else objects))
    return 1 if any(r["errors"] or r["failed"] for r in results) else 0


if __name__ == "__main__":
    sys.exit(main())
