"""``repro-bench``: regenerate any table or figure from the command line.

::

    repro-bench table2
    repro-bench table4 --target-nodes 2000000   # quicker, noisier
    repro-bench table5 table6
    repro-bench tuning --points 9 --jobs 4      # grid points in parallel
    repro-bench table4 --profile                # cProfile the run
    repro-bench table4 --trace                  # Chrome trace + summary
    repro-bench score                           # paper vs measured, every claim
    repro-bench all --jobs 0                    # all of the above, all cores
"""

from __future__ import annotations

import argparse
import sys
import time

__all__ = ["main"]

TARGETS = ["table2", "table3", "table4", "table5", "table6", "tuning", "score", "all"]


def _print_table3() -> None:
    from repro.cluster.systems import SYSTEMS
    from repro.util.tables import Table

    t = Table(["Nickname", "Description"], title="Table 3. Experimental Testbed")
    for spec in SYSTEMS.values():
        t.add_row([spec.name, spec.description])
    print(t.render())


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Regenerate the paper's tables on the simulated testbed",
    )
    parser.add_argument("targets", nargs="+", choices=TARGETS)
    parser.add_argument(
        "--target-nodes", type=int, default=20_000_000,
        help="search-tree size for the table4/5/6 runs (default 20M; "
        "the scorecard always runs the committed configuration)",
    )
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument(
        "--points", type=int, default=27,
        help="tuning-sweep grid points to evaluate (max 27)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for the table4/5/6 rows and the tuning "
        "grids (0 = all cores; default 1 = serial; results are "
        "identical either way)",
    )
    parser.add_argument(
        "--profile", nargs="?", const="bench_profile.pstats", default=None,
        metavar="PATH",
        help="cProfile the table runs; writes pstats to PATH (default "
        "bench_profile.pstats) and prints the hottest functions. "
        "Profiles the driving process only — combine with the default "
        "--jobs 1 to capture the simulation itself",
    )
    parser.add_argument(
        "--trace", nargs="?", const="", default=None, metavar="BASE",
        help="record an observability trace of the runs; writes "
        "BASE.trace.json (Chrome trace_event JSON, loadable in "
        "Perfetto) and BASE.summary.json (default BENCH_bench.* in the "
        "repo root). Forces --jobs 1: the recorder lives in this "
        "process",
    )
    parser.add_argument(
        "--causal", nargs="?", const="sim", default=None, metavar="SITE",
        help="mint causal trace contexts during the runs (every RMF "
        "submit becomes a traced origin; ids are prefixed SITE, "
        "default 'sim'). Combine with --trace, then stitch with "
        "'repro-obs assemble'",
    )
    args = parser.parse_args(argv)
    from repro.apps.knapsack.master_slave import SchedulingParams
    from repro.bench.table4 import Table4Config
    from repro.bench.tuning import default_grid

    grid_points = len(default_grid(SchedulingParams()))
    if not 1 <= args.points <= grid_points:
        parser.error(f"--points must be between 1 and {grid_points}")
    if args.jobs < 0:
        parser.error("--jobs must be >= 0 (0 = all cores)")
    if args.target_nodes <= Table4Config.n_items:
        parser.error(f"--target-nodes must be at least {Table4Config.n_items + 1}")
    targets = set(args.targets)
    if "all" in targets:
        targets = set(TARGETS) - {"all"}

    recorder = None
    if args.trace is not None:
        from repro.obs import spans as obs_spans

        if args.jobs != 1:
            print(
                "[repro-bench] --trace forces --jobs 1 (the recorder "
                "cannot follow worker processes)",
                file=sys.stderr,
            )
            args.jobs = 1
        recorder = obs_spans.install()

    if args.causal is not None:
        from repro.obs import trace as obs_trace

        obs_trace.enable(args.causal)

    profiler = None
    if args.profile is not None:
        import cProfile

        profiler = cProfile.Profile()
        if recorder is None:
            # --profile alone still routes through the registry: phase
            # wall times and kernel throughput land in PATH.obs.json.
            from repro.obs import spans as obs_spans

            recorder = obs_spans.install()

    t_start = time.time()
    if "table2" in targets:
        from repro.bench.table2 import render_table2, run_table2

        print(render_table2(run_table2()))
        print()
    if "table3" in targets:
        _print_table3()
        print()

    table4_results = None
    if targets & {"table4", "table5", "table6"}:
        from repro.bench.table4 import render_table4, run_table4

        config = Table4Config(target_nodes=args.target_nodes, seed=args.seed)
        t_phase = time.time()
        t_wall = recorder.wall_ts() if recorder is not None else 0.0
        if profiler is not None:
            profiler.enable()
            try:
                table4_results = run_table4(config, jobs=args.jobs)
            finally:
                profiler.disable()
        else:
            table4_results = run_table4(config, jobs=args.jobs)
        if recorder is not None:
            recorder.wall_span_end("bench", "table456", t_wall, track="bench")
            wall = time.time() - t_phase
            events = sum(r.events for r in table4_results.runs.values())
            reg = recorder.registry
            reg.gauge("profile.table456_wall_s").set(round(wall, 6))
            reg.gauge("profile.table456_kernel_events").set(events)
            reg.gauge("profile.table456_events_per_s").set(
                round(events / wall, 1) if wall > 0 else 0.0
            )
    if "table4" in targets:
        from repro.bench.table4 import render_table4

        print(render_table4(table4_results))
        print()
    if "table5" in targets:
        from repro.bench.table56 import render_table5

        print(render_table5(table4_results))
        print()
    if "table6" in targets:
        from repro.bench.table56 import render_table6

        print(render_table6(table4_results))
        print()
    if "tuning" in targets:
        from repro.apps.knapsack.instance import scaled_instance
        from repro.bench.tuning import render_sweep, run_tuning_sweep

        instance = scaled_instance(n=40, target_nodes=2_000_000, seed=args.seed)
        grid = default_grid(SchedulingParams())[: args.points]
        t_phase = time.time()
        t_wall = recorder.wall_ts() if recorder is not None else 0.0
        if profiler is not None:
            profiler.enable()
            try:
                points = run_tuning_sweep(instance, grid=grid, jobs=args.jobs)
            finally:
                profiler.disable()
        else:
            points = run_tuning_sweep(instance, grid=grid, jobs=args.jobs)
        if recorder is not None:
            recorder.wall_span_end("bench", "tuning", t_wall, track="bench")
            recorder.registry.gauge("profile.tuning_wall_s").set(
                round(time.time() - t_phase, 6)
            )
        print(render_sweep(points))
        print()
    if "score" in targets:
        from repro.bench import score

        # The scorecard reads the committed configuration only; a Table
        # 4 run made at it above is reused, not repeated.
        committed = table4_results and table4_results.config == Table4Config()
        measurements = score.Measurements(
            args.jobs, table4_results if committed else None)
        print(score.render(score.evaluate(measurements)))
        print()

    if profiler is not None:
        import pstats

        profiler.dump_stats(args.profile)
        stats = pstats.Stats(profiler, stream=sys.stderr)
        stats.sort_stats("cumulative").print_stats(25)
        print(f"[repro-bench] profile written to {args.profile}", file=sys.stderr)
        if recorder is not None:
            from repro.obs.export import dumps

            obs_path = f"{args.profile}.obs.json"
            with open(obs_path, "w") as fh:
                fh.write(dumps({
                    "format": "repro-obs-registry-v1",
                    "registry": recorder.registry.snapshot(),
                }))
                fh.write("\n")
            print(
                f"[repro-bench] registry snapshot written to {obs_path}",
                file=sys.stderr,
            )

    if args.trace is not None and recorder is not None:
        from repro.bench.results import write_trace_artifacts

        trace_path, summary_path = write_trace_artifacts(
            recorder, args.trace or None, "BENCH_bench",
            targets=sorted(targets), target_nodes=args.target_nodes,
            seed=args.seed,
        )
        print(
            f"[repro-bench] trace written to {trace_path} "
            f"(summary: {summary_path})",
            file=sys.stderr,
        )

    if args.causal is not None:
        from repro.obs import trace as obs_trace

        obs_trace.disable()
    if recorder is not None:
        from repro.obs import spans as obs_spans

        obs_spans.uninstall()

    print(f"[repro-bench] done in {time.time() - t_start:.1f}s wall", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
