#!/usr/bin/env python3
"""Quickstart: the whole system in one script.

Builds the paper's Figure 5 testbed (two firewalled-and-open sites,
the 1.5 Mbps IMNet, the Nexus Proxy outer/inner servers), shows the
firewall problem and the proxy's answer, then runs a small parallel
0-1 knapsack on the 20-processor wide-area cluster and prints a
miniature Table 4.

Run:  python examples/quickstart.py
"""

from repro.apps.knapsack import (
    SchedulingParams,
    optimal_value,
    run_sequential_baseline,
    run_system,
    scaled_instance,
    tree_size,
)
from repro.cluster import CATALOGUE, Testbed
from repro.util.tables import Table


def show_environment(tb: Testbed) -> None:
    print("=== Figure 5: the experimental environment ===")
    t = Table(["site", "machine", "description", "cpus", "rel. speed"])
    for spec in CATALOGUE.values():
        t.add_row([spec.site, spec.nickname, spec.description,
                   spec.cpus, spec.cpu_speed])
    print(t.render())
    print()


def show_firewall_problem(tb: Testbed) -> None:
    print("=== The firewall problem (and the Nexus Proxy's answer) ===")
    checks = [
        ("etl-sun -> rwcp-sun:5000   (inbound)", "etl-sun", "rwcp-sun", 5000),
        ("rwcp-sun -> etl-sun:5000   (outbound)", "rwcp-sun", "etl-sun", 5000),
        ("outer -> inner:nxport      (the pinhole)",
         "outer-server", "inner-server", tb.relay_config.nxport),
        ("etl-sun -> inner:nxport    (pinned!)",
         "etl-sun", "inner-server", tb.relay_config.nxport),
    ]
    for label, src, dst, port in checks:
        verdict = "ALLOWED" if tb.net.can_connect(src, dst, port) else "DENIED"
        print(f"  {label:45s} {verdict}")
    print(f"  total inbound exposure: {tb.rwcp_firewall.exposure()} port(s)")
    print()


def run_knapsack() -> None:
    print("=== A miniature Table 4 (0-1 knapsack, work stealing) ===")
    instance = scaled_instance(n=36, target_nodes=1_000_000, seed=5)
    params = SchedulingParams()
    print(
        f"instance: {instance.n} items, capacity {instance.capacity}, "
        f"full search tree = {tree_size(instance):,} nodes, "
        f"optimum = {optimal_value(instance)}"
    )
    sequential = run_sequential_baseline(Testbed(), instance, params)
    t = Table(["System", "procs", "time (sim sec)", "speedup"])
    t.add_row(["RWCP-Sun (sequential)", 1, f"{sequential:.1f}", "1.00"])
    for system in ("COMPaS", "Local-area Cluster", "Wide-area Cluster"):
        run = run_system(Testbed(), system, instance, params)
        assert run.best_value == optimal_value(instance)
        t.add_row([system, run.nprocs, f"{run.execution_time:.1f}",
                   f"{sequential / run.execution_time:.2f}"])
    print(t.render())
    print("\n(Real experiment: repro-bench all; paper vs measured, "
          "claim by claim: repro-bench score)")


def main() -> None:
    tb = Testbed()
    show_environment(tb)
    show_firewall_problem(tb)
    run_knapsack()


if __name__ == "__main__":
    main()
