"""Run the end-to-end set twice on the same tree and compare.

    python3 benchmark/repeat.py              # one run per workload per set
    python3 benchmark/repeat.py --runs 10    # ten seeds per set, as the driver does

Each run is ``run.py --workload W --seed N`` in a process of its own.
Per workload × metric it prints both sets' medians, how much worse the
second is than the first, the metric's bound, and with ``--runs`` ≥ 4
each set's spread (interquartile range over median).  It exits non-zero
when the second set is worse than the first by more than the bound or
a spread exceeds it (``setup_s`` is held to the first only): two runs
of the same code must agree before a difference between two trees can
mean anything.  A run that fails or prints a wrong output counts too.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Optional

HERE = Path(__file__).resolve().parent
REPO = HERE.parent


def one_run(workload: str, seed: int, extra: "list[str]") -> "Optional[dict[str, float]]":
    """The end-to-end metrics of one run, or None when it failed."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), *extra],
        capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        print(f"{workload} seed {seed} exited {proc.returncode}:\n"
              f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    result = json.loads(proc.stdout.splitlines()[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    print(f"{workload} seed {seed}: {json.dumps(values)}", file=sys.stderr)
    return values


def spread(values: "list[float]") -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    spec: "dict[str, Any]" = json.loads((REPO / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=1, help="runs (seeds) per workload per set")
    parser.add_argument("--workload", action="append", choices=names,
                        help="only this workload (may be given more than once)")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()
    extra = (["--seconds", str(args.seconds)] if args.seconds is not None else []) \
        + (["--quick"] if args.quick else [])

    sets: "list[dict[str, dict[str, list[float]]]]" = []
    failed_runs = 0
    for which in range(2):
        sets.append({})
        for workload in args.workload or names:
            runs = [one_run(workload, 100 * which + i + 1, extra) for i in range(args.runs)]
            failed_runs += runs.count(None)
            runs = [r for r in runs if r is not None]
            if not runs:
                raise SystemExit(f"{workload}: every run failed")
            sets[which][workload] = {m: [r[m] for r in runs] for m in runs[0]}

    bad = 0
    print(f"{'workload':<15} {'metric':<18} {'first':>14} {'second':>14} "
          f"{'worse by':>9} {'bound':>6} {'spread 1':>9} {'spread 2':>9}")
    for workload in sets[0]:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            first, second = (s[workload][name] for s in sets)
            a, b = statistics.median(first), statistics.median(second)
            worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            flags = []
            if worse > bound:
                flags.append("WORSE")
            spreads = [spread(v) for v in (first, second)] if min(len(first), len(second)) >= 4 else []
            if name != "setup_s" and any(s > bound for s in spreads):
                flags.append("SPREAD")
            bad += bool(flags)
            cells = "".join(f" {s:>9.1%}" for s in spreads) or f" {'-':>9} {'-':>9}"
            print(f"{workload:<15} {name:<18} {a:>14.4f} {b:>14.4f} {worse:>+9.1%} "
                  f"{bound:>6.0%}{cells} {' '.join(flags)}")
    print(f"{bad} of {len(sets[0]) * len(spec['end_to_end'])} pairs out of bound, "
          f"{failed_runs} failed runs")
    return 1 if bad or failed_runs else 0


if __name__ == "__main__":
    sys.exit(main())
