"""Experiment harness: regenerates every table and figure of the paper.

One module per experiment, each exposing a ``run_*`` function that
returns structured results plus a ``render_*`` function producing the
paper-style text table; :mod:`repro.bench.experiments` holds the
figures and ablations.  :mod:`repro.bench.score` checks every claim
of the paper against them, and the ``repro-bench`` CLI drives both.
"""

from repro.bench.calibrate import table2_chain_models
from repro.bench.results import bench_meta
from repro.bench.sweep import fan_out, resolve_jobs
from repro.bench.table2 import Table2Row, render_table2, run_table2
from repro.bench.table4 import Table4Config, Table4Results, render_table4, run_table4
from repro.bench.table56 import render_table5, render_table6
from repro.bench.tuning import SweepPoint, render_sweep, run_tuning_sweep

__all__ = [
    "SweepPoint",
    "Table2Row",
    "Table4Config",
    "Table4Results",
    "bench_meta",
    "fan_out",
    "render_sweep",
    "render_table2",
    "render_table4",
    "render_table5",
    "render_table6",
    "resolve_jobs",
    "run_table2",
    "run_table4",
    "run_tuning_sweep",
    "table2_chain_models",
]
