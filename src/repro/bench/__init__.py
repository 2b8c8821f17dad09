"""Experiment harness: regenerates every table and figure of the paper.

One module per experiment, each exposing a ``run_*`` function that
returns structured results plus a ``render_*`` function producing the
paper-style text table; :mod:`repro.bench.experiments` holds the
figures and ablations.  :mod:`repro.bench.score` checks every claim
of the paper against them, and the ``repro-bench`` CLI drives both.
Names are imported on first use, so a process loads only the
experiments it runs.
"""

from repro._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(globals(), {
    "repro.bench.calibrate": ("table2_chain_models",),
    "repro.bench.results": ("bench_meta",),
    "repro.bench.sweep": ("fan_out", "resolve_jobs"),
    "repro.bench.table2": ("Table2Row", "render_table2", "run_table2"),
    "repro.bench.table4": ("Table4Config", "Table4Results", "render_table4", "run_table4"),
    "repro.bench.table56": ("render_table5", "render_table6"),
    "repro.bench.tuning": ("SweepPoint", "render_sweep", "run_tuning_sweep"),
})
