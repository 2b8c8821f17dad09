"""Shared utilities: unit conversions, summary statistics, table rendering,
seeded random draws.

These helpers are deliberately dependency-free; every other subpackage
may import :mod:`repro.util` but :mod:`repro.util` imports nothing from
the rest of the library (bar the lazy-export helper) and nothing
outside the standard library.  Names are imported on first use, so a
process that needs :mod:`repro.util.units` loads only that module.
"""

from repro._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(globals(), {
    "repro.util.units": (
        "KB", "MB", "GB", "kbps", "mbps", "gbps",
        "bytes_per_sec", "fmt_bytes", "fmt_rate", "fmt_time",
    ),
    "repro.util.stats": ("Summary", "RunningStats", "summarize"),
    "repro.util.tables": ("Table",),
    "repro.util.rng": ("make_rng",),
})
