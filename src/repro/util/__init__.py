"""Shared utilities: unit conversions, summary statistics, table rendering.

These helpers are deliberately dependency-light; every other subpackage
may import :mod:`repro.util` but :mod:`repro.util` imports nothing from
the rest of the library (bar the lazy-export helper).  Names are
imported on first use, so :mod:`repro.util.units` does not drag in
numpy (only :func:`make_rng` needs it).
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
