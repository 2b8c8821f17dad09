"""Unified observability: metrics registry, two-clock-domain spans,
and Chrome-trace/JSON export.  See DESIGN.md §6.3."""

from repro.obs.metrics import Counter, Gauge, LogHistogram, MetricsRegistry
from repro.obs.spans import (
    NullRecorder,
    ObsRecorder,
    SpanEvent,
    install,
    observe,
    recorder,
    uninstall,
)
from repro.obs.export import (
    diff_summaries,
    summary,
    to_chrome,
    validate_chrome_trace,
    write_artifacts,
)
from repro.obs.trace import TraceContext, span_args

__all__ = [
    "Counter",
    "Gauge",
    "LogHistogram",
    "MetricsRegistry",
    "SpanEvent",
    "ObsRecorder",
    "NullRecorder",
    "install",
    "uninstall",
    "recorder",
    "observe",
    "to_chrome",
    "summary",
    "diff_summaries",
    "validate_chrome_trace",
    "write_artifacts",
    "TraceContext",
    "span_args",
]
