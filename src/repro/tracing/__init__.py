"""Event tracing: the standard + self-describing trace format, trace
sinks, Projections-lite analysis, critical-path extraction, and
exporters (Chrome Trace Event JSON, text reports)."""

from repro.tracing.analysis import (
    HandlerProfile,
    PeBreakdown,
    TraceSummary,
    handler_profiles,
    latency_stats,
    message_latencies,
    queue_depth_series,
    summarize,
    timeline,
    utilization,
)
from repro.tracing.critpath import CriticalPath, critical_path
from repro.tracing.events import SchemaDeclaration, TraceEvent
from repro.tracing.merge import (
    load_spool,
    merge_spools,
    merge_tracers,
    spool_path,
    write_jsonl,
)
from repro.tracing.export import (
    chrome_trace,
    save_chrome_trace,
    text_report,
    validate_chrome_trace,
)
from repro.tracing.tracer import (
    CountingTracer,
    JsonlTracer,
    MemoryTracer,
    Tracer,
    load_jsonl,
    make_tracer,
)

__all__ = [
    "TraceEvent",
    "SchemaDeclaration",
    "Tracer",
    "MemoryTracer",
    "CountingTracer",
    "JsonlTracer",
    "make_tracer",
    "load_jsonl",
    "load_spool",
    "merge_tracers",
    "merge_spools",
    "write_jsonl",
    "spool_path",
    "TraceSummary",
    "HandlerProfile",
    "PeBreakdown",
    "summarize",
    "timeline",
    "handler_profiles",
    "message_latencies",
    "latency_stats",
    "queue_depth_series",
    "utilization",
    "CriticalPath",
    "critical_path",
    "chrome_trace",
    "save_chrome_trace",
    "validate_chrome_trace",
    "text_report",
]
