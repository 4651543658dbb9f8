"""Structured observability: tracing, metrics, and exporters.

The subsystem is strictly downstream-free — it imports nothing from the
rest of ``repro`` — so the core, resilience, persistence, and CLI
layers can all depend on it without cycles.  See
``docs/observability.md`` for the span model, the metric catalogue, and
exporter formats.
"""

from .exporters import (
    prometheus_text,
    render_explain,
    replay_counters,
    trace_lines,
    trace_to_jsonl,
)
from .metrics import (
    LATENCY_BUCKETS,
    NULL_METRICS,
    SIZE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetrics,
)
from .tracer import NULL_TRACER, NullTracer, Span, SpanEvent, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS",
    "MetricsRegistry",
    "NULL_METRICS",
    "NULL_TRACER",
    "NullMetrics",
    "NullTracer",
    "SIZE_BUCKETS",
    "Span",
    "SpanEvent",
    "Tracer",
    "prometheus_text",
    "render_explain",
    "replay_counters",
    "trace_lines",
    "trace_to_jsonl",
]
