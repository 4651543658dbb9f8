"""Exporters: JSON-lines traces, Prometheus text metrics, explain trees.

Three views of one run, all derived from the same :class:`Tracer` /
:class:`MetricsRegistry` state:

* :func:`trace_to_jsonl` — one JSON object per span, preorder, parent
  links by id.  ``mode="full"`` includes wall times, counter deltas and
  events (everything needed to replay the run's totals);
  ``mode="deterministic"`` keeps only the machine-independent skeleton
  (names, attributes, tree shape; transient subtrees dropped) and is
  byte-identical across re-runs on the same input, with or without a
  clean execution policy.
* :func:`prometheus_text` — the registry in Prometheus exposition
  format (text/plain version 0.0.4), ready for a node exporter's
  textfile collector.
* :func:`render_explain` — a human tree for the CLI's ``--explain``.

:func:`replay_counters` closes the loop: it reads a full JSONL trace
back and re-derives the run's total counter deltas from the root spans,
which the test suite compares against the live ``PipelineCounters``.
"""

from __future__ import annotations

import json
from typing import Iterable, TextIO

from .metrics import MetricsRegistry
from .tracer import Span, Tracer


def _span_payload(span: Span, span_id: int, parent_id: int | None, mode: str):
    payload: dict[str, object] = {
        "id": span_id,
        "parent": parent_id,
        "name": span.name,
        "attributes": span.attributes,
    }
    if mode == "full":
        payload["transient"] = span.transient
        payload["wall_seconds"] = span.wall_seconds
        delta = span.counters_delta
        payload["counters"] = (
            delta.as_dict() if delta is not None else None
        )
        payload["events"] = [
            {"name": event.name, "attributes": event.attributes}
            for event in span.events
        ]
    return payload


def trace_lines(tracer: Tracer, mode: str = "full") -> Iterable[str]:
    """Yield one JSON line per exported span, preorder across roots.

    Span ids are preorder integers assigned at export time, so the same
    trace always serializes identically.
    """
    if mode not in ("full", "deterministic"):
        raise ValueError(f"unknown trace export mode: {mode!r}")
    next_id = 0
    # Explicit stack of (span, parent_id) to keep preorder ids stable.
    stack: list[tuple[Span, int | None]] = [
        (root, None) for root in reversed(tracer.roots)
    ]
    while stack:
        span, parent_id = stack.pop()
        if mode == "deterministic" and span.transient:
            continue
        span_id = next_id
        next_id += 1
        yield json.dumps(
            _span_payload(span, span_id, parent_id, mode),
            sort_keys=True,
            separators=(",", ":"),
            default=_jsonable,
        )
        for child in reversed(span.children):
            stack.append((child, span_id))


def _jsonable(value: object) -> object:
    """Serialize attribute values that json doesn't handle natively."""
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    if isinstance(value, tuple):
        return list(value)
    if hasattr(value, "as_dict"):
        return value.as_dict()
    return str(value)


def trace_to_jsonl(tracer: Tracer, out: TextIO, mode: str = "full") -> int:
    """Write the trace as JSON lines; returns the number of spans written."""
    n = 0
    for line in trace_lines(tracer, mode=mode):
        out.write(line)
        out.write("\n")
        n += 1
    return n


def replay_counters(lines: Iterable[str]) -> dict[str, object]:
    """Re-derive total counter deltas from a full JSONL trace.

    Sums the ``counters`` payloads of root spans (one per query); every
    nested span's delta is a sub-interval of its root's, so roots alone
    carry the run totals.  Returns a plain dict shaped like
    ``PipelineCounters.as_dict()`` — integer fields summed, per-stage
    seconds merged — for direct comparison with the live counters.
    """
    totals: dict[str, object] = {}
    stage_seconds: dict[str, float] = {}
    for line in lines:
        record = json.loads(line)
        if record.get("parent") is not None:
            continue
        counters = record.get("counters")
        if not counters:
            continue
        for key, value in counters.items():
            if key == "stage_seconds":
                for stage, seconds in value.items():
                    stage_seconds[stage] = stage_seconds.get(stage, 0.0) + seconds
            else:
                totals[key] = totals.get(key, 0) + value
    totals["stage_seconds"] = stage_seconds
    return totals


def prometheus_text(registry: MetricsRegistry) -> str:
    """Render the registry in Prometheus text exposition format."""
    lines: list[str] = []
    seen_header: set[str] = set()
    for name, labels, instrument in registry.series():
        if name not in seen_header:
            seen_header.add(name)
            help_text = registry.help_text(name)
            if help_text:
                lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {instrument.kind}")
        if instrument.kind == "histogram":
            cumulative = 0
            for bound, count in zip(instrument.buckets, instrument.bucket_counts):
                cumulative += count
                bucket_labels = dict(labels, le=_format_bound(bound))
                lines.append(
                    f"{name}_bucket{_label_text(bucket_labels)} {cumulative}"
                )
            cumulative += instrument.bucket_counts[-1]
            lines.append(
                f"{name}_bucket{_label_text(dict(labels, le='+Inf'))} {cumulative}"
            )
            lines.append(f"{name}_sum{_label_text(labels)} {_format(instrument.sum)}")
            lines.append(f"{name}_count{_label_text(labels)} {instrument.count}")
        else:
            lines.append(f"{name}{_label_text(labels)} {_format(instrument.value)}")
    return "\n".join(lines) + ("\n" if lines else "")


def _label_text(labels: dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{_escape(value)}"' for key, value in sorted(labels.items())
    )
    return "{" + inner + "}"


def _escape(value: str) -> str:
    return str(value).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _format_bound(bound: float) -> str:
    return _format(bound) if bound == int(bound) else repr(bound)


def render_explain(tracer: Tracer, counter_keys: tuple[str, ...] = ()) -> str:
    """Render the trace as a human-readable tree for ``--explain``.

    Each span line shows the name, wall time, notable attributes, and —
    when *counter_keys* name counter fields — the span's non-zero deltas
    for those fields.  Events render as ``!`` lines under their span.
    """
    out: list[str] = []
    for root in tracer.roots:
        _render_span(root, "", True, out, counter_keys, is_root=True)
    for event in tracer.orphan_events:
        out.append(f"! {event.name} {_attr_text(event.attributes)}".rstrip())
    return "\n".join(out) + ("\n" if out else "")


def _render_span(
    span: Span,
    prefix: str,
    last: bool,
    out: list[str],
    counter_keys: tuple[str, ...],
    is_root: bool = False,
) -> None:
    if is_root:
        connector, child_prefix = "", ""
    else:
        connector = "└─ " if last else "├─ "
        child_prefix = prefix + ("   " if last else "│  ")
    parts = [f"{span.name}"]
    if span.wall_seconds:
        parts.append(f"{span.wall_seconds * 1000:.2f}ms")
    attr_text = _attr_text(span.attributes)
    if attr_text:
        parts.append(attr_text)
    delta = span.counters_delta
    if delta is not None and counter_keys:
        delta_dict = delta.as_dict() if hasattr(delta, "as_dict") else dict(delta)
        shown = [
            f"{key}={delta_dict[key]}"
            for key in counter_keys
            if delta_dict.get(key)
        ]
        if shown:
            parts.append("[" + " ".join(shown) + "]")
    out.append((prefix + connector + "  ".join(parts)).rstrip())
    for event in span.events:
        out.append(
            f"{child_prefix}! {event.name} {_attr_text(event.attributes)}".rstrip()
        )
    for index, child in enumerate(span.children):
        _render_span(
            child,
            child_prefix,
            index == len(span.children) - 1,
            out,
            counter_keys,
        )


def _attr_text(attributes: dict[str, object]) -> str:
    return " ".join(f"{key}={value}" for key, value in attributes.items())
