"""Structured tracing: nested spans with counter deltas and events.

The pipeline's unit of observation is the **span** — one timed interval
of one pipeline activity (`query` → `pruned_dedup` → `level` → stage),
carrying:

* deterministic **attributes** (group counts, bounds, k, level names —
  facts about the computation that are bit-identical across re-runs on
  the same input);
* **wall_seconds** and an optional **counters_delta** (the work the
  interval performed, measured against any counter object exposing
  ``snapshot()``/``delta()`` — in practice
  :class:`repro.core.verification.PipelineCounters`);
* **events** (degradations, quarantines) pinned to the span they
  happened under.

Spans marked ``transient`` exist only under some execution
configurations (the thresholded query's keying sweep, which runs only
under an :class:`~repro.core.resilience.ExecutionPolicy`): the
deterministic trace export skips them so traces of the same query are
byte-identical with and without a clean policy.

This module deliberately imports nothing from the rest of ``repro``:
the core layers import *it*, never the other way around, and counter
objects are duck-typed.  Tracers are not thread-safe; the pipelines
that feed them are single-threaded.

:class:`NullTracer` is the default everywhere.  Its methods are no-ops
returning shared singletons, so an untraced run does no counter
snapshotting, no clock reads, and no allocation — query answers are
bit-identical to a build without the observability layer.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator


class SpanEvent:
    """One point-in-time occurrence attached to a span."""

    __slots__ = ("name", "attributes")

    def __init__(self, name: str, attributes: dict[str, object]):
        self.name = name
        self.attributes = attributes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SpanEvent({self.name!r}, {self.attributes!r})"


class Span:
    """One timed, attributed interval in the trace tree.

    Attributes:
        name: Span name (``query``, ``pruned_dedup``, ``level``, or a
            stage name).
        attributes: Deterministic facts about the computation.  Only
            values that are bit-identical across re-runs belong
            here; timing and machine-dependent data go in
            :attr:`wall_seconds` / :attr:`counters_delta` / event
            attributes instead.
        transient: True for spans that exist only under some execution
            configurations (the policy-only keying sweep); excluded
            from the deterministic export.
        wall_seconds: Wall-clock duration.
        counters_delta: Work done during the span (a counter object
            delta, usually ``PipelineCounters``), or None when the span
            was opened without a counter sink.
        events: Occurrences recorded while the span was current.
        children: Child spans, in execution order.
    """

    __slots__ = (
        "name",
        "attributes",
        "transient",
        "wall_seconds",
        "counters_delta",
        "events",
        "children",
    )

    def __init__(
        self,
        name: str,
        attributes: dict[str, object] | None = None,
        transient: bool = False,
    ):
        self.name = name
        self.attributes: dict[str, object] = dict(attributes or {})
        self.transient = transient
        self.wall_seconds = 0.0
        self.counters_delta: object | None = None
        self.events: list[SpanEvent] = []
        self.children: list[Span] = []

    def set_attribute(self, key: str, value: object) -> None:
        """Attach one deterministic attribute (see class docstring)."""
        self.attributes[key] = value

    def set_attributes(self, **attributes: object) -> None:
        """Attach several deterministic attributes at once."""
        self.attributes.update(attributes)

    def add_event(self, name: str, **attributes: object) -> None:
        """Record a point-in-time event under this span."""
        self.events.append(SpanEvent(name, attributes))

    def walk(self) -> Iterator["Span"]:
        """Yield this span and all descendants, preorder."""
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, children={len(self.children)}, "
            f"wall={self.wall_seconds:.6f})"
        )


class _NullSpan:
    """Inert span: accepts every mutation, stores nothing."""

    __slots__ = ()

    name = "null"
    attributes: dict[str, object] = {}
    transient = False
    wall_seconds = 0.0
    counters_delta = None
    events: list[SpanEvent] = []
    children: list["Span"] = []

    def set_attribute(self, key: str, value: object) -> None:
        pass

    def set_attributes(self, **attributes: object) -> None:
        pass

    def add_event(self, name: str, **attributes: object) -> None:
        pass


_NULL_SPAN = _NullSpan()


class _NullSpanContext:
    """Reusable no-op context manager yielding the shared null span."""

    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return _NULL_SPAN

    def __exit__(self, *exc_info) -> None:
        return None


_NULL_SPAN_CONTEXT = _NullSpanContext()


class NullTracer:
    """The zero-overhead default tracer: every operation is a no-op.

    ``span`` hands back a shared, pre-built context manager — no clock
    read, no counter snapshot, no allocation — so pipelines can call it
    unconditionally on their hot path.
    """

    enabled = False

    @property
    def roots(self) -> list[Span]:
        return []

    @property
    def orphan_events(self) -> list[SpanEvent]:
        return []

    def span(
        self,
        name: str,
        counters: object | None = None,
        transient: bool = False,
        **attributes: object,
    ) -> _NullSpanContext:
        return _NULL_SPAN_CONTEXT

    def event(self, name: str, **attributes: object) -> None:
        pass

    def current(self) -> None:
        return None


#: Shared default instance — the pipelines' tracer when none is given.
NULL_TRACER = NullTracer()


class Tracer:
    """Collects a forest of spans, one root per top-level query.

    Args:
        clock: Monotonic clock used for span durations (injectable for
            tests); defaults to :func:`time.perf_counter`.
    """

    enabled = True

    def __init__(self, clock=time.perf_counter):
        self.roots: list[Span] = []
        self.orphan_events: list[SpanEvent] = []
        self._clock = clock
        self._stack: list[Span] = []

    def current(self) -> Span | None:
        """The innermost open span, or None outside any span."""
        return self._stack[-1] if self._stack else None

    @contextmanager
    def span(
        self,
        name: str,
        counters: object | None = None,
        transient: bool = False,
        **attributes: object,
    ) -> Iterator[Span]:
        """Open a child span of the current span (or a new root).

        *counters* may be any object with ``snapshot()`` and
        ``delta(snapshot)``; the span's :attr:`~Span.counters_delta` is
        the work done between enter and exit.  The span stays open — and
        is the target of :meth:`event` — until the ``with`` block ends,
        including over early returns and exceptions.
        """
        span = Span(name, attributes, transient=transient)
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)
        before = counters.snapshot() if counters is not None else None
        start = self._clock()
        try:
            yield span
        finally:
            span.wall_seconds = self._clock() - start
            if before is not None:
                span.counters_delta = counters.delta(before)
            self._stack.pop()

    def event(self, name: str, **attributes: object) -> None:
        """Record an event under the current span (orphaned if none)."""
        current = self.current()
        if current is not None:
            current.add_event(name, **attributes)
        else:
            self.orphan_events.append(SpanEvent(name, attributes))

    def clear(self) -> None:
        """Drop all collected spans and orphan events."""
        if self._stack:
            raise RuntimeError(
                f"cannot clear mid-trace: span {self._stack[-1].name!r} is "
                f"still open"
            )
        self.roots.clear()
        self.orphan_events.clear()
