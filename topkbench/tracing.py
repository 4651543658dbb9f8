"""In-memory span log for traced runs, and the per-layer arithmetic.

Each op is a root span carrying an op id.  Beneath it sit the program's
own :class:`repro.observability.Tracer` spans (adopted after the op
ends) and the benchmark's timer spans around public methods that have
no span of their own.  Every span has a name, start, end and parent.
A span's self time is its wall time minus the part of it its children
cover.  Nothing is written until the run ends.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

from common import ensure_src

ensure_src()

from repro.observability import Tracer  # noqa: E402

#: Span name -> per-layer self-time metric.  Spans not listed here
#: (``query``, ``pruned_dedup``, ``level``, op roots) fall to
#: ``other.self_s``.
LAYER_OF_SPAN = {
    # program spans
    "collapse": "collapse.self_s",
    "lower_bound": "lower_bound.self_s",
    "prune": "prune.self_s",
    "rank_prune": "rank_prune.self_s",
    "score": "score.self_s",
    "segment_dp": "segment.self_s",
    "enumerate_worlds": "worlds.self_s",
    # benchmark timers
    "levels": "setup.levels_s",
    "train": "setup.train_s",
    "restore": "restore.self_s",
    "add": "ingest.add_s",
    "append": "wal.append_s",
    "freeze": "snapshot.freeze_s",
    "exec": "service.exec_s",
    "service": "service.wait_s",
}
#: Op roots whose self time is the HTTP round trip's own share.
HTTP_ROOT_PREFIX = "http."
HTTP_LAYER = "service.http_s"


class StartTracer(Tracer):
    """A program :class:`Tracer` that also remembers when spans began."""

    def __init__(self):
        super().__init__()
        self.starts: dict[int, float] = {}

    @contextmanager
    def span(self, name, counters=None, transient=False, **attributes):
        start = time.perf_counter()
        with super().span(name, counters, transient, **attributes) as span:
            self.starts[id(span)] = start
            yield span


class SpanLog:
    """Spans of one traced run, kept in memory until the end."""

    def __init__(self):
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self.current_op: int | None = None
        self._next_op = 0

    def _add(self, name, start, end, parent, op) -> int:
        with self._lock:
            span_id = len(self.spans)
            self.spans.append(
                {
                    "id": span_id,
                    "op": op,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                }
            )
        return span_id

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def op(self, name: str):
        """Open the root span of one op; yields its span id."""
        op_id = self._next_op
        self._next_op += 1
        span_id = self._add(name, time.perf_counter(), None, None, op_id)
        self.current_op = span_id
        stack = self._stack()
        stack.append(span_id)
        try:
            yield span_id
        finally:
            stack.pop()
            self.spans[span_id]["end"] = time.perf_counter()
            self.current_op = None

    @contextmanager
    def timer(self, name: str):
        """Time a block as a child of this thread's open span (or of the
        current op when the block runs on a service thread)."""
        stack = self._stack()
        parent = stack[-1] if stack else self.current_op
        if parent is None:
            yield None
            return
        op = self.spans[parent]["op"]
        span_id = self._add(name, time.perf_counter(), None, parent, op)
        stack.append(span_id)
        try:
            yield span_id
        finally:
            stack.pop()
            self.spans[span_id]["end"] = time.perf_counter()

    def synthetic(self, name: str, parent: int, start: float, seconds: float):
        """A span known only by its duration (a stage-time counter)."""
        op = self.spans[parent]["op"]
        return self._add(name, start, start + seconds, parent, op)

    def adopt(self, tracer: StartTracer, first_root: int, parent: int) -> None:
        """Attach the program spans *tracer* recorded since *first_root*."""
        op = self.spans[parent]["op"]
        for root in tracer.roots[first_root:]:
            self._adopt(tracer, root, parent, op, self.spans[parent]["start"])

    def _adopt(self, tracer, span, parent, op, fallback_start) -> None:
        start = tracer.starts.get(id(span), fallback_start)
        span_id = self._add(
            span.name, start, start + span.wall_seconds, parent, op
        )
        for child in span.children:
            self._adopt(tracer, child, span_id, op, start)


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> wall time minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"])
            )
    out = {}
    for span in spans:
        start, end = span["start"], span["end"]
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(span["id"], ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[span["id"]] = (end - start) - covered
    return out


def layer_self_by_op(spans: list[dict]) -> dict[int, dict]:
    """Op root span id -> {"class", "wall", "layers": {metric: seconds}}."""
    own = self_times(spans)
    parent_of = {span["id"]: span["parent"] for span in spans}
    ops: dict[int, dict] = {}
    root_of: dict[int, int] = {}
    for span in spans:
        if span["parent"] is None:
            ops[span["id"]] = {
                "class": span["name"],
                "wall": span["end"] - span["start"],
                "layers": {},
            }
        root = span["id"]
        while parent_of[root] is not None:
            root = parent_of[root]
        root_of[span["id"]] = root
    for span in spans:
        entry = ops[root_of[span["id"]]]
        if span["parent"] is None:
            layer = (
                HTTP_LAYER
                if span["name"].startswith(HTTP_ROOT_PREFIX)
                else "other.self_s"
            )
        else:
            layer = LAYER_OF_SPAN.get(span["name"], "other.self_s")
        layers = entry["layers"]
        layers[layer] = layers.get(layer, 0.0) + own[span["id"]]
    return ops
