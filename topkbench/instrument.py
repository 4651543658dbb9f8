"""Benchmark-side timers around public methods that have no span.

Installed only for the traced pass: each wrapper opens a
:meth:`tracing.SpanLog.timer` span around the original method, on
whatever thread calls it (the service's writer and reader threads
included), and the query wrapper keeps the result it returned so the
per-layer counts can be read from it.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager

from common import ensure_src

ensure_src()

from repro.core.incremental import IncrementalTopK  # noqa: E402
from repro.core.persistence import DurableStateStore  # noqa: E402
from repro.server.snapshot import EngineSnapshot  # noqa: E402

#: (class, method name, span name, is a classmethod)
TIMED = (
    (IncrementalTopK, "restore", "restore", True),
    (IncrementalTopK, "add", "add", False),
    (DurableStateStore, "append", "append", False),
    (EngineSnapshot, "freeze", "freeze", True),
    (EngineSnapshot, "query_topk", "exec", False),
)


@contextmanager
def instrumented(log):
    """Wrap every method in :data:`TIMED` for the duration of the block.

    ``log.results`` maps each ``exec`` span id to the
    ``PrunedDedupResult`` that ``query_topk`` returned.
    """
    log.results = {}
    saved = []
    for owner, name, span_name, is_class in TIMED:
        raw = owner.__dict__[name]
        saved.append((owner, name, raw))
        function = raw.__func__ if is_class else raw
        wrapper = _timed(function, span_name, log)
        setattr(owner, name, classmethod(wrapper) if is_class else wrapper)
    try:
        yield
    finally:
        for owner, name, raw in saved:
            setattr(owner, name, raw)


def _timed(function, span_name, log):
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        with log.timer(span_name) as span_id:
            result = function(*args, **kwargs)
        if span_name == "exec" and span_id is not None:
            log.results[span_id] = result
        return result

    return wrapper
