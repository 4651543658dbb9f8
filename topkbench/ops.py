"""One timed op, and what a workload's execution hands back."""

from __future__ import annotations

import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field


@dataclass
class Op:
    """One op of the plan: its class, latency and (untimed) verdict."""

    cls: str
    seconds: float
    result: object = None
    error: str | None = None
    problems: list[str] = field(default_factory=list)
    extra: dict = field(default_factory=dict)
    span: int | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.problems)


@dataclass
class Execution:
    """Set-up time, the first answer, and the timed ops of one pass."""

    setup_seconds: float = 0.0
    first: object = None
    first_answer: object = None
    first_problems: list[str] = field(default_factory=list)
    setup_span: int | None = None
    ops: list[Op] = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    @contextmanager
    def setup(self, log):
        """The set-up phase, as one op span when tracing."""
        if log is None:
            yield
            return
        with log.op("setup") as span:
            self.setup_span = span
            yield


def timer(log, name: str):
    """A span-log timer when tracing, else nothing."""
    return log.timer(name) if log is not None else nullcontext()


def run_op(cls: str, log, tracer, fn, **extra) -> Op:
    """Time ``fn()`` as one op; an exception fails the op, not the run.

    With a span *log*, the op is a root span and the program spans that
    *tracer* recorded while it ran are adopted beneath it.
    """
    first_root = len(tracer.roots) if tracer is not None else 0
    op = Op(cls, 0.0, extra=extra)
    if log is None:
        started = time.perf_counter()
        try:
            op.result = fn()
        except Exception:
            op.error = traceback.format_exc()
        op.seconds = time.perf_counter() - started
    else:
        with log.op(cls) as span:
            started = time.perf_counter()
            try:
                op.result = fn()
            except Exception:
                op.error = traceback.format_exc()
            op.seconds = time.perf_counter() - started
        op.span = span
        if tracer is not None:
            log.adopt(tracer, first_root, span)
    if op.error is not None:
        print(f"op {cls} raised:\n{op.error}", file=sys.stderr)
    return op


async def run_op_async(cls: str, log, fn, **extra) -> Op:
    """:func:`run_op` for a coroutine function (one HTTP round trip)."""
    op = Op(cls, 0.0, extra=extra)
    span_context = log.op(cls) if log is not None else None
    span = span_context.__enter__() if span_context is not None else None
    started = time.perf_counter()
    try:
        op.result = await fn()
    except Exception:
        op.error = traceback.format_exc()
    op.seconds = time.perf_counter() - started
    if span_context is not None:
        span_context.__exit__(None, None, None)
        op.span = span
    if op.error is not None:
        print(f"op {cls} raised:\n{op.error}", file=sys.stderr)
    return op
