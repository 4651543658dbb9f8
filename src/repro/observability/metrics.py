"""Metric instruments: counters, gauges, and bounded histograms.

A :class:`MetricsRegistry` holds named instruments, each optionally
split by a small, fixed label set (``stage="prune"``,
``kind="topk"``).  Instruments follow Prometheus conventions — which
keeps the text exporter trivial — but the implementation is deliberately
tiny and dependency-free:

* :class:`Counter` — monotone float total;
* :class:`Gauge` — last-set value;
* :class:`Histogram` — **bounded**: a fixed bucket layout chosen at
  creation plus running count/sum.  Observing is O(#buckets) worst case
  and allocates nothing, so instruments are safe on pipeline hot paths
  (predicate verification, WAL appends).

Like the tracer, this module imports nothing from the rest of
``repro``; pipelines feed it through plain callables or direct method
calls.  ``MetricsRegistry`` is process-local.
"""

from __future__ import annotations

from bisect import bisect_left

#: Default histogram buckets for second-scale latencies (predicate
#: evaluation, WAL fsync, stage durations).
LATENCY_BUCKETS: tuple[float, ...] = (
    1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3,
    1e-2, 5e-2, 1e-1, 5e-1, 1.0, 5.0, 10.0,
)

#: Default buckets for set-size style metrics (candidate sets).
SIZE_BUCKETS: tuple[float, ...] = (
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0,
    512.0, 1024.0, 4096.0, 16384.0,
)

_LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, str]) -> _LabelKey:
    return tuple(sorted(labels.items()))


class Counter:
    """Monotonically increasing total."""

    __slots__ = ("value",)

    kind = "counter"

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        self.value += amount

    def as_dict(self) -> dict[str, float]:
        return {"value": self.value}


class Gauge:
    """Last-observed value."""

    __slots__ = ("value",)

    kind = "gauge"

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def as_dict(self) -> dict[str, float]:
        return {"value": self.value}


class Histogram:
    """Fixed-bucket histogram with running count and sum.

    *buckets* are the inclusive upper bounds of each bucket, strictly
    increasing; an implicit +Inf bucket catches the rest.  The layout is
    frozen at creation — observations never allocate.
    """

    __slots__ = ("buckets", "bucket_counts", "count", "sum")

    kind = "histogram"

    def __init__(self, buckets: tuple[float, ...] = LATENCY_BUCKETS):
        if not buckets or list(buckets) != sorted(set(buckets)):
            raise ValueError(f"bucket bounds must be strictly increasing: {buckets}")
        self.buckets = tuple(float(b) for b in buckets)
        self.bucket_counts = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.sum += value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def as_dict(self) -> dict[str, object]:
        return {
            "count": self.count,
            "sum": self.sum,
            "buckets": {
                str(bound): count
                for bound, count in zip(self.buckets, self.bucket_counts)
            }
            | {"+Inf": self.bucket_counts[-1]},
        }


class MetricsRegistry:
    """Named metric instruments, each optionally split by labels.

    Instruments are created on first use and keyed by
    ``(name, sorted labels)``; repeated calls with the same key return
    the same instrument.  A name is bound to one instrument kind and —
    for histograms — one bucket layout; mixing kinds under a name is a
    programming error and raises.
    """

    enabled = True

    def __init__(self) -> None:
        self._instruments: dict[tuple[str, _LabelKey], object] = {}
        self._kinds: dict[str, str] = {}
        self._help: dict[str, str] = {}

    def _get(self, name: str, kind: str, labels: dict[str, str], factory):
        bound = self._kinds.setdefault(name, kind)
        if bound != kind:
            raise ValueError(
                f"metric {name!r} already registered as {bound}, not {kind}"
            )
        key = (name, _label_key(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = self._instruments[key] = factory()
        return instrument

    def counter(self, name: str, **labels: str) -> Counter:
        return self._get(name, "counter", labels, Counter)

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._get(name, "gauge", labels, Gauge)

    def histogram(
        self,
        name: str,
        buckets: tuple[float, ...] = LATENCY_BUCKETS,
        **labels: str,
    ) -> Histogram:
        return self._get(name, "histogram", labels, lambda: Histogram(buckets))

    def describe(self, name: str, help_text: str) -> None:
        """Attach a HELP line for the Prometheus export."""
        self._help[name] = help_text

    def help_text(self, name: str) -> str:
        return self._help.get(name, "")

    def series(self) -> list[tuple[str, dict[str, str], object]]:
        """All instruments as ``(name, labels, instrument)``, sorted
        deterministically by name then labels."""
        return [
            (name, dict(label_key), self._instruments[(name, label_key)])
            for name, label_key in sorted(self._instruments)
        ]

    def as_dict(self) -> dict[str, object]:
        """Nested plain-dict snapshot (JSON-friendly)."""
        out: dict[str, object] = {}
        for name, labels, instrument in self.series():
            entry = {"kind": self._kinds[name], **instrument.as_dict()}
            if labels:
                entry["labels"] = labels
            out.setdefault(name, []).append(entry)
        return out

    def value(self, name: str, **labels: str) -> float:
        """Convenience accessor: current value of a counter/gauge (0.0
        when the series does not exist)."""
        instrument = self._instruments.get((name, _label_key(labels)))
        if instrument is None:
            return 0.0
        return instrument.value


class NullMetrics:
    """No-op registry look-alike handed to pipelines by default.

    Returns shared inert instruments so call sites can feed metrics
    unconditionally; ``enabled`` lets hot paths skip sampling work
    (clock reads) entirely.
    """

    enabled = False

    class _NullInstrument:
        __slots__ = ()
        value = 0.0
        count = 0
        sum = 0.0

        def inc(self, amount: float = 1.0) -> None:
            pass

        def set(self, value: float) -> None:
            pass

        def observe(self, value: float) -> None:
            pass

    _INSTRUMENT = _NullInstrument()

    def counter(self, name: str, **labels: str):
        return self._INSTRUMENT

    def gauge(self, name: str, **labels: str):
        return self._INSTRUMENT

    def histogram(self, name: str, buckets=LATENCY_BUCKETS, **labels: str):
        return self._INSTRUMENT

    def describe(self, name: str, help_text: str) -> None:
        pass

    def series(self) -> list:
        return []

    def as_dict(self) -> dict:
        return {}

    def value(self, name: str, **labels: str) -> float:
        return 0.0


#: Shared default instance — the pipelines' registry when none is given.
NULL_METRICS = NullMetrics()
