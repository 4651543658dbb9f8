"""Metric definitions and how each is computed from a run's ops.

``END_TO_END`` and ``PER_LAYER`` are the lists ``BENCHMARK.json``
declares (the self-test holds the two in step).  Per-layer names read
``<layer>.<quantity>``; a ``_s`` metric is self seconds per op that
entered the layer, and counts and ratios are per such op too.
"""

from __future__ import annotations

from common import median, quantile
from tracing import layer_self_by_op

#: (name, unit, better).  A run prints every end-to-end metric on every
#: workload, and each must repeat within its bound across seeds; op
#: latencies do not on the reference host (see NOTES.md, Steadiness).
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: Op latencies the traced run reports from its untraced pass, 0 where a
#: workload has no such op.  (metric, op classes, quantile)
CLASS_LATENCIES = (
    ("e2e.topk_p50_s", ("topk", "http.topk"), 0.5),
    ("e2e.topk_min_s", ("topk", "http.topk"), 0.0),
    ("e2e.rank_p50_s", ("rank",), 0.5),
    ("e2e.threshold_p50_s", ("threshold",), 0.5),
    ("e2e.rbest_p50_s", ("rbest",), 0.5),
    ("e2e.interval_p50_s", ("interval",), 0.5),
    ("e2e.insert_p50_s", ("http.insert",), 0.5),
    ("e2e.insert_p90_s", ("http.insert",), 0.9),
    ("e2e.topk_repeat_p50_s", ("http.repeat",), 0.5),
)

#: Self-time layers, averaged over the timed ops that entered them.
SELF_TIME_LAYERS = (
    "collapse.self_s",
    "lower_bound.self_s",
    "prune.self_s",
    "rank_prune.self_s",
    "score.self_s",
    "segment.self_s",
    "worlds.self_s",
    "ingest.add_s",
    "wal.append_s",
    "snapshot.freeze_s",
    "service.exec_s",
    "service.wait_s",
    "service.http_s",
)
#: Layers entered only by the set-up op.
SETUP_LAYERS = ("setup.levels_s", "setup.train_s", "restore.self_s")

PER_LAYER = (
    ("verify.evaluations", "count", "lower"),
    ("verify.shared_ratio", "ratio", "higher"),
    ("verify.memo_hit_ratio", "ratio", "higher"),
    ("verify.neighbor_queries", "count", "lower"),
    ("verify.index_builds", "count", "lower"),
    ("collapse.self_s", "s", "lower"),
    ("lower_bound.self_s", "s", "lower"),
    ("prune.self_s", "s", "lower"),
    ("prune.retained_ratio", "ratio", "lower"),
    ("rank_prune.self_s", "s", "lower"),
    ("score.self_s", "s", "lower"),
    ("segment.self_s", "s", "lower"),
    ("worlds.self_s", "s", "lower"),
    ("worlds.enumerated", "count", "lower"),
    ("worlds.pruned", "count", "higher"),
    ("setup.levels_s", "s", "lower"),
    ("setup.train_s", "s", "lower"),
    ("ingest.add_s", "s", "lower"),
    ("wal.append_s", "s", "lower"),
    ("wal.bytes_per_insert", "B", "lower"),
    ("restore.self_s", "s", "lower"),
    ("restore.entries_replayed", "count", "lower"),
    ("snapshot.freeze_s", "s", "lower"),
    ("snapshot.recompute_ratio", "ratio", "lower"),
    ("service.exec_s", "s", "lower"),
    ("service.wait_s", "s", "lower"),
    ("service.http_s", "s", "lower"),
    ("service.batch_size", "count", "higher"),
    ("service.failed", "ratio", "lower"),
    ("other.self_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
) + tuple((name, "s", "lower") for name, _, _ in CLASS_LATENCIES)

UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}


def is_count(name: str) -> bool:
    """Per-layer metrics that must repeat exactly for one seed: counts,
    bytes and ratios of counts (every unit but seconds, except the
    tracing overhead, which is a ratio of times)."""
    return UNITS[name] != "s" and name != "trace.overhead_ratio"


def metric(name: str, value: float) -> dict:
    return {"value": float(value), "unit": UNITS[name]}


def latencies(ops, classes) -> list[float]:
    return [op.seconds for op in ops if op.cls in classes and not op.failed]


def end_to_end(setup_samples, rss_mb) -> dict:
    return {
        "setup_s": metric("setup_s", median(setup_samples)),
        "peak_rss_mb": metric("peak_rss_mb", rss_mb),
    }


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _not_ok(op) -> bool:
    """A degraded, shed or otherwise non-200 response (or no response)."""
    if op.error is not None:
        return True
    status, body = op.result
    return status != 200 or body.get("outcome") != "ok"


def per_layer(module, untraced, traced, log) -> tuple[dict, dict]:
    """The per-layer metrics, plus a per-op-class breakdown for the
    trace file (mean wall and mean layer self times per class)."""
    by_op = layer_self_by_op(log.spans)
    timed = [(op, by_op[op.span]) for op in traced.ops if op.span in by_op]
    values: dict[str, float] = {}
    for layer in SELF_TIME_LAYERS:
        values[layer] = _mean(
            entry["layers"][layer]
            for _, entry in timed
            if layer in entry["layers"]
        )
    setup = by_op.get(traced.setup_span, {"layers": {}})["layers"]
    for layer in SETUP_LAYERS:
        values[layer] = setup.get(layer, 0.0)
    values["other.self_s"] = _mean(
        entry["layers"].get("other.self_s", 0.0) for _, entry in timed
    )

    counted = [module.counts(op) for op in traced.ops if not op.error]
    counted = [c for c in counted if c.get("counters") is not None]
    counters = [c["counters"] for c in counted]
    evaluations = sum(c.total_evaluations for c in counters)
    hits = sum(c.cache_hits for c in counters)
    values["verify.evaluations"] = _mean(c.total_evaluations for c in counters)
    values["verify.shared_ratio"] = _ratio(hits, hits + evaluations)
    values["verify.memo_hit_ratio"] = _ratio(
        sum(c.neighbor_memo_hits for c in counters),
        sum(c.neighbor_queries for c in counters),
    )
    values["verify.neighbor_queries"] = _mean(
        c.neighbor_queries for c in counters
    )
    values["verify.index_builds"] = _mean(c.index_builds for c in counters)
    retained = [c["retained"] for c in counted if "retained" in c]
    values["prune.retained_ratio"] = _mean(
        after / before for after, before in retained if before
    )
    values["worlds.enumerated"] = _mean(
        c["worlds_enumerated"] for c in counted if "worlds_enumerated" in c
    )
    values["worlds.pruned"] = _mean(
        c["worlds_pruned"] for c in counted if "worlds_pruned" in c
    )
    values["restore.entries_replayed"] = traced.extra.get("entries_replayed", 0)
    values["wal.bytes_per_insert"] = traced.extra.get("bytes_per_insert", 0.0)
    repeats = [op for op in traced.ops if "recomputed" in op.extra]
    values["snapshot.recompute_ratio"] = _mean(
        1.0 if op.extra["recomputed"] else 0.0 for op in repeats
    )
    applied, published = traced.extra.get("batch", (0, 0))
    values["service.batch_size"] = _ratio(applied, published)
    http_ops = [op for op in traced.ops if op.cls.startswith("http.")]
    values["service.failed"] = _ratio(
        sum(1 for op in http_ops if _not_ok(op)), len(http_ops)
    )
    values["trace.overhead_ratio"] = _ratio(
        sum(op.seconds for op in traced.ops),
        sum(op.seconds for op in untraced.ops),
    )
    for name, classes, q in CLASS_LATENCIES:
        samples = latencies(untraced.ops, classes)
        values[name] = quantile(samples, q) if samples else 0.0

    breakdown: dict[str, dict] = {}
    for op, entry in timed:
        row = breakdown.setdefault(op.cls, {"n": 0, "wall": 0.0, "layers": {}})
        row["n"] += 1
        row["wall"] += entry["wall"]
        for layer, seconds in entry["layers"].items():
            row["layers"][layer] = row["layers"].get(layer, 0.0) + seconds
    for row in breakdown.values():
        row["wall"] /= row["n"]
        row["layers"] = {
            layer: seconds / row["n"]
            for layer, seconds in sorted(
                row["layers"].items(), key=lambda item: -item[1]
            )
        }
    return {name: metric(name, values[name]) for name, _, _ in PER_LAYER}, breakdown
