"""Shared verification layer: one NeighborIndex + verdict cache per level.

Algorithm 2's per-level cost is dominated by necessary-predicate
verification, and historically the lower-bound estimator and the prune
stage each built their *own* :class:`~repro.predicates.blocking.NeighborIndex`
over the same group representatives and re-verified the same candidate
pairs.  :class:`VerificationContext` removes that duplication:

* the index is constructed once per ``(predicate, representatives)``
  pair and handed to every stage of the level that asks for it;
* pair verdicts are shared: plain ``evaluate`` verdicts are memoized
  in a cache keyed by the two endpoints' *record ids* (stable for the
  lifetime of a store), so a pair verified by the lower-bound walk is
  free for the prune stage, for later prune iterations, and for later
  levels whose groups were untouched by collapse — a collapse that
  merges a group elects a new representative, which retires the old
  pair keys without any explicit invalidation (records are immutable,
  so a cached verdict can never go stale).  The batch engine shares
  verdicts by looking pairs up in the neighbor rows of already-probed
  members instead (see
  :meth:`~repro.predicates.blocking.NeighborIndex.neighbors_csr`) —
  its per-pair decision is cheaper than per-pair dict traffic would be;
* both verification paths are instrumented with cheap counters
  (:class:`PipelineCounters`) so the pipeline's work is measurable per
  level and per stage.

The context is deliberately dumb about *what* it verifies: correctness
is unchanged because verdicts are pure functions of two immutable
records, and the cache only engages for predicates declaring themselves
:attr:`~repro.predicates.base.Predicate.symmetric` (the pipeline's
neighbor graphs already assume symmetry throughout).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterator

from ..observability import NULL_METRICS, NULL_TRACER, SIZE_BUCKETS
from ..predicates.base import Predicate
from ..predicates.blocking import NeighborIndex
from .records import GroupSet


@dataclass
class PipelineCounters:
    """Cheap work counters for the verification layer.

    Attributes:
        predicate_evaluations: Necessary-predicate verdicts computed,
            one per candidate pair decided — by ``evaluate`` or inside a
            batch engine block.
        cache_hits: Pair verdicts answered by sharing — from the
            record-id verdict cache (``evaluate``) or by a lookup in
            an already-filled neighbor row (batch engine).
        cache_misses: Pair verdicts computed and inserted into the
            record-id verdict cache (batch engine verdicts are not
            inserted, so they never count as misses).
        index_builds: ``NeighborIndex`` constructions (posting-list
            builds over all representatives).
        index_reuses: Stages that received an already-built index.
        neighbor_queries: Member or probe rows asked of a
            ``NeighborIndex`` (one per ``neighbors`` call, one per
            position of ``neighbors_csr``).
        neighbor_memo_hits: Neighbor queries answered from the
            per-index memo without touching the postings.
        predicate_errors_contained: Predicate ``evaluate`` exceptions
            replaced with a role-safe fallback verdict by a
            :class:`~repro.core.resilience.GuardedPredicate`.
        keying_errors_contained: Predicate ``blocking_keys`` exceptions
            contained (the record contributed no keys).
        predicate_timeouts_contained: Predicate calls exceeding the
            policy's per-call timeout whose verdict was replaced with
            the role-safe fallback.
        scorer_errors_contained: Scorer exceptions or per-call timeouts
            replaced with the neutral score.
        records_quarantined: Stream records diverted to an
            :class:`~repro.core.incremental.IncrementalTopK` dead-letter
            list instead of being inserted.
        stage_seconds: Wall-clock seconds per pipeline stage name
            (cumulative across levels).
    """

    predicate_evaluations: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    index_builds: int = 0
    index_reuses: int = 0
    neighbor_queries: int = 0
    neighbor_memo_hits: int = 0
    predicate_errors_contained: int = 0
    keying_errors_contained: int = 0
    predicate_timeouts_contained: int = 0
    scorer_errors_contained: int = 0
    records_quarantined: int = 0
    stage_seconds: dict[str, float] = field(default_factory=dict)

    _INT_FIELDS = (
        "predicate_evaluations",
        "cache_hits",
        "cache_misses",
        "index_builds",
        "index_reuses",
        "neighbor_queries",
        "neighbor_memo_hits",
        "predicate_errors_contained",
        "keying_errors_contained",
        "predicate_timeouts_contained",
        "scorer_errors_contained",
        "records_quarantined",
    )

    @property
    def total_evaluations(self) -> int:
        """All predicate verdicts actually computed (not cache-served):
        :attr:`predicate_evaluations`, under the name reports read."""
        return self.predicate_evaluations

    @property
    def total_contained(self) -> int:
        """All containment events (errors, timeouts, quarantines)."""
        return (
            self.predicate_errors_contained
            + self.keying_errors_contained
            + self.predicate_timeouts_contained
            + self.scorer_errors_contained
            + self.records_quarantined
        )

    def add_stage_time(self, stage: str, seconds: float) -> None:
        """Accumulate *seconds* of wall time under *stage*."""
        self.stage_seconds[stage] = self.stage_seconds.get(stage, 0.0) + seconds

    def snapshot(self) -> "PipelineCounters":
        """Return an independent copy of the current counter values."""
        copy = PipelineCounters(
            **{name: getattr(self, name) for name in self._INT_FIELDS}
        )
        copy.stage_seconds = dict(self.stage_seconds)
        return copy

    def delta(self, since: "PipelineCounters") -> "PipelineCounters":
        """Return the work done since the *since* snapshot."""
        diff = PipelineCounters(
            **{
                name: getattr(self, name) - getattr(since, name)
                for name in self._INT_FIELDS
            }
        )
        diff.stage_seconds = {
            stage: seconds - since.stage_seconds.get(stage, 0.0)
            for stage, seconds in self.stage_seconds.items()
            if seconds - since.stage_seconds.get(stage, 0.0) > 0.0
        }
        return diff

    def as_dict(self) -> dict[str, object]:
        """Flat dict form for reports and the CLI ``--stats`` output."""
        out: dict[str, object] = {
            name: getattr(self, name) for name in self._INT_FIELDS
        }
        out["stage_seconds"] = dict(self.stage_seconds)
        return out


class VerificationContext:
    """Per-pipeline state shared by every stage that verifies pairs.

    One context is created per pipeline run (``pruned_dedup``, a rank
    query, or the lifetime of an :class:`~repro.core.incremental.IncrementalTopK`)
    and handed to :func:`~repro.core.lower_bound.estimate_lower_bound`
    and :func:`~repro.core.prune.prune`.  Stages ask it for a
    :class:`~repro.predicates.blocking.NeighborIndex` via
    :meth:`neighbor_index`; the index is built once per
    ``(predicate, representatives)`` pair and reused while the level's
    group set is unchanged.

    Args:
        counters: Counter sink; a fresh one is created when omitted.
        verdict_cache_limit: Per-predicate cap on cached pair verdicts.
            When exceeded, the *oldest* entries are evicted (bounded
            FIFO) down to the limit at the next index build — never a
            wholesale flush, which could drop verdicts the level
            currently executing still needs (long-running incremental
            streams set this to bound memory).
        caching: Disable to make every :meth:`neighbor_index` call build
            a bare, uncached index — the pre-sharing pipeline behaviour,
            kept for baseline measurements and ablations.
        tracer: Span sink (:class:`repro.observability.Tracer`); the
            zero-overhead :data:`~repro.observability.NULL_TRACER` when
            omitted.  Pipelines open spans through :meth:`span` /
            :meth:`event` so call sites never branch on whether tracing
            is enabled.
        metrics: Metric sink (:class:`repro.observability.MetricsRegistry`);
            the no-op :data:`~repro.observability.NULL_METRICS` when
            omitted.  When enabled, neighbor indexes built by this
            context sample predicate latency and candidate-set sizes
            into it.
    """

    def __init__(
        self,
        counters: PipelineCounters | None = None,
        verdict_cache_limit: int | None = None,
        caching: bool = True,
        tracer=None,
        metrics=None,
    ):
        self.counters = counters if counters is not None else PipelineCounters()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self._verdicts: dict[int, dict[tuple[int, int], bool]] = {}
        self._verdict_limit = verdict_cache_limit
        self._caching = caching
        self._index_key: tuple[int, tuple[int, ...]] | None = None
        self._index: NeighborIndex | None = None
        self._stage_depth: dict[str, int] = {}
        self._latency_observe = None
        self._candidate_observe = None
        if self.metrics.enabled:
            self.metrics.describe(
                "repro_predicate_latency_seconds",
                "Sampled necessary-predicate pair verification latency",
            )
            self.metrics.describe(
                "repro_candidate_set_size",
                "Verified neighbor-list sizes per NeighborIndex probe",
            )
            self._latency_observe = self.metrics.histogram(
                "repro_predicate_latency_seconds"
            ).observe
            self._candidate_observe = self.metrics.histogram(
                "repro_candidate_set_size", buckets=SIZE_BUCKETS
            ).observe

    def neighbor_index(
        self, predicate: Predicate, group_set: GroupSet
    ) -> NeighborIndex:
        """Return the (possibly cached) index over *group_set*'s reps.

        Two consecutive calls with the same predicate and an unchanged
        representative list — exactly the lower-bound/prune pairing of
        one level — share a single index build, its neighbor memo, and
        its verdict cache.
        """
        if not self._caching:
            return NeighborIndex(
                predicate,
                group_set.representatives(),
                counters=self.counters,
                latency_observe=self._latency_observe,
                candidate_observe=self._candidate_observe,
            )
        key = (
            id(predicate),
            tuple(group.representative_id for group in group_set),
        )
        if self._index is not None and self._index_key == key:
            self.counters.index_reuses += 1
            return self._index

        verdicts = None
        if getattr(predicate, "symmetric", True):
            verdicts = self._verdicts.setdefault(id(predicate), {})
            if (
                self._verdict_limit is not None
                and len(verdicts) > self._verdict_limit
            ):
                # Bounded FIFO: dicts preserve insertion order, so the
                # leading keys are the oldest verdicts — evict those and
                # keep the recent ones, which are the verdicts the level
                # in flight is most likely to re-ask for.  (A wholesale
                # clear() here used to drop mid-query state.)
                excess = len(verdicts) - self._verdict_limit
                for oldest in list(islice(iter(verdicts), excess)):
                    del verdicts[oldest]
        index = NeighborIndex(
            predicate,
            group_set.representatives(),
            counters=self.counters,
            verdicts=verdicts,
            memoize=True,
            latency_observe=self._latency_observe,
            candidate_observe=self._candidate_observe,
        )
        self._index_key = key
        self._index = index
        return index

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Time a pipeline stage into :attr:`PipelineCounters.stage_seconds`.

        Re-entrant under the same name: only the *outermost* frame of a
        nested same-name stage records its elapsed time, so a stage that
        re-enters itself (a prune pass priming neighbors under its own
        stage, a recovery path re-running a stage) contributes its wall
        time exactly once instead of once per nesting depth.
        """
        self._stage_depth[name] = self._stage_depth.get(name, 0) + 1
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            depth = self._stage_depth[name] - 1
            if depth:
                self._stage_depth[name] = depth
            else:
                del self._stage_depth[name]
                self.counters.add_stage_time(name, elapsed)

    def span(
        self,
        name: str,
        transient: bool = False,
        counters: PipelineCounters | None = None,
        **attributes: object,
    ):
        """Open a tracer span measured against this context's counters.

        A no-op (shared null context manager) under the default
        :class:`~repro.observability.NullTracer`.
        """
        tracer = self.tracer
        if not tracer.enabled:
            return tracer.span(name)
        return tracer.span(
            name,
            counters=counters if counters is not None else self.counters,
            transient=transient,
            **attributes,
        )

    def event(self, name: str, **attributes: object) -> None:
        """Record a point-in-time event under the current span."""
        self.tracer.event(name, **attributes)

    def publish_pipeline_metrics(self, delta: PipelineCounters) -> None:
        """Publish a run's counter delta into the metrics registry.

        Every non-zero integer field becomes a
        ``repro_pipeline_<field>_total`` counter increment and every
        stage's wall time feeds ``repro_stage_seconds_total{stage=}``,
        so successive queries against one context accumulate into one
        scrape-able registry.  No-op under :data:`NULL_METRICS`.
        """
        metrics = self.metrics
        if not metrics.enabled:
            return
        for name in PipelineCounters._INT_FIELDS:
            value = getattr(delta, name)
            if value:
                metrics.counter(f"repro_pipeline_{name}_total").inc(value)
        for stage, seconds in delta.stage_seconds.items():
            metrics.counter("repro_stage_seconds_total", stage=stage).inc(seconds)

    def publish_query_metrics(
        self, kind: str, result, before: PipelineCounters | None
    ) -> None:
        """Publish one answered query into the metrics registry.

        Counts ``repro_queries_total{kind=}``, and
        ``repro_degraded_queries_total{reason=}`` when *result* is
        degraded, then publishes the counters accrued since the
        *before* snapshot (:meth:`publish_pipeline_metrics`).  No-op
        under :data:`NULL_METRICS`, so callers may skip the snapshot
        (and pass None) when ``metrics.enabled`` is False.
        """
        metrics = self.metrics
        if not metrics.enabled:
            return
        metrics.counter("repro_queries_total", kind=kind).inc()
        if result.degraded:
            metrics.counter(
                "repro_degraded_queries_total", reason=result.degraded_reason
            ).inc()
        self.publish_pipeline_metrics(self.counters.delta(before))

    def cached_verdicts(self, predicate: Predicate) -> int:
        """Number of pair verdicts currently cached for *predicate*."""
        return len(self._verdicts.get(id(predicate), ()))
