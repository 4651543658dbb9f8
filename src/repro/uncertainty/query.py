"""Uncertainty-aware Top-K queries: count intervals and membership mass.

The count-query engine (:mod:`repro.core.topk`) surfaces the single
best answer (or R ranked alternatives).  This module opens the
consensus-style contract on top of the same machinery: enumerate the R
highest-scoring dedup worlds, weight them by normalized Gibbs mass, and
report per entity a ``[count_lo, count_hi]`` interval, an expected
count, and the probability mass of top-K membership — with a
Bernecker-style bound pruning candidates whose membership provably
cannot reach the reporting threshold.

See ``docs/uncertainty.md`` for the answer contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..clustering.correlation import partition_score
from ..core.pruned_dedup import PrunedDedupResult, pruned_dedup
from ..core.records import GroupSet, RecordStore
from ..core.resilience import (
    ExecutionPolicy,
    ExecutionState,
    ResilienceExhausted,
    StageRecord,
)
from ..core.topk import _entity, world_model
from ..core.verification import VerificationContext
from ..embedding.segmentation import best_partition
from ..observability.metrics import SIZE_BUCKETS
from ..predicates.base import PredicateLevel
from ..scoring.pairwise import PairwiseScorer
from .intervals import aggregate_worlds
from .worlds import enumerate_worlds, world_from_partition, world_masses

__all__ = [
    "EntityInterval",
    "IntervalQueryResult",
    "topk_interval_query",
    "membership_probabilities",
    "interval_over_groups",
    "interval_from_pruning",
]


@dataclass(frozen=True)
class EntityInterval:
    """One candidate top-K entity with its uncertainty envelope.

    Attributes:
        label: Display name — the anchor group representative's field.
        representative_id: Record id of the anchor representative.
        record_ids: Records of every collapsed group merged into the
            entity (groups co-clustered in all enumerated worlds).
        count_lo / count_hi: Minimum / maximum weight of the entity's
            containing cluster across the enumerated worlds; every
            enumerated world's exact count lies inside.
        expected_count: Mass-weighted mean cluster weight.
        membership_probability: Total mass of worlds where the entity
            is in the top K.
        slot_probabilities: Per-rank mass (length K); each slot's
            probabilities sum to at most 1 across entities.
        positions: The collapsed-group indices merged into the entity
            (the oracle suites map these back to base records).
    """

    label: str
    representative_id: int
    record_ids: tuple[int, ...]
    count_lo: float
    count_hi: float
    expected_count: float
    membership_probability: float
    slot_probabilities: tuple[float, ...]
    positions: tuple[int, ...]


@dataclass
class IntervalQueryResult:
    """Full result of an interval-semantics Top-K query.

    Attributes:
        entities: Candidate entities sorted by membership probability
            descending (ties: wider upper bound first, then positions).
        worlds_requested: The R the caller asked for.
        worlds_enumerated: Worlds actually enumerated (0 when degraded).
        temperature: Gibbs temperature used for world masses.
        pruned_candidates: Candidates cut early by the membership bound.
        exact: True when pruning certified the top K outright — one
            world, every interval collapsed to a point.
        degraded: True when the execution policy stopped the query; the
            entities are then the K heaviest groups of the last
            consistent collapsed state with the widest sound interval
            (lo = certain merged weight, hi = total retained weight) and
            zero membership mass (unknown).
    """

    entities: list[EntityInterval] = field(default_factory=list)
    k: int = 0
    worlds_requested: int = 0
    worlds_enumerated: int = 0
    temperature: float = 1.0
    min_probability: float = 0.0
    pruned_candidates: int = 0
    pruning: PrunedDedupResult | None = None
    exact: bool = False
    degraded: bool = False
    degraded_reason: str = ""

    @property
    def collapsed(self) -> bool:
        """True when every reported interval is a single point."""
        return not self.degraded and all(
            entity.count_lo == entity.count_hi for entity in self.entities
        )


def topk_interval_query(
    store: RecordStore,
    k: int,
    levels: list[PredicateLevel],
    scorer: PairwiseScorer,
    r: int = 8,
    min_probability: float = 0.0,
    label_field: str = "",
    max_span: int | None = None,
    max_thresholds: int = 32,
    temperature: float | None = None,
    prune: bool = True,
    context: VerificationContext | None = None,
    policy: ExecutionPolicy | None = None,
) -> IntervalQueryResult:
    """Answer a Top-K query with interval semantics over *store*.

    Mirrors :func:`repro.core.topk.topk_count_query` stage for stage
    (same pruning pipeline, policy containment, and record-store kinds)
    but replaces the ranked-answer output with per-entity count
    intervals and membership probabilities over the R highest-scoring
    worlds.

    Args:
        r: Number of possible worlds to enumerate.
        min_probability: Report only entities whose top-K membership
            mass reaches this threshold; also the cutoff the
            Bernecker-style bound prunes against.
        temperature: Gibbs temperature for world masses; defaults to a
            quarter of the enumerated score spread, floored at 1.
        prune: Disable the (answer-preserving) membership bound when
            False — a verification hook, the output is bit-identical.

    Other arguments match :func:`topk_count_query`.
    """
    _validate(k, r, min_probability)
    if context is None:
        context = VerificationContext()
    before = context.counters.snapshot() if context.metrics.enabled else None
    with context.span("query", kind="interval", k=k, r=r):
        state = policy.start(context.counters) if policy is not None else None
        pruning = pruned_dedup(
            store, k, levels, context=context, execution_state=state
        )
        result = interval_from_pruning(
            pruning,
            k,
            scorer,
            levels[-1].necessary,
            r=r,
            min_probability=min_probability,
            label_field=label_field,
            max_span=max_span,
            max_thresholds=max_thresholds,
            temperature=temperature,
            prune=prune,
            context=context,
            state=state,
        )
    publish_interval_metrics(context, result, before)
    return result


def membership_probabilities(
    store: RecordStore,
    k: int,
    levels: list[PredicateLevel],
    scorer: PairwiseScorer,
    r: int = 8,
    min_probability: float = 0.0,
    **kwargs,
) -> dict[int, float]:
    """Top-K membership probability per entity representative record id.

    A convenience projection of :func:`topk_interval_query`; accepts the
    same keyword arguments.
    """
    result = topk_interval_query(
        store, k, levels, scorer, r=r, min_probability=min_probability, **kwargs
    )
    return {
        entity.representative_id: entity.membership_probability
        for entity in result.entities
    }


def interval_from_pruning(
    pruning: PrunedDedupResult,
    k: int,
    scorer: PairwiseScorer,
    necessary,
    *,
    r: int,
    min_probability: float = 0.0,
    label_field: str = "",
    max_span: int | None = None,
    max_thresholds: int = 32,
    temperature: float | None = None,
    prune: bool = True,
    context: VerificationContext | None = None,
    state: ExecutionState | None = None,
) -> IntervalQueryResult:
    """Interval aggregation over an already-pruned group state.

    The shared tail of the batch query, the incremental engine, and the
    server snapshot: handles the degraded, certified-exact, and scored
    paths.  *state* is the execution state threading the caller's policy
    through the scoring stage.
    """
    if context is None:
        context = VerificationContext()
    groups = pruning.groups
    if pruning.degraded:
        return _degraded_interval(groups, k, r, min_probability, label_field, pruning)

    if len(groups) <= k:
        # Pruning certified the answer: a single world, point intervals.
        return _certified_interval(
            groups, k, r, min_probability, label_field, pruning
        )

    try:
        with context.span("score", n_groups=len(groups)):
            scores, embedding, max_span = world_model(
                groups, scorer, necessary, max_span=max_span, state=state
            )
            with context.span("enumerate_worlds", r=r):
                worlds = enumerate_worlds(
                    scores,
                    embedding,
                    groups.weights(),
                    k,
                    r,
                    max_span=max_span,
                    max_thresholds=max_thresholds,
                )
                if not worlds:
                    # Degenerate threshold structure (the K-th and
                    # (K+1)-th groups tie in every segmentation): fall
                    # back to the best unconstrained segmentation as the
                    # sole world, top-K boundary by canonical order.
                    partition = best_partition(
                        scores, embedding, max_span=max_span
                    )
                    worlds = [
                        world_from_partition(
                            partition,
                            groups.weights(),
                            k,
                            partition_score(partition, scores),
                        )
                    ]
    except ResilienceExhausted as exc:
        pruning.stage_records.append(
            StageRecord("scoring", "score", False, exc.reason)
        )
        return _degraded_interval(
            groups, k, r, min_probability, label_field, pruning, exc.reason
        )
    if state is not None:
        pruning.stage_records.append(StageRecord("scoring", "score", True))

    masses, used_temperature = world_masses(worlds, temperature)
    aggregates, pruned_candidates = aggregate_worlds(
        worlds,
        masses,
        groups.weights(),
        k,
        min_probability=min_probability,
        prune=prune,
    )
    entities = [
        _interval_entity(groups, aggregate, label_field)
        for aggregate in aggregates
    ]
    return IntervalQueryResult(
        entities=entities,
        k=k,
        worlds_requested=r,
        worlds_enumerated=len(worlds),
        temperature=used_temperature,
        min_probability=min_probability,
        pruned_candidates=pruned_candidates,
        pruning=pruning,
        exact=False,
    )


def interval_over_groups(
    groups: GroupSet,
    k: int,
    scorer: PairwiseScorer,
    necessary,
    *,
    r: int = 8,
    min_probability: float = 0.0,
    label_field: str = "",
    max_span: int | None = None,
    max_thresholds: int = 32,
    temperature: float | None = None,
    prune: bool = True,
    context: VerificationContext | None = None,
) -> IntervalQueryResult:
    """Interval aggregation directly over a prepared :class:`GroupSet`.

    Bypasses the pruning pipeline entirely — the differential suites use
    this to compare the world model against the brute-force oracle on a
    fixed group state.
    """
    _validate(k, r, min_probability)
    pruning = PrunedDedupResult(
        groups=groups, stats=[], n_starting_records=len(groups.store)
    )
    return interval_from_pruning(
        pruning,
        k,
        scorer,
        necessary,
        r=r,
        min_probability=min_probability,
        label_field=label_field,
        max_span=max_span,
        max_thresholds=max_thresholds,
        temperature=temperature,
        prune=prune,
        context=context,
    )


def publish_interval_metrics(
    context: VerificationContext,
    result: IntervalQueryResult,
    before,
) -> None:
    """Record the interval-query metric family on *context*'s registry,
    then the query itself (:meth:`VerificationContext.publish_query_metrics`
    with the counters accrued since *before*)."""
    metrics = context.metrics
    if not metrics.enabled:
        return
    metrics.describe(
        "repro_worlds_enumerated_total",
        "Possible dedup worlds enumerated by interval queries",
    )
    metrics.describe(
        "repro_interval_width",
        "Width (count_hi - count_lo) of reported count intervals",
    )
    metrics.describe(
        "repro_probabilistic_prunes_total",
        "Candidates cut early by the membership probability bound",
    )
    metrics.counter("repro_worlds_enumerated_total").inc(
        result.worlds_enumerated
    )
    metrics.counter("repro_probabilistic_prunes_total").inc(
        result.pruned_candidates
    )
    width = metrics.histogram("repro_interval_width", buckets=SIZE_BUCKETS)
    for entity in result.entities:
        width.observe(entity.count_hi - entity.count_lo)
    context.publish_query_metrics("interval", result, before)


def _validate(k: int, r: int, min_probability: float) -> None:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if r < 1:
        raise ValueError(f"r (worlds) must be >= 1, got {r}")
    if not 0.0 <= min_probability <= 1.0:
        raise ValueError(
            f"min_probability must be in [0, 1], got {min_probability}"
        )


def _interval_entity(groups: GroupSet, aggregate, label_field: str) -> EntityInterval:
    base = _entity(groups, aggregate.anchor, label_field)
    record_ids: list[int] = []
    for position in aggregate.positions:
        record_ids.extend(groups[position].member_ids)
    return EntityInterval(
        label=base.label,
        representative_id=groups[aggregate.anchor].representative_id,
        record_ids=tuple(sorted(record_ids)),
        count_lo=aggregate.count_lo,
        count_hi=aggregate.count_hi,
        expected_count=aggregate.expected_count,
        membership_probability=aggregate.membership_probability,
        slot_probabilities=aggregate.slot_probabilities,
        positions=aggregate.positions,
    )


def _certified_interval(
    groups: GroupSet,
    k: int,
    r: int,
    min_probability: float,
    label_field: str,
    pruning: PrunedDedupResult,
) -> IntervalQueryResult:
    weights = groups.weights()
    world = world_from_partition(
        [[position] for position in range(len(groups))], weights, k, 0.0
    )
    aggregates, _ = aggregate_worlds(
        [world], [1.0], weights, k, min_probability=min_probability, prune=False
    )
    entities = [
        _interval_entity(groups, aggregate, label_field)
        for aggregate in aggregates
    ]
    return IntervalQueryResult(
        entities=entities,
        k=k,
        worlds_requested=r,
        worlds_enumerated=1,
        temperature=1.0,
        min_probability=min_probability,
        pruning=pruning,
        exact=True,
    )


def _degraded_interval(
    groups: GroupSet,
    k: int,
    r: int,
    min_probability: float,
    label_field: str,
    pruning: PrunedDedupResult,
    reason: str | None = None,
) -> IntervalQueryResult:
    """Anytime answer after policy exhaustion: the K heaviest groups of
    the last consistent collapsed state, each with the widest interval
    still sound for that state — the lower bound is the group's already-
    certified merged weight, the upper bound the total weight of every
    retained group (no consistent completion can exceed it).  Membership
    mass is reported as 0 (unknown: no worlds were enumerated)."""
    weights = groups.weights()
    total = sum(weights)
    entities = []
    for position in range(min(k, len(groups))):
        base = _entity(groups, position, label_field)
        entities.append(
            EntityInterval(
                label=base.label,
                representative_id=groups[position].representative_id,
                record_ids=base.record_ids,
                count_lo=groups[position].weight,
                count_hi=total,
                expected_count=groups[position].weight,
                membership_probability=0.0,
                slot_probabilities=tuple([0.0] * k),
                positions=(position,),
            )
        )
    return IntervalQueryResult(
        entities=entities,
        k=k,
        worlds_requested=r,
        worlds_enumerated=0,
        temperature=0.0,
        min_probability=min_probability,
        pruning=pruning,
        exact=False,
        degraded=True,
        degraded_reason=reason if reason is not None else pruning.degraded_reason,
    )
