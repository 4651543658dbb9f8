"""Top-K rank and thresholded rank queries (Section 7).

The **Top-K rank query** wants only the rank order of the K largest
groups, each identified by a canonical member — not exact group sizes.
That weaker contract allows pruning beyond the count query's: once a
group's rank cannot conflict with anyone (it is *resolved*) and none of
its neighbors needs it to cross the bound M, its neighbors become
redundant (Section 7.1).

The **thresholded rank query** replaces K with an explicit size
threshold T: return every group of size >= T, ranked (Section 7.2).  It
reuses the machinery with ``M = T`` fixed instead of estimated.

Both run the count query's level loop
(:func:`~repro.core.pruned_dedup.run_level_pipeline`) with every
``u_i`` materialized, and add only Section 7's tail: the resolved-group
pass and, for thresholds, the termination test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from dataclasses import field as dataclass_field

import numpy as np

from ..predicates.base import PredicateLevel
from .pruned_dedup import LevelStats, PrunedDedupResult, run_level_pipeline
from .records import GroupSet, RecordStore
from .resilience import ExecutionPolicy, ExecutionState, StageRecord, StageRunner
from .verification import PipelineCounters, VerificationContext


@dataclass(frozen=True)
class RankedGroup:
    """One (c_i, u_i) pair of the rank-query answer.

    Attributes:
        representative_id: Canonical record identifying the group.
        weight: Known (collapsed) weight — a lower bound on the final
            group's weight.
        upper_bound: Upper bound u_i on the weight of the answer group
            containing this group.
        resolved: True when the group's rank cannot conflict with any
            other retained group.
    """

    representative_id: int
    weight: float
    upper_bound: float
    resolved: bool


@dataclass
class RankQueryResult:
    """Outcome of a rank query.

    Attributes:
        ranking: Retained groups in non-increasing weight order.
        groups: The retained GroupSet (for downstream exact evaluation).
        n_retained: Groups kept after both pruning passes.
        n_extra_pruned: Groups removed by the rank-specific second pass
            beyond the count query's pruning.
        certain: For thresholded queries — True when the termination test
            held and the ranking needs no exact evaluation.
        counters: Verification work done across the whole query.
        degraded: True when the execution policy stopped the query
            early; the ranking then reflects the last consistent state
            (weight-ordered, conservative upper bounds, nothing marked
            resolved) — role-safe but not certified.
        degraded_reason: Why the query degraded (``"deadline"`` or
            ``"stage_budget"``); empty otherwise.
        stage_records: Per-stage completion trail
            (:class:`~repro.core.resilience.StageRecord`).
        stats: One :class:`~repro.core.pruned_dedup.LevelStats` per
            level the shared level loop completed.
    """

    ranking: list[RankedGroup]
    groups: GroupSet
    n_retained: int
    n_extra_pruned: int
    certain: bool = False
    counters: PipelineCounters | None = None
    degraded: bool = False
    degraded_reason: str = ""
    stage_records: list[StageRecord] = dataclass_field(default_factory=list)
    stats: list[LevelStats] = dataclass_field(default_factory=list)


def _resolved_flags(
    weights: list[float],
    upper: list[float],
    neighbor_rows: list[np.ndarray],
    bound: float,
) -> list[bool]:
    """Apply Section 7.1's two resolution conditions to every group."""
    n = len(weights)
    flags = []
    for j in range(n):
        neighbors_j = set(neighbor_rows[j].tolist())
        resolved = True
        for g in range(n):
            if g == j:
                continue
            if g in neighbors_j:
                # A neighbor must not be able to reach M without c_j.
                if upper[g] - weights[j] >= bound:
                    resolved = False
                    break
            else:
                # A non-neighbor must have no rank conflict with c_j.
                if not (weights[j] >= upper[g] or upper[j] <= weights[g]):
                    resolved = False
                    break
        flags.append(resolved)
    return flags


def _rank_prune(
    group_set: GroupSet,
    necessary,
    upper: list[float],
    bound: float,
    context: VerificationContext,
) -> tuple[list[int], list[bool]]:
    """Section 7.1's extra pruning: drop groups only adjacent to resolved
    groups (and themselves below M), returning kept ids + resolved flags.
    """
    n = len(group_set)
    weights = group_set.weights()
    representatives = group_set.representatives()
    index = context.neighbor_index(necessary, group_set)
    neighbor_rows = [
        index.neighbors(representatives[i], exclude_position=i)
        for i in range(n)
    ]
    resolved = _resolved_flags(weights, upper, neighbor_rows, bound)

    # A group is prunable when it is below M on its own and disconnected
    # from every *unresolved* group with u_i >= M.
    unresolved_live = ~np.asarray(resolved, dtype=bool) & (
        np.asarray(upper, dtype=np.float64) >= bound
    )
    kept: list[int] = []
    flags: list[bool] = []
    for g in range(n):
        if (
            resolved[g]
            or weights[g] >= bound
            or unresolved_live[neighbor_rows[g]].any()
        ):
            kept.append(g)
            flags.append(resolved[g])
    return kept, flags


def _degraded_rank_result(
    pipeline: PrunedDedupResult,
    context: VerificationContext,
    reason: str | None = None,
) -> RankQueryResult:
    """Anytime answer after policy exhaustion: the last consistent state
    in weight order, conservative upper bounds, nothing resolved."""
    current = pipeline.groups
    weights = current.weights()
    upper = pipeline.upper_bounds
    # Upper bounds only align with `current` when no merge has happened
    # since they were computed; otherwise fall back to "unknown".
    bounds = upper if len(upper) == len(current) else [math.inf] * len(current)
    ranking = [
        RankedGroup(
            representative_id=current[i].representative_id,
            weight=weights[i],
            upper_bound=bounds[i],
            resolved=False,
        )
        for i in range(len(current))
    ]
    return RankQueryResult(
        ranking=ranking,
        groups=current,
        n_retained=len(current),
        n_extra_pruned=0,
        certain=False,
        counters=context.counters,
        degraded=True,
        degraded_reason=reason if reason is not None else pipeline.degraded_reason,
        stage_records=pipeline.stage_records,
        stats=pipeline.stats,
    )


def topk_rank_query(
    store: RecordStore,
    k: int,
    levels: list[PredicateLevel],
    context: VerificationContext | None = None,
    policy: ExecutionPolicy | None = None,
) -> RankQueryResult:
    """Answer a Top-K *rank* query (Section 7.1).

    Runs the count query's level loop with every ``u_i`` materialized
    (:func:`~repro.core.pruned_dedup.run_level_pipeline` with
    ``all_bounds``), then the rank-specific resolved-group pruning after
    the last level.  The verification context (created when omitted)
    shares each level's neighbor index between bound estimation,
    pruning, and the rank pass, and carries pair verdicts across all of
    them.

    With an :class:`~repro.core.resilience.ExecutionPolicy`, predicate
    faults are contained role-safely (a compromised necessary predicate
    stands pruning down for its level) and on deadline/budget exhaustion
    the query returns the last consistent state flagged ``degraded``.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not levels:
        raise ValueError("need at least one predicate level")

    if context is None:
        context = VerificationContext()
    before = context.counters.snapshot() if context.metrics.enabled else None
    with context.span("query", kind="rank", k=k):
        state = policy.start(context.counters) if policy is not None else None
        pipeline = run_level_pipeline(
            GroupSet.singletons(store),
            k,
            levels,
            context,
            execution_state=state,
            all_bounds=True,
        )
        result = _rank_answer(pipeline, context, state)
    context.publish_query_metrics("rank", result, before)
    return result


def thresholded_rank_query(
    store: RecordStore,
    threshold: float,
    levels: list[PredicateLevel],
    context: VerificationContext | None = None,
    policy: ExecutionPolicy | None = None,
) -> RankQueryResult:
    """Answer a thresholded rank query (Section 7.2): groups of size >= T.

    Runs the level loop with ``M = threshold`` fixed (no estimation
    step) and every ``u_i`` materialized.  The result is ``certain``
    when Section 7.2's termination test holds: some prefix of the
    retained groups is each of weight >= T and rank-resolved, while
    every later group is redundant given the prefix.

    With an :class:`~repro.core.resilience.ExecutionPolicy`, predicate
    faults are contained role-safely (a compromised necessary predicate
    stands pruning down and forfeits certainty) and on deadline/budget
    exhaustion the query returns the last consistent state flagged
    ``degraded``.

    Raises:
        ValueError: *threshold* is not a finite number > 0 (no weight
            reaches a NaN or infinite T, so such a query would be
            answered ``certain`` with an empty ranking).
    """
    if not (math.isfinite(threshold) and threshold > 0):
        raise ValueError(
            f"threshold must be finite and > 0, got {threshold!r}"
        )
    if not levels:
        raise ValueError("need at least one predicate level")

    if context is None:
        context = VerificationContext()
    before = context.counters.snapshot() if context.metrics.enabled else None
    with context.span("query", kind="threshold", threshold=threshold):
        state = policy.start(context.counters) if policy is not None else None
        pipeline = run_level_pipeline(
            GroupSet.singletons(store),
            0,
            levels,
            context,
            execution_state=state,
            threshold=threshold,
            all_bounds=True,
        )
        result = _rank_answer(pipeline, context, state, threshold)
    context.publish_query_metrics("threshold", result, before)
    return result


def _rank_answer(
    pipeline: PrunedDedupResult,
    context: VerificationContext,
    state: ExecutionState | None,
    threshold: float | None = None,
) -> RankQueryResult:
    """Section 7's tail over the level loop's survivors: the rank pass,
    then for a *threshold* the termination test, as ``rank_prune``
    stages of the same execution state."""
    if pipeline.degraded:
        return _degraded_rank_result(pipeline, context)
    current = pipeline.groups
    upper = pipeline.upper_bounds
    necessary = pipeline.levels[-1].necessary
    runner = StageRunner(context, state)
    runner.records = pipeline.stage_records
    if pipeline.compromised:
        # Some level's N-graph may be missing edges, so Section 7.1's
        # resolution/redundancy reasoning is unsound: skip the extra
        # pruning, keep everything, mark nothing resolved, certify
        # nothing.
        kept = list(range(len(current)))
        flags = [False] * len(current)
    else:
        # The last level's M: the estimate, or the threshold itself.
        bound = pipeline.stats[-1].bound
        rank_pruned = runner.run(
            "rank",
            "rank_prune",
            lambda: _rank_prune(current, necessary, upper, bound, context),
        )
        if runner.aborted:
            return _degraded_rank_result(pipeline, context, runner.reason)
        kept, flags = rank_pruned
    retained = current.subset(kept)
    kept_upper = [upper[original] for original in kept]
    certain = False
    if threshold is not None and not pipeline.compromised:
        certain = runner.run(
            "rank",
            "rank_prune",
            lambda: _threshold_termination(
                retained, kept_upper, necessary, threshold, context
            ),
        )
        if runner.aborted:
            return _degraded_rank_result(pipeline, context, runner.reason)
    ranking = [
        RankedGroup(
            representative_id=retained[pos].representative_id,
            weight=retained[pos].weight,
            upper_bound=kept_upper[pos],
            resolved=flags[pos],
        )
        for pos in range(len(kept))
    ]
    if certain:
        ranking = [r for r in ranking if r.weight >= threshold]
    return RankQueryResult(
        ranking=ranking,
        groups=retained,
        n_retained=len(kept),
        n_extra_pruned=len(current) - len(kept),
        certain=certain,
        counters=context.counters,
        stage_records=pipeline.stage_records,
        stats=pipeline.stats,
    )


def _threshold_termination(
    retained: GroupSet,
    upper: list[float],
    necessary,
    threshold: float,
    context: VerificationContext,
) -> bool:
    """Section 7.2's termination test for some prefix length k."""
    n = len(retained)
    if n == 0:
        return True
    weights = retained.weights()
    representatives = retained.representatives()
    index = context.neighbor_index(necessary, retained)
    neighbor_rows = [
        index.neighbors(representatives[i], exclude_position=i)
        for i in range(n)
    ]
    w = np.asarray(weights, dtype=np.float64)
    for k in range(n + 1):
        prefix_ok = all(
            weights[i] >= threshold and weights[i] >= upper[j]
            for i in range(k)
            for j in range(i + 1, k)
        )
        if not prefix_ok:
            continue
        tail_ok = True
        for j in range(k, n):
            # j's neighbors inside the prefix (rows ascend).
            row = neighbor_rows[j]
            inside = row[: int(np.searchsorted(row, k))]
            if not (upper[j] - w[inside] <= threshold).any():
                tail_ok = False
                break
        if tail_ok:
            return True
    return False
