"""End-to-end Top-K count query engine (Algorithm 2, steps 1-10).

Glues the stages together: PrunedDedup reduces the data to the groups
that can still reach the Top-K answer; the final pairwise criterion P is
applied to surviving pairs allowed by the last necessary predicate; the
greedy linear embedding + segmentation DP then produce the R highest
scoring Top-K answers (Section 5).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..clustering.correlation import ScoreMatrix
from ..embedding.greedy import LinearEmbedding, greedy_embedding
from ..embedding.segmentation import TopKAnswer, auto_max_span, top_k_answers
from ..predicates.base import PredicateLevel
from ..scoring.gibbs import default_temperature, gibbs_probabilities
from ..scoring.pairwise import PairwiseScorer
from .pruned_dedup import PrunedDedupResult, pruned_dedup
from .records import GroupSet, RecordStore
from .resilience import (
    ExecutionPolicy,
    ExecutionState,
    GuardedScorer,
    ResilienceExhausted,
    StageRecord,
)
from .verification import VerificationContext


@dataclass(frozen=True)
class EntityGroup:
    """One entity in a Top-K answer.

    Attributes:
        label: Display name — the representative record's key field.
        weight: Aggregated count/weight of all merged mentions.
        record_ids: All underlying record ids.
    """

    label: str
    weight: float
    record_ids: tuple[int, ...]


@dataclass(frozen=True)
class RankedAnswer:
    """One of the R answers: K entity groups in non-increasing weight order."""

    entities: tuple[EntityGroup, ...]
    score: float
    probability: float


@dataclass
class TopKQueryResult:
    """Full result of a Top-K count query.

    Attributes:
        answers: The R highest-scoring answers, best first.
        pruning: Per-level statistics from PrunedDedup.
        exact: True when pruning alone reduced the data to exactly K
            groups — the answer needed no scoring at all.
        degraded: True when the execution policy stopped the query
            early (during pruning or scoring); the answer is then the K
            heaviest groups of the last consistent collapsed state —
            well-formed and role-safe, but not certified.
        degraded_reason: Why the query degraded (``"deadline"`` or
            ``"stage_budget"``); empty otherwise.
    """

    answers: list[RankedAnswer] = field(default_factory=list)
    pruning: PrunedDedupResult | None = None
    exact: bool = False
    degraded: bool = False
    degraded_reason: str = ""

    @property
    def best(self) -> RankedAnswer:
        """The highest-scoring answer."""
        if not self.answers:
            raise ValueError("query produced no answers")
        return self.answers[0]


def topk_count_query(
    store: RecordStore,
    k: int,
    levels: list[PredicateLevel],
    scorer: PairwiseScorer,
    r: int = 1,
    label_field: str = "",
    max_span: int | None = None,
    rank_answers_by: str = "score",
    context: VerificationContext | None = None,
    policy: ExecutionPolicy | None = None,
) -> TopKQueryResult:
    """Answer a Top-K count query over *store*, returning R ranked answers.

    Answer probabilities are the Gibbs normalization of the answer
    scores at :func:`~repro.scoring.gibbs.default_temperature`, so they
    stay informative even when aggregate scaling makes raw scores huge.

    Args:
        store: The raw (duplicate-ridden) records.
        k: Number of largest entity groups to return.
        levels: Necessary/sufficient predicate levels, cheapest first.
        scorer: The final pairwise criterion P (signed score).
        r: Number of alternative answers to return.
        label_field: Record field used as the entity display label;
            defaults to the first field of the representative.
        max_span: Segment length cap for the segmentation DP; derived
            from the positive-score component sizes when None.
        rank_answers_by: ``"score"`` ranks the R answers by their best
            supporting segmentation; ``"mass"`` by their Gibbs log-mass
            over all supporting segmentations (the paper's
            sum-over-groupings answer score; only meaningful for r > 1).
        context: Shared verification state forwarded to the pruning
            pipeline; the run's counters land on ``result.pruning``.
        policy: Optional :class:`~repro.core.resilience.ExecutionPolicy`
            spanning the whole query — pruning *and* scoring share one
            deadline.  Predicate/scorer faults are contained role-safely
            and on exhaustion the query returns the K heaviest groups of
            the last consistent collapsed state, flagged ``degraded``.
    """
    if context is None:
        context = VerificationContext()
    before = context.counters.snapshot() if context.metrics.enabled else None
    with context.span("query", kind="topk", k=k, r=r):
        result = _topk_count_query(
            store,
            k,
            levels,
            scorer,
            r=r,
            label_field=label_field,
            max_span=max_span,
            rank_answers_by=rank_answers_by,
            context=context,
            policy=policy,
        )
    context.publish_query_metrics("topk", result, before)
    return result


def _topk_count_query(
    store: RecordStore,
    k: int,
    levels: list[PredicateLevel],
    scorer: PairwiseScorer,
    r: int,
    label_field: str,
    max_span: int | None,
    rank_answers_by: str,
    context: VerificationContext,
    policy: ExecutionPolicy | None,
) -> TopKQueryResult:
    state = policy.start(context.counters) if policy is not None else None
    pruning = pruned_dedup(
        store,
        k,
        levels,
        context=context,
        execution_state=state,
    )
    groups = pruning.groups
    if pruning.degraded:
        return _degraded_result(groups, k, label_field, pruning)

    if len(groups) <= k:
        # Pruning already certified the K groups: no scoring needed.
        entities = tuple(
            _entity(groups, position, label_field)
            for position in range(len(groups))
        )
        answer = RankedAnswer(entities=entities, score=0.0, probability=1.0)
        return TopKQueryResult(answers=[answer], pruning=pruning, exact=True)

    try:
        with context.span("score", n_groups=len(groups)):
            scores, embedding, max_span = world_model(
                groups,
                scorer,
                levels[-1].necessary,
                max_span=max_span,
                state=state,
            )
            with context.span("segment_dp", r=r):
                if r == 1:
                    raw_answers = _single_best_answer(
                        scores, embedding, groups, k, max_span
                    )
                else:
                    raw_answers = top_k_answers(
                        scores,
                        embedding,
                        weights=groups.weights(),
                        k=k,
                        r=r,
                        max_span=max_span,
                        rank_by=rank_answers_by,
                    )
                    if not raw_answers:
                        # Degenerate threshold structure (e.g. the K-th
                        # and (K+1)-th groups tie in every
                        # segmentation): fall back to the best
                        # unconstrained segmentation's K largest groups.
                        raw_answers = _single_best_answer(
                            scores, embedding, groups, k, max_span
                        )
    except ResilienceExhausted as exc:
        pruning.stage_records.append(
            StageRecord("scoring", "score", False, exc.reason)
        )
        return _degraded_result(groups, k, label_field, pruning, exc.reason)
    if state is not None:
        pruning.stage_records.append(StageRecord("scoring", "score", True))
    answer_scores = [
        a.log_mass if a.log_mass is not None else a.score for a in raw_answers
    ]
    probabilities = gibbs_probabilities(
        answer_scores, temperature=default_temperature(answer_scores)
    )
    answers = [
        _to_ranked_answer(groups, raw, probability, label_field)
        for raw, probability in zip(raw_answers, probabilities)
    ]
    return TopKQueryResult(answers=answers, pruning=pruning, exact=False)


def world_model(
    groups: GroupSet,
    scorer: PairwiseScorer,
    necessary,
    *,
    max_span: int | None = None,
    state: ExecutionState | None = None,
) -> tuple[ScoreMatrix, LinearEmbedding, int]:
    """The scoring front over *groups*: the aggregated P score matrix
    over necessary-allowed pairs, its greedy linear embedding (Eq. 3),
    and the segment length cap (*max_span*, else derived from the
    scores).

    The count query segments this model, the interval query enumerates
    its worlds, and the brute-force possible-worlds oracle exhausts the
    same world space.  Under the caller's execution *state* it is one
    scoring stage: the scorer is guarded and the policy is checked
    before each step.
    """
    if state is not None:
        state.begin_stage()
        scorer = GuardedScorer(scorer, state)
        state.check()
    scores = group_score_matrix(groups, scorer, necessary)
    if state is not None:
        state.check()
    embedding = greedy_embedding(scores)
    if max_span is None:
        max_span = auto_max_span(scores)
    if state is not None:
        state.check()
    return scores, embedding, max_span


def _degraded_result(
    groups: GroupSet,
    k: int,
    label_field: str,
    pruning: PrunedDedupResult,
    reason: str | None = None,
) -> TopKQueryResult:
    """Anytime answer after policy exhaustion: the K heaviest groups of
    the last consistent collapsed state.  Groups reflect only completed
    sufficient-closure merges and role-safe pruning, so the answer is
    well-formed (no over-merge introduced by fallbacks) — just not
    certified."""
    entities = tuple(
        _entity(groups, position, label_field)
        for position in range(min(k, len(groups)))
    )
    answer = RankedAnswer(entities=entities, score=0.0, probability=1.0)
    return TopKQueryResult(
        answers=[answer],
        pruning=pruning,
        exact=False,
        degraded=True,
        degraded_reason=reason if reason is not None else pruning.degraded_reason,
    )


def _single_best_answer(
    scores: ScoreMatrix,
    embedding: LinearEmbedding,
    groups: GroupSet,
    k: int,
    max_span: int,
) -> list[TopKAnswer]:
    """Fast R = 1 path: the best *unconstrained* segmentation's K largest
    groups are the answer, skipping the threshold sweep of the full
    Ans_R DP (only needed to rank multiple alternatives)."""
    from ..clustering.correlation import group_score
    from ..embedding.segmentation import best_partition

    partition = best_partition(scores, embedding, max_span=max_span)
    weights = groups.weights()
    scored_groups = sorted(
        (
            (tuple(sorted(members)), sum(weights[m] for m in members))
            for members in partition
        ),
        key=lambda g: (-g[1], g[0]),
    )
    top = scored_groups[:k]
    total = sum(group_score(g, scores) for g in partition)
    return [
        TopKAnswer(
            groups=tuple(members for members, _ in top),
            weights=tuple(weight for _, weight in top),
            score=total,
            n_supporting=1,
        )
    ]


def group_score_matrix(
    groups: GroupSet,
    scorer: PairwiseScorer,
    necessary,
    aggregate: bool = True,
) -> ScoreMatrix:
    """Score surviving group pairs allowed by the necessary predicate.

    With *aggregate*, each representative-pair score is scaled by the
    product of group sizes — the sum of the score over all cross member
    pairs under the Section 4.1 equivalence.
    """
    representatives = groups.representatives()
    matrix = ScoreMatrix.from_scorer(representatives, scorer, necessary)
    if not aggregate:
        return matrix
    scaled = ScoreMatrix(matrix.n, default=matrix.default)
    sizes = np.array([group.size for group in groups], dtype=np.int64)
    i, j, scores = matrix.pair_arrays()
    scaled.set_pairs(i, j, scores * sizes[i] * sizes[j])
    return scaled


def _entity(groups: GroupSet, position: int, label_field: str) -> EntityGroup:
    group = groups[position]
    representative = groups.store[group.representative_id]
    if label_field:
        label = representative[label_field]
    else:
        label = next(iter(representative.fields.values()), "")
    return EntityGroup(
        label=label,
        weight=group.weight,
        record_ids=tuple(sorted(group.member_ids)),
    )


def _merged_entity(
    groups: GroupSet, positions: tuple[int, ...], label_field: str
) -> EntityGroup:
    """Entity formed by merging several collapsed groups in an answer."""
    heaviest = max(positions, key=lambda p: groups[p].weight)
    base = _entity(groups, heaviest, label_field)
    record_ids: list[int] = []
    weight = 0.0
    for position in positions:
        record_ids.extend(groups[position].member_ids)
        weight += groups[position].weight
    return EntityGroup(
        label=base.label, weight=weight, record_ids=tuple(sorted(record_ids))
    )


def _to_ranked_answer(
    groups: GroupSet,
    raw: TopKAnswer,
    probability: float,
    label_field: str,
) -> RankedAnswer:
    entities = tuple(
        _merged_entity(groups, positions, label_field)
        for positions in raw.groups
    )
    return RankedAnswer(entities=entities, score=raw.score, probability=probability)
