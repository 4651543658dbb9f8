"""PrunedDedup — the paper's Algorithm 2.

For each predicate level ``(S_l, N_l)`` (cheapest first), the pipeline

1. **collapses** obvious duplicates via the transitive closure of S_l,
2. **estimates** the lower bound M on the weight of the K-th answer group
   via the CPN bound on the N_l-graph, and
3. **prunes** every group whose upper bound cannot exceed M,

terminating early when exactly K groups remain.  The returned
:class:`PrunedDedupResult` carries the surviving groups plus per-level
statistics in the exact shape of the paper's Figures 2–4 tables
(n, m, M, n' — with n and n' as percentages of the starting records).

The level loop itself lives in :func:`run_level_pipeline`, shared with
the streaming engine (:class:`~repro.core.incremental.IncrementalTopK`)
so that batch and incremental queries degrade, guard, and count work
identically.  Passing an :class:`~repro.core.resilience.ExecutionPolicy`
arms fault containment and anytime degradation: user predicates are
wrapped in role-safe guards, and on deadline/budget exhaustion the
pipeline stops descending levels and returns the best answer derivable
from the current collapsed state, flagged ``degraded``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..predicates.base import PredicateLevel
from .collapse import collapse
from .lower_bound import LowerBoundEstimate, estimate_lower_bound
from .prune import prune
from .records import GroupSet, RecordStore
from .resilience import (
    ExecutionPolicy,
    ExecutionState,
    StageRecord,
    StageRunner,
    guard_levels,
    necessary_compromised,
)
from .verification import PipelineCounters, VerificationContext


@dataclass
class LevelStats:
    """Statistics for one predicate level, mirroring Figures 2–4.

    Attributes:
        level_name: Name of the predicate level.
        n_groups_after_collapse: Group count after the S_l closure.
        n_pct: That count as a percentage of the starting records (the
            tables' ``n`` column).
        m: Rank at which K distinct groups were certified.
        bound: The weight lower bound M actually used for pruning (0.0
            when the level's necessary guard was compromised and pruning
            stood down).
        n_groups_after_prune: Group count after pruning.
        n_prime_pct: That count as a percentage of the starting records
            (the tables' ``n'`` column).
        certified: Whether the CPN bound reached K at this level (and
            the bound was safe to act on).
        counters: Verification work done by this level (predicate
            evaluations, cache traffic, index builds, stage wall time);
            None for results produced without a context.
    """

    level_name: str
    n_groups_after_collapse: int
    n_pct: float
    m: int
    bound: float
    n_groups_after_prune: int
    n_prime_pct: float
    certified: bool
    counters: PipelineCounters | None = None


@dataclass
class PrunedDedupResult:
    """Output of :func:`pruned_dedup`.

    Attributes:
        groups: Surviving groups after the last executed level.
        stats: One :class:`LevelStats` per executed level.
        n_starting_records: Size of the input store.
        terminated_early: True when a level left at most K groups and the
            pipeline returned without running later levels.
        terminated_below_k: True when early termination happened with
            strictly fewer than K groups (pruning overshot the ask;
            later levels could never have grown the count back).
        counters: Total verification work across all executed levels.
        degraded: True when the execution policy stopped the run before
            all levels completed; ``groups`` then holds the best answer
            derivable from the last consistent collapsed state.
        degraded_reason: Why the run degraded (``"deadline"`` or
            ``"stage_budget"``); empty otherwise.
        stage_records: Per-stage completion trail
            (:class:`~repro.core.resilience.StageRecord`), including the
            abandoned stage of a degraded run.
    """

    groups: GroupSet
    stats: list[LevelStats] = field(default_factory=list)
    n_starting_records: int = 0
    terminated_early: bool = False
    terminated_below_k: bool = False
    counters: PipelineCounters | None = None
    degraded: bool = False
    degraded_reason: str = ""
    stage_records: list[StageRecord] = field(default_factory=list)

    @property
    def retained_fraction(self) -> float:
        """Surviving groups / starting records."""
        if self.n_starting_records == 0:
            return 0.0
        return len(self.groups) / self.n_starting_records


def run_level_pipeline(
    groups: GroupSet,
    k: int,
    levels: list[PredicateLevel],
    context: VerificationContext,
    prune_iterations: int = 2,
    refine_bound: bool = True,
    policy: ExecutionPolicy | None = None,
    execution_state: ExecutionState | None = None,
    skip_first_collapse: bool = False,
    n_starting_records: int | None = None,
    before_run: PipelineCounters | None = None,
) -> PrunedDedupResult:
    """Run the collapse/bound/prune loop of Algorithm 2 over *groups*.

    The shared engine behind :func:`pruned_dedup` (batch) and
    :meth:`~repro.core.incremental.IncrementalTopK.query` (streaming).

    Args:
        groups: Starting group set (singletons for a batch run, the
            maintained level-1 closure for the streaming engine).
        k: The K of the Top-K query.
        levels: Predicate levels in increasing cost/tightness order.
        context: Shared verification state (index + verdicts + counters).
        prune_iterations: Upper-bound refinement passes (Section 4.3).
        refine_bound: Re-run the full Min-fill CPN bound at checkpoints
            during lower-bound estimation.
        policy: Optional resilience contract; arms fault containment and
            anytime degradation.  Ignored when *execution_state* is
            given.
        execution_state: Pre-armed policy state — pass this when the
            deadline must span more than the level loop (e.g.
            ``topk_count_query`` shares one state with its scoring
            stage).
        skip_first_collapse: The first level's sufficient closure is
            already reflected in *groups* (the streaming engine
            maintains it incrementally).
        n_starting_records: Denominator for the stats' percentage
            columns; defaults to the store size.
        before_run: Counter snapshot marking the start of the run for
            the result's counter delta; defaults to "now" (the
            streaming engine passes an earlier snapshot so its initial
            collapse stage is included).
    """
    d = (
        n_starting_records
        if n_starting_records is not None
        else len(groups.store)
    )
    if before_run is None:
        before_run = context.counters.snapshot()
    state = execution_state
    if state is None and policy is not None:
        state = policy.start(context.counters)
    executed = guard_levels(levels, state) if state is not None else levels

    runner = StageRunner(context, state)
    result = PrunedDedupResult(
        groups=groups,
        n_starting_records=d,
        counters=context.counters,
    )
    current = groups

    with context.span(
        "pruned_dedup", k=k, n_levels=len(executed)
    ) as dedup_span:

        def finalize(degraded: bool) -> PrunedDedupResult:
            result.groups = current
            result.degraded = degraded
            result.degraded_reason = runner.reason if degraded else ""
            result.stage_records = runner.records
            result.counters = context.counters.delta(before_run)
            dedup_span.set_attributes(
                n_groups=len(current),
                terminated_early=result.terminated_early,
                degraded=degraded,
            )
            return result

        for index, level in enumerate(executed):
            before_level = context.counters.snapshot()
            with context.span("level", level=level.name) as level_span:
                if not (skip_first_collapse and index == 0):
                    collapsed = runner.run(
                        level.name,
                        "collapse",
                        lambda: collapse(current, level.sufficient),
                    )
                    if runner.aborted:
                        return finalize(degraded=True)
                    current = collapsed
                n_after_collapse = len(current)
                level_span.set_attribute("n_after_collapse", n_after_collapse)

                estimate: LowerBoundEstimate | None = runner.run(
                    level.name,
                    "lower_bound",
                    lambda: estimate_lower_bound(
                        current,
                        level.necessary,
                        k,
                        refine=refine_bound,
                        context=context,
                    ),
                )
                if runner.aborted:
                    return finalize(degraded=True)

                bound = estimate.bound
                certified = estimate.certified
                if necessary_compromised(level):
                    # Containment dropped blocking keys of the necessary
                    # predicate at this level: its neighbor graph may be
                    # missing edges, so both the bound and the upper
                    # bounds built on it could over-prune.  Stand
                    # pruning down (role-safe).
                    bound = 0.0
                    certified = False
                level_span.set_attributes(
                    m=estimate.m, bound=bound, certified=certified
                )

                pruned = runner.run(
                    level.name,
                    "prune",
                    lambda: prune(
                        current,
                        level.necessary,
                        bound,
                        iterations=prune_iterations,
                        context=context,
                    ),
                )
                if runner.aborted:
                    return finalize(degraded=True)
                current = pruned.retained
                level_span.set_attribute("n_after_prune", len(current))

                result.stats.append(
                    LevelStats(
                        level_name=level.name,
                        n_groups_after_collapse=n_after_collapse,
                        n_pct=100.0 * n_after_collapse / d if d else 0.0,
                        m=estimate.m,
                        bound=bound,
                        n_groups_after_prune=len(current),
                        n_prime_pct=100.0 * len(current) / d if d else 0.0,
                        certified=certified,
                        counters=context.counters.delta(before_level),
                    )
                )
                # Pruning can only shrink the group count from here on
                # (collapse merges, prune drops), so at <= k groups
                # later levels are pointless: at k they are the
                # certified answer, below k the remaining groups are all
                # that can ever be returned.
                if len(current) <= k:
                    result.terminated_early = True
                    result.terminated_below_k = len(current) < k
                    return finalize(degraded=False)

        return finalize(degraded=False)


def pruned_dedup(
    store: RecordStore,
    k: int,
    levels: list[PredicateLevel],
    prune_iterations: int = 2,
    refine_bound: bool = True,
    context: VerificationContext | None = None,
    policy: ExecutionPolicy | None = None,
    execution_state: ExecutionState | None = None,
) -> PrunedDedupResult:
    """Run Algorithm 2 (minus the final clustering) on *store*.

    Args:
        store: The raw records.
        k: The K of the Top-K query.
        levels: Predicate levels in increasing cost/tightness order.
        prune_iterations: Passes of upper-bound refinement (Section 4.3).
        refine_bound: Re-run the full Min-fill CPN bound at checkpoints
            during lower-bound estimation (tighter M, more work).
        context: Shared verification state (neighbor index + pair-verdict
            cache + counters).  A fresh one is created when omitted;
            passing one lets callers accumulate counters across runs.
        policy: Optional :class:`~repro.core.resilience.ExecutionPolicy`
            — contain predicate faults role-safely and return a degraded
            (but well-formed, flagged) answer on deadline/budget
            exhaustion instead of hanging or raising.  With no policy,
            behaviour is bit-identical to the unguarded pipeline.
        execution_state: Pre-armed policy state (advanced; used by
            ``topk_count_query`` to share one deadline across pruning
            and scoring).

    Returns:
        The surviving :class:`GroupSet` plus per-level statistics.  Apply
        the final pairwise criterion P to the survivors with
        :mod:`repro.core.topk` to obtain actual answers.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not levels:
        raise ValueError("need at least one predicate level")

    if context is None:
        context = VerificationContext()
    return run_level_pipeline(
        GroupSet.singletons(store),
        k,
        levels,
        context=context,
        prune_iterations=prune_iterations,
        refine_bound=refine_bound,
        policy=policy,
        execution_state=execution_state,
        n_starting_records=len(store),
    )
