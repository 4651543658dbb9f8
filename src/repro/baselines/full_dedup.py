"""Full-deduplication baselines — Figure 6's comparators.

Three pipelines that dedup *everything* and only then pick the K largest
groups, with increasing amounts of standard machinery:

* ``none``: Cartesian pair enumeration -> P -> cluster (the unoptimized
  reference; quadratic, only run on subsets);
* ``canopy``: pairs restricted to a canopy (the necessary predicate) ->
  P -> cluster — the classic [26] recipe;
* ``canopy+collapse``: sufficient-predicate collapse first, then the
  canopy pipeline on the collapsed representatives.

None of them can exploit K; that is exactly the point of the comparison
with :func:`repro.core.pruned_dedup.pruned_dedup`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.collapse import collapse, collapse_records
from ..core.records import GroupSet, RecordStore, merge_groups
from ..graphs.union_find import UnionFind
from ..predicates.base import Predicate, PredicateLevel
from ..predicates.blocking import candidate_pair_arrays
from ..scoring.pairwise import PairwiseScorer


@dataclass
class DedupOutcome:
    """Result of a full-dedup pipeline.

    Attributes:
        topk: The K heaviest groups found.
        n_pairs_scored: How many record pairs the final P evaluated —
            the dominant cost the paper's Figure 6 measures in time.
        n_groups: Total groups formed over the whole dataset.
        groups: The full clustered group set (all groups, weight-sorted),
            when the pipeline kept it — the differential oracle compares
            group weights and memberships beyond the K-th.  None for the
            older pipelines that only retain the Top-K.
    """

    topk: GroupSet
    n_pairs_scored: int
    n_groups: int
    groups: GroupSet | None = None


def _cluster_positive_pairs(
    group_set: GroupSet,
    pairs: tuple[np.ndarray, np.ndarray],
    scorer: PairwiseScorer,
) -> tuple[GroupSet, int]:
    """Score the ``(left, right)`` group-position *pairs* in one block;
    merge positives transitively."""
    left, right = pairs
    scores = scorer.score_pairs(group_set.representatives(), left, right)
    uf = UnionFind(len(group_set))
    positive = scores > 0
    for i, j in zip(left[positive].tolist(), right[positive].tolist()):
        uf.union(i, j)
    merged = [
        merge_groups(group_set.store, [group_set[i] for i in component])
        for component in uf.components()
    ]
    return GroupSet(store=group_set.store, groups=merged), len(left)


def _topk(group_set: GroupSet, k: int) -> GroupSet:
    return group_set.subset(list(range(min(k, len(group_set)))))


def none_pipeline(store: RecordStore, k: int, scorer: PairwiseScorer) -> DedupOutcome:
    """Cartesian product -> P -> transitive clustering -> K largest."""
    group_set = GroupSet.singletons(store)
    pairs = np.triu_indices(len(group_set), k=1)
    clustered, n_scored = _cluster_positive_pairs(group_set, pairs, scorer)
    return DedupOutcome(
        topk=_topk(clustered, k), n_pairs_scored=n_scored, n_groups=len(clustered)
    )


def canopy_pipeline(
    store: RecordStore,
    k: int,
    scorer: PairwiseScorer,
    necessary: Predicate,
) -> DedupOutcome:
    """Canopy (necessary predicate) pairs -> P -> clustering -> K largest."""
    group_set = GroupSet.singletons(store)
    pairs = candidate_pair_arrays(necessary, group_set.representatives())
    clustered, n_scored = _cluster_positive_pairs(group_set, pairs, scorer)
    return DedupOutcome(
        topk=_topk(clustered, k), n_pairs_scored=n_scored, n_groups=len(clustered)
    )


def full_dedup_pipeline(
    store: RecordStore,
    k: int,
    levels: list[PredicateLevel],
    scorer: PairwiseScorer | None = None,
) -> DedupOutcome:
    """Exhaustive multi-level dedup — the differential oracle's ground truth.

    Runs every predicate level's sufficient closure in sequence (each
    collapse operates on the previous level's representatives, exactly
    like the pruned pipeline's collapse stages), then — when *scorer* is
    given — applies the final pairwise criterion P to the last level's
    necessary-canopy candidate pairs and merges positives transitively.
    No bound estimation, no pruning, no K-awareness anywhere: every
    group survives to the end, so the result is the answer the
    K-exploiting pipeline must reproduce.

    Without a *scorer* the outcome's groups are the plain multi-level
    sufficient closure — the ground truth for rank and thresholded rank
    queries, which never invoke P.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not levels:
        raise ValueError("need at least one predicate level")
    clustered = GroupSet.singletons(store)
    for level in levels:
        clustered = collapse(clustered, level.sufficient)
    n_scored = 0
    if scorer is not None:
        pairs = candidate_pair_arrays(
            levels[-1].necessary, clustered.representatives()
        )
        clustered, n_scored = _cluster_positive_pairs(clustered, pairs, scorer)
    return DedupOutcome(
        topk=_topk(clustered, k),
        n_pairs_scored=n_scored,
        n_groups=len(clustered),
        groups=clustered,
    )


def canopy_collapse_pipeline(
    store: RecordStore,
    k: int,
    scorer: PairwiseScorer,
    necessary: Predicate,
    sufficient: Predicate,
) -> DedupOutcome:
    """Sufficient-collapse, then the canopy pipeline on representatives."""
    collapsed = collapse_records(store, sufficient)
    pairs = candidate_pair_arrays(necessary, collapsed.representatives())
    clustered, n_scored = _cluster_positive_pairs(collapsed, pairs, scorer)
    return DedupOutcome(
        topk=_topk(clustered, k), n_pairs_scored=n_scored, n_groups=len(clustered)
    )
