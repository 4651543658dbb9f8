"""Lower-bound estimation (Section 4.2).

Given collapsed groups ``c1..cn`` in non-increasing weight order and a
necessary predicate N, find the smallest prefix length ``m`` such that the
first ``m`` groups are *guaranteed* to contain K distinct entities — then
``M = weight(c_m)`` lower-bounds the weight of the K-th answer group.

The guarantee comes from the N-graph: any set of groups that end up
merged in the true answer must form a clique (N is necessary), so the
clique partition number of the prefix graph lower-bounds its number of
distinct entities.  We add groups one at a time to an incremental CPN
bound (:class:`~repro.graphs.clique_partition.IncrementalCliquePartition`)
and stop as soon as the bound reaches K.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..graphs.clique_partition import IncrementalCliquePartition
from ..predicates.base import Predicate
from ..predicates.blocking import NeighborIndex
from .records import GroupSet

if TYPE_CHECKING:
    from .verification import VerificationContext

#: Prefix size past which the Min-fill refinement is no longer re-run:
#: its triangulation is cubic in the prefix graph, so beyond this the
#: incremental bound alone drives the estimator.
REFINE_MAX_VERTICES = 400


def _sparse_enough(graph, max_density: float = 0.25) -> bool:
    """Min-fill refinement only pays off on sparse prefix graphs: on a
    dense graph the clique cover is small and triangulation is cubic, so
    the cheap incremental bound should drive the loop alone."""
    n = graph.n_vertices
    if n < 3:
        return True
    return graph.n_edges <= max_density * n * (n - 1) / 2


@dataclass(frozen=True)
class LowerBoundEstimate:
    """Result of the Section 4.2 estimator.

    Attributes:
        m: 1-based rank at which K distinct groups are guaranteed;
            equals ``len(group_set)`` when the guarantee is never reached.
        bound: Weight lower bound M for the K-th answer group (0.0 when
            fewer than K distinct groups can be certified).
        certified: Whether the CPN bound actually reached K.
        cpn: The final CPN lower bound value.
    """

    m: int
    bound: float
    certified: bool
    cpn: int


def estimate_lower_bound(
    group_set: GroupSet,
    necessary: Predicate,
    k: int,
    context: "VerificationContext | None" = None,
) -> LowerBoundEstimate:
    """Estimate ``(m, M)`` for a Top-*k* query over *group_set*.

    Groups are consumed in the set's (non-increasing weight) order.  After
    each addition the cheap incremental bound is consulted, and the full
    Min-fill bound of Algorithm 1 is re-run at geometric checkpoints past
    rank ``k`` to certify K earlier (tightening M) — until the prefix
    graph exceeds :data:`REFINE_MAX_VERTICES`, past which the cubic
    Min-fill pass stops paying for itself and only the incremental bound
    drives the loop.

    With a :class:`~repro.core.verification.VerificationContext`, the
    neighbor index is obtained from (and left in) the context so the
    following prune stage reuses the build and every pair verdict.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    n = len(group_set)
    if n == 0:
        return LowerBoundEstimate(m=0, bound=0.0, certified=False, cpn=0)

    representatives = group_set.representatives()
    if context is not None:
        index = context.neighbor_index(necessary, group_set)
    else:
        index = NeighborIndex(necessary, representatives)
    cpn = IncrementalCliquePartition()
    next_refine = max(k, 2)

    for position, representative in enumerate(representatives):
        row = index.neighbors(representative, exclude_position=position)
        bound = cpn.add_vertex(row[: int(np.searchsorted(row, position))].tolist())
        can_refine = (
            position + 1 <= REFINE_MAX_VERTICES and _sparse_enough(cpn.graph)
        )
        if bound < k and can_refine and position + 1 >= next_refine:
            bound = cpn.refine()
            next_refine = max(next_refine + 1, int(next_refine * 1.25))
        if bound >= k:
            return LowerBoundEstimate(
                m=position + 1,
                bound=group_set[position].weight,
                certified=True,
                cpn=bound,
            )

    if n <= REFINE_MAX_VERTICES and _sparse_enough(cpn.graph):
        final = cpn.refine()
    else:
        final = cpn.bound()
    if final >= k:
        return LowerBoundEstimate(
            m=n, bound=group_set[n - 1].weight, certified=True, cpn=final
        )
    # Fewer than k distinct groups can be certified: no pruning is safe.
    return LowerBoundEstimate(m=n, bound=0.0, certified=False, cpn=final)


def estimate_lower_bound_naive(
    group_set: GroupSet, necessary: Predicate, k: int
) -> LowerBoundEstimate:
    """The weak Section 4.2 baseline (ablation X2).

    Counts, in weight order, groups that cannot merge with any earlier
    group; stops when *k* such groups are found.  On the paper's Figure-1
    example this needs the whole list where the CPN bound stops at rank 3.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    n = len(group_set)
    if n == 0:
        return LowerBoundEstimate(m=0, bound=0.0, certified=False, cpn=0)

    representatives = group_set.representatives()
    index = NeighborIndex(necessary, representatives)
    count = 0
    for position, representative in enumerate(representatives):
        row = index.neighbors(representative, exclude_position=position)
        if not len(row) or row[0] >= position:
            count += 1
        if count >= k:
            return LowerBoundEstimate(
                m=position + 1,
                bound=group_set[position].weight,
                certified=True,
                cpn=count,
            )
    if count >= k:
        return LowerBoundEstimate(
            m=n, bound=group_set[n - 1].weight, certified=True, cpn=count
        )
    return LowerBoundEstimate(m=n, bound=0.0, certified=False, cpn=count)
