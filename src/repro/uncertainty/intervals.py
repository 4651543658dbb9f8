"""Aggregation of possible worlds into count intervals and membership mass.

Given a canonically-ordered world list and its normalized masses, this
module computes, per entity:

* ``count_lo`` / ``count_hi`` — the minimum / maximum weight of the
  cluster containing the entity across all surviving worlds (an
  envelope that provably contains the exact count of every enumerated
  world);
* ``expected_count`` — the mass-weighted mean cluster weight;
* ``membership_probability`` — the total mass of worlds in which the
  entity's cluster is among the top K;
* ``slot_probabilities`` — per-rank mass, attributed to the cluster's
  representative position so each slot's probabilities sum to at most 1.

Both probabilities are float sums of normalized masses, which can land
an ulp above 1; each is clamped to at most 1.0.

Entities are formed by merging base positions that are co-clustered in
*every* world: such positions are indistinguishable under the enumerated
uncertainty and reporting them separately would double-count.

The Bernecker-style pruning bound processes worlds best-first (they
arrive mass-descending because the canonical order is score-descending)
and maintains, per position, the accrued membership mass plus the total
unprocessed suffix mass.  Once ``accrued + remaining`` falls below
``min_probability`` (by more than :data:`_PRUNE_SLACK`, which absorbs
summation-order float drift) the position provably cannot reach the
reporting threshold and is cut without touching the remaining worlds.
The bound is answer-preserving:
a position is only cut when its final membership is guaranteed below the
threshold, so the reported set (and every reported number) is
bit-identical to the run-everything-then-filter computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .worlds import World

__all__ = ["EntityAggregate", "aggregate_worlds"]

#: Slack absorbing the float drift between the forward membership
#: accumulation and the backward suffix sums (different summation
#: orders of the same masses can differ by a few ulps).  A candidate is
#: only cut when it misses the threshold by more than any
#: accumulation-order difference could account for — which is what
#: keeps the bound answer-preserving in float arithmetic, not just on
#: paper (e.g. membership exactly 1.0 at ``min_probability=1.0`` must
#: never be cut by a suffix sum that landed one ulp under 1).
_PRUNE_SLACK = 1e-12


@dataclass(frozen=True)
class EntityAggregate:
    """Aggregated uncertainty for one merged entity.

    ``positions`` are the base (collapsed group) indices merged into the
    entity; ``anchor`` is the heaviest of them (ties to the lowest
    index), the position downstream layers use for labels and
    representative records.
    """

    positions: tuple[int, ...]
    anchor: int
    count_lo: float
    count_hi: float
    expected_count: float
    membership_probability: float
    slot_probabilities: tuple[float, ...]


def aggregate_worlds(
    worlds: Sequence[World],
    masses: Sequence[float],
    weights: Sequence[float],
    k: int,
    *,
    min_probability: float = 0.0,
    prune: bool = True,
) -> tuple[list[EntityAggregate], int]:
    """Aggregate worlds into per-entity intervals and membership mass.

    Returns ``(entities, pruned)`` where ``pruned`` counts the positions
    cut early by the membership bound.  ``prune=False`` disables the
    bound (every world is inspected for every position) and exists so
    tests can prove the bound answer-preserving; the reported entities
    are bit-identical either way.
    """
    if len(worlds) != len(masses):
        raise ValueError(f"{len(masses)} masses for {len(worlds)} worlds")
    if not worlds:
        return [], 0
    n = len(weights)

    # Per-world position -> cluster index lookup.
    position_cluster: list[list[int]] = []
    for world in worlds:
        lookup = [-1] * n
        for index, members in enumerate(world.clusters):
            for member in members:
                lookup[member] = index
        if any(index < 0 for index in lookup):
            raise ValueError("world does not cover every position")
        position_cluster.append(lookup)

    # Exact suffix sums of unprocessed mass, used by the pruning bound.
    suffix = [0.0] * (len(masses) + 1)
    for index in range(len(masses) - 1, -1, -1):
        suffix[index] = suffix[index + 1] + masses[index]

    membership = [0.0] * n
    active = [True] * n
    pruned = 0
    for world_index, (world, mass) in enumerate(zip(worlds, masses)):
        top = world.top_positions()
        for position in range(n):
            if active[position] and position in top:
                membership[position] += mass
        if prune and min_probability > 0.0:
            remaining = suffix[world_index + 1]
            for position in range(n):
                if active[position] and (
                    membership[position] + remaining
                    < min_probability - _PRUNE_SLACK
                ):
                    active[position] = False
                    pruned += 1

    survivors = [
        position
        for position in range(n)
        if active[position]
        and membership[position] > 0.0
        and membership[position] >= min_probability
    ]

    # Merge positions co-clustered in every world: same cluster-id
    # signature across the world list means identical intervals,
    # membership, and slots.
    by_signature: dict[tuple[int, ...], list[int]] = {}
    for position in survivors:
        signature = tuple(
            lookup[position] for lookup in position_cluster
        )
        by_signature.setdefault(signature, []).append(position)

    # Representative of a cluster: its heaviest position, ties to the
    # lowest index (matching the count-query layer's merged-entity rule).
    def representative(members: Sequence[int]) -> int:
        return max(members, key=lambda p: (weights[p], -p))

    entities: list[EntityAggregate] = []
    for signature, positions in by_signature.items():
        positions = sorted(positions)
        anchor = representative(positions)
        count_lo = float("inf")
        count_hi = float("-inf")
        expected = 0.0
        slots = [0.0] * k
        for world_index, (world, mass) in enumerate(zip(worlds, masses)):
            cluster_index = signature[world_index]
            cluster_weight = world.weights[cluster_index]
            count_lo = min(count_lo, cluster_weight)
            count_hi = max(count_hi, cluster_weight)
            expected += mass * cluster_weight
            if cluster_index < world.n_top and cluster_index < k:
                if representative(world.clusters[cluster_index]) == anchor:
                    slots[cluster_index] += mass
        entities.append(
            EntityAggregate(
                positions=tuple(positions),
                anchor=anchor,
                count_lo=count_lo,
                count_hi=count_hi,
                expected_count=expected,
                membership_probability=min(membership[positions[0]], 1.0),
                slot_probabilities=tuple(min(slot, 1.0) for slot in slots),
            )
        )

    entities.sort(
        key=lambda e: (-e.membership_probability, -e.count_hi, e.positions)
    )
    return entities, pruned
