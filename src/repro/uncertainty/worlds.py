"""Possible dedup worlds derived from the R-best segmentation enumerator.

Section 5's machinery already produces the R highest-scoring
segmentations of the embedded record line; the uncertainty layer treats
each of them as one *possible world*: a full partition of the collapsed
groups plus the identity of its "big" (top-K) segments.  This module
converts segmentations into a normalized :class:`World` representation
and assigns each world a probability mass via the same Gibbs weighting
(``exp(score / T)``) the count-query layer uses for its probability
column.

Worlds are kept in a canonical total order — score descending, then the
cluster layout lexicographically — so every downstream aggregation is
deterministic even under exact score ties.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..embedding.greedy import LinearEmbedding
from ..embedding.segmentation import Segmentation, top_r_segmentations
from ..clustering.correlation import ScoreMatrix
from ..scoring.gibbs import default_temperature, gibbs_probabilities

__all__ = [
    "World",
    "world_from_segmentation",
    "world_from_partition",
    "enumerate_worlds",
    "world_masses",
]


@dataclass(frozen=True)
class World:
    """One fully-resolved deduplication outcome.

    ``clusters`` partitions the base positions ``0..n-1`` (collapsed
    group indices); clusters are ordered canonically by weight
    descending then members lexicographically, and the first ``n_top``
    of them are this world's top-K entities.
    """

    clusters: tuple[tuple[int, ...], ...]
    weights: tuple[float, ...]
    n_top: int
    score: float

    def top_positions(self) -> set[int]:
        """Positions that belong to a top-K cluster in this world."""
        members: set[int] = set()
        for index in range(self.n_top):
            members.update(self.clusters[index])
        return members

    def sort_key(self) -> tuple:
        return (-self.score, self.clusters)


def _canonical_clusters(
    groups: Sequence[Sequence[int]], weights: Sequence[float]
) -> tuple[tuple[tuple[int, ...], ...], tuple[float, ...]]:
    entries = []
    for members in groups:
        cluster = tuple(sorted(members))
        entries.append((cluster, sum(weights[m] for m in cluster)))
    entries.sort(key=lambda entry: (-entry[1], entry[0]))
    return (
        tuple(cluster for cluster, _ in entries),
        tuple(weight for _, weight in entries),
    )


def world_from_segmentation(
    segmentation: Segmentation,
    embedding: LinearEmbedding,
    weights: Sequence[float],
) -> World:
    """Convert a DP segmentation (over embedded slots) to a world over
    the original positions."""
    groups = []
    for start, end in segmentation.segments:
        groups.append([embedding.order[i] for i in range(start, end + 1)])
    clusters, cluster_weights = _canonical_clusters(groups, weights)
    n_top = sum(1 for flag in segmentation.big_flags if flag)
    # Big segments have weight strictly above the threshold and small
    # ones at or below it, so the canonical weight-descending order puts
    # every big cluster first; n_top is therefore a prefix length.
    return World(
        clusters=clusters,
        weights=cluster_weights,
        n_top=n_top,
        score=segmentation.score,
    )


def world_from_partition(
    partition: Sequence[Sequence[int]],
    weights: Sequence[float],
    k: int,
    score: float,
) -> World:
    """Build a world from an unconstrained partition (fallback path when
    the threshold DP yields no valid Top-K segmentation).  The top-K
    boundary follows the canonical cluster order."""
    clusters, cluster_weights = _canonical_clusters(partition, weights)
    return World(
        clusters=clusters,
        weights=cluster_weights,
        n_top=min(k, len(clusters)),
        score=score,
    )


def enumerate_worlds(
    scores: ScoreMatrix,
    embedding: LinearEmbedding,
    weights: Sequence[float],
    k: int,
    r: int,
    *,
    max_span: int = 30,
    max_thresholds: int = 32,
) -> list[World]:
    """Enumerate up to *r* highest-scoring worlds, canonically ordered.

    A thin wrapper over :func:`top_r_segmentations`; the DP's output is
    already deterministic under ties, and the returned list for a
    smaller ``r`` is a prefix of the list for a larger ``r`` whenever
    the enumerated scores are distinct.
    """
    segmentations = top_r_segmentations(
        scores,
        embedding,
        list(weights),
        k,
        r,
        max_span=max_span,
        max_thresholds=max_thresholds,
    )
    worlds = [
        world_from_segmentation(seg, embedding, weights)
        for seg in segmentations
    ]
    worlds.sort(key=World.sort_key)
    return worlds


def world_masses(
    worlds: Sequence[World], temperature: float | None = None
) -> tuple[list[float], float]:
    """Normalized Gibbs mass ``exp(score / T)`` per world.

    Masses sum to 1 over the *enumerated* set: the uncertainty layer
    conditions on the R worlds it can see, exactly as the paper's R-best
    answers renormalize over the enumerated segmentations.  Returns the
    masses (parallel to ``worlds``) and the temperature used.
    """
    if not worlds:
        return [], temperature if temperature is not None else 1.0
    scores = [world.score for world in worlds]
    if temperature is None:
        temperature = default_temperature(scores)
    masses = gibbs_probabilities(scores, temperature=temperature)
    return [float(mass) for mass in masses], temperature
