"""Correlation-clustering scores (Section 5.1, Eq. 1).

A :class:`ScoreMatrix` holds the sparse signed pairwise scores P — only
pairs that passed the necessary predicate (or were otherwise enumerated)
are stored; absent pairs score the ``default`` (0.0: fully uncertain).

:func:`correlation_score` implements Eq. 1 exactly (ordered-pair
convention: within-group positive edges and cross-group negative edges
each count once per endpoint).  :func:`group_score` is the
group-decomposable term ``Group_Score(c, D - c)`` of Eq. 2, which the
segmentation DP sums over segments.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable, Sequence

import numpy as np

from ..core.records import Record
from ..predicates.base import Predicate
from ..predicates.blocking import candidate_pair_arrays
from ..scoring.pairwise import PairwiseScorer


class ScoreMatrix:
    """Sparse symmetric pairwise score storage over positions 0..n-1."""

    def __init__(self, n: int, default: float = 0.0):
        if n < 0:
            raise ValueError(f"n must be non-negative, got {n}")
        self._n = n
        self._default = default
        self._scores: dict[tuple[int, int], float] = {}
        self._adjacency: dict[int, set[int]] = defaultdict(set)

    @property
    def n(self) -> int:
        """Number of items the matrix covers."""
        return self._n

    @property
    def default(self) -> float:
        """Score assumed for pairs that were never evaluated."""
        return self._default

    @property
    def n_scored_pairs(self) -> int:
        """Number of explicitly stored pairs."""
        return len(self._scores)

    @staticmethod
    def _key(i: int, j: int) -> tuple[int, int]:
        return (i, j) if i < j else (j, i)

    def set(self, i: int, j: int, score: float) -> None:
        """Store the score of the unordered pair (i, j)."""
        if i == j:
            raise ValueError(f"self-pair ({i}, {i})")
        if not (0 <= i < self._n and 0 <= j < self._n):
            raise IndexError(f"pair ({i}, {j}) outside range 0..{self._n - 1}")
        self._scores[self._key(i, j)] = score
        self._adjacency[i].add(j)
        self._adjacency[j].add(i)

    def set_pairs(
        self, left: np.ndarray, right: np.ndarray, scores: np.ndarray
    ) -> None:
        """``set(left[t], right[t], scores[t])`` for every *t*, in order."""
        left = np.asarray(left, dtype=np.int64)
        right = np.asarray(right, dtype=np.int64)
        if len(left) == 0:
            return
        if (left == right).any():
            raise ValueError("self-pair in block")
        low = np.minimum(left, right)
        high = np.maximum(left, right)
        if low.min() < 0 or high.max() >= self._n:
            raise IndexError(f"pair outside range 0..{self._n - 1}")
        low = low.tolist()
        high = high.tolist()
        self._scores.update(zip(zip(low, high), np.asarray(scores).tolist()))
        adjacency = self._adjacency
        for i, j in zip(low, high):
            adjacency[i].add(j)
            adjacency[j].add(i)

    def get(self, i: int, j: int) -> float:
        """Return the score of (i, j); the default when never stored."""
        if i == j:
            raise ValueError(f"self-pair ({i}, {i})")
        return self._scores.get((i, j) if i < j else (j, i), self._default)

    def has(self, i: int, j: int) -> bool:
        """Return True when (i, j) was explicitly scored."""
        return self._key(i, j) in self._scores

    def scored_neighbors(self, i: int) -> set[int]:
        """Return positions with an explicit score against *i*."""
        return set(self._adjacency.get(i, ()))

    def scored_pairs(self) -> Iterable[tuple[int, int, float]]:
        """Yield every stored (i, j, score) with i < j."""
        for (i, j), score in self._scores.items():
            yield i, j, score

    def pair_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The stored pairs as ``(i, j, score)`` arrays, i < j, in the
        order :meth:`scored_pairs` yields them."""
        count = len(self._scores)
        ends = np.fromiter(
            (end for pair in self._scores for end in pair),
            dtype=np.int64,
            count=2 * count,
        ).reshape(count, 2)
        scores = np.fromiter(self._scores.values(), dtype=np.float64, count=count)
        return ends[:, 0], ends[:, 1], scores

    @classmethod
    def from_scorer(
        cls,
        records: Sequence[Record],
        scorer: PairwiseScorer,
        necessary: Predicate | None = None,
        default: float = 0.0,
    ) -> "ScoreMatrix":
        """Score all pairs passing *necessary* (or all pairs when None).

        The pairs are scored as one block
        (:meth:`~repro.scoring.pairwise.PairwiseScorer.score_pairs`) and
        stored in ascending ``(i, j)`` order.  Passing ``necessary=None``
        enumerates the full Cartesian set — only sensible for small
        inputs (e.g. the Figure-7 datasets).
        """
        matrix = cls(len(records), default=default)
        if necessary is None:
            left, right = np.triu_indices(len(records), k=1)
        else:
            left, right = candidate_pair_arrays(necessary, records)
        matrix.set_pairs(left, right, scorer.score_pairs(records, left, right))
        return matrix


def correlation_score(
    partition: Sequence[Sequence[int]], scores: ScoreMatrix
) -> float:
    """Eq. 1: agreement of *partition* with the pairwise scores.

    Ordered-pair convention (each within-group positive pair and each
    cross-group negative edge contributes twice overall, once per
    endpoint) — matching the paper's double summation literally.
    Only explicitly scored pairs contribute; unscored pairs carry the
    matrix default of 0 and are neutral.
    """
    member_of: dict[int, int] = {}
    for group_index, group in enumerate(partition):
        for position in group:
            if position in member_of:
                raise ValueError(f"position {position} appears in two groups")
            member_of[position] = group_index

    total = 0.0
    for i, j, score in scores.scored_pairs():
        same = member_of.get(i) is not None and member_of.get(i) == member_of.get(j)
        if same and score > 0:
            total += 2.0 * score
        elif not same and score < 0:
            total -= 2.0 * score
    return total


def group_score(members: Sequence[int], scores: ScoreMatrix) -> float:
    """Eq. 2 term ``Group_Score(c, D - c)`` for the group *members*.

    Within-group positive pairs count twice (ordered pairs); negative
    edges leaving the group count once from this side — summing over all
    groups of a partition reproduces :func:`correlation_score` exactly.
    """
    member_set = set(members)
    total = 0.0
    for i in members:
        for j in scores.scored_neighbors(i):
            score = scores.get(i, j)
            if j in member_set:
                if score > 0:
                    total += score  # ordered pairs: (i,j) and (j,i) both hit
            elif score < 0:
                total -= score
    return total


def partition_score(
    partition: Sequence[Sequence[int]], scores: ScoreMatrix
) -> float:
    """Sum of :func:`group_score` over the groups (equals Eq. 1)."""
    return sum(group_score(group, scores) for group in partition)
