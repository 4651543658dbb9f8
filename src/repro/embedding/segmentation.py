"""R highest-scoring Top-K answers via segmentation DP (Section 5.3.2).

Records are first arranged linearly (:mod:`repro.embedding.greedy` /
``spectral``); a *grouping* is then any segmentation of that ordering.
For a threshold ``l`` the paper's recurrence builds ``Ans_R(k, i, l)`` —
the R best scores over the first ``i`` records using exactly ``k``
"large" segments (weight > ``l``) with every other segment's weight
<= ``l``; the answer is ``maxR_l Ans_R(K, n, l)``.  The k large segments
of a feasible segmentation are therefore exactly its K largest groups.

Generalizations over the paper's exposition, both needed because our
items are *weighted* collapsed groups rather than unit records:

* segment size is total member weight, and the threshold ``l`` ranges
  over the achievable distinct segment weights (all of them when few;
  an evenly-spaced subsample capped at ``max_thresholds`` otherwise —
  subsampling can only hide candidate answers, never corrupt scores);
* segments are capped at ``max_span`` items and never straddle an
  embedding *break* (the "not considering any cluster including too many
  dissimilar points" speed-up the paper describes).

Scores are the group-decomposable Eq. 2 terms; the whole segment-score
table is O(pairs + n * max_span) NumPy work over a banded score array.
"""

from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import dataclass

import numpy as np

from ..clustering.correlation import ScoreMatrix
from .greedy import LinearEmbedding


@dataclass(frozen=True)
class Segmentation:
    """One scored segmentation of the embedding.

    Attributes:
        segments: ``(start, end)`` inclusive index ranges in embedding
            order, covering 0..n-1.
        big_flags: Parallel to ``segments``; True for the K answer
            ("large") segments.
        score: Total Eq. 2 score of the segmentation.
        threshold: The weight threshold l this segmentation was found at.
    """

    segments: tuple[tuple[int, int], ...]
    big_flags: tuple[bool, ...]
    score: float
    threshold: float


@dataclass(frozen=True)
class TopKAnswer:
    """One of the R highest-scoring Top-K answers.

    Attributes:
        groups: The K answer groups as tuples of *original positions*
            (into the record/group sequence the ScoreMatrix was built
            over), in non-increasing weight order.
        weights: Group weights, parallel to ``groups``.
        score: Best segmentation score supporting this answer.
        n_supporting: Number of enumerated segmentations sharing exactly
            this Top-K answer (distinct small-segment arrangements).
    """

    groups: tuple[tuple[int, ...], ...]
    weights: tuple[float, ...]
    score: float
    n_supporting: int
    log_mass: float | None = None


def auto_max_span(scores: ScoreMatrix, slack: int = 4, cap: int | None = None) -> int:
    """Pick a segment-length cap from the data: no duplicate group can
    outgrow its positive-score connected component, so the largest
    component size (plus *slack*) is a safe span bound.  *cap* optionally
    limits the result for very dense inputs.
    """
    from ..graphs.union_find import UnionFind

    uf = UnionFind(scores.n)
    for i, j, score in scores.scored_pairs():
        if score > 0:
            uf.union(i, j)
    largest = max(
        (uf.component_size(i) for i in range(scores.n)), default=1
    )
    span = largest + slack
    if cap is not None:
        span = min(span, cap)
    return max(span, 1)


class SegmentScoreTable:
    """Eq. 2 scores of every contiguous segment of at most ``max_span``
    items, built with NumPy over a banded score array.

    Accumulation order, fixed so the table is reproducible bit for bit
    (``tests/test_block_scoring.py`` holds it to a plain loop in this
    order):

    * ``neg_all[x]`` — the cross contribution of the singleton ``[x, x]``
      — sums ``-P`` over x's negative scored edges in the score
      matrix's pair order;
    * the edges inside a segment ending at ``b`` are summed nearest
      first (``b-1``, ``b-2``, ...), positive and negative scores in
      separate sums ``pos_in`` and ``neg_in``;
    * a row is then ``table[a][0] = neg_all[a]`` and ``table[a][s] =
      table[a][s-1] + ((2 * pos_in + neg_all[b]) - 2 * neg_in)`` with
      ``b = a + s``.

    Every sum is an ``np.cumsum`` (strictly sequential) or an
    ``np.bincount`` (input order), never ``np.sum``, whose pairwise
    order depends on the array length.
    """

    def __init__(
        self,
        scores: ScoreMatrix,
        embedding: LinearEmbedding,
        max_span: int,
    ):
        if max_span < 1:
            raise ValueError(f"max_span must be >= 1, got {max_span}")
        order = np.asarray(embedding.order, dtype=np.int64)
        n = len(order)
        position = np.empty(scores.n, dtype=np.int64)
        position[order] = np.arange(n, dtype=np.int64)
        first, second, values = scores.pair_arrays()
        i, j = position[first], position[second]
        negative = values < 0
        neg_all = np.bincount(
            np.stack((i, j), axis=1)[negative].ravel(),
            weights=np.repeat(-values[negative], 2),
            minlength=n,
        )
        # No segment is longer than the embedding, so the band is at most
        # n wide.  band[x][d]: the score of the edge (x - d, x), d < width.
        width = max(1, min(max_span, n))
        high = np.maximum(i, j)
        distance = np.abs(i - j)
        near = distance < width
        pos_band = np.zeros((n, width), dtype=np.float64)
        neg_band = np.zeros((n, width), dtype=np.float64)
        near_values = values[near]
        pos_band[high[near], distance[near]] = np.where(
            near_values > 0, near_values, 0.0
        )
        neg_band[high[near], distance[near]] = np.where(
            near_values < 0, -near_values, 0.0
        )
        # Column d of the cumulative bands: the edges of b reaching back
        # at most d items, nearest first.
        np.cumsum(pos_band, axis=1, out=pos_band)
        np.cumsum(neg_band, axis=1, out=neg_band)
        # Row a, column s reads the segment end b = a + s (clipped past
        # the end; those cells are dropped below).
        span = np.arange(width, dtype=np.int64)
        end = np.minimum(np.arange(n, dtype=np.int64)[:, None] + span, n - 1)
        # (2 * pos_in + neg_all[b]) - 2 * neg_in, in place, each band
        # freed once read.
        table = pos_band[end, span]
        del pos_band
        table *= 2.0
        table += neg_all[end]
        neg_in = neg_band[end, span]
        del neg_band, end
        neg_in *= 2.0
        table -= neg_in
        del neg_in
        table[:, 0] = neg_all
        np.cumsum(table, axis=1, out=table)
        # Row a holds the segments [a, a + s] that fit: s < n - a.
        self._table: list[list[float]] = [
            table[a, : n - a].tolist() for a in range(n)
        ]

    def score(self, a: int, b: int) -> float:
        """Eq. 2 score of the inclusive segment [a, b] in embedding order."""
        return self._table[a][b - a]


def _prefix_weights(embedding: LinearEmbedding, weights: list[float]) -> list[float]:
    prefix = [0.0]
    for original in embedding.order:
        prefix.append(prefix[-1] + weights[original])
    return prefix


def _segment_start_limit(embedding: LinearEmbedding, n: int) -> list[int]:
    """For each end index i-1, the smallest allowed segment start.

    A segment may not contain a break at any index other than its own
    start, so the segment ending at e must start at or after the last
    break <= e.
    """
    last_break = 0
    limits = []
    for e in range(n):
        if e in embedding.breaks:
            last_break = e
        limits.append(last_break)
    return limits


def candidate_thresholds(
    embedding: LinearEmbedding,
    weights: list[float],
    max_span: int,
    max_thresholds: int = 32,
    k: int | None = None,
) -> list[float]:
    """Distinct achievable segment weights usable as the DP threshold l.

    Includes 0 (every non-answer record is a singleton below every
    answer group).  Values are kept **exact** — no rounding: the DP
    separates the K-th answer group from the (K+1)-th by a strict
    ``weight > l`` test, so collapsing two near-tie weights into one
    would make the separating threshold unrepresentable and silently
    drop answers.

    When the distinct count exceeds *max_thresholds* an evenly-spaced
    subsample (always keeping the extremes) is returned — plus, when *k*
    is given, the values adjacent to the K-th largest single-position
    weight and to the K-th largest achievable segment weight, so the
    boundary the Top-K answer actually pivots on survives subsampling.
    """
    n = len(embedding.order)
    prefix = _prefix_weights(embedding, weights)
    start_limit = _segment_start_limit(embedding, n)
    values = {0.0}
    for end in range(n):
        lo = max(start_limit[end], end - max_span + 1)
        for start in range(lo, end + 1):
            values.add(prefix[end + 1] - prefix[start])
    ordered = sorted(values)
    if len(ordered) <= max_thresholds:
        return ordered
    step = (len(ordered) - 1) / (max_thresholds - 1)
    picked = {ordered[int(round(idx * step))] for idx in range(max_thresholds)}
    if k is not None and k >= 1:
        pivots = []
        if k <= len(weights):
            pivots.append(sorted(weights, reverse=True)[k - 1])
        if k <= len(ordered):
            pivots.append(ordered[-k])
        for pivot in pivots:
            # Retain the pivot's neighborhood: the threshold that
            # separates the K-th group from a near-tie rival is the
            # achievable value immediately below the K-th weight.
            position = bisect.bisect_left(ordered, pivot)
            for index in (position - 1, position, position + 1):
                if 0 <= index < len(ordered):
                    picked.add(ordered[index])
    return sorted(picked)


def top_r_segmentations(
    scores: ScoreMatrix,
    embedding: LinearEmbedding,
    weights: list[float],
    k: int,
    r: int,
    max_span: int = 30,
    thresholds: list[float] | None = None,
    max_thresholds: int = 32,
) -> list[Segmentation]:
    """Run the Ans_R DP; return the R best segmentations across thresholds.

    Args:
        scores: Pairwise Eq. 2 scores over original positions.
        embedding: Linear arrangement (with breaks) of those positions.
        weights: Weight of each original position (collapsed group size).
        k: Number of large (answer) segments required.
        r: Number of segmentations to return.
        max_span: Maximum items per segment.
        thresholds: Explicit threshold list; computed when None.
        max_thresholds: Cap on auto-computed thresholds.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    n = len(embedding.order)
    if n == 0 or n < k:
        return []
    if len(weights) != scores.n:
        raise ValueError(f"{len(weights)} weights for {scores.n} positions")

    table = SegmentScoreTable(scores, embedding, max_span)
    prefix = _prefix_weights(embedding, weights)
    start_limit = _segment_start_limit(embedding, n)
    if thresholds is None:
        thresholds = candidate_thresholds(
            embedding, weights, max_span, max_thresholds, k=k
        )

    best: list[Segmentation] = []
    seen: set[tuple] = set()
    for threshold in thresholds:
        for segmentation in _dp_for_threshold(
            table, prefix, start_limit, n, k, r, max_span, threshold
        ):
            key = (segmentation.segments, segmentation.big_flags)
            if key in seen:
                continue
            seen.add(key)
            best.append(segmentation)
    # Equal-score segmentations are ordered canonically (by their segment
    # layout), not by threshold-iteration order: the uncertainty layer
    # treats this list as an enumeration of possible worlds, so the cut
    # at r must not depend on which threshold happened to surface a
    # tied segmentation first.
    best.sort(key=_segmentation_order)
    return best[:r]


def _segmentation_order(segmentation: Segmentation) -> tuple:
    """Total order for enumerated segmentations: score descending, then
    the segment layout lexicographically — deterministic under ties."""
    return (
        -segmentation.score,
        segmentation.segments,
        segmentation.big_flags,
    )


def _dp_for_threshold(
    table: SegmentScoreTable,
    prefix: list[float],
    start_limit: list[int],
    n: int,
    k: int,
    r: int,
    max_span: int,
    threshold: float,
) -> list[Segmentation]:
    """One Ans_R(k, i, l) table for a fixed threshold l."""
    # dp[kk][i] = up to r entries (score, prev_i, prev_kk, prev_entry_idx,
    # seg_start); i = items consumed.
    empty: list[tuple] = []
    dp: list[list[list[tuple]]] = [
        [empty for _ in range(n + 1)] for _ in range(k + 1)
    ]
    dp[0][0] = [(0.0, -1, -1, -1, -1)]

    for i in range(1, n + 1):
        end = i - 1
        lo = max(start_limit[end], i - max_span)
        for kk in range(k + 1):
            candidates: list[tuple] = []
            for j in range(lo, i):
                seg_weight = prefix[i] - prefix[j]
                seg_score = table.score(j, end)
                if seg_weight > threshold:
                    source_k = kk - 1
                else:
                    source_k = kk
                if source_k < 0:
                    continue
                for entry_idx, entry in enumerate(dp[source_k][j]):
                    candidates.append(
                        (entry[0] + seg_score, j, source_k, entry_idx, j)
                    )
            if candidates:
                dp[kk][i] = heapq.nlargest(r, candidates, key=lambda e: e[0])
            else:
                dp[kk][i] = empty

    results = []
    for entry_idx, entry in enumerate(dp[k][n]):
        segments, flags = _reconstruct(dp, prefix, threshold, k, n, entry_idx)
        results.append(
            Segmentation(
                segments=segments,
                big_flags=flags,
                score=entry[0],
                threshold=threshold,
            )
        )
    return results


def _reconstruct(
    dp: list[list[list[tuple]]],
    prefix: list[float],
    threshold: float,
    k: int,
    n: int,
    entry_idx: int,
) -> tuple[tuple[tuple[int, int], ...], tuple[bool, ...]]:
    segments: list[tuple[int, int]] = []
    flags: list[bool] = []
    kk, i, idx = k, n, entry_idx
    while i > 0:
        entry = dp[kk][i][idx]
        _, j, prev_k, prev_idx, _ = entry
        segments.append((j, i - 1))
        flags.append(prefix[i] - prefix[j] > threshold)
        kk, i, idx = prev_k, j, prev_idx
    segments.reverse()
    flags.reverse()
    return tuple(segments), tuple(flags)


def top_k_answers(
    scores: ScoreMatrix,
    embedding: LinearEmbedding,
    weights: list[float],
    k: int,
    r: int,
    max_span: int = 30,
    max_thresholds: int = 32,
    oversample: int = 4,
    rank_by: str = "score",
) -> list[TopKAnswer]:
    """Return the R highest-scoring distinct Top-K *answers*.

    Different segmentations that arrange the non-answer records
    differently but agree on the K large groups are the *same* Top-K
    answer; this wrapper enumerates ``r * oversample`` segmentations,
    merges them by answer, and returns the R best (each answer scored by
    its best supporting segmentation, with ``n_supporting`` recording how
    many segmentations agreed).

    ``rank_by="mass"`` additionally computes each answer's Gibbs
    log-mass over all supporting segmentations at its best threshold
    (:func:`answer_log_mass` — the paper's sum-over-groupings answer
    score) and ranks by that instead of the single best score.
    """
    if rank_by not in ("score", "mass"):
        raise ValueError(f"rank_by must be 'score' or 'mass', got {rank_by!r}")
    segmentations = top_r_segmentations(
        scores,
        embedding,
        weights,
        k=k,
        r=r * oversample,
        max_span=max_span,
        max_thresholds=max_thresholds,
    )
    merged: dict[tuple, TopKAnswer] = {}
    best_segmentation: dict[tuple, Segmentation] = {}
    for segmentation in segmentations:
        groups: list[tuple[tuple[int, ...], float]] = []
        for (start, end), is_big in zip(
            segmentation.segments, segmentation.big_flags
        ):
            if not is_big:
                continue
            members = tuple(
                sorted(embedding.order[idx] for idx in range(start, end + 1))
            )
            weight = sum(weights[m] for m in members)
            groups.append((members, weight))
        groups.sort(key=lambda g: (-g[1], g[0]))
        key = tuple(members for members, _ in groups)
        existing = merged.get(key)
        if existing is None:
            merged[key] = TopKAnswer(
                groups=key,
                weights=tuple(weight for _, weight in groups),
                score=segmentation.score,
                n_supporting=1,
            )
            best_segmentation[key] = segmentation
        else:
            if segmentation.score > existing.score:
                best_segmentation[key] = segmentation
            merged[key] = TopKAnswer(
                groups=existing.groups,
                weights=existing.weights,
                score=max(existing.score, segmentation.score),
                n_supporting=existing.n_supporting + 1,
            )

    if rank_by == "mass":
        with_mass = []
        for key, answer in merged.items():
            mass = answer_log_mass(
                scores,
                embedding,
                weights,
                best_segmentation[key],
                max_span=max_span,
            )
            with_mass.append(
                TopKAnswer(
                    groups=answer.groups,
                    weights=answer.weights,
                    score=answer.score,
                    n_supporting=answer.n_supporting,
                    log_mass=mass,
                )
            )
        ranked = sorted(
            with_mass, key=lambda a: (-(a.log_mass or 0.0), a.groups)
        )
    else:
        ranked = sorted(merged.values(), key=lambda a: (-a.score, a.groups))
    return ranked[:r]


def answer_log_mass(
    scores: ScoreMatrix,
    embedding: LinearEmbedding,
    weights: list[float],
    segmentation: Segmentation,
    max_span: int = 30,
    temperature: float = 1.0,
) -> float:
    """Gibbs log-mass of a Top-K answer, summed over its segmentations.

    Section 5 defines the score of a Top-K answer as the *sum* of the
    scores of all groupings whose K largest groups form the answer —
    exponential in general, but tractable over segmentations: fixing the
    answer's big segments, every maximal run of remaining positions can
    be segmented freely into parts of weight <= the answer's threshold,
    and a log-sum-exp dynamic program aggregates
    ``log sum exp(score / temperature)`` over all of them.

    Returns the total log-mass: the fixed big segments' scores plus each
    gap's aggregated log-mass.  Compare masses of answers found at the
    *same* threshold; exponentiating differences gives relative Gibbs
    probabilities.
    """
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    n = len(embedding.order)
    table = SegmentScoreTable(scores, embedding, max_span)
    prefix = _prefix_weights(embedding, weights)
    start_limit = _segment_start_limit(embedding, n)
    threshold = segmentation.threshold

    total = 0.0
    gap_runs: list[tuple[int, int]] = []
    cursor = 0
    for (start, end), is_big in zip(segmentation.segments, segmentation.big_flags):
        if is_big:
            if cursor < start:
                gap_runs.append((cursor, start - 1))
            total += table.score(start, end) / temperature
            cursor = end + 1
    if cursor < n:
        gap_runs.append((cursor, n - 1))

    for gap_start, gap_end in gap_runs:
        total += _gap_log_mass(
            table,
            prefix,
            start_limit,
            gap_start,
            gap_end,
            threshold,
            max_span,
            temperature,
        )
    return total


def _gap_log_mass(
    table: SegmentScoreTable,
    prefix: list[float],
    start_limit: list[int],
    gap_start: int,
    gap_end: int,
    threshold: float,
    max_span: int,
    temperature: float,
) -> float:
    """log sum over segmentations of [gap_start, gap_end] with every
    part's weight <= threshold (and span/break limits)."""
    neg_inf = float("-inf")
    size = gap_end - gap_start + 2
    log_mass = [neg_inf] * size  # index i = positions consumed
    log_mass[0] = 0.0
    for i in range(1, size):
        end = gap_start + i - 1
        lo = max(start_limit[end], end - max_span + 1, gap_start)
        acc = neg_inf
        for j in range(lo, end + 1):
            prev = log_mass[j - gap_start]
            if prev == neg_inf:
                continue
            seg_weight = prefix[end + 1] - prefix[j]
            if threshold >= 0 and seg_weight > threshold:
                continue
            candidate = prev + table.score(j, end) / temperature
            acc = _logaddexp(acc, candidate)
        log_mass[i] = acc
    return log_mass[-1]


def _logaddexp(a: float, b: float) -> float:
    if a == float("-inf"):
        return b
    if b == float("-inf"):
        return a
    if a < b:
        a, b = b, a
    return a + math.log1p(math.exp(b - a))


def best_partition(
    scores: ScoreMatrix,
    embedding: LinearEmbedding,
    max_span: int = 30,
) -> list[list[int]]:
    """Best unconstrained segmentation as a plain partition (Figure 7 mode).

    With no Top-K structure needed (k plays no role), the best grouping
    is the single-threshold DP at l = +inf where every segment is
    "small": a classic 1-D segmentation maximizing total Eq. 2 score.
    Returns groups of original positions, largest first.
    """
    n = len(embedding.order)
    if n == 0:
        return []
    table = SegmentScoreTable(scores, embedding, max_span)
    start_limit = _segment_start_limit(embedding, n)

    neg_inf = float("-inf")
    best_score = [neg_inf] * (n + 1)
    best_prev = [-1] * (n + 1)
    best_score[0] = 0.0
    for i in range(1, n + 1):
        end = i - 1
        lo = max(start_limit[end], i - max_span)
        for j in range(lo, i):
            if best_score[j] == neg_inf:
                continue
            candidate = best_score[j] + table.score(j, end)
            if candidate > best_score[i]:
                best_score[i] = candidate
                best_prev[i] = j
    partition: list[list[int]] = []
    i = n
    while i > 0:
        j = best_prev[i]
        partition.append([embedding.order[idx] for idx in range(j, i)])
        i = j
    partition.sort(key=len, reverse=True)
    return partition
