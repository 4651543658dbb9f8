"""Brute-force verification of the Ans_R segmentation DP.

Enumerates every segmentation of small orderings directly and checks the
DP returns exactly the R best valid (threshold-consistent) ones.
"""

import itertools

import numpy as np
import pytest

from repro.clustering.correlation import ScoreMatrix, group_score
from repro.embedding.greedy import LinearEmbedding
from repro.embedding.segmentation import top_r_segmentations


def random_matrix(n: int, seed: int) -> ScoreMatrix:
    rng = np.random.default_rng(seed)
    m = ScoreMatrix(n)
    for i in range(n):
        for j in range(i + 1, n):
            m.set(i, j, float(rng.normal()))
    return m


def enumerate_segmentations(n: int):
    """Yield every segmentation of positions 0..n-1 as (start, end) lists."""
    for r in range(n):
        for cuts in itertools.combinations(range(1, n), r):
            bounds = [0, *cuts, n]
            yield [
                (bounds[i], bounds[i + 1] - 1) for i in range(len(bounds) - 1)
            ]


def brute_force_topk_segmentations(
    scores: ScoreMatrix, weights: list[float], k: int
):
    """All (segments, big_flags, score) with exactly k strictly-largest
    segments under some threshold, ranked by score."""
    n = scores.n
    results = {}
    for segments in enumerate_segmentations(n):
        seg_weights = [
            sum(weights[i] for i in range(start, end + 1))
            for start, end in segments
        ]
        score = sum(
            group_score(list(range(start, end + 1)), scores)
            for start, end in segments
        )
        ordered = sorted(seg_weights, reverse=True)
        if len(ordered) < k:
            continue
        # A threshold l with exactly k segments > l exists iff the k-th
        # largest weight strictly exceeds the (k+1)-th.
        if len(ordered) > k and ordered[k - 1] == ordered[k]:
            continue
        threshold = ordered[k] if len(ordered) > k else 0.0
        flags = tuple(w > threshold for w in seg_weights)
        results[(tuple(segments), flags)] = score
    return sorted(results.items(), key=lambda kv: -kv[1])


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("k", [1, 2])
def test_dp_matches_brute_force(seed, k):
    n = 6
    scores = random_matrix(n, seed)
    weights = [1.0 + (i % 3) for i in range(n)]
    embedding = LinearEmbedding(order=list(range(n)), breaks={0})

    brute = brute_force_topk_segmentations(scores, weights, k)
    if not brute:
        return
    dp = top_r_segmentations(
        scores, embedding, weights, k=k, r=4, max_span=n, max_thresholds=200
    )
    assert dp, f"seed={seed} k={k}: DP empty but brute force found answers"
    # Top score must match exactly.
    assert dp[0].score == pytest.approx(brute[0][1]), (seed, k)
    # Every DP answer must appear in the brute-force ranking with the
    # same score.
    brute_scores = {key: score for key, score in brute}
    for segmentation in dp:
        key = (segmentation.segments, segmentation.big_flags)
        assert key in brute_scores, (seed, k, key)
        assert segmentation.score == pytest.approx(brute_scores[key])
    # The i-th DP score matches the i-th brute-force score (the DP may
    # order ties differently, scores must agree rank-wise).
    for i, segmentation in enumerate(dp):
        assert segmentation.score == pytest.approx(brute[i][1]), (seed, k, i)


@pytest.mark.parametrize("seed", range(3))
def test_fast_r1_path_matches_full_dp_weights(seed):
    """topk_count_query's r=1 fast path must return the same K largest
    weights as running the full machinery (scores permitting)."""
    from repro.core.topk import topk_count_query
    from repro.predicates.base import PredicateLevel
    from repro.scoring.pairwise import WeightedScorer
    from repro.similarity.vectorize import name_only_featurizer
    from tests.conftest import exact_name_predicate, make_store, shared_word_predicate

    rng = np.random.default_rng(seed)
    names = []
    for entity in range(6):
        count = int(rng.integers(1, 7))
        names.extend([f"entity{entity} tag{entity}"] * count)
    store = make_store(names)
    levels = [PredicateLevel(exact_name_predicate(), shared_word_predicate())]
    featurizer = name_only_featurizer()
    scorer = WeightedScorer(
        featurizer, [2.0, 2.0, 1.0, 1.0, 2.0], bias=-3.5
    )
    fast = topk_count_query(store, 2, levels, scorer, r=1, label_field="name")
    full = topk_count_query(store, 2, levels, scorer, r=2, label_field="name")
    fast_weights = [e.weight for e in fast.best.entities]
    full_weights = [e.weight for e in full.best.entities]
    if not fast.exact and not full.exact:
        assert fast_weights == full_weights
