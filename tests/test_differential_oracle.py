"""Differential oracle: the K-exploiting queries vs exhaustive full dedup.

:func:`repro.baselines.full_dedup_pipeline` deduplicates *everything* —
every level's sufficient closure over all records, then (for the count
query) the final pairwise criterion P over the full canopy — with no
bound estimation and no pruning anywhere.  That makes it a slow but
trustworthy ground truth: whatever the pruned pipeline answers must be
derivable from, and consistent with, the oracle's group structure.

For every seed x dataset family this suite checks, per query type:

* ``topk_count_query`` — answer entities are *pure* (each is a subset of
  exactly one oracle P-cluster, so the pipeline never merges records the
  exhaustive pipeline keeps apart), disjoint, and mass-conserving (an
  entity's weight is exactly the sum of its members' record weights,
  never exceeding its oracle cluster).  The pruning phase must retain
  every oracle closure group of Top-K weight with *identical*
  membership — pruning may never split, shrink, or drop a true answer.
* ``topk_rank_query`` — retained groups are subsets of oracle closure
  groups; every closure group heavy enough for the Top-K appears with
  identical membership and weight; the reported Top-K ranking weights
  equal the oracle's Top-K closure weights exactly.
* ``thresholded_rank_query`` — every oracle closure group of weight >= T
  is retained with identical membership and weight; when the query
  reports ``certain``, its >= T answer set matches the oracle's exactly.

The rank query runs the count query's level loop, so for every level the
count query ran it must also report the same (n, m, M, n', certified).

Each check also re-runs the query under a generous
:class:`~repro.core.resilience.ExecutionPolicy` (nothing should degrade
at test scale) and requires the guarded answer to be bit-identical to
the unguarded one — resilience plumbing must not perturb answers.
"""

import pytest

from repro.baselines import full_dedup_pipeline
from repro.core.pruned_dedup import pruned_dedup
from repro.core.rank_query import thresholded_rank_query, topk_rank_query
from repro.core.records import group_fingerprint
from repro.core.resilience import ExecutionPolicy, guard_levels
from repro.core.topk import topk_count_query
from repro.core.verification import PipelineCounters
from repro.experiments.harness import (
    address_pipeline,
    citation_pipeline,
    student_pipeline,
    train_scorer_for,
)
from repro.predicates.blocking import NeighborIndex
from tests.conftest import vectorize_mode

K = 5
N_RECORDS = 300
SEEDS = tuple(range(20))
DATASETS = ("citations", "students", "addresses")

#: Generous enough that no stage can plausibly hit it at test scale:
#: the policy arms all the guard plumbing without ever firing.
GENEROUS_POLICY = ExecutionPolicy(deadline_seconds=300.0)

# One pipeline (and one oracle run) per seed x family, shared by the
# three query-type tests — the fixtures dominate the suite's cost.
_pipelines: dict = {}
_closures: dict = {}


def pipeline_for(kind: str, seed: int):
    """Return (store, levels, scorer) for one seed of one family."""
    key = (kind, seed)
    if key not in _pipelines:
        if kind == "citations":
            p = citation_pipeline(
                n_records=N_RECORDS, seed=seed, with_scorer=True
            )
            scorer = p.scorer
        elif kind == "students":
            p = student_pipeline(n_records=N_RECORDS, seed=seed)
            scorer = train_scorer_for(p.dataset, "name", p.levels, seed=seed)
        else:
            p = address_pipeline(
                n_records=N_RECORDS, seed=seed, with_scorer=True
            )
            scorer = p.scorer
        _pipelines[key] = (p.store, p.levels, scorer)
    return _pipelines[key]


def closure_groups(kind: str, seed: int) -> dict[frozenset, float]:
    """Oracle sufficient-closure groups as {member-id-set: weight}."""
    key = (kind, seed)
    if key not in _closures:
        store, levels, _ = pipeline_for(kind, seed)
        outcome = full_dedup_pipeline(store, K, levels)
        _closures[key] = {
            frozenset(g.member_ids): g.weight for g in outcome.groups.groups
        }
    return _closures[key]


def kth_weight(closure: dict[frozenset, float]) -> float:
    weights = sorted(closure.values(), reverse=True)
    return weights[min(K, len(weights)) - 1]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind", DATASETS)
class TestTopKCountQuery:
    def test_matches_full_dedup_oracle(self, kind, seed):
        store, levels, scorer = pipeline_for(kind, seed)
        oracle = full_dedup_pipeline(store, K, levels, scorer)
        oracle_clusters = {
            frozenset(g.member_ids): g.weight for g in oracle.groups.groups
        }
        result = topk_count_query(store, K, levels, scorer)
        assert not result.degraded

        entities = [
            (frozenset(e.record_ids), e.weight) for e in result.best.entities
        ]
        assert entities, "count query returned no answer entities"
        seen: set[int] = set()
        for members, weight in entities:
            homes = [o for o in oracle_clusters if members <= o]
            assert len(homes) == 1, (
                f"answer entity straddles {len(homes)} oracle clusters"
            )
            assert weight <= oracle_clusters[homes[0]] + 1e-9
            assert weight == pytest.approx(
                sum(store[i].weight for i in members)
            )
            assert not (members & seen), "answer entities overlap"
            seen |= members

        # Pruning must have kept every closure group heavy enough for
        # the Top-K, bit-for-bit: same members, nothing split off.
        closure = closure_groups(kind, seed)
        bar = kth_weight(closure)
        retained = {
            frozenset(g.member_ids) for g in result.pruning.groups
        }
        for members, weight in closure.items():
            if weight >= bar:
                assert members in retained, (
                    f"pruning lost/split a weight-{weight} oracle group "
                    f"(Top-K bar {bar})"
                )

    def test_policy_run_identical(self, kind, seed):
        store, levels, scorer = pipeline_for(kind, seed)
        plain = topk_count_query(store, K, levels, scorer)
        guarded = topk_count_query(
            store, K, levels, scorer, policy=GENEROUS_POLICY
        )
        assert not guarded.degraded
        assert [
            [(e.record_ids, e.weight) for e in a.entities]
            for a in guarded.answers
        ] == [
            [(e.record_ids, e.weight) for e in a.entities]
            for a in plain.answers
        ]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind", DATASETS)
class TestTopKRankQuery:
    def test_matches_full_dedup_oracle(self, kind, seed):
        store, levels, _ = pipeline_for(kind, seed)
        closure = closure_groups(kind, seed)
        result = topk_rank_query(store, K, levels)
        assert not result.degraded

        retained = {
            frozenset(g.member_ids): g.weight for g in result.groups.groups
        }
        for members in retained:
            assert any(members <= o for o in closure), (
                "rank query fabricated a group no oracle closure contains"
            )
        bar = kth_weight(closure)
        for members, weight in closure.items():
            if weight >= bar:
                assert retained.get(members) == weight

        weights = [entry.weight for entry in result.ranking]
        assert weights == sorted(weights, reverse=True)
        oracle_topk = sorted(closure.values(), reverse=True)[:K]
        assert weights[: len(oracle_topk)] == oracle_topk

    def test_policy_run_identical(self, kind, seed):
        store, levels, _ = pipeline_for(kind, seed)
        plain = topk_rank_query(store, K, levels)
        guarded = topk_rank_query(store, K, levels, policy=GENEROUS_POLICY)
        assert not guarded.degraded
        assert guarded.ranking == plain.ranking
        assert [g.member_ids for g in guarded.groups.groups] == [
            g.member_ids for g in plain.groups.groups
        ]


def level_row(stats) -> tuple:
    """A level's Figures 2-4 row: (n, m, M, n', certified)."""
    return (
        stats.level_name,
        stats.n_groups_after_collapse,
        stats.m,
        stats.bound,
        stats.n_groups_after_prune,
        stats.certified,
    )


@pytest.mark.parametrize("k", (1, 5, 10, 50))
@pytest.mark.parametrize("seed", (0, 1, 2))
@pytest.mark.parametrize("kind", DATASETS)
def test_rank_query_levels_match_count_query(kind, seed, k):
    # The rank query runs the count query's level loop, only with every
    # u_i materialized and no early stop: each level the count query
    # ran must read the same in both.
    store, levels, _ = pipeline_for(kind, seed)
    count = pruned_dedup(store, k, levels)
    rank = topk_rank_query(store, k, levels)
    assert count.stats
    assert [level_row(s) for s in rank.stats[: len(count.stats)]] == [
        level_row(s) for s in count.stats
    ]
    assert len(rank.stats) == len(levels)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind", DATASETS)
class TestThresholdedRankQuery:
    def threshold(self, kind, seed) -> float:
        return kth_weight(closure_groups(kind, seed))

    def test_matches_full_dedup_oracle(self, kind, seed):
        store, levels, _ = pipeline_for(kind, seed)
        closure = closure_groups(kind, seed)
        threshold = self.threshold(kind, seed)
        result = thresholded_rank_query(store, threshold, levels)
        assert not result.degraded

        retained = {
            frozenset(g.member_ids): g.weight for g in result.groups.groups
        }
        for members in retained:
            assert any(members <= o for o in closure)
        oracle_answer = {
            members for members, weight in closure.items()
            if weight >= threshold
        }
        for members in oracle_answer:
            assert retained.get(members) == closure[members]
        if result.certain:
            got_answer = {
                members
                for members, weight in retained.items()
                if weight >= threshold
            }
            assert got_answer == oracle_answer

    def test_policy_run_identical(self, kind, seed):
        store, levels, _ = pipeline_for(kind, seed)
        threshold = self.threshold(kind, seed)
        plain = thresholded_rank_query(store, threshold, levels)
        guarded = thresholded_rank_query(
            store, threshold, levels, policy=GENEROUS_POLICY
        )
        assert not guarded.degraded
        assert guarded.ranking == plain.ranking
        assert guarded.certain == plain.certain


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind", DATASETS)
class TestVectorizedPathIdentity:
    """Scalar vs vectorized: bit-identical answers.

    The vectorized batch hot path (``REPRO_VECTORIZE``) is a pure
    execution strategy — every seeded dataset must produce byte-for-byte
    the same groups and weights whichever path runs.
    """

    def test_scalar_vectorized_identical(self, kind, seed):
        store, levels, _ = pipeline_for(kind, seed)
        threshold = kth_weight(closure_groups(kind, seed))
        answers = {}
        for vectorized in (False, True):
            with vectorize_mode(vectorized):
                answers[vectorized] = (
                    pruned_dedup(store, K, levels),
                    topk_rank_query(store, K, levels),
                    thresholded_rank_query(store, threshold, levels),
                )
        (scalar, scalar_rank, scalar_above) = answers[False]
        (result, rank, above) = answers[True]
        assert group_fingerprint(result.groups) == group_fingerprint(
            scalar.groups
        ), (kind, seed)
        assert result.groups.weights() == scalar.groups.weights()
        assert rank.ranking == scalar_rank.ranking
        assert rank.certain == scalar_rank.certain
        assert group_fingerprint(rank.groups) == group_fingerprint(
            scalar_rank.groups
        )
        assert above.ranking == scalar_above.ranking
        assert above.certain == scalar_above.certain

    def test_guarded_vectorized_identical(self, kind, seed):
        # A clean policy-armed run keeps the vectorized kernels (the
        # guard forwards them with per-block containment) and must
        # answer exactly what the unguarded scalar reference answers,
        # for every query type.
        store, levels, _ = pipeline_for(kind, seed)
        threshold = kth_weight(closure_groups(kind, seed))
        policy = ExecutionPolicy()
        with vectorize_mode(False):
            count = pruned_dedup(store, K, levels)
            rank = topk_rank_query(store, K, levels)
            above = thresholded_rank_query(store, threshold, levels)
        with vectorize_mode(True):
            guarded = guard_levels(levels, policy.start(PipelineCounters()))
            for level in guarded:
                index = NeighborIndex(level.necessary, list(store))
                assert index.batch_engine is not None, level.name
            got = pruned_dedup(store, K, levels, policy=policy)
            assert not got.degraded
            assert group_fingerprint(got.groups) == group_fingerprint(
                count.groups
            ), (kind, seed)
            assert got.groups.weights() == count.groups.weights()
            got_rank = topk_rank_query(store, K, levels, policy=policy)
            assert not got_rank.degraded
            assert got_rank.ranking == rank.ranking
            assert got_rank.certain == rank.certain
            assert group_fingerprint(got_rank.groups) == group_fingerprint(
                rank.groups
            )
            got_above = thresholded_rank_query(
                store, threshold, levels, policy=policy
            )
            assert not got_above.degraded
            assert got_above.ranking == above.ranking
            assert got_above.certain == above.certain

    def test_count_query_identical(self, kind, seed):
        store, levels, scorer = pipeline_for(kind, seed)
        with vectorize_mode(False):
            scalar = topk_count_query(store, K, levels, scorer)
        with vectorize_mode(True):
            vectorized = topk_count_query(store, K, levels, scorer)
        assert [
            [(e.record_ids, e.weight) for e in a.entities]
            for a in vectorized.answers
        ] == [
            [(e.record_ids, e.weight) for e in a.entities]
            for a in scalar.answers
        ]
