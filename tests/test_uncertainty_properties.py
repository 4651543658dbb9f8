"""Property-based tests (hypothesis) for the uncertainty layer.

The invariants proved here are the ones the answer contract in
``docs/uncertainty.md`` promises unconditionally:

* world enumeration is canonically ordered, and for distinct world
  scores the R-best list is a prefix of any larger enumeration — so
  intervals *nest* as R grows;
* membership probabilities live in [0, 1], per-rank slot mass sums to
  at most 1 across entities, and an entity's slot mass never exceeds
  its membership mass;
* the Bernecker-style membership bound is answer-preserving: pruned and
  unpruned aggregation report bit-identical entities;
* a single enumerated world collapses every interval to a point;
* the query is bit-identical across record-store backends, like every
  other query in the engine.
"""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.clustering.correlation import ScoreMatrix
from repro.clustering.exact import exact_topk_answers
from repro.cli import generic_levels, generic_scorer
from repro.core.incremental import IncrementalTopK
from repro.core.records import RecordStore
from repro.core.verification import VerificationContext
from repro.datasets import (
    author_idf,
    author_string_idf,
    generate_citations,
    suggest_min_idf,
)
from repro.embedding.greedy import LinearEmbedding
from repro.embedding.segmentation import top_r_segmentations
from repro.experiments.harness import train_scorer_for
from repro.observability import MetricsRegistry
from repro.predicates import citation_levels
from repro.uncertainty import (
    World,
    aggregate_worlds,
    enumerate_worlds,
    membership_probabilities,
    topk_interval_query,
    world_masses,
)

TOL = 1e-9

finite_scores = st.floats(
    min_value=-5.0, max_value=5.0, allow_nan=False, width=32
)


@st.composite
def world_models(draw, max_n=6):
    """A dense random (scores, embedding, weights, k) world model."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    scores = ScoreMatrix(n)
    for i in range(n):
        for j in range(i + 1, n):
            scores.set(i, j, draw(finite_scores))
    weights = [
        draw(st.floats(min_value=0.5, max_value=4.0, width=32))
        for _ in range(n)
    ]
    k = draw(st.integers(min_value=1, max_value=min(2, n)))
    embedding = LinearEmbedding(order=list(range(n)), breaks=set())
    return scores, embedding, weights, k


def _envelopes(worlds, weights, k):
    """position -> (count_lo, count_hi) under uniform-temperature mass."""
    masses, _ = world_masses(worlds, temperature=1.0)
    entities, _ = aggregate_worlds(worlds, masses, weights, k)
    return {
        position: (entity.count_lo, entity.count_hi)
        for entity in entities
        for position in entity.positions
    }


class TestWorldEnumeration:
    @given(world_models())
    @settings(max_examples=60, deadline=None)
    def test_prefix_nesting_and_interval_monotonicity(self, model):
        scores, embedding, weights, k = model
        full = enumerate_worlds(
            scores, embedding, weights, k, 64, max_thresholds=256
        )
        assume(full)
        # Exact score ties at the DP's per-cell r-boundary can legally
        # reshuffle which tied world survives a smaller enumeration; the
        # prefix property is only promised for distinct scores.
        world_scores = [world.score for world in full]
        assume(len(set(world_scores)) == len(world_scores))
        wide = _envelopes(full, weights, k)
        for r in (1, 2, 4):
            sub = enumerate_worlds(
                scores, embedding, weights, k, r, max_thresholds=256
            )
            assert sub == full[: len(sub)]
            for position, (lo, hi) in _envelopes(sub, weights, k).items():
                if position in wide:
                    assert lo >= wide[position][0] - TOL
                    assert hi <= wide[position][1] + TOL

    @given(world_models())
    @settings(max_examples=60, deadline=None)
    def test_canonical_order(self, model):
        scores, embedding, weights, k = model
        worlds = enumerate_worlds(
            scores, embedding, weights, k, 32, max_thresholds=64
        )
        assert worlds == sorted(worlds, key=World.sort_key)
        for world in worlds:
            assert world.clusters == tuple(
                sorted(
                    world.clusters,
                    key=lambda c: (
                        -sum(weights[m] for m in c),
                        c,
                    ),
                )
            )
            covered = sorted(m for c in world.clusters for m in c)
            assert covered == list(range(len(weights)))


class TestAggregation:
    @given(world_models())
    @settings(max_examples=60, deadline=None)
    def test_probability_bounds(self, model):
        scores, embedding, weights, k = model
        worlds = enumerate_worlds(
            scores, embedding, weights, k, 16, max_thresholds=64
        )
        assume(worlds)
        masses, temperature = world_masses(worlds)
        assert temperature >= 1.0
        assert math.fsum(masses) == pytest.approx(1.0, abs=1e-9)
        entities, pruned = aggregate_worlds(worlds, masses, weights, k)
        assert pruned == 0  # no threshold, nothing to cut
        slot_totals = [0.0] * k
        for entity in entities:
            assert -TOL <= entity.membership_probability <= 1.0 + TOL
            assert entity.count_lo <= entity.expected_count + TOL
            assert entity.expected_count <= entity.count_hi + TOL
            assert len(entity.slot_probabilities) == k
            assert (
                sum(entity.slot_probabilities)
                <= entity.membership_probability + TOL
            )
            for slot, mass in enumerate(entity.slot_probabilities):
                assert mass >= -TOL
                slot_totals[slot] += mass
        for total in slot_totals:
            assert total <= 1.0 + TOL

    @given(world_models(), st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=60, deadline=None)
    def test_pruning_is_answer_preserving(self, model, min_probability):
        scores, embedding, weights, k = model
        worlds = enumerate_worlds(
            scores, embedding, weights, k, 16, max_thresholds=64
        )
        assume(worlds)
        masses, _ = world_masses(worlds)
        pruned_entities, _ = aggregate_worlds(
            worlds, masses, weights, k,
            min_probability=min_probability, prune=True,
        )
        plain_entities, zero = aggregate_worlds(
            worlds, masses, weights, k,
            min_probability=min_probability, prune=False,
        )
        assert zero == 0
        assert pruned_entities == plain_entities  # bit-identical

    @given(world_models())
    @settings(max_examples=60, deadline=None)
    def test_single_world_collapses_to_points(self, model):
        scores, embedding, weights, k = model
        worlds = enumerate_worlds(
            scores, embedding, weights, k, 1, max_thresholds=64
        )
        assume(worlds)
        entities, _ = aggregate_worlds(worlds, [1.0], weights, k)
        for entity in entities:
            assert entity.count_lo == entity.count_hi
            assert entity.expected_count == entity.count_lo
            assert entity.membership_probability == pytest.approx(1.0)


NAMES = [
    "ann lee", "ann  lee", "an lee",
    "bob roy", "bob roi", "bobb roy",
    "carol day", "carol  day",
    "dave kim", "dave kimm", "erin poe", "erin po",
]


def _name_store() -> RecordStore:
    return RecordStore.from_rows([{"name": name} for name in NAMES])


def _engine(store_kind: str) -> IncrementalTopK:
    engine = IncrementalTopK(
        generic_levels("name", 0.3),
        scorer=generic_scorer("name", -3.0),
        store=store_kind,
    )
    for name in NAMES:
        engine.add({"name": name}, 1.0)
    return engine


def _comparable(result):
    """Everything the answer contract covers (the pruning trace aside)."""
    return (
        result.entities,
        result.k,
        result.worlds_requested,
        result.worlds_enumerated,
        result.temperature,
        result.min_probability,
        result.pruned_candidates,
        result.exact,
        result.degraded,
    )


class TestEngineBitIdentity:
    def test_store_kinds_agree(self):
        results = []
        for kind in ("memory", "columnar"):
            engine = _engine(kind)
            try:
                results.append(engine.query(2, kind="interval", r=8))
            finally:
                engine.close()
        assert _comparable(results[0]) == _comparable(results[1])

    def test_snapshot_cache_returns_identical_answer(self):
        engine = _engine("memory")
        try:
            first = engine.query(2, kind="interval", r=8)
            second = engine.query(2, kind="interval", r=8)
            assert second is first  # generation unchanged: cached
            engine.add({"name": "fred moon"}, 1.0)
            third = engine.query(2, kind="interval", r=8)
            assert third is not first
        finally:
            engine.close()


class TestCertifiedExact:
    def test_few_groups_collapse_exactly(self):
        store = RecordStore.from_rows(
            [{"name": name} for name in
             ["ann", "ann", "ann", "bob", "bob", "cara"]]
        )
        result = topk_interval_query(
            store, 3,
            generic_levels("name", 0.3),
            generic_scorer("name", -3.0),
            r=8,
            label_field="name",
        )
        assert result.exact
        assert result.collapsed
        assert result.worlds_enumerated == 1
        assert len(result.entities) == 3
        for entity in result.entities:
            assert entity.count_lo == entity.count_hi
            assert entity.membership_probability == pytest.approx(1.0)
            assert sorted(entity.slot_probabilities, reverse=True)[0] == (
                pytest.approx(1.0)
            )
            assert sum(entity.slot_probabilities) == pytest.approx(1.0)


class TestTieDeterminism:
    """Regression: deliberately tied scores must enumerate canonically."""

    def _flat_model(self, n=5):
        scores = ScoreMatrix(n)  # all pairs at the 0.0 default: all tied
        weights = [1.0] * n
        embedding = LinearEmbedding(order=list(range(n)), breaks=set())
        return scores, embedding, weights

    def test_top_r_segmentations_order_is_threshold_invariant(self):
        scores, embedding, weights = self._flat_model()
        thresholds = [0.0, 1.0, 2.0, 3.0]
        forward = top_r_segmentations(
            scores, embedding, weights, 1, 16, thresholds=thresholds
        )
        backward = top_r_segmentations(
            scores, embedding, weights, 1, 16,
            thresholds=list(reversed(thresholds)),
        )
        # The recorded provenance threshold may differ (any threshold
        # that surfaced the tied layout first); the enumerated worlds —
        # layout, flags, score, and order — must not.
        layout = lambda s: (s.segments, s.big_flags, s.score)  # noqa: E731
        assert [layout(s) for s in forward] == [layout(s) for s in backward]
        keys = [(-s.score, s.segments, s.big_flags) for s in forward]
        assert keys == sorted(keys)

    def test_tied_worlds_enumerate_canonically(self):
        scores, embedding, weights = self._flat_model()
        worlds = enumerate_worlds(
            scores, embedding, weights, 1, 16, max_thresholds=64
        )
        assert worlds == sorted(worlds, key=World.sort_key)
        assert len({world.sort_key() for world in worlds}) == len(worlds)

    def test_exact_topk_answers_canonical_under_ties(self):
        scores = ScoreMatrix(4)  # every partition scores 0.0
        answers = exact_topk_answers(scores, [1.0] * 4, 1, 8)
        keys = [(-best, groups) for groups, best, _ in answers]
        assert keys == sorted(keys)


class TestPruningAtScale:
    def test_bench_scale_prunes_and_publishes_metrics(self):
        dataset = generate_citations(n_records=200, seed=0)
        metrics = MetricsRegistry()
        context = VerificationContext(metrics=metrics)
        levels = generic_levels("author", 0.3)
        scorer = generic_scorer("author", -3.0)
        result = topk_interval_query(
            dataset.store, 3, levels, scorer,
            r=32, min_probability=0.3, context=context,
        )
        assert result.pruned_candidates > 0
        assert metrics.value("repro_probabilistic_prunes_total") == (
            result.pruned_candidates
        )
        assert metrics.value("repro_worlds_enumerated_total") == (
            result.worlds_enumerated
        )
        assert metrics.value("repro_queries_total", kind="interval") == 1.0

    def test_bench_scale_pruning_is_answer_preserving(self):
        dataset = generate_citations(n_records=200, seed=0)
        levels = generic_levels("author", 0.3)
        scorer = generic_scorer("author", -3.0)
        kwargs = dict(r=32, min_probability=0.3)
        pruned = topk_interval_query(dataset.store, 3, levels, scorer, **kwargs)
        plain = topk_interval_query(
            dataset.store, 3, levels, scorer, prune=False, **kwargs
        )
        assert pruned.entities == plain.entities
        assert pruned.pruned_candidates > 0
        assert plain.pruned_candidates == 0


class TestProbabilityCeiling:
    def test_probabilities_never_exceed_one(self):
        """Summed world masses can land an ulp above 1: on this corpus
        (K=5, R=8) five entities read 1.0000000000000002 as membership
        and as slot mass before both were clamped."""
        dataset = generate_citations(1500, seed=1)
        idf = author_idf(dataset.store)
        levels = citation_levels(
            idf,
            suggest_min_idf(idf),
            anchor_idf=author_string_idf(dataset.store),
        )
        scorer = train_scorer_for(dataset, "citation", levels, seed=1)
        result = topk_interval_query(dataset.store, 5, levels, scorer, r=8)
        assert result.entities
        for entity in result.entities:
            assert entity.membership_probability <= 1.0
            assert all(slot <= 1.0 for slot in entity.slot_probabilities)
        assert any(
            entity.membership_probability == 1.0 for entity in result.entities
        )


class TestPolicyAndProjections:
    def test_membership_probabilities_projection(self):
        store = _name_store()
        levels = generic_levels("name", 0.3)
        scorer = generic_scorer("name", -3.0)
        result = topk_interval_query(store, 2, levels, scorer, r=8)
        projection = membership_probabilities(store, 2, levels, scorer, r=8)
        assert projection == {
            entity.representative_id: entity.membership_probability
            for entity in result.entities
        }

    def test_scoring_stage_deadline_degrades_explicitly(self):
        """A deadline that survives pruning but expires while the world
        model is scored still yields an answer: flagged degraded, every
        interval spanning certified weight up to the retained total."""
        import time

        from repro.core.resilience import ExecutionPolicy
        from repro.scoring.pairwise import PairwiseScorer

        class SlowScorer(PairwiseScorer):
            def score(self, a, b):
                time.sleep(0.2)
                return 2.0

        result = topk_interval_query(
            _name_store(), 2,
            generic_levels("name", 0.3),
            SlowScorer(),
            r=8,
            policy=ExecutionPolicy(deadline_seconds=0.1),
        )
        assert result.degraded
        assert result.degraded_reason
        assert result.worlds_enumerated == 0
        assert result.entities
        total = max(entity.count_hi for entity in result.entities)
        for entity in result.entities:
            assert entity.count_lo <= entity.count_hi
            assert entity.count_hi == pytest.approx(total)
            assert entity.membership_probability == 0.0
