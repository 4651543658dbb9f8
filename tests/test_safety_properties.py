"""Property-based safety tests: the pruning pipeline never loses the
true Top-K when the predicates honour their roles.

Random instances are generated with honest predicates by construction:
each entity's mentions all share a stable token (so a shared-token
necessary predicate is genuinely necessary) and the exact-match
sufficient predicate can never fire across entities (mentions embed
their entity id).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.incremental import IncrementalTopK
from repro.core.pruned_dedup import pruned_dedup
from repro.core.rank_query import topk_rank_query
from repro.core.resilience import ExecutionPolicy
from repro.predicates.base import PredicateLevel
from repro.testing import FaultPlane
from tests.conftest import exact_name_predicate, make_store, shared_word_predicate


@st.composite
def honest_instances(draw):
    """(names, labels): mentions of entities with honest predicate roles.

    Entity e's mentions are 'e<e> v<variant>' — they share the token
    'e<e>' (necessary predicate: shared word), and no two entities share
    any token (sufficient predicate: exact match is trivially safe).
    """
    n_entities = draw(st.integers(min_value=2, max_value=8))
    names = []
    labels = []
    for entity in range(n_entities):
        n_mentions = draw(st.integers(min_value=1, max_value=6))
        n_variants = draw(st.integers(min_value=1, max_value=3))
        for m in range(n_mentions):
            variant = draw(st.integers(min_value=0, max_value=n_variants - 1))
            names.append(f"e{entity} v{entity}x{variant}")
            labels.append(entity)
    return names, labels


def level():
    return [PredicateLevel(exact_name_predicate(), shared_word_predicate())]


def true_topk_entities(names, labels, k):
    from collections import Counter

    counts = Counter(labels)
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    if len(ranked) > k and ranked[k - 1][1] == ranked[k][1]:
        # Ties at the boundary make "the" Top-K ambiguous; only require
        # survival of entities strictly above the K-th count.
        cutoff = ranked[k][1]
        return [e for e, c in ranked if c > cutoff]
    return [e for e, _ in ranked[:k]]


class TestPruningSafety:
    @given(honest_instances(), st.integers(min_value=1, max_value=4))
    @settings(max_examples=60, deadline=None)
    def test_true_topk_survives(self, instance, k):
        names, labels = instance
        store = make_store(names)
        result = pruned_dedup(store, k, level())
        surviving_entities = {
            labels[record_id]
            for group in result.groups
            for record_id in group.member_ids
        }
        for entity in true_topk_entities(names, labels, k):
            assert entity in surviving_entities

    @given(honest_instances(), st.integers(min_value=1, max_value=4))
    @settings(max_examples=40, deadline=None)
    def test_rank_query_also_safe(self, instance, k):
        names, labels = instance
        store = make_store(names)
        result = topk_rank_query(store, k, level())
        surviving_entities = {
            labels[record_id]
            for group in result.groups
            for record_id in group.member_ids
        }
        for entity in true_topk_entities(names, labels, k):
            assert entity in surviving_entities

    @given(honest_instances())
    @settings(max_examples=40, deadline=None)
    def test_retained_groups_partition_subset(self, instance):
        names, _ = instance
        store = make_store(names)
        result = pruned_dedup(store, 2, level())
        covered = result.groups.covered_record_ids()
        assert len(covered) == len(set(covered))
        assert set(covered) <= set(range(len(store)))


class TestContainmentSafetyProperties:
    """Role-safe fallbacks stay safe under arbitrary injected faults.

    The fault plane's wrappers raise deterministically per (seed, pair);
    the guards substitute False for a failing sufficient predicate and
    True for a failing necessary one.  Whatever the fault schedule, that must
    never merge across entities nor prune the true Top-K away.
    """

    @given(
        honest_instances(),
        st.integers(min_value=0, max_value=10_000),
        st.floats(min_value=0.05, max_value=0.9),
    )
    @settings(max_examples=40, deadline=None)
    def test_sufficient_faults_never_merge_across_entities(
        self, instance, seed, error_rate
    ):
        names, labels = instance
        faulty = FaultPlane(seed=seed).wrap_levels(
            level(), roles="sufficient", error_rate=error_rate
        )
        result = pruned_dedup(
            make_store(names), 2, faulty, policy=ExecutionPolicy()
        )
        for group in result.groups:
            entities = {labels[record_id] for record_id in group.member_ids}
            assert len(entities) == 1

    @given(
        honest_instances(),
        st.integers(min_value=0, max_value=10_000),
        st.floats(min_value=0.05, max_value=0.9),
        st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_necessary_faults_never_lose_true_topk(
        self, instance, seed, error_rate, k
    ):
        names, labels = instance
        faulty = FaultPlane(seed=seed).wrap_levels(
            level(), roles="necessary", error_rate=error_rate
        )
        result = pruned_dedup(
            make_store(names), k, faulty, policy=ExecutionPolicy()
        )
        surviving_entities = {
            labels[record_id]
            for group in result.groups
            for record_id in group.member_ids
        }
        for entity in true_topk_entities(names, labels, k):
            assert entity in surviving_entities

    @given(
        honest_instances(),
        st.integers(min_value=0, max_value=10_000),
        st.floats(min_value=0.05, max_value=0.5),
    )
    @settings(max_examples=25, deadline=None)
    def test_keying_faults_never_lose_records_or_topk(
        self, instance, seed, rate
    ):
        # Keying failures on the necessary predicate compromise the
        # N-graph; the pipeline must stand pruning down rather than
        # over-prune (collapse keying failures just merge less).
        names, labels = instance
        faulty = FaultPlane(seed=seed).wrap_levels(
            level(), roles="both", keying_error_rate=rate
        )
        result = pruned_dedup(
            make_store(names), 2, faulty, policy=ExecutionPolicy()
        )
        surviving_entities = {
            labels[record_id]
            for group in result.groups
            for record_id in group.member_ids
        }
        for entity in true_topk_entities(names, labels, 2):
            assert entity in surviving_entities
        for group in result.groups:
            entities = {labels[record_id] for record_id in group.member_ids}
            assert len(entities) == 1


class TestIncrementalMatchesBatchProperty:
    @given(honest_instances(), st.integers(min_value=1, max_value=3))
    @settings(max_examples=30, deadline=None)
    def test_incremental_equals_batch(self, instance, k):
        names, _ = instance
        engine = IncrementalTopK(level())
        for name in names:
            engine.add({"name": name})
        incremental = engine.query(k)
        batch = pruned_dedup(make_store(names), k, level())
        assert sorted(incremental.groups.weights(), reverse=True) == sorted(
            batch.groups.weights(), reverse=True
        )
