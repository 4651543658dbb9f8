"""Unit tests for repro.predicates.blocking."""

from repro.core.records import RecordStore
from repro.core.verification import PipelineCounters
from repro.predicates.base import FunctionPredicate
from repro.predicates.blocking import (
    NeighborIndex,
    build_key_index,
    candidate_pairs,
    closure,
)
from tests.conftest import exact_name_predicate, make_store, shared_word_predicate


class TestBuildKeyIndex:
    def test_groups_by_key(self):
        store = make_store(["ann smith", "bob smith", "cara lee"])
        index = build_key_index(shared_word_predicate(), list(store))
        assert sorted(index["smith"]) == [0, 1]
        assert index["lee"] == [2]

    def test_duplicate_keys_counted_once(self):
        store = make_store(["ann ann"])
        index = build_key_index(shared_word_predicate(), list(store))
        assert index["ann"] == [0]


class TestClosure:
    def test_exact_match_closure(self):
        store = make_store(["x", "y", "x", "x"])
        uf = closure(exact_name_predicate(), list(store))
        assert uf.connected(0, 2)
        assert uf.connected(0, 3)
        assert not uf.connected(0, 1)

    def test_transitivity_through_chain(self):
        # a-b share 'x'; b-c share 'y': closure must connect a and c.
        chain = FunctionPredicate(
            evaluate_fn=lambda a, b: bool(
                set(a["name"].split()) & set(b["name"].split())
            ),
            keys_fn=lambda r: r["name"].split(),
            name="chain",
        )
        store = make_store(["x", "x y", "y"])
        uf = closure(chain, list(store))
        assert uf.connected(0, 2)

    def test_no_false_merges(self):
        store = make_store(["ann smith", "bob jones"])
        uf = closure(exact_name_predicate(), list(store))
        assert uf.n_components == 2

    def test_verification_applied_when_keys_overlap(self):
        # Keys collide on shared words, but evaluate demands full equality.
        predicate = FunctionPredicate(
            evaluate_fn=lambda a, b: a["name"] == b["name"],
            keys_fn=lambda r: r["name"].split(),
            name="exact-with-word-keys",
        )
        store = make_store(["ann smith", "ann jones"])
        uf = closure(predicate, list(store))
        assert not uf.connected(0, 1)

    def test_oversized_block_fallback_still_merges_identicals(self):
        predicate = FunctionPredicate(
            evaluate_fn=lambda a, b: a["name"] == b["name"],
            keys_fn=lambda r: ["shared-key"],
            name="one-big-block",
        )
        store = make_store(["dup"] * 6 + ["other"])
        uf = closure(predicate, list(store), max_block_pairs=3)
        assert uf.component_size(0) == 6


class TestCandidatePairs:
    def test_yields_each_pair_once(self):
        store = make_store(["a b", "b c", "c a"])
        pairs = list(candidate_pairs(shared_word_predicate(), list(store)))
        assert sorted(pairs) == [(0, 1), (0, 2), (1, 2)]
        assert len(pairs) == len(set(pairs))

    def test_verification_filters(self):
        predicate = FunctionPredicate(
            evaluate_fn=lambda a, b: a["name"] == b["name"],
            keys_fn=lambda r: r["name"].split(),
            name="exact",
        )
        store = make_store(["ann smith", "ann jones"])
        assert list(candidate_pairs(predicate, list(store))) == []
        unverified = list(candidate_pairs(predicate, list(store), verify=False))
        assert unverified == [(0, 1)]


class TestNeighborIndex:
    def test_neighbors_verified(self):
        store = make_store(["ann smith", "ann jones", "bob jones", "cara lee"])
        index = NeighborIndex(shared_word_predicate(), list(store))
        assert index.neighbors(store[0], exclude_position=0).tolist() == [1]
        assert index.neighbors(store[1], exclude_position=1).tolist() == [0, 2]

    def test_exclude_position(self):
        store = make_store(["ann smith", "ann smith"])
        index = NeighborIndex(shared_word_predicate(), list(store))
        assert index.neighbors(store[0], exclude_position=0).tolist() == [1]

    def test_probe_outside_indexed_set(self):
        store = make_store(["ann smith", "bob jones"])
        probe_store = make_store(["cara smith"])
        index = NeighborIndex(shared_word_predicate(), list(store))
        assert index.neighbors(probe_store[0]).tolist() == [0]

    def test_no_candidates(self):
        store = make_store(["ann smith"])
        probe_store = make_store(["zed zed"])
        index = NeighborIndex(shared_word_predicate(), list(store))
        assert index.candidate_positions(probe_store[0]) == set()


class TestNeighborIndexMemo:
    def test_distinct_probes_sharing_record_id_do_not_collide(self):
        # Regression: the memo used to key on (record_id, exclude_position)
        # alone, so a probe built outside the store — record_id 0, like
        # the first indexed record, but different content — was answered
        # with the first probe's cached list.
        store = make_store(["ann smith", "ann jones", "bob lee"])
        counters = PipelineCounters()
        index = NeighborIndex(
            shared_word_predicate(),
            list(store),
            memoize=True,
            counters=counters,
        )
        assert index.neighbors(store[0], exclude_position=0).tolist() == [1]
        impostor = make_store(["bob smith"])[0]
        assert impostor.record_id == store[0].record_id
        assert index.neighbors(impostor, exclude_position=0).tolist() == [2]
        # The impostor is answered afresh as an external probe; only the
        # member's row stays memoized, and the member hits it.
        assert index.neighbors(store[0], exclude_position=0).tolist() == [1]
        assert counters.neighbor_memo_hits == 1

    def test_memo_still_hits_for_the_same_probe(self):
        store = make_store(["ann smith", "ann jones"])
        counters = PipelineCounters()
        index = NeighborIndex(
            shared_word_predicate(),
            list(store),
            memoize=True,
            counters=counters,
        )
        index.neighbors(store[0], exclude_position=0)
        index.neighbors(store[0], exclude_position=0)
        assert counters.neighbor_memo_hits == 1


class TestCountFiltering:
    """Count filtering (the engine's count rule) must agree pairwise
    with evaluate."""

    def test_ngram_predicate_count_mode_equivalence(self):
        from repro.datasets import generate_citations
        from repro.predicates import citation_n1, citation_n2

        ds = generate_citations(n_records=300, seed=9)
        records = list(ds.store)
        for predicate in (citation_n1(), citation_n2()):
            index = NeighborIndex(predicate, records, vectorize=True)
            assert index.batch_engine.count_mode
            for position in range(0, len(records), 17):
                probe = records[position]
                fast = index.neighbors(probe, exclude_position=position)
                slow = sorted(
                    other
                    for other in index.candidate_positions(probe)
                    if other != position
                    and predicate.evaluate(probe, records[other])
                )
                assert fast.tolist() == slow, (predicate.name, position)


class TestSortedNeighborhoodFallback:
    def test_oversized_block_with_mixed_type_field_values(self):
        # Mixed int/str field values used to crash the huge-block
        # sorted-neighborhood fallback (sorting raw values raises
        # TypeError: '<' not supported between 'int' and 'str').
        rows = [
            {"name": "ann smith", "code": 7},
            {"name": "ann smith", "code": "a7"},
            {"name": "bob jones", "code": 3},
            {"name": "bob jones", "code": "b3"},
            {"name": "ann smith", "code": 9},
        ]
        store = RecordStore.from_rows(rows)
        one_block = FunctionPredicate(
            evaluate_fn=lambda a, b: a["name"] == b["name"],
            keys_fn=lambda r: ["block"],
            name="one-block",
        )
        # 10 pairs > max_block_pairs forces the fallback path.
        uf = closure(one_block, list(store), max_block_pairs=1)
        assert uf.connected(0, 1)
        assert uf.connected(0, 4)
        assert uf.connected(2, 3)
        assert not uf.connected(0, 2)


class TestDiscardCountersParity:
    """Regression: the bare-index null counter sink must mirror
    PipelineCounters field-for-field, or a guarded predicate's first
    contained fault raises AttributeError mid-query."""

    def test_field_set_matches_pipeline_counters(self):
        from repro.predicates.blocking import _DiscardCounters

        sink = _DiscardCounters()
        assert set(vars(sink)) == set(PipelineCounters._INT_FIELDS)
        for field in PipelineCounters._INT_FIELDS:
            # Every field must be bump-able the way pipeline code does it.
            setattr(sink, field, getattr(sink, field) + 1)
            assert getattr(sink, field) == 1

    def test_bare_index_tolerates_contained_keying_fault(self):
        from repro.core.resilience import ExecutionPolicy, GuardedPredicate

        calls = {"n": 0}

        def flaky_keys(record):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("injected keying fault")
            return record["name"].split()

        inner = FunctionPredicate(
            evaluate_fn=lambda a, b: bool(
                set(a["name"].split()) & set(b["name"].split())
            ),
            keys_fn=flaky_keys,
            name="flaky-keys",
        )
        counters = PipelineCounters()
        state = ExecutionPolicy(on_error="degrade").start(counters)
        guarded = GuardedPredicate(inner, "necessary", state)
        store = make_store(
            ["ann smith", "ann jones", "bob smith", "ann brown"]
        )
        # No counters passed: the index falls back to _DiscardCounters.
        # Building it keys record 0 first — the injected fault fires and
        # is contained (record 0 simply drops out of every block).
        index = NeighborIndex(guarded, list(store))
        assert index.neighbors(store[1], exclude_position=1).tolist() == [3]
        assert counters.keying_errors_contained == 1


class TestCandidatePairsDedupe:
    """Regression: candidate_pairs deduped via a global seen-set of
    emitted pairs — O(pairs) memory.  Each pair is now emitted once, in
    ascending order, and verified exactly as ``evaluate`` decides it."""

    def _verified_reference(self, predicate, records):
        pairs = set()
        for a in range(len(records)):
            for b in range(a + 1, len(records)):
                shared = set(predicate.blocking_keys(records[a])) & set(
                    predicate.blocking_keys(records[b])
                )
                if shared and predicate.evaluate(records[a], records[b]):
                    pairs.add((a, b))
        return pairs

    def test_multi_shared_key_pairs_emitted_exactly_once(self):
        # "ann smith" pairs share BOTH words: two blocks propose the
        # same pair; exactly one may emit it.
        store = make_store(
            ["ann smith", "ann smith", "ann jones", "bob smith", "ann smith"]
        )
        predicate = shared_word_predicate()
        records = list(store)
        emitted = list(candidate_pairs(predicate, records))
        assert len(emitted) == len(set(emitted))
        assert set(emitted) == self._verified_reference(predicate, records)

    def test_signature_fast_path_matches_evaluate(self):
        from repro.datasets import generate_students
        from repro.predicates import student_n2

        ds = generate_students(n_records=150, seed=4)
        records = list(ds.store)
        predicate = student_n2()
        emitted = list(candidate_pairs(predicate, records))
        assert len(emitted) == len(set(emitted))
        assert set(emitted) == self._verified_reference(predicate, records)

    def test_unverified_pairs_also_unique(self):
        store = make_store(["ann smith", "ann smith", "smith ann"])
        emitted = list(
            candidate_pairs(shared_word_predicate(), list(store), verify=False)
        )
        assert sorted(emitted) == [(0, 1), (0, 2), (1, 2)]
        assert len(emitted) == len(set(emitted))
