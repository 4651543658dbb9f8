"""Tests for the incremental Top-K engine over evolving sources."""

import pytest

from repro.core.incremental import EngineSnapshot, IncrementalTopK
from repro.core.pruned_dedup import pruned_dedup
from repro.datasets import author_idf, generate_citations, suggest_min_idf
from repro.predicates import citation_levels
from repro.predicates.base import PredicateLevel
from tests.conftest import exact_name_predicate, make_store, shared_word_predicate


def one_level() -> list[PredicateLevel]:
    return [PredicateLevel(exact_name_predicate(), shared_word_predicate())]


class TestIncrementalBasics:
    def test_insert_and_length(self):
        engine = IncrementalTopK(one_level())
        engine.add({"name": "ann"})
        engine.add({"name": "bob"})
        assert len(engine) == 2
        assert engine.version == 2

    def test_collapse_maintained(self):
        engine = IncrementalTopK(one_level())
        for name in ["a", "b", "a", "a", "b"]:
            engine.add({"name": name})
        groups = EngineSnapshot.freeze(engine).collapsed_groups()
        assert len(groups) == 2
        assert groups.weights() == [3.0, 2.0]

    def test_weights_accumulate(self):
        engine = IncrementalTopK(one_level())
        engine.add({"name": "a"}, weight=2.0)
        engine.add({"name": "a"}, weight=5.0)
        assert EngineSnapshot.freeze(engine).collapsed_groups().weights() == [7.0]

    def test_query_result_shape(self):
        engine = IncrementalTopK(one_level())
        for name in ["a"] * 4 + ["b"] * 2 + ["c"]:
            engine.add({"name": name})
        result = engine.query(2)
        assert len(result.groups) == 2
        assert result.terminated_early

    def test_query_cache_invalidated_by_insert(self):
        engine = IncrementalTopK(one_level())
        for name in ["a"] * 3 + ["b"]:
            engine.add({"name": name})
        first = engine.query(1)
        assert first.groups.weights() == [3.0]
        for _ in range(5):
            engine.add({"name": "b"})
        second = engine.query(1)
        assert second.groups.weights() == [6.0]

    def test_query_cached_when_unchanged(self):
        engine = IncrementalTopK(one_level())
        engine.add({"name": "a"})
        assert engine.query(1) is engine.query(1)

    def test_validation(self):
        with pytest.raises(ValueError):
            IncrementalTopK([])
        engine = IncrementalTopK(one_level())
        engine.add({"name": "a"})
        with pytest.raises(ValueError):
            engine.query(0)


class TestIncrementalMatchesBatch:
    def test_matches_batch_on_simple_stream(self):
        names = ["ann smith"] * 5 + ["bob jones"] * 3 + ["cara lee"] * 2
        engine = IncrementalTopK(one_level())
        for name in names:
            engine.add({"name": name})
        incremental = engine.query(2)

        store = make_store(names)
        batch = pruned_dedup(store, 2, one_level())
        assert incremental.groups.weights() == batch.groups.weights()

    def test_matches_batch_on_citations(self):
        ds = generate_citations(n_records=600, seed=4)
        idf = author_idf(ds.store)
        levels = citation_levels(idf, suggest_min_idf(idf))

        engine = IncrementalTopK(levels)
        engine.add_store(ds.store)
        incremental = engine.query(5)
        batch = pruned_dedup(ds.store, 5, levels)
        assert sorted(incremental.groups.weights(), reverse=True) == sorted(
            batch.groups.weights(), reverse=True
        )

    def test_interleaved_inserts_and_queries(self):
        engine = IncrementalTopK(one_level())
        tops = []
        for batch_names in (["a"] * 3, ["b"] * 5, ["a"] * 4):
            for name in batch_names:
                engine.add({"name": name})
            result = engine.query(1)
            top = result.groups[0]
            tops.append(
                (engine.current_store()[top.representative_id]["name"],
                 top.weight)
            )
        assert tops == [("a", 3.0), ("b", 5.0), ("a", 7.0)]
