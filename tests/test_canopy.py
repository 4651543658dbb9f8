"""Tests for the TF-IDF canopy predicate and Monge-Elkan similarity."""

import pytest

from repro.core.records import RecordStore
from repro.predicates.blocking import candidate_pairs
from repro.predicates.canopy import TfIdfCanopy, canopy_pairs
from repro.similarity.strings import jaro_winkler, monge_elkan


def store_of(*names):
    return RecordStore.from_rows([{"name": n} for n in names])


class TestTfIdfCanopy:
    def test_similar_names_pass(self):
        store = store_of(
            "sunita sarawagi",
            "s sarawagi sunita",
            "vinay deshpande",
            "sourabh kasliwal",
        )
        canopy = TfIdfCanopy.from_records(list(store), "name", threshold=0.3)
        assert canopy.evaluate(store[0], store[1])
        assert not canopy.evaluate(store[0], store[3])

    def test_canopy_pairs_complete(self):
        # Blocking must surface every pair the predicate accepts
        # (soundness of the IDF-pruned keys).
        names = [
            "sunita sarawagi",
            "sarawagi sunita",
            "vinay s deshpande",
            "deshpande vinay",
            "sourabh kasliwal",
            "common common word",
            "common word thing",
        ]
        store = store_of(*names)
        records = list(store)
        canopy = TfIdfCanopy.from_records(records, "name", threshold=0.3)
        via_blocking = set(candidate_pairs(canopy, records, verify=True))
        brute = {
            (i, j)
            for i in range(len(records))
            for j in range(i + 1, len(records))
            if canopy.evaluate(records[i], records[j])
        }
        assert via_blocking == brute

    def test_common_tokens_pruned_from_index(self):
        # A token appearing everywhere carries near-zero weight and is
        # dropped from the blocking keys at a high threshold.
        names = [f"shared unique{i}" for i in range(30)]
        store = store_of(*names)
        records = list(store)
        canopy = TfIdfCanopy.from_records(records, "name", threshold=0.9)
        keys = set(canopy.blocking_keys(records[0]))
        assert "unique0" in keys
        assert "shared" not in keys

    def test_threshold_validation(self):
        store = store_of("a")
        with pytest.raises(ValueError):
            TfIdfCanopy.from_records(list(store), "name", threshold=0.0)

    def test_canopy_pairs_helper(self):
        pairs = canopy_pairs(
            list(store_of("ann smith", "smith ann", "bob jones")),
            "name",
            threshold=0.5,
        )
        assert pairs == [(0, 1)]

    def test_empty_field(self):
        store = store_of("", "ann")
        canopy = TfIdfCanopy.from_records(list(store), "name", threshold=0.5)
        assert list(canopy.blocking_keys(store[0])) == []
        assert not canopy.evaluate(store[0], store[1])


class TestMongeElkan:
    def test_identical_token_lists(self):
        assert monge_elkan(["ann", "smith"], ["ann", "smith"]) == pytest.approx(1.0)

    def test_reordered_tokens_still_high(self):
        assert monge_elkan(["smith", "ann"], ["ann", "smith"]) == pytest.approx(1.0)

    def test_partial_match(self):
        score = monge_elkan(["ann", "smith"], ["ann", "jones"])
        assert 0.4 <= score < 1.0

    def test_asymmetry(self):
        a = monge_elkan(["ann"], ["ann", "zzz"])
        b = monge_elkan(["ann", "zzz"], ["ann"])
        assert a == pytest.approx(1.0)
        assert b < 1.0

    def test_empty_lists(self):
        assert monge_elkan([], []) == 1.0
        assert monge_elkan([], ["x"]) == 0.0
        assert monge_elkan(["x"], []) == 0.0

    def test_custom_base(self):
        def exact(x, y):
            return 1.0 if x == y else 0.0

        assert monge_elkan(["a", "b"], ["b", "c"], base=exact) == 0.5

    def test_typo_tolerance_via_jaro_winkler(self):
        score = monge_elkan(
            ["sunita", "sarawagi"], ["sunita", "sarawagl"], base=jaro_winkler
        )
        assert score > 0.9
