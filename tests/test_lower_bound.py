"""Unit tests for the lower-bound estimator (Section 4.2)."""

import pytest

from repro.core.lower_bound import (
    estimate_lower_bound,
    estimate_lower_bound_naive,
)
from repro.core.records import GroupSet
from repro.predicates.base import FunctionPredicate
from tests.conftest import make_store, shared_word_predicate


def weighted_groups(names_weights: list[tuple[str, float]]) -> GroupSet:
    names = [n for n, _ in names_weights]
    weights = [w for _, w in names_weights]
    store = make_store(names, weights=weights)
    return GroupSet.singletons(store)


class TestEstimateLowerBound:
    def test_disconnected_groups_m_equals_k(self):
        gs = weighted_groups([("a", 10.0), ("b", 7.0), ("c", 3.0)])
        est = estimate_lower_bound(gs, shared_word_predicate(), 2)
        assert est.certified
        assert est.m == 2
        assert est.bound == 7.0

    def test_connected_groups_push_m_out(self):
        # First two groups can merge (share word), third cannot.
        gs = weighted_groups([("x a", 10.0), ("x b", 7.0), ("y c", 3.0)])
        est = estimate_lower_bound(gs, shared_word_predicate(), 2)
        assert est.certified
        assert est.m == 3
        assert est.bound == 3.0

    def test_uncertifiable_returns_zero_bound(self):
        # All groups pairwise joinable: only 1 distinct group guaranteed.
        gs = weighted_groups([("x a", 5.0), ("x b", 4.0), ("x c", 3.0)])
        est = estimate_lower_bound(gs, shared_word_predicate(), 2)
        assert not est.certified
        assert est.bound == 0.0
        assert est.m == 3

    def test_k_one_always_first_group(self):
        gs = weighted_groups([("x a", 5.0), ("x b", 4.0)])
        est = estimate_lower_bound(gs, shared_word_predicate(), 1)
        assert est.certified
        assert est.m == 1
        assert est.bound == 5.0

    def test_empty_group_set(self):
        store = make_store([])
        est = estimate_lower_bound(
            GroupSet.singletons(store), shared_word_predicate(), 1
        )
        assert not est.certified
        assert est.m == 0

    def test_invalid_k(self):
        gs = weighted_groups([("a", 1.0)])
        with pytest.raises(ValueError):
            estimate_lower_bound(gs, shared_word_predicate(), 0)

    def test_figure_1_style_refinement_beats_naive(self):
        # Groups c1..c5 in weight order with the paper's Figure-1 N-graph:
        # edges c1-c2, c1-c5, c2-c3, c2-c4, c3-c4.  CPN certifies K=2 at
        # m=3 (c1, c3 disconnected); the naive count needs all 5.  The
        # graph is built explicitly through a predicate on ids.
        edges = {(0, 1), (0, 4), (1, 2), (1, 3), (2, 3)}

        def connected(a, b):
            pair = (min(a.record_id, b.record_id), max(a.record_id, b.record_id))
            return pair in edges

        predicate = FunctionPredicate(
            evaluate_fn=connected,
            keys_fn=lambda r: ["all"],  # one block; evaluate decides
            name="figure-1",
        )
        gs = weighted_groups(
            [("c1", 50.0), ("c2", 40.0), ("c3", 30.0), ("c4", 20.0), ("c5", 10.0)]
        )
        est = estimate_lower_bound(gs, predicate, 2)
        naive = estimate_lower_bound_naive(gs, predicate, 2)
        assert est.certified
        assert est.m == 3
        assert est.bound == 30.0
        assert naive.m == 5  # the weak bound needs the whole list

    def test_bound_monotone_in_k(self):
        gs = weighted_groups(
            [("a", 9.0), ("b", 7.0), ("c", 5.0), ("d", 3.0), ("e", 1.0)]
        )
        bounds = [
            estimate_lower_bound(gs, shared_word_predicate(), k).bound
            for k in (1, 2, 3, 4, 5)
        ]
        assert bounds == sorted(bounds, reverse=True)


class TestNaiveBoundEstimator:
    def test_matches_on_disconnected(self):
        gs = weighted_groups([("a", 5.0), ("b", 3.0)])
        naive = estimate_lower_bound_naive(gs, shared_word_predicate(), 2)
        assert naive.certified
        assert naive.m == 2

    def test_never_tighter_than_cpn(self):
        gs = weighted_groups(
            [("x a", 9.0), ("b c", 7.0), ("x d", 5.0), ("e f", 3.0)]
        )
        for k in (1, 2, 3):
            cpn = estimate_lower_bound(gs, shared_word_predicate(), k)
            naive = estimate_lower_bound_naive(gs, shared_word_predicate(), k)
            assert naive.m >= cpn.m
            assert naive.bound <= cpn.bound

    def test_invalid_k(self):
        gs = weighted_groups([("a", 1.0)])
        with pytest.raises(ValueError):
            estimate_lower_bound_naive(gs, shared_word_predicate(), 0)
