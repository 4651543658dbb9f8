"""Tests for Top-K rank and thresholded rank queries (Section 7)."""

import math

import pytest

from repro.core.pruned_dedup import pruned_dedup
from repro.core.rank_query import thresholded_rank_query, topk_rank_query
from repro.core.resilience import REASON_STAGE_BUDGET, ExecutionPolicy
from repro.predicates.base import FunctionPredicate, PredicateLevel
from tests.conftest import exact_name_predicate, make_store, shared_word_predicate


def one_level() -> list[PredicateLevel]:
    return [PredicateLevel(exact_name_predicate(), shared_word_predicate())]


class TestTopKRankQuery:
    def test_ranking_in_weight_order(self):
        store = make_store(["a x"] * 5 + ["b y"] * 3 + ["c z"])
        result = topk_rank_query(store, 2, one_level())
        weights = [r.weight for r in result.ranking]
        assert weights == sorted(weights, reverse=True)

    def test_retains_at_most_count_query(self):
        store = make_store(
            ["a x"] * 6 + ["b y"] * 4 + ["a q"] + ["b r"] + ["c z", "d w"]
        )
        count = pruned_dedup(store, 1, one_level())
        rank = topk_rank_query(store, 1, one_level())
        assert rank.n_retained <= len(count.groups)

    def test_upper_bounds_cover_weights(self):
        store = make_store(["a x"] * 4 + ["a y"] * 2 + ["b z"] * 3)
        result = topk_rank_query(store, 2, one_level())
        for entry in result.ranking:
            assert entry.upper_bound >= entry.weight

    def test_resolved_flag_for_clear_leader(self):
        store = make_store(["alpha beta"] * 10 + ["gamma delta"] * 2)
        result = topk_rank_query(store, 1, one_level())
        leader = result.ranking[0]
        assert leader.weight == 10.0
        assert leader.resolved

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            topk_rank_query(make_store(["a"]), 0, one_level())

    def test_no_levels(self):
        with pytest.raises(ValueError):
            topk_rank_query(make_store(["a"]), 1, [])


class TestThresholdedRankQuery:
    def test_returns_groups_above_threshold(self):
        store = make_store(["a x"] * 5 + ["b y"] * 3 + ["c z"])
        result = thresholded_rank_query(store, threshold=3.0, levels=one_level())
        assert result.certain
        weights = [r.weight for r in result.ranking]
        assert weights == [5.0, 3.0]

    def test_high_threshold_empty_answer(self):
        store = make_store(["a x"] * 2 + ["b y"])
        result = thresholded_rank_query(store, threshold=50.0, levels=one_level())
        assert result.certain
        assert result.ranking == []

    def test_ambiguity_defeats_certainty(self):
        # 'a x' (3) and ambiguous 'x q' (2) could merge to 5; with T=4
        # neither "big enough alone" nor prunable, so not certain.
        store = make_store(["a x"] * 3 + ["x q"] * 2 + ["b y"] * 4)
        result = thresholded_rank_query(store, threshold=4.0, levels=one_level())
        if result.certain:
            # If certain, only groups >= T may be reported.
            assert all(r.weight >= 4.0 for r in result.ranking)
        else:
            names = {
                result.groups.store[g.representative_id]["name"]
                for g in result.groups
            }
            assert "a x" in names and "x q" in names

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            thresholded_rank_query(make_store(["a"]), 0.0, one_level())

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_threshold(self, bad):
        # No weight reaches a NaN or infinite T, so such a query would
        # be answered "certain" with an empty ranking.
        with pytest.raises(ValueError, match="must be finite"):
            thresholded_rank_query(make_store(["a x", "b y"]), bad, one_level())

    def test_weighted_threshold(self):
        store = make_store(["a x", "a x", "b y"], weights=[4.0, 4.0, 5.0])
        result = thresholded_rank_query(store, threshold=6.0, levels=one_level())
        assert result.certain
        assert [r.weight for r in result.ranking] == [8.0]


class TestDegradedUpperBounds:
    """A run stopped after level 1 reports level 1's u_i."""

    def levels(self) -> list[PredicateLevel]:
        # Level 2's sufficient predicate puts every record under one key
        # and decides each pair by evaluate: its collapse needs three
        # guarded verdicts, more than any level-1 stage.
        first_word = FunctionPredicate(
            evaluate_fn=lambda a, b: a["name"].split()[0]
            == b["name"].split()[0],
            keys_fn=lambda r: ["*"],
            name="first-word",
        )
        return [
            PredicateLevel(
                exact_name_predicate(), shared_word_predicate(), name="one"
            ),
            PredicateLevel(first_word, shared_word_predicate(), name="two"),
        ]

    def store(self):
        # Level 1 keeps "a x" (5, u=6), "b y" (4, u=4) and "a q" (1,
        # u=6: its neighbour "a x" lifts it over M=4); "c z" is pruned.
        return make_store(["a x"] * 5 + ["b y"] * 4 + ["a q", "c z"])

    @pytest.mark.parametrize("threshold", [None, 4.0])
    def test_level_two_collapse_exhausts_budget(self, threshold):
        policy = ExecutionPolicy(max_stage_evaluations=2)
        if threshold is None:
            result = topk_rank_query(self.store(), 2, self.levels(), policy=policy)
        else:
            result = thresholded_rank_query(
                self.store(), threshold, self.levels(), policy=policy
            )
        assert result.degraded
        assert result.degraded_reason == REASON_STAGE_BUDGET
        last = result.stage_records[-1]
        assert (last.level_name, last.stage, last.completed) == (
            "two",
            "collapse",
            False,
        )
        assert [s.level_name for s in result.stats] == ["one"]
        assert [
            (entry.weight, entry.upper_bound, entry.resolved)
            for entry in result.ranking
        ] == [(5.0, 6.0, False), (4.0, 4.0, False), (1.0, 6.0, False)]
        assert not result.certain
