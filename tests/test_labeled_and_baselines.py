"""Tests for labeled-pair sampling and the full-dedup baselines."""

import pytest

from repro.baselines.full_dedup import (
    canopy_collapse_pipeline,
    canopy_pipeline,
    none_pipeline,
)
from repro.datasets import generate_citations, sample_labeled_pairs, split_groups
from repro.datasets.base import SyntheticDataset
from repro.scoring.pairwise import WeightedScorer
from repro.similarity.vectorize import name_only_featurizer
from tests.conftest import exact_name_predicate, make_store, shared_word_predicate


class TestSplitGroups:
    def test_partitions_records(self):
        ds = generate_citations(n_records=200, seed=0)
        train, test = split_groups(ds, train_fraction=0.5, seed=0)
        assert sorted(train + test) == list(range(200))

    def test_groups_not_split(self):
        ds = generate_citations(n_records=200, seed=0)
        train, test = split_groups(ds, train_fraction=0.5, seed=0)
        train_set = set(train)
        for group in ds.gold_partition():
            in_train = [i for i in group if i in train_set]
            assert len(in_train) in (0, len(group))

    def test_invalid_fraction(self):
        ds = generate_citations(n_records=50, seed=0)
        with pytest.raises(ValueError):
            split_groups(ds, train_fraction=1.0)


class TestSampleLabeledPairs:
    def test_labels_match_gold(self):
        ds = generate_citations(n_records=300, seed=0)
        pairs, labels = sample_labeled_pairs(ds, seed=0)
        for (a, b), label in zip(pairs, labels):
            same = ds.labels[a.record_id] == ds.labels[b.record_id]
            assert label == int(same)

    def test_positive_cap(self):
        ds = generate_citations(n_records=300, seed=0)
        pairs, labels = sample_labeled_pairs(ds, max_positives=10, seed=0)
        assert sum(labels) <= 10

    def test_negative_ratio(self):
        ds = generate_citations(n_records=300, seed=0)
        pairs, labels = sample_labeled_pairs(
            ds, max_positives=20, negatives_per_positive=3.0, seed=0
        )
        n_pos = sum(labels)
        n_neg = len(labels) - n_pos
        assert n_neg == round(3.0 * n_pos)

    def test_near_miss_negatives_from_predicate(self):
        from repro.predicates import citation_n1

        ds = generate_citations(n_records=300, seed=0)
        pairs, labels = sample_labeled_pairs(
            ds, candidate_predicate=citation_n1(), seed=0
        )
        assert 0 in labels and 1 in labels

    def test_restricted_to_subset(self):
        ds = generate_citations(n_records=300, seed=0)
        train, _ = split_groups(ds, seed=0)
        pairs, _ = sample_labeled_pairs(ds, record_ids=train, seed=0)
        train_set = set(train)
        for a, b in pairs:
            assert a.record_id in train_set and b.record_id in train_set

    @pytest.mark.timeout(10)
    def test_one_entity_raises_instead_of_hanging(self):
        # Regression: with no cross-entity pair among the chosen records
        # the random-negative loop never exited.
        ds = SyntheticDataset(
            store=make_store(["ann smith"] * 3 + ["a smith", "ann smyth"]),
            labels=[0] * 5,
        )
        with pytest.raises(ValueError, match="one entity"):
            sample_labeled_pairs(ds, seed=0)
        with pytest.raises(ValueError, match="one entity"):
            sample_labeled_pairs(
                ds, candidate_predicate=shared_word_predicate(), seed=0
            )
        # Without negatives to draw there is nothing to refuse.
        pairs, labels = sample_labeled_pairs(
            ds, negatives_per_positive=0.0, seed=0
        )
        assert labels == [1] * len(pairs) == [1] * 10

    def test_no_records_raises_up_front(self):
        ds = generate_citations(n_records=50, seed=0)
        with pytest.raises(ValueError, match="no records"):
            sample_labeled_pairs(ds, record_ids=[], seed=0)


def simple_scorer() -> WeightedScorer:
    featurizer = name_only_featurizer()
    return WeightedScorer(
        featurizer, weights=[2.0, 2.0, 1.0, 1.0, 2.0], bias=-3.5
    )


class TestBaselinePipelines:
    def setup_method(self):
        self.store = make_store(
            ["ann smith"] * 4
            + ["ann smlth"]
            + ["bob jones"] * 3
            + ["cara lee"] * 2
            + ["dan brown"]
        )
        self.scorer = simple_scorer()

    def test_none_pipeline_finds_topk(self):
        outcome = none_pipeline(self.store, 2, self.scorer)
        assert outcome.topk.weights() == [5.0, 3.0]
        assert outcome.n_pairs_scored == 11 * 10 // 2

    def test_canopy_scores_fewer_pairs(self):
        full = none_pipeline(self.store, 2, self.scorer)
        canopy = canopy_pipeline(
            self.store, 2, self.scorer, shared_word_predicate()
        )
        assert canopy.n_pairs_scored < full.n_pairs_scored
        assert canopy.topk.weights() == full.topk.weights()

    def test_collapse_scores_fewer_still(self):
        canopy = canopy_pipeline(
            self.store, 2, self.scorer, shared_word_predicate()
        )
        collapsed = canopy_collapse_pipeline(
            self.store,
            2,
            self.scorer,
            shared_word_predicate(),
            exact_name_predicate(),
        )
        assert collapsed.n_pairs_scored < canopy.n_pairs_scored
        assert collapsed.topk.weights() == canopy.topk.weights()

    def test_group_count_consistent(self):
        outcome = canopy_pipeline(
            self.store, 2, self.scorer, shared_word_predicate()
        )
        assert outcome.n_groups >= 4
