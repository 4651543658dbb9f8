"""Labeled pair sampling and group-wise train/test splitting.

The paper trains its final classifier on labeled duplicate groups,
"us[ing] 50% of the groups to train" (Section 6.4).  Positives are
within-group pairs; negatives mix *near-miss* pairs (different entities
that share a blocking key — the hard cases the classifier must separate)
with random cross-entity pairs.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from ..core.records import Record
from ..predicates.base import Predicate
from ..predicates.blocking import candidate_pair_arrays
from .base import SyntheticDataset

LabeledPairs = tuple[list[tuple[Record, Record]], list[int]]


def split_groups(
    dataset: SyntheticDataset, train_fraction: float = 0.5, seed: int = 0
) -> tuple[list[int], list[int]]:
    """Split record ids by gold *group*; return (train_ids, test_ids)."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    rng = np.random.default_rng(seed)
    groups = dataset.gold_partition()
    order = rng.permutation(len(groups))
    n_train = max(1, int(round(train_fraction * len(groups))))
    train_ids: list[int] = []
    test_ids: list[int] = []
    for rank, group_index in enumerate(order):
        target = train_ids if rank < n_train else test_ids
        target.extend(groups[int(group_index)])
    return sorted(train_ids), sorted(test_ids)


def sample_labeled_pairs(
    dataset: SyntheticDataset,
    record_ids: list[int] | None = None,
    candidate_predicate: Predicate | None = None,
    max_positives: int = 2000,
    negatives_per_positive: float = 2.0,
    seed: int = 0,
) -> LabeledPairs:
    """Return (pairs, labels) for classifier training.

    Args:
        dataset: The labeled dataset.
        record_ids: Restrict sampling to these records (e.g. the train
            split); all records when None.
        candidate_predicate: Source of near-miss negatives — cross-entity
            pairs satisfying it.  Random negatives are used when None or
            when near-misses run out.
        max_positives: Cap on positive pairs.
        negatives_per_positive: Negative:positive ratio.
        seed: RNG seed.
    """
    rng = np.random.default_rng(seed)
    ids = list(range(len(dataset.store))) if record_ids is None else list(record_ids)
    if not ids:
        raise ValueError("no records to sample from")

    by_entity: dict[int, list[int]] = defaultdict(list)
    for record_id in ids:
        by_entity[dataset.labels[record_id]].append(record_id)

    positives: list[tuple[int, int]] = []
    for members in by_entity.values():
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                positives.append((a, b))
    if len(positives) > max_positives:
        chosen = rng.choice(len(positives), size=max_positives, replace=False)
        positives = [positives[int(i)] for i in chosen]

    n_negatives = int(round(negatives_per_positive * len(positives)))
    negatives: list[tuple[int, int]] = []
    if candidate_predicate is not None:
        records = [dataset.store[i] for i in ids]
        global_ids = np.asarray(ids, dtype=np.int64)
        entity = np.asarray(dataset.labels)[global_ids]
        left, right = candidate_pair_arrays(candidate_predicate, records)
        cross = entity[left] != entity[right]
        first = global_ids[left[cross]]
        second = global_ids[right[cross]]
        # Sort by global id (*record_ids* may come in any order), then
        # subsample with the seeded generator.
        order = np.lexsort((second, first))
        near_misses = list(zip(first[order].tolist(), second[order].tolist()))
        if len(near_misses) > n_negatives:
            chosen = rng.choice(
                len(near_misses), size=n_negatives, replace=False
            )
            near_misses = [near_misses[int(i)] for i in sorted(chosen)]
        negatives.extend(near_misses)
    if len(negatives) < n_negatives and len(by_entity) < 2:
        # Random draws could never find a cross-entity pair: stop here
        # instead of sampling forever.
        raise ValueError(
            f"cannot sample {n_negatives - len(negatives)} random negatives: "
            f"all {len(ids)} records belong to one entity, so no "
            "cross-entity pair exists"
        )
    while len(negatives) < n_negatives:
        a, b = (int(x) for x in rng.choice(len(ids), size=2, replace=False))
        a, b = ids[a], ids[b]
        if dataset.labels[a] != dataset.labels[b]:
            negatives.append((a, b))

    pairs = [
        (dataset.store[a], dataset.store[b]) for a, b in positives + negatives
    ]
    labels = [1] * len(positives) + [0] * len(negatives)
    return pairs, labels
