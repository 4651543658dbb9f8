"""Pairwise scorers: the final criterion P of the paper.

A scorer maps a record pair to a signed real score — positive means
duplicate, negative non-duplicate, magnitude is confidence (Section 5.1).
The main implementation wraps a trained
:class:`~repro.scoring.classifier.LogisticRegression` over a
:class:`~repro.similarity.vectorize.PairFeaturizer`; a hand-weighted
variant covers datasets without training data, and a cache wrapper
memoizes by record id (P is "expensive" by assumption — never score the
same pair twice).

Scorers score whole blocks of pairs (:meth:`PairwiseScorer.score_pairs`);
the library scorers implement ``score(a, b)`` as the one-row block.
The linear scorers sum ``x0*w0 + x1*w1 + ... + b`` one column at a time,
left to right, never as a BLAS ``X @ w``: BLAS picks its summation order
by problem size, so a one-row and a many-row product could disagree in
the last bits.  The fixed order makes every row independent of the block
it was scored in.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Sequence

import numpy as np

from ..core.records import Record
from ..similarity.vectorize import PairFeaturizer
from .classifier import LogisticRegression

_ONE_LEFT = np.zeros(1, dtype=np.int64)
_ONE_RIGHT = np.ones(1, dtype=np.int64)


class PairwiseScorer(ABC):
    """Signed scoring function over record pairs.

    Subclasses implement :meth:`score`; the default :meth:`score_pairs`
    maps it over a block.  Block-native scorers override
    :meth:`score_pairs` and define :meth:`score` as :meth:`score_one`.
    """

    @property
    def scores_in_blocks(self) -> bool:
        """True when :meth:`score_pairs` is block-native, False when it
        is the inherited per-pair map over :meth:`score`."""
        return type(self).score_pairs is not PairwiseScorer.score_pairs

    @abstractmethod
    def score(self, a: Record, b: Record) -> float:
        """Return the signed duplicate score of (a, b)."""

    def score_pairs(
        self,
        records: Sequence[Record],
        left: np.ndarray,
        right: np.ndarray,
    ) -> np.ndarray:
        """Scores of the pairs ``(records[left[t]], records[right[t]])``
        as a float64 array parallel to *left*."""
        return np.fromiter(
            (
                self.score(records[i], records[j])
                for i, j in zip(left.tolist(), right.tolist())
            ),
            dtype=np.float64,
            count=len(left),
        )

    def score_one(self, a: Record, b: Record) -> float:
        """The score of (a, b) as the one-row call of :meth:`score_pairs`."""
        return float(self.score_pairs((a, b), _ONE_LEFT, _ONE_RIGHT)[0])

    def __call__(self, a: Record, b: Record) -> float:
        return self.score(a, b)


def linear_scores(
    features: np.ndarray, weights: np.ndarray, bias: float
) -> np.ndarray:
    """``x0*w0 + x1*w1 + ... + bias`` per row, accumulated left to right."""
    total = features[:, 0] * weights[0]
    for column in range(1, features.shape[1]):
        total += features[:, column] * weights[column]
    total += bias
    return total


def _linear_block(featurizer, records, left, right, weights, bias) -> np.ndarray:
    """:func:`linear_scores` of a block, one feature chunk at a time."""
    out = np.empty(len(left), dtype=np.float64)
    for rows, features in featurizer.chunks(records, left, right):
        out[rows] = linear_scores(features, weights, bias)
    return out


class TrainedScorer(PairwiseScorer):
    """Signed log-odds of a trained logistic classifier (the paper's P)."""

    def __init__(self, featurizer: PairFeaturizer, classifier: LogisticRegression):
        self._featurizer = featurizer
        self._classifier = classifier

    def score_pairs(self, records, left, right) -> np.ndarray:
        classifier = self._classifier
        return _linear_block(
            self._featurizer,
            records,
            left,
            right,
            classifier.coef_,
            classifier.intercept_,
        )

    def score(self, a: Record, b: Record) -> float:
        return self.score_one(a, b)


class WeightedScorer(PairwiseScorer):
    """Hand-tuned linear combination of features, shifted by *bias*.

    ``score = weights . features + bias`` — the paper's "hand tuned
    weighted combination of the similarity between the record pairs".
    A negative bias makes dissimilar pairs score negative.
    """

    def __init__(
        self,
        featurizer: PairFeaturizer,
        weights: Sequence[float],
        bias: float,
    ):
        if len(weights) != featurizer.n_features:
            raise ValueError(
                f"{len(weights)} weights for {featurizer.n_features} features"
            )
        self._featurizer = featurizer
        self._weights = np.asarray(weights, dtype=float)
        self._bias = bias

    def score_pairs(self, records, left, right) -> np.ndarray:
        return _linear_block(
            self._featurizer, records, left, right, self._weights, self._bias
        )

    def score(self, a: Record, b: Record) -> float:
        return self.score_one(a, b)


class CachedScorer(PairwiseScorer):
    """Memoize an inner scorer by unordered record-id pair.

    A block's uncached pairs go to the inner scorer as one block (each
    distinct pair once), and the cache is filled from its result.
    """

    def __init__(self, inner: PairwiseScorer):
        self._inner = inner
        self._cache: dict[tuple[int, int], float] = {}
        self.n_evaluations = 0

    def fresh(self) -> "CachedScorer":
        """Return a new empty cache over the same inner scorer.

        Timing experiments use this so each measured run pays the full
        cost of its own P evaluations instead of reusing a warm cache.
        """
        return CachedScorer(self._inner)

    @property
    def scores_in_blocks(self) -> bool:
        # Uncached pairs are scored by the inner scorer, at its grain.
        return self._inner.scores_in_blocks

    def score_pairs(self, records, left, right) -> np.ndarray:
        cache = self._cache
        out = np.empty(len(left), dtype=np.float64)
        # Uncached pair key -> the rows that ask for it.
        missing: dict[tuple[int, int], list[int]] = {}
        for row, (i, j) in enumerate(zip(left.tolist(), right.tolist())):
            id_a = records[i].record_id
            id_b = records[j].record_id
            key = (id_a, id_b) if id_a <= id_b else (id_b, id_a)
            cached = cache.get(key)
            if cached is None:
                missing.setdefault(key, []).append(row)
            else:
                out[row] = cached
        if missing:
            first = np.fromiter(
                (rows[0] for rows in missing.values()),
                dtype=np.int64,
                count=len(missing),
            )
            scores = self._inner.score_pairs(records, left[first], right[first])
            for (key, rows), value in zip(missing.items(), scores.tolist()):
                cache[key] = value
                out[rows] = value
            self.n_evaluations += len(missing)
        return out

    def score(self, a: Record, b: Record) -> float:
        return self.score_one(a, b)


def train_scorer(
    featurizer: PairFeaturizer,
    pairs: Sequence[tuple[Record, Record]],
    labels: Sequence[int],
    l2: float = 1.0,
) -> TrainedScorer:
    """Train a logistic classifier on labeled pairs; return its scorer.

    *labels* are 1 for duplicate pairs, 0 for non-duplicates.
    """
    if len(pairs) != len(labels):
        raise ValueError(f"{len(pairs)} pairs but {len(labels)} labels")
    x = featurizer.matrix(pairs)
    y = np.asarray(labels, dtype=float)
    classifier = LogisticRegression(l2=l2).fit(x, y)
    return TrainedScorer(featurizer, classifier)
