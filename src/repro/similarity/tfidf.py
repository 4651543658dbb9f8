"""Corpus-level IDF statistics and TF-IDF cosine similarity.

Two of the paper's predicates are IDF-aware ("the minimum IDF over two
author words is at least 13", Section 6.1.1), and TF-IDF cosine is both a
classic canopy predicate [26] and a classifier feature.  The
:class:`IdfTable` is built once per corpus from an iterable of token lists;
:class:`TfIdfIndex` adds an inverted index so canopy-style candidate
retrieval never scans the whole corpus.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from collections.abc import Iterable, Sequence


class IdfTable:
    """Inverse-document-frequency statistics over a token corpus.

    IDF of token ``t`` is ``log(N / df(t))`` with natural log, where ``N``
    is the number of documents and ``df`` the number of documents
    containing ``t``.  Unseen tokens get the maximum possible IDF,
    ``log(N)`` (they are rarer than anything observed).
    """

    def __init__(self, documents: Iterable[Iterable[str]]):
        df: Counter[str] = Counter()
        n_docs = 0
        for doc in documents:
            n_docs += 1
            df.update(set(doc))
        self._df = dict(df)
        self._n_docs = n_docs
        self._max_idf = math.log(n_docs) if n_docs > 0 else 0.0

    @property
    def n_documents(self) -> int:
        """Number of documents the table was built from."""
        return self._n_docs

    def document_frequency(self, token: str) -> int:
        """Return how many documents contain *token* (0 if unseen)."""
        return self._df.get(token, 0)

    def idf(self, token: str) -> float:
        """Return the IDF of *token*; unseen tokens get ``log(N)``."""
        df = self._df.get(token)
        if df is None or df == 0:
            return self._max_idf
        return math.log(self._n_docs / df)

    def min_idf(self, tokens: Iterable[str]) -> float:
        """Return the smallest IDF among *tokens*; +inf for no tokens."""
        return min((self.idf(t) for t in tokens), default=math.inf)

    def max_idf(self, tokens: Iterable[str]) -> float:
        """Return the largest IDF among *tokens*; 0.0 for no tokens."""
        return max((self.idf(t) for t in tokens), default=0.0)

    def max_idf_bound(self) -> float:
        """Largest IDF the table can report: log(N), the unseen-token IDF."""
        return self._max_idf

    def weight_vector(self, tokens: Sequence[str]) -> dict[str, float]:
        """Return the L2-normalized TF-IDF vector of a token sequence."""
        tf = Counter(tokens)
        vec = {t: count * self.idf(t) for t, count in tf.items()}
        norm = math.sqrt(sum(w * w for w in vec.values()))
        if norm > 0:
            vec = {t: w / norm for t, w in vec.items()}
        return vec


def tfidf_cosine(vec_a: dict[str, float], vec_b: dict[str, float]) -> float:
    """Return the cosine of two (already normalized) sparse vectors."""
    if len(vec_a) > len(vec_b):
        vec_a, vec_b = vec_b, vec_a
    return sum(w * vec_b.get(t, 0.0) for t, w in vec_a.items())


class TfIdfIndex:
    """Inverted TF-IDF index supporting threshold-based candidate retrieval.

    This is the classic canopy machinery of McCallum et al. [26]: an
    inverted index over normalized TF-IDF vectors lets us find, for a probe
    document, every indexed document with cosine above a threshold without
    touching unrelated documents.
    """

    def __init__(self, idf: IdfTable):
        self._idf = idf
        self._vectors: dict[int, dict[str, float]] = {}
        self._postings: dict[str, list[int]] = defaultdict(list)

    def add(self, doc_id: int, tokens: Sequence[str]) -> None:
        """Index *tokens* under *doc_id*.  Re-adding an id is an error."""
        if doc_id in self._vectors:
            raise ValueError(f"document id {doc_id} already indexed")
        vec = self._idf.weight_vector(tokens)
        self._vectors[doc_id] = vec
        # Tokens appearing in every document have IDF 0 and so weight 0:
        # they can never contribute to a dot product, but their posting
        # lists are the longest in the index (every document posts them).
        # Skipping them shrinks the index and removes the degenerate
        # candidates they would surface (cosine contribution exactly 0).
        for token, weight in vec.items():
            if weight > 0.0:
                self._postings[token].append(doc_id)

    def __len__(self) -> int:
        return len(self._vectors)

    @property
    def n_posting_entries(self) -> int:
        """Total ``(token, document)`` entries across all posting lists."""
        return sum(len(ids) for ids in self._postings.values())

    def vector(self, doc_id: int) -> dict[str, float]:
        """Return the stored normalized vector for *doc_id*."""
        return self._vectors[doc_id]

    def cosine(self, doc_id_a: int, doc_id_b: int) -> float:
        """Return the cosine between two indexed documents."""
        return tfidf_cosine(self._vectors[doc_id_a], self._vectors[doc_id_b])

    def candidates_above(
        self, tokens: Sequence[str], threshold: float
    ) -> list[tuple[int, float]]:
        """Return ``(doc_id, cosine)`` pairs with cosine >= *threshold*.

        Accumulates partial dot products over the postings of the probe's
        tokens, so only documents sharing at least one token are scored.
        """
        probe = self._idf.weight_vector(tokens)
        scores: dict[int, float] = defaultdict(float)
        for token, weight in probe.items():
            for doc_id in self._postings.get(token, ()):
                scores[doc_id] += weight * self._vectors[doc_id].get(token, 0.0)
        # Tie-break equal cosines by doc_id: dict accumulation order
        # reflects posting-list traversal, which must not leak into the
        # result (canopy candidate lists have to be deterministic across
        # runs).
        return sorted(
            ((doc_id, s) for doc_id, s in scores.items() if s >= threshold),
            key=lambda pair: (-pair[1], pair[0]),
        )
