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

    @classmethod
    def from_stats(cls, df: dict[str, int], n_docs: int) -> "IdfTable":
        """Rebuild a table from persisted ``df`` statistics.

        Produces a table indistinguishable from one built by scanning
        the original corpus — the statistics *are* the whole state.
        Used when a serialized TF-IDF index restores without the corpus.
        """
        table = cls(())
        table._df = dict(df)
        table._n_docs = int(n_docs)
        table._max_idf = math.log(n_docs) if n_docs > 0 else 0.0
        return table

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


def save_tfidf_index(index: TfIdfIndex, path) -> None:
    """Serialize a :class:`TfIdfIndex` into one mappable array container.

    The file holds the IDF statistics (token pool + document
    frequencies), every stored vector as one CSR matrix, and the
    inverted index as posting lists of ``(doc_id, stored weight)`` —
    the weight is the doc's own normalized component for that token, so
    a probe scores candidates from the postings alone, never touching
    the vectors.  :func:`load_tfidf_index` serves queries straight from
    the mapped arrays with answers bit-identical to the live index.
    """
    import numpy as np

    from ..storage.layout import write_arrays
    from ..storage.strings import StringPool

    # One token pool covers both the df table and the vectors (a vector
    # can hold corpus-unseen tokens when the IdfTable came from a
    # different corpus; they get df 0, which round-trips to max-idf).
    slots: dict[str, int] = {}
    df_table = index._idf._df
    for token in df_table:
        slots.setdefault(token, len(slots))
    for vec in index._vectors.values():
        for token in vec:
            slots.setdefault(token, len(slots))
    tokens = list(slots)
    df_counts = np.asarray(
        [df_table.get(token, 0) for token in tokens], dtype=np.int64
    )

    doc_ids = np.asarray(list(index._vectors), dtype=np.int64)
    vec_indptr = [0]
    vec_tokens: list[int] = []
    vec_weights: list[float] = []
    for vec in index._vectors.values():
        for token, weight in vec.items():
            vec_tokens.append(slots[token])
            vec_weights.append(weight)
        vec_indptr.append(len(vec_tokens))

    post_indptr = [0]
    post_docs: list[int] = []
    post_weights: list[float] = []
    for token in tokens:
        for doc_id in index._postings.get(token, ()):
            post_docs.append(doc_id)
            post_weights.append(index._vectors[doc_id][token])
        post_indptr.append(len(post_docs))

    pool = StringPool.build(tokens)
    arrays = dict(pool.to_arrays("tokens."))
    arrays.update(
        {
            "df": df_counts,
            "doc_ids": doc_ids,
            "vec.indptr": np.asarray(vec_indptr, dtype=np.int64),
            "vec.tokens": np.asarray(vec_tokens, dtype=np.int32),
            "vec.weights": np.asarray(vec_weights, dtype=np.float64),
            "post.indptr": np.asarray(post_indptr, dtype=np.int64),
            "post.docs": np.asarray(post_docs, dtype=np.int64),
            "post.weights": np.asarray(post_weights, dtype=np.float64),
        }
    )
    meta = {"kind": "tfidf-index", "n_docs": index._idf.n_documents}
    write_arrays(path, arrays, meta)


def load_tfidf_index(path) -> "MappedTfIdfIndex":
    """Map a serialized index; postings and vectors stay on disk."""
    return MappedTfIdfIndex(path)


class MappedTfIdfIndex:
    """A read-only :class:`TfIdfIndex` served from memory-mapped arrays.

    Mirrors the query surface (``candidates_above``, ``vector``,
    ``cosine``, sizes) with bit-identical answers: stored weights are
    the same float64 values the live index holds, posting lists keep
    their insertion order, and scoring accumulates per probe token in
    probe-vector order — exactly the arithmetic of
    :meth:`TfIdfIndex.candidates_above`, term for term.  Only the
    token→slot and doc-id→row dictionaries are resident; the weight
    payload pages in on demand.
    """

    def __init__(self, path):
        from ..storage.layout import ArrayFileError, MappedArrays
        from ..storage.strings import StringPool

        mapped = MappedArrays(path)
        if mapped.meta.get("kind") != "tfidf-index":
            raise ArrayFileError(
                f"{path} is not a serialized TF-IDF index "
                f"(kind={mapped.meta.get('kind')!r})"
            )
        arrays = mapped.arrays
        tokens = list(StringPool.from_arrays(arrays, "tokens."))
        self._idf = IdfTable.from_stats(
            dict(zip(tokens, arrays["df"].tolist())),
            int(mapped.meta["n_docs"]),
        )
        self._slots = {token: slot for slot, token in enumerate(tokens)}
        self._tokens = tokens
        self._doc_ids = arrays["doc_ids"]
        self._rows = {
            int(doc_id): row
            for row, doc_id in enumerate(self._doc_ids.tolist())
        }
        self._vec_indptr = arrays["vec.indptr"]
        self._vec_tokens = arrays["vec.tokens"]
        self._vec_weights = arrays["vec.weights"]
        self._post_indptr = arrays["post.indptr"]
        self._post_docs = arrays["post.docs"]
        self._post_weights = arrays["post.weights"]

    @property
    def idf(self) -> IdfTable:
        """The restored IDF table (identical statistics to the original)."""
        return self._idf

    def __len__(self) -> int:
        return len(self._doc_ids)

    @property
    def n_posting_entries(self) -> int:
        return len(self._post_docs)

    def vector(self, doc_id: int) -> dict[str, float]:
        """Materialize the stored normalized vector for *doc_id*."""
        row = self._rows[doc_id]
        start, end = int(self._vec_indptr[row]), int(self._vec_indptr[row + 1])
        return {
            self._tokens[slot]: weight
            for slot, weight in zip(
                self._vec_tokens[start:end].tolist(),
                self._vec_weights[start:end].tolist(),
            )
        }

    def cosine(self, doc_id_a: int, doc_id_b: int) -> float:
        return tfidf_cosine(self.vector(doc_id_a), self.vector(doc_id_b))

    def candidates_above(
        self, tokens: Sequence[str], threshold: float
    ) -> list[tuple[int, float]]:
        """Identical contract (and floats) as the live index's method."""
        probe = self._idf.weight_vector(tokens)
        scores: dict[int, float] = defaultdict(float)
        for token, weight in probe.items():
            slot = self._slots.get(token)
            if slot is None:
                continue
            start = int(self._post_indptr[slot])
            end = int(self._post_indptr[slot + 1])
            for doc_id, stored in zip(
                self._post_docs[start:end].tolist(),
                self._post_weights[start:end].tolist(),
            ):
                scores[doc_id] += weight * stored
        return sorted(
            ((doc_id, s) for doc_id, s in scores.items() if s >= threshold),
            key=lambda pair: (-pair[1], pair[0]),
        )
