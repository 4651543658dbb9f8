"""TF-IDF canopy predicate (McCallum, Nigam & Ungar [26]).

Section 3: "a cheap canopy predicate is used to filter the set of tuple
pairs that are likely to be duplicates.  For example [26, 15] proposes
to use TFIDF similarity on entity names to find likely duplicates.
TFIDF similarity can be evaluated efficiently using an inverted index."

:class:`TfIdfCanopy` packages exactly that as a
:class:`~repro.predicates.base.Predicate`, so it can serve as a
necessary predicate / canopy anywhere the generic ones do.  The corpus
statistics are built once from the store the canopy will run against.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Sequence

from ..core.records import Record
from ..similarity.tfidf import IdfTable, tfidf_cosine
from ..similarity.tokenize import words
from .base import Predicate


class TfIdfCanopy(Predicate):
    """TF-IDF cosine on *field* >= *threshold*, with IDF-pruned blocking.

    Blocking keys are the record's tokens whose individual squared
    normalized weight could still push a pair over the threshold — a
    token contributing less than ``threshold^2 / len(tokens)`` to the
    cosine of even a perfectly matching pair cannot be the sole witness,
    but removing keys must preserve the guarantee, so only tokens that
    are *universally* weak (stop-word-like, bottom of the IDF table) are
    dropped, and only when the record has stronger tokens to stand on.
    In practice this strips high-frequency noise words from the index
    while keeping the canopy sound for the threshold given.
    """

    def __init__(
        self,
        field: str,
        idf: IdfTable,
        threshold: float = 0.3,
        name: str = "",
    ):
        if not 0.0 < threshold <= 1.0:
            raise ValueError(f"threshold must be in (0, 1], got {threshold}")
        self._field = field
        self._idf = idf
        self._threshold = threshold
        self._vectors: dict[int, dict[str, float]] = {}
        self.name = name or f"tfidf-canopy({field}>={threshold})"
        self.cost = 0.6

    @classmethod
    def from_records(
        cls,
        records: Sequence[Record],
        field: str,
        threshold: float = 0.3,
        name: str = "",
    ) -> "TfIdfCanopy":
        """Build the IDF table from *records* and return the canopy."""
        idf = IdfTable(words(record[field]) for record in records)
        return cls(field, idf, threshold=threshold, name=name)

    def _vector(self, record: Record) -> dict[str, float]:
        cached = self._vectors.get(record.record_id)
        if cached is None:
            cached = self._idf.weight_vector(words(record[self._field]))
            self._vectors[record.record_id] = cached
        return cached

    def evaluate(self, a: Record, b: Record) -> bool:
        return tfidf_cosine(self._vector(a), self._vector(b)) >= self._threshold

    def blocking_keys(self, record: Record) -> Iterable[Hashable]:
        vector = self._vector(record)
        if not vector:
            return
        # Soundness: if cosine(a, b) >= t then some shared token
        # contributes >= t / m of the dot product (m = shared tokens
        # <= len(vector_a)); with the other side's weight <= 1 that
        # witness has weight_a >= t / len(vector_a).  Tokens below that
        # cutoff can never be the witness on this record's side.
        cutoff = self._threshold / len(vector)
        yield from (
            token for token, weight in vector.items() if weight >= cutoff
        )


def canopy_pairs(
    records: Sequence[Record],
    field: str,
    threshold: float = 0.3,
) -> list[tuple[int, int]]:
    """Convenience: all position pairs with TF-IDF cosine >= threshold."""
    from .blocking import candidate_pairs

    canopy = TfIdfCanopy.from_records(records, field, threshold)
    return list(candidate_pairs(canopy, records, verify=True))
