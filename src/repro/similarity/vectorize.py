"""Record-pair feature extraction for the final-predicate classifier.

The paper's final criterion P is a trained binary classifier over
"standard similarity functions like Jaccard and Overlap count on the name
and co-authors fields with 3-grams and initials as signature", a
JaroWinkler feature, and the custom IDF similarities of Section 6.1.1.
A :class:`PairFeaturizer` bundles named features; the per-dataset
constructors assemble the paper's feature sets.

Features are computed for a whole block of pairs at once
(:meth:`PairFeaturizer.block`): each record is encoded once per block
(token sets as CSR arrays, texts as code points), and every library
feature is one NumPy column over the pair-index arrays — set Jaccard and
overlap from :func:`~repro.similarity.encoding.pair_common_tokens`, the
custom IDF similarities, exact match and
:func:`~repro.similarity.strings.jaro_winkler_pairs`.  Every value is
bit-identical to the scalar measure it mirrors, so a one-pair vector is
a one-row block.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable, Hashable, Iterator, Sequence

import numpy as np

from ..core.records import Record
from .encoding import (
    EncodedSetCorpus,
    TokenDictionary,
    jaccard_block,
    overlap_block,
    pair_common_tokens,
    pair_intersection_counts,
)
from .strings import encode_code_points, jaro_winkler_pairs
from .tfidf import IdfTable
from .tokenize import (
    ADDRESS_STOP_WORDS,
    cached_content_word_set,
    cached_initial_set,
    cached_ngram_set,
    cached_word_set,
    normalize,
    words,
)

PairFeature = Callable[[Record, Record], float]

#: Pairs per pair-kernel call in :meth:`PairFeaturizer.block`.  Records
#: are encoded once per block call; only the per-pair gathers (token
#: rows, padded characters) grow with this, so peak memory stays flat
#: however large the block is.
PAIR_CHUNK = 4096

#: Token-set shapes a :class:`SetFeature` can compare.
_TOKENIZERS: dict[str, Callable[[str], frozenset]] = {
    "ngram": cached_ngram_set,
    "word": cached_word_set,
    "initials": cached_initial_set,
}


class BlockEncodings:
    """The encodings of one block call's records, built once each.

    Every feature reading the same field the same way (say, the author
    3-gram sets behind both a Jaccard and an overlap feature) shares one
    encoding.
    """

    def __init__(self, records: Sequence[Record]):
        self.records = records
        self._memo: dict[Hashable, object] = {}

    def memo(self, key: Hashable, build: Callable[[], object]):
        """The value stored under *key*, built by *build* on first use."""
        value = self._memo.get(key)
        if value is None:
            value = self._memo[key] = build()
        return value

    def token_sets(
        self, field: str, kind: str, stop_words: frozenset[str] = frozenset()
    ) -> EncodedSetCorpus:
        """Each record's *kind* token set of *field*, as a CSR corpus."""
        if kind == "content":
            def tokenize(text: str) -> frozenset:
                return cached_content_word_set(text, stop_words)
        else:
            tokenize = _TOKENIZERS[kind]
        return self.memo(
            ("sets", field, kind, stop_words),
            lambda: EncodedSetCorpus.from_sets(
                [tokenize(record[field]) for record in self.records]
            ),
        )

    def normalized(self, field: str) -> list[str]:
        """Each record's normalized *field* text."""
        return self.memo(
            ("normalized", field),
            lambda: [normalize(record[field]) for record in self.records],
        )

    def text_ids(self, field: str) -> np.ndarray:
        """Equal ids exactly for equal normalized *field* texts."""
        return self.memo(
            ("text_ids", field),
            lambda: TokenDictionary().encode(self.normalized(field)),
        )

    def code_points(self, field: str) -> tuple[np.ndarray, np.ndarray]:
        """The normalized *field* texts as a code-point CSR."""
        return self.memo(
            ("code_points", field),
            lambda: encode_code_points(self.normalized(field)),
        )

    def word_sequences(self, field: str) -> tuple[np.ndarray, np.ndarray]:
        """(ids equal exactly for equal word lists, full-name flags) of
        *field*; a full name has words and no one-letter word."""

        def build() -> tuple[np.ndarray, np.ndarray]:
            sequences = [words(record[field]) for record in self.records]
            ids = TokenDictionary().encode(tuple(seq) for seq in sequences)
            full = np.fromiter(
                (
                    bool(seq) and all(len(word) > 1 for word in seq)
                    for seq in sequences
                ),
                dtype=bool,
                count=len(sequences),
            )
            return ids, full

        return self.memo(("word_sequences", field), build)


class PairChunk:
    """One chunk of pairs (record positions into a :class:`BlockEncodings`)."""

    def __init__(
        self, encodings: BlockEncodings, left: np.ndarray, right: np.ndarray
    ):
        self.encodings = encodings
        self.left = left
        self.right = right
        self._common: dict[Hashable, tuple[np.ndarray, np.ndarray]] = {}

    def __len__(self) -> int:
        return len(self.left)

    def common_tokens(
        self, field: str, kind: str, stop_words: frozenset[str] = frozenset()
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(pair, token)`` of the tokens each pair's sets share."""
        key = (field, kind, stop_words)
        common = self._common.get(key)
        if common is None:
            corpus = self.encodings.token_sets(field, kind, stop_words)
            common = self._common[key] = pair_common_tokens(
                corpus.indptr, corpus.token_ids, self.left, self.right
            )
        return common


class ColumnFeature(ABC):
    """A pair feature computed as one float64 column per chunk of pairs."""

    @abstractmethod
    def column(self, chunk: PairChunk) -> np.ndarray:
        """The feature's value for every pair of *chunk*."""


class SetFeature(ColumnFeature):
    """Jaccard or overlap coefficient of two records' token sets.

    *kind* is ``"ngram"`` (3-grams), ``"word"``, ``"initials"`` or
    ``"content"`` (words minus *stop_words*); *measure* is ``"jaccard"``
    or ``"overlap"``.  Equal, bit for bit, to
    :func:`~repro.similarity.measures.jaccard` /
    :func:`~repro.similarity.measures.overlap_coefficient` on the
    :mod:`~repro.similarity.tokenize` sets.
    """

    def __init__(
        self,
        field: str,
        kind: str,
        measure: str = "jaccard",
        stop_words: frozenset[str] = frozenset(),
    ):
        if kind not in (*_TOKENIZERS, "content"):
            raise ValueError(f"unknown token-set kind {kind!r}")
        if measure not in ("jaccard", "overlap"):
            raise ValueError(f"measure must be 'jaccard' or 'overlap', got {measure!r}")
        self.field = field
        self.kind = kind
        self.measure = measure
        self.stop_words = frozenset(stop_words)

    def column(self, chunk: PairChunk) -> np.ndarray:
        pair, _ = chunk.common_tokens(self.field, self.kind, self.stop_words)
        sizes = chunk.encodings.token_sets(
            self.field, self.kind, self.stop_words
        ).sizes()
        block = jaccard_block if self.measure == "jaccard" else overlap_block
        return block(
            pair_intersection_counts(pair, len(chunk)),
            sizes[chunk.left],
            sizes[chunk.right],
        )


class JaroWinklerFeature(ColumnFeature):
    """:func:`~repro.similarity.strings.jaro_winkler` of the normalized
    *field* texts."""

    def __init__(self, field: str):
        self.field = field

    def column(self, chunk: PairChunk) -> np.ndarray:
        indptr, codes = chunk.encodings.code_points(self.field)
        return jaro_winkler_pairs(indptr, codes, chunk.left, chunk.right)


class ExactFeature(ColumnFeature):
    """1.0 when the normalized *field* texts are equal, else 0.0."""

    def __init__(self, field: str):
        self.field = field

    def column(self, chunk: PairChunk) -> np.ndarray:
        ids = chunk.encodings.text_ids(self.field)
        return (ids[chunk.left] == ids[chunk.right]).astype(np.float64)


class IdfNameFeature(ColumnFeature):
    """The Section 6.1.1 custom IDF similarity of the *field* words.

    :func:`~repro.similarity.custom.custom_author_similarity` as a
    column, or with *coauthor* set
    :func:`~repro.similarity.custom.custom_coauthor_similarity`; equal
    to them bit for bit (the largest shared-word IDF is a max, which no
    evaluation order can change).
    """

    def __init__(self, field: str, idf: IdfTable, coauthor: bool = False):
        self.field = field
        self.idf = idf
        self.coauthor = coauthor

    def column(self, chunk: PairChunk) -> np.ndarray:
        encodings = chunk.encodings
        left, right = chunk.left, chunk.right
        corpus = encodings.token_sets(self.field, "word")
        token_idf = encodings.memo(
            ("idf", self.field, id(self.idf)),
            lambda: np.array(
                [self.idf.idf(word) for word in corpus.dictionary.tokens()],
                dtype=np.float64,
            ),
        )
        pair, token = chunk.common_tokens(self.field, "word")
        score = np.zeros(len(chunk), dtype=np.float64)
        max_possible = self.idf.max_idf_bound()
        if len(pair) and max_possible > 0:
            starts = np.flatnonzero(np.r_[True, pair[1:] != pair[:-1]])
            best = np.maximum.reduceat(token_idf[token], starts)
            score[pair[starts]] = np.minimum(best / max_possible, 0.999)
        sequence_ids, full = encodings.word_sequences(self.field)
        score[(sequence_ids[left] == sequence_ids[right]) & full[left]] = 1.0
        if not self.coauthor:
            return score
        sizes = corpus.sizes()
        fraction = overlap_block(
            pair_intersection_counts(pair, len(chunk)), sizes[left], sizes[right]
        )
        return np.where((score == 0.0) | (score == 1.0), score, fraction)


class PairFeaturizer:
    """A named bundle of pair features producing fixed-length vectors.

    A feature is a :class:`ColumnFeature` (every library feature) or a
    plain ``(record, record) -> float`` callable, which :meth:`block`
    maps over the pairs one at a time.
    """

    def __init__(self, features: Sequence[tuple[str, ColumnFeature | PairFeature]]):
        if not features:
            raise ValueError("need at least one feature")
        self._names = [name for name, _ in features]
        self._functions = [fn for _, fn in features]

    @property
    def names(self) -> list[str]:
        """Feature names, in vector order."""
        return list(self._names)

    @property
    def n_features(self) -> int:
        return len(self._functions)

    def block(
        self,
        records: Sequence[Record],
        left: Sequence[int] | np.ndarray,
        right: Sequence[int] | np.ndarray,
    ) -> np.ndarray:
        """Feature matrix of the pairs ``(records[left[t]], records[right[t]])``.

        Returns a ``(len(left), n_features)`` float64 array, assembled
        from :meth:`chunks`.  A row depends only on its own pair, so it
        is the same whatever block it is computed in.
        """
        out = np.empty((len(left), self.n_features), dtype=np.float64)
        for rows, values in self.chunks(records, left, right):
            out[rows] = values
        return out

    def chunks(
        self,
        records: Sequence[Record],
        left: Sequence[int] | np.ndarray,
        right: Sequence[int] | np.ndarray,
    ) -> Iterator[tuple[slice, np.ndarray]]:
        """The rows of :meth:`block`, :data:`PAIR_CHUNK` pairs at a time,
        as ``(row slice, feature matrix)``.

        Each record the pairs touch is encoded once for the whole call;
        the pair kernels then run chunk by chunk, so a consumer that
        reduces each chunk (the linear scorers) never holds more than
        one chunk's features.
        """
        left = np.asarray(left, dtype=np.int64)
        right = np.asarray(right, dtype=np.int64)
        n_pairs = len(left)
        if n_pairs == 0:
            return
        used, local = np.unique(np.concatenate((left, right)), return_inverse=True)
        encodings = BlockEncodings([records[i] for i in used.tolist()])
        for start in range(0, n_pairs, PAIR_CHUNK):
            stop = min(start + PAIR_CHUNK, n_pairs)
            chunk = PairChunk(
                encodings, local[start:stop], local[n_pairs + start : n_pairs + stop]
            )
            values = np.empty((stop - start, self.n_features), dtype=np.float64)
            for column, feature in enumerate(self._functions):
                values[:, column] = (
                    feature.column(chunk)
                    if isinstance(feature, ColumnFeature)
                    else _mapped(feature, chunk)
                )
            yield slice(start, stop), values

    def vector(self, a: Record, b: Record) -> np.ndarray:
        """Return the feature vector of the pair (a, b): one block row."""
        return self.block((a, b), [0], [1])[0]

    def matrix(self, pairs: Sequence[tuple[Record, Record]]) -> np.ndarray:
        """Return the (len(pairs), n_features) matrix for many pairs."""
        position: dict[int, int] = {}
        records: list[Record] = []
        index = np.empty((2, len(pairs)), dtype=np.int64)
        for t, pair in enumerate(pairs):
            for side, record in enumerate(pair):
                # By identity: records are encoded once per block, and
                # distinct records may share a record_id.
                at = position.get(id(record))
                if at is None:
                    at = position[id(record)] = len(records)
                    records.append(record)
                index[side, t] = at
        return self.block(records, index[0], index[1])


def _mapped(feature: PairFeature, chunk: PairChunk) -> np.ndarray:
    records = chunk.encodings.records
    return np.fromiter(
        (
            feature(records[i], records[j])
            for i, j in zip(chunk.left.tolist(), chunk.right.tolist())
        ),
        dtype=np.float64,
        count=len(chunk),
    )


def citation_featurizer(idf: IdfTable) -> PairFeaturizer:
    """The Section 6.1.1 citation feature set (author + co-author fields)."""
    return PairFeaturizer(
        [
            ("author_3gram_jaccard", SetFeature("author", "ngram")),
            ("author_word_jaccard", SetFeature("author", "word")),
            ("author_3gram_overlap", SetFeature("author", "ngram", "overlap")),
            ("author_initials_jaccard", SetFeature("author", "initials")),
            ("author_jaro_winkler", JaroWinklerFeature("author")),
            ("coauthor_word_jaccard", SetFeature("coauthors", "word")),
            ("coauthor_3gram_jaccard", SetFeature("coauthors", "ngram")),
            ("custom_author", IdfNameFeature("author", idf)),
            ("custom_coauthor", IdfNameFeature("coauthors", idf, coauthor=True)),
        ]
    )


def name_only_featurizer() -> PairFeaturizer:
    """Feature set for single-field name datasets (the Authors sample)."""
    return PairFeaturizer(
        [
            ("name_3gram_jaccard", SetFeature("name", "ngram")),
            ("name_word_jaccard", SetFeature("name", "word")),
            ("name_3gram_overlap", SetFeature("name", "ngram", "overlap")),
            ("name_initials_jaccard", SetFeature("name", "initials")),
            ("name_jaro_winkler", JaroWinklerFeature("name")),
        ]
    )


def address_featurizer(idf: IdfTable | None = None) -> PairFeaturizer:
    """The Section 6.1.3 address feature set (name, address, pin fields)."""
    features: list[tuple[str, ColumnFeature]] = [
        ("name_3gram_jaccard", SetFeature("name", "ngram")),
        ("name_initials_jaccard", SetFeature("name", "initials")),
        ("name_jaro_winkler", JaroWinklerFeature("name")),
        ("address_3gram_jaccard", SetFeature("address", "ngram")),
        (
            "address_word_overlap",
            SetFeature("address", "content", "overlap", ADDRESS_STOP_WORDS),
        ),
        ("pin_exact", ExactFeature("pin")),
    ]
    if idf is not None:
        features.append(("custom_name", IdfNameFeature("name", idf)))
    return PairFeaturizer(features)


#: Decorative tokens the second guide adds or strips ("the spice garden
#: restaurant" vs "spice garden").
_RESTAURANT_DECOR = frozenset({"the", "restaurant", "cafe", "diner", "grill"})


def restaurant_featurizer() -> PairFeaturizer:
    """Feature set for the restaurant benchmark (name + address fields).

    Includes decoration-stripped word overlap: guide listings differ by
    "the …" prefixes and "… restaurant/cafe/diner" suffixes, which
    Jaccard alone punishes.
    """
    return PairFeaturizer(
        [
            ("name_3gram_jaccard", SetFeature("name", "ngram")),
            ("name_word_jaccard", SetFeature("name", "word")),
            ("name_word_overlap", SetFeature("name", "word", "overlap")),
            (
                "name_stripped_overlap",
                SetFeature("name", "content", "overlap", _RESTAURANT_DECOR),
            ),
            ("name_jaro_winkler", JaroWinklerFeature("name")),
            ("address_3gram_jaccard", SetFeature("address", "ngram")),
            ("address_word_jaccard", SetFeature("address", "word")),
            ("city_exact", ExactFeature("city")),
        ]
    )
