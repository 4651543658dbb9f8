"""Concrete predicates: the paper's Section 6.1 suites plus generic forms.

Each of the paper's three evaluation datasets comes with hand-designed
sufficient predicates (S1, S2) and necessary predicates (N1, N2).  This
module implements them exactly as described, on top of a few reusable
generic predicate shapes (exact-match, n-gram overlap, word overlap).

Factory functions at the bottom assemble the per-dataset
:class:`~repro.predicates.base.PredicateLevel` lists consumed by
``PrunedDedup``.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Sequence

from ..core.records import Record
from ..similarity.encoding import bitmask_encode
from ..similarity.measures import overlap_coefficient
from ..similarity.tfidf import IdfTable
from ..similarity.tokenize import (
    ADDRESS_STOP_WORDS,
    cached_content_word_set,
    cached_initial_set,
    cached_ngram_set,
    cached_sorted_initials_key,
    cached_word_set,
    normalize,
    words,
)
from .base import Predicate, PredicateLevel
from .batch import OverlapCountRule, SetSimilarityBatch


def _exact_gate(fields: tuple[str, ...]):
    """The batch verifier's gate key over exact-match *fields* (their
    normalized values), or None when there are none."""
    if not fields:
        return None

    def gate_key(record: Record) -> tuple:
        return tuple(normalize(record[f]) for f in fields)

    return gate_key


class ExactFieldsPredicate(Predicate):
    """True when every listed field matches exactly (after normalization).

    The key *is* the matching condition, so ``key_implies_match`` holds
    and closure never verifies pairs.
    """

    key_implies_match = True

    def __init__(self, fields: Sequence[str], name: str = ""):
        if not fields:
            raise ValueError("need at least one field")
        self._fields = list(fields)
        self.name = name or f"exact({','.join(fields)})"
        self.cost = 0.1

    def evaluate(self, a: Record, b: Record) -> bool:
        return all(normalize(a[f]) == normalize(b[f]) for f in self._fields)

    def blocking_keys(self, record: Record) -> Iterable[Hashable]:
        yield tuple(normalize(record[f]) for f in self._fields)


class NgramOverlapPredicate(Predicate):
    """Overlap coefficient of character n-grams on *field* >= threshold.

    Optional *exact_fields* must also match exactly, and
    *require_common_initial* additionally demands a shared name initial
    (the difference between the paper's citation N1 and N2).
    """

    def __init__(
        self,
        field: str,
        threshold: float,
        n: int = 3,
        exact_fields: Sequence[str] = (),
        require_common_initial: bool = False,
        name: str = "",
        cost: float = 1.0,
    ):
        if not 0.0 < threshold <= 1.0:
            raise ValueError(f"threshold must be in (0, 1], got {threshold}")
        self._field = field
        self._threshold = threshold
        self._n = n
        self._exact_fields = tuple(exact_fields)
        self._require_common_initial = require_common_initial
        self.name = name or f"ngram({field}>={threshold})"
        self.cost = cost

    def evaluate(self, a: Record, b: Record) -> bool:
        for f in self._exact_fields:
            if normalize(a[f]) != normalize(b[f]):
                return False
        if self._require_common_initial:
            if not (
                cached_initial_set(a[self._field])
                & cached_initial_set(b[self._field])
            ):
                return False
        grams_a = cached_ngram_set(a[self._field], self._n)
        grams_b = cached_ngram_set(b[self._field], self._n)
        return overlap_coefficient(grams_a, grams_b) >= self._threshold

    def blocking_keys(self, record: Record) -> Iterable[Hashable]:
        prefix = tuple(normalize(record[f]) for f in self._exact_fields)
        for gram in cached_ngram_set(record[self._field], self._n):
            yield (*prefix, gram)

    def batch_count_rule(self, records):
        # Each blocking key is (exact-prefix, gram), so two records'
        # shared-key count IS their gram intersection size when the
        # exact fields agree (and 0 otherwise, correctly rejecting them
        # for any positive threshold); the initials check is the rule's
        # residual bitmask test.
        masks = None
        bit_of_token = None
        if self._require_common_initial:
            encoded = bitmask_encode(
                [cached_initial_set(r[self._field]) for r in records]
            )
            if encoded is None:
                return None
            masks, bit_of_token = encoded
        field = self._field
        return OverlapCountRule(
            self._threshold,
            masks=masks,
            bit_of_token=bit_of_token,
            post_probe=lambda record: cached_initial_set(record[field]),
        )

    def batch_verifier(self, records):
        n = self._n
        field = self._field

        def initials(record):
            return cached_initial_set(record[field])

        return SetSimilarityBatch.build(
            records,
            "overlap_ge",
            {"threshold": self._threshold},
            gate_key=_exact_gate(self._exact_fields),
            initials=initials if self._require_common_initial else None,
            tokens1=lambda r: cached_ngram_set(r[field], n),
        )


class InitialsWordOverlapPredicate(Predicate):
    """At least one common initial on *field*, plus exact *exact_fields*.

    This is the students' N1: "at least one common initial in the name and
    the class and school code match".
    """

    def __init__(self, field: str, exact_fields: Sequence[str] = (), name: str = ""):
        self._field = field
        self._exact_fields = tuple(exact_fields)
        self.name = name or f"common-initial({field})"
        self.cost = 0.3

    def evaluate(self, a: Record, b: Record) -> bool:
        for f in self._exact_fields:
            if normalize(a[f]) != normalize(b[f]):
                return False
        return bool(
            cached_initial_set(a[self._field])
            & cached_initial_set(b[self._field])
        )

    def blocking_keys(self, record: Record) -> Iterable[Hashable]:
        prefix = tuple(normalize(record[f]) for f in self._exact_fields)
        for initial in cached_initial_set(record[self._field]):
            yield (*prefix, initial)

    def batch_verifier(self, records):
        field = self._field
        return SetSimilarityBatch.build(
            records,
            "initials_any",
            {},
            gate_key=_exact_gate(self._exact_fields),
            initials=lambda r: cached_initial_set(r[field]),
        )


class CommonWordsPredicate(Predicate):
    """At least *min_common* shared non-stop words across *fields*.

    The address N1: "the number of common non-stop words in the
    concatenation of the name and address fields be at least 4".

    Blocking uses the classic *prefix filter*: sort a record's words by a
    global total order and emit only the first ``len - min_common + 1``
    as keys — any pair sharing >= min_common words must then share a key.
    Passing *word_frequency* (corpus word -> document frequency) orders
    rarest-first, which shrinks posting lists dramatically; without it a
    lexicographic order is used (correct, less selective).
    """

    def __init__(
        self,
        fields: Sequence[str],
        min_common: int,
        stop_words: frozenset[str] = frozenset(),
        name: str = "",
        word_frequency: dict[str, int] | None = None,
    ):
        if min_common < 1:
            raise ValueError(f"min_common must be >= 1, got {min_common}")
        self._fields = tuple(fields)
        self._min_common = min_common
        self._stop_words = stop_words
        self._word_frequency = word_frequency or {}
        # Word sets are cached per record id; a predicate instance must
        # therefore only be used against a single RecordStore.
        self._by_record: dict[int, frozenset[str]] = {}
        self.name = name or f"common-words(>={min_common})"
        self.cost = 0.5

    def _word_set(self, record: Record) -> frozenset[str]:
        cached = self._by_record.get(record.record_id)
        if cached is None:
            text = " ".join(record[f] for f in self._fields)
            cached = cached_content_word_set(text, self._stop_words)
            self._by_record[record.record_id] = cached
        return cached

    def evaluate(self, a: Record, b: Record) -> bool:
        return len(self._word_set(a) & self._word_set(b)) >= self._min_common

    def blocking_keys(self, record: Record) -> Iterable[Hashable]:
        word_set = self._word_set(record)
        if len(word_set) < self._min_common:
            return  # cannot reach min_common shared words with anyone
        ordered = sorted(
            word_set, key=lambda w: (self._word_frequency.get(w, 0), w)
        )
        yield from ordered[: len(ordered) - self._min_common + 1]

    def batch_verifier(self, records):
        return SetSimilarityBatch.build(
            records,
            "inter_ge",
            {"min_common": self._min_common},
            tokens1=self._word_set,
        )


class JaccardPredicate(Predicate):
    """Jaccard of word sets on *field* >= threshold.

    Generic canopy-style predicate; also the "merge all records with more
    than 90% common words" pre-collapse the paper applies to raw
    citations.
    """

    def __init__(self, field: str, threshold: float, name: str = "", cost: float = 1.0):
        if not 0.0 < threshold <= 1.0:
            raise ValueError(f"threshold must be in (0, 1], got {threshold}")
        self._field = field
        self._threshold = threshold
        self.name = name or f"jaccard({field}>={threshold})"
        self.cost = cost

    def evaluate(self, a: Record, b: Record) -> bool:
        set_a = cached_word_set(a[self._field])
        set_b = cached_word_set(b[self._field])
        if not set_a and not set_b:
            return True
        if not set_a or not set_b:
            return False
        inter = len(set_a & set_b)
        return inter / (len(set_a) + len(set_b) - inter) >= self._threshold

    def blocking_keys(self, record: Record) -> Iterable[Hashable]:
        yield from cached_word_set(record[self._field])

    def batch_verifier(self, records):
        field = self._field
        return SetSimilarityBatch.build(
            records,
            "jaccard_ge",
            {"threshold": self._threshold},
            tokens1=lambda r: cached_word_set(r[field]),
        )


# ---------------------------------------------------------------------------
# Citation dataset predicates (Section 6.1.1)
# ---------------------------------------------------------------------------


class CitationS1(Predicate):
    """Sufficient S1: author initials match exactly, the minimum IDF over
    the two authors' name words is at least *min_idf* ("their names need
    to be sufficiently rare and their initials have to match"), and the
    names agree on their rarest token.

    The rarest-token condition is a strictly tightening refinement of the
    paper's S1 (anything it merges, the paper's S1 merges too, so
    sufficiency is preserved): it anchors each qualifying name to its
    most distinctive word, which stops a typo-induced rare variant of one
    name from matching a different rare name that merely shares initials.

    S1 is an equivalence relation on the qualifying (rare-named) records:
    keys are only emitted for them and two qualifying records match iff
    their keys coincide — so shared key implies match and the closure can
    union whole blocks without pairwise verification.
    """

    key_implies_match = True

    def __init__(
        self,
        idf: IdfTable,
        min_idf: float,
        field: str = "author",
        anchor_idf: IdfTable | None = None,
    ):
        self._idf = idf
        self._min_idf = min_idf
        self._field = field
        # The anchor table picks each name's most distinctive token; a
        # distinct-string IDF avoids ties that a blocked IDF cannot break
        # (see repro.datasets.citations.author_string_idf).
        self._anchor_idf = anchor_idf or idf
        self.name = f"citation-S1(idf>={min_idf:.2f})"
        self.cost = 0.2

    def _rare_enough(self, record: Record) -> bool:
        # All tokens count, single-letter initials included: an initial
        # like "a" is common corpus-wide, so initialized mentions fail
        # the rarity test — exactly what keeps S1 from equating
        # "a sharma" with "a shah" through the shared key "as".
        tokens = words(record[self._field])
        if not tokens:
            return False
        return self._idf.min_idf(tokens) >= self._min_idf

    def _key(self, record: Record) -> tuple[str, str]:
        tokens = words(record[self._field])
        rarest = max(tokens, key=lambda t: (self._anchor_idf.idf(t), t))
        return (cached_sorted_initials_key(record[self._field]), rarest)

    def evaluate(self, a: Record, b: Record) -> bool:
        if not (self._rare_enough(a) and self._rare_enough(b)):
            return False
        return self._key(a) == self._key(b)

    def blocking_keys(self, record: Record) -> Iterable[Hashable]:
        # Records whose own words are too common can never satisfy S1.
        if self._rare_enough(record):
            yield self._key(record)


class CitationS2(Predicate):
    """Sufficient S2: initials match exactly, at least *min_coauthors*
    common co-author words, and last names match.
    """

    def __init__(
        self,
        author_field: str = "author",
        coauthor_field: str = "coauthors",
        min_coauthors: int = 3,
    ):
        self._author_field = author_field
        self._coauthor_field = coauthor_field
        self._min_coauthors = min_coauthors
        self.name = f"citation-S2(coauth>={min_coauthors})"
        self.cost = 0.4

    def _last_name(self, record: Record) -> str:
        tokens = words(record[self._author_field])
        return tokens[-1] if tokens else ""

    def evaluate(self, a: Record, b: Record) -> bool:
        if cached_sorted_initials_key(a[self._author_field]) != cached_sorted_initials_key(
            b[self._author_field]
        ):
            return False
        if self._last_name(a) != self._last_name(b):
            return False
        common = cached_word_set(a[self._coauthor_field]) & cached_word_set(
            b[self._coauthor_field]
        )
        return len(common) >= self._min_coauthors

    def blocking_keys(self, record: Record) -> Iterable[Hashable]:
        yield (
            cached_sorted_initials_key(record[self._author_field]),
            self._last_name(record),
        )

    def batch_verifier(self, records):
        coauthor_field = self._coauthor_field
        return SetSimilarityBatch.build(
            records,
            "inter_ge",
            {"min_common": self._min_coauthors},
            gate_key=lambda r: (
                cached_sorted_initials_key(r[self._author_field]),
                self._last_name(r),
            ),
            tokens1=lambda r: cached_word_set(r[coauthor_field]),
        )


def citation_n1(threshold: float = 0.6) -> Predicate:
    """Necessary N1: common author 3-grams > *threshold* of the smaller set."""
    return NgramOverlapPredicate(
        field="author",
        threshold=threshold,
        name=f"citation-N1(3gram>{threshold})",
        cost=0.8,
    )


def citation_n2(threshold: float = 0.6) -> Predicate:
    """Necessary N2: N1 plus at least one common initial."""
    return NgramOverlapPredicate(
        field="author",
        threshold=threshold,
        require_common_initial=True,
        name=f"citation-N2(3gram>{threshold}+initial)",
        cost=1.0,
    )


def citation_levels(
    idf: IdfTable, min_idf: float, anchor_idf: IdfTable | None = None
) -> list[PredicateLevel]:
    """The two citation predicate levels of Section 6.1.1.

    *anchor_idf* (a distinct-string IDF) sharpens S1's rarest-token
    anchor; without it the rarity table doubles as the anchor table.
    """
    return [
        PredicateLevel(
            CitationS1(idf, min_idf, anchor_idf=anchor_idf),
            citation_n1(),
            name="citation-1",
        ),
        PredicateLevel(CitationS2(), citation_n2(), name="citation-2"),
    ]


# ---------------------------------------------------------------------------
# Students dataset predicates (Section 6.1.2)
# ---------------------------------------------------------------------------


def student_s1() -> Predicate:
    """Sufficient S1: name, class, school and birth date all exact."""
    return ExactFieldsPredicate(
        ["name", "class", "school", "dob"], name="student-S1"
    )


def student_s2(threshold: float = 0.9) -> Predicate:
    """Sufficient S2: like S1 but name needs only 90% 3-gram overlap."""
    return NgramOverlapPredicate(
        field="name",
        threshold=threshold,
        exact_fields=("class", "school", "dob"),
        name=f"student-S2(3gram>={threshold})",
        cost=0.4,
    )


def student_n1() -> Predicate:
    """Necessary N1: one common name initial; class and school exact."""
    return InitialsWordOverlapPredicate(
        field="name", exact_fields=("class", "school"), name="student-N1"
    )


def student_n2(threshold: float = 0.5) -> Predicate:
    """Necessary N2: 50% common name 3-grams; class and school exact."""
    return NgramOverlapPredicate(
        field="name",
        threshold=threshold,
        exact_fields=("class", "school"),
        name=f"student-N2(3gram>={threshold})",
        cost=0.9,
    )


def student_levels() -> list[PredicateLevel]:
    """The two student predicate levels of Section 6.1.2."""
    return [
        PredicateLevel(student_s1(), student_n1(), name="student-1"),
        PredicateLevel(student_s2(), student_n2(), name="student-2"),
    ]


# ---------------------------------------------------------------------------
# Address dataset predicates (Section 6.1.3)
# ---------------------------------------------------------------------------


class AddressS1(Predicate):
    """Sufficient S1: name initials match exactly, common non-stop name
    words > *name_threshold* of the smaller set, and matching non-stop
    address words >= *address_threshold* of the smaller set.
    """

    def __init__(
        self,
        name_threshold: float = 0.7,
        address_threshold: float = 0.6,
        stop_words: frozenset[str] = ADDRESS_STOP_WORDS,
    ):
        self._name_threshold = name_threshold
        self._address_threshold = address_threshold
        self._stop_words = stop_words
        self.name = "address-S1"
        self.cost = 0.5

    def evaluate(self, a: Record, b: Record) -> bool:
        if cached_sorted_initials_key(a["name"]) != cached_sorted_initials_key(b["name"]):
            return False
        name_a = cached_content_word_set(a["name"], self._stop_words)
        name_b = cached_content_word_set(b["name"], self._stop_words)
        if overlap_coefficient(name_a, name_b) <= self._name_threshold:
            return False
        addr_a = cached_content_word_set(a["address"], self._stop_words)
        addr_b = cached_content_word_set(b["address"], self._stop_words)
        return overlap_coefficient(addr_a, addr_b) >= self._address_threshold

    def blocking_keys(self, record: Record) -> Iterable[Hashable]:
        yield cached_sorted_initials_key(record["name"])

    def batch_verifier(self, records):
        stop = self._stop_words
        return SetSimilarityBatch.build(
            records,
            "address_s1",
            {
                "name_threshold": self._name_threshold,
                "address_threshold": self._address_threshold,
            },
            gate_key=lambda r: cached_sorted_initials_key(r["name"]),
            tokens1=lambda r: cached_content_word_set(r["name"], stop),
            tokens2=lambda r: cached_content_word_set(r["address"], stop),
        )


def address_n1(
    min_common: int = 4,
    stop_words: frozenset[str] = ADDRESS_STOP_WORDS,
    word_frequency: dict[str, int] | None = None,
) -> Predicate:
    """Necessary N1: >= *min_common* shared non-stop words of name+address."""
    return CommonWordsPredicate(
        fields=("name", "address"),
        min_common=min_common,
        stop_words=stop_words,
        name=f"address-N1(words>={min_common})",
        word_frequency=word_frequency,
    )


def address_word_frequency(store, stop_words: frozenset[str] = ADDRESS_STOP_WORDS):
    """Document frequency of non-stop name+address words over *store*.

    Feed to :func:`address_n1` so its prefix filter orders rarest-first.
    """
    from collections import Counter

    df: Counter[str] = Counter()
    for record in store:
        text = f"{record['name']} {record['address']}"
        df.update(cached_content_word_set(text, stop_words))
    return dict(df)


def address_levels(store=None) -> list[PredicateLevel]:
    """The single address predicate level of Section 6.1.3.

    Passing the target *store* precomputes word frequencies for the
    necessary predicate's prefix filter (a pure speed-up).
    """
    frequency = address_word_frequency(store) if store is not None else None
    return [
        PredicateLevel(
            AddressS1(), address_n1(word_frequency=frequency), name="address-1"
        )
    ]
