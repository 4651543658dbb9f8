"""Block scoring of the final criterion P, held bit for bit to the scalar
definitions.

* the pair-intersection kernel against ``jaccard`` / ``overlap_coefficient``;
* block Jaro-Winkler against ``strings.jaro_winkler``;
* every library featurizer's block rows against its scalar per-feature
  functions;
* ``score(a, b)`` against its ``score_pairs`` row for the trained,
  weighted and cached scorers, and the CLI's column-feature scorer
  against its former lambda version;
* ``candidate_pairs`` sets and order with vectorization on and off, for
  every library necessary predicate;
* ``SegmentScoreTable`` against a plain loop in its stated order.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering.correlation import ScoreMatrix
from repro.core.records import RecordStore
from repro.datasets import (
    author_idf,
    generate_addresses,
    generate_citations,
    generate_restaurants,
    generate_students,
)
from repro.embedding.greedy import LinearEmbedding, greedy_embedding
from repro.embedding.segmentation import SegmentScoreTable
from repro.predicates import (
    JaccardPredicate,
    NgramOverlapPredicate,
    TfIdfCanopy,
    address_n1,
    address_word_frequency,
    citation_n1,
    citation_n2,
    student_n1,
    student_n2,
)
from repro.predicates.blocking import candidate_pair_arrays, candidate_pairs
from repro.scoring.pairwise import (
    CachedScorer,
    PairwiseScorer,
    WeightedScorer,
    train_scorer,
)
from repro.similarity.custom import (
    custom_author_similarity,
    custom_coauthor_similarity,
)
from repro.similarity.encoding import (
    EncodedSetCorpus,
    jaccard_block,
    overlap_block,
    pair_common_tokens,
    pair_intersection_counts,
)
from repro.similarity.measures import jaccard, overlap_coefficient
from repro.similarity.strings import (
    encode_code_points,
    jaro_winkler,
    jaro_winkler_pairs,
)
from repro.similarity.tokenize import (
    ADDRESS_STOP_WORDS,
    cached_ngram_set,
    cached_word_set,
    content_word_set,
    initial_set,
    normalize,
)
from repro.similarity.vectorize import (
    PAIR_CHUNK,
    PairFeaturizer,
    address_featurizer,
    citation_featurizer,
    name_only_featurizer,
    restaurant_featurizer,
)
from tests.conftest import vectorize_mode

# -- kernels -----------------------------------------------------------------

token_sets = st.lists(
    st.frozensets(st.integers(min_value=0, max_value=12), max_size=8),
    min_size=1,
    max_size=12,
)


@settings(max_examples=80, deadline=None)
@given(token_sets, st.data())
def test_pair_intersection_kernel_matches_scalar_measures(sets, data):
    corpus = EncodedSetCorpus.from_sets(sets)
    n_pairs = data.draw(st.integers(min_value=0, max_value=20))
    positions = st.lists(
        st.integers(min_value=0, max_value=len(sets) - 1),
        min_size=n_pairs,
        max_size=n_pairs,
    )
    left = np.array(data.draw(positions), dtype=np.int64)
    right = np.array(data.draw(positions), dtype=np.int64)
    pair, token = pair_common_tokens(corpus.indptr, corpus.token_ids, left, right)
    inter = pair_intersection_counts(pair, n_pairs)
    sizes = corpus.sizes()
    jac = jaccard_block(inter, sizes[left], sizes[right])
    ovl = overlap_block(inter, sizes[left], sizes[right])
    tokens = corpus.dictionary.tokens()
    for t, (i, j) in enumerate(zip(left.tolist(), right.tolist())):
        a, b = sets[i], sets[j]
        assert {tokens[k] for k in token[pair == t]} == a & b
        assert jac[t] == jaccard(a, b)
        assert ovl[t] == overlap_coefficient(a, b)


# -- Jaro-Winkler --------------------------------------------------------------

NAMED_STRINGS = [
    "", "a", "b", "aa", "aaaa", "abab", "ab", "ba", "martha", "marhta",
    "dixon", "dicksonx", "jellyfish", "smellyfish", "é", "éé", "naïve",
    "naive", "日本語", "日本", "\U0001f600x", "x\U0001f600",
]


def _jaro_winkler_block(pairs):
    strings = [s for pair in pairs for s in pair]
    indptr, codes = encode_code_points(strings)
    left = np.arange(0, len(strings), 2, dtype=np.int64)
    return jaro_winkler_pairs(indptr, codes, left, left + 1)


def test_block_jaro_winkler_named_cases():
    pairs = [(a, b) for a in NAMED_STRINGS for b in NAMED_STRINGS]
    got = _jaro_winkler_block(pairs)
    for value, (a, b) in zip(got.tolist(), pairs):
        assert value == jaro_winkler(a, b), (a, b)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.text(alphabet="abcé日\U0001f600 ", max_size=14),
            st.text(alphabet="abcé日\U0001f600 ", max_size=14),
        ),
        min_size=1,
        max_size=25,
    )
)
def test_block_jaro_winkler_matches_scalar(pairs):
    got = _jaro_winkler_block(pairs)
    for value, (a, b) in zip(got.tolist(), pairs):
        assert value == jaro_winkler(a, b), (a, b)


@settings(max_examples=60, deadline=None)
@given(st.text(max_size=20), st.integers(min_value=1, max_value=6))
def test_block_jaro_winkler_repeated_and_equal(text, repeat):
    letter = text[:1] or "z"
    pairs = [
        (text, text),
        (letter * repeat, letter * (repeat + 1)),
        (text, text[::-1]),
        (letter, text),
    ]
    got = _jaro_winkler_block(pairs)
    for value, (a, b) in zip(got.tolist(), pairs):
        assert value == jaro_winkler(a, b), (a, b)


def test_block_jaro_winkler_mixed_lengths():
    # One long pair among many short ones, across several length batches.
    rng = np.random.default_rng(3)
    letters = list("abcde")
    pairs = [
        (
            "".join(rng.choice(letters, size=rng.integers(0, 9))),
            "".join(rng.choice(letters, size=rng.integers(0, 9))),
        )
        for _ in range(1200)
    ]
    pairs.insert(600, ("".join(rng.choice(letters, size=300)), "ab" * 140))
    got = _jaro_winkler_block(pairs)
    assert got.tolist() == [jaro_winkler(a, b) for a, b in pairs]


# -- featurizer rows ----------------------------------------------------------


def _ngram_jaccard(field):
    return lambda a, b: jaccard(cached_ngram_set(a[field]), cached_ngram_set(b[field]))


def _ngram_overlap(field):
    return lambda a, b: overlap_coefficient(
        cached_ngram_set(a[field]), cached_ngram_set(b[field])
    )


def _word_jaccard(field):
    return lambda a, b: jaccard(cached_word_set(a[field]), cached_word_set(b[field]))


def _word_overlap(field):
    return lambda a, b: overlap_coefficient(
        cached_word_set(a[field]), cached_word_set(b[field])
    )


def _initials_jaccard(field):
    return lambda a, b: jaccard(initial_set(a[field]), initial_set(b[field]))


def _jw(field):
    return lambda a, b: jaro_winkler(normalize(a[field]), normalize(b[field]))


def _exact(field):
    return lambda a, b: 1.0 if normalize(a[field]) == normalize(b[field]) else 0.0


def _content_overlap(field, stop_words):
    return lambda a, b: overlap_coefficient(
        content_word_set(a[field], stop_words), content_word_set(b[field], stop_words)
    )


def _scalar_citation(idf):
    return [
        _ngram_jaccard("author"),
        _word_jaccard("author"),
        _ngram_overlap("author"),
        _initials_jaccard("author"),
        _jw("author"),
        _word_jaccard("coauthors"),
        _ngram_jaccard("coauthors"),
        lambda a, b: custom_author_similarity(a["author"], b["author"], idf),
        lambda a, b: custom_coauthor_similarity(a["coauthors"], b["coauthors"], idf),
    ]


def _scalar_name_only():
    return [
        _ngram_jaccard("name"),
        _word_jaccard("name"),
        _ngram_overlap("name"),
        _initials_jaccard("name"),
        _jw("name"),
    ]


def _scalar_address(idf=None):
    functions = [
        _ngram_jaccard("name"),
        _initials_jaccard("name"),
        _jw("name"),
        _ngram_jaccard("address"),
        _content_overlap("address", ADDRESS_STOP_WORDS),
        _exact("pin"),
    ]
    if idf is not None:
        functions.append(
            lambda a, b: custom_author_similarity(a["name"], b["name"], idf)
        )
    return functions


def _scalar_restaurant():
    decor = frozenset({"the", "restaurant", "cafe", "diner", "grill"})
    return [
        _ngram_jaccard("name"),
        _word_jaccard("name"),
        _word_overlap("name"),
        _content_overlap("name", decor),
        _jw("name"),
        _ngram_jaccard("address"),
        _word_jaccard("address"),
        _exact("city"),
    ]


def _random_pairs(n, count, seed):
    rng = np.random.default_rng(seed)
    left = rng.integers(0, n, size=count)
    right = rng.integers(0, n, size=count)
    # Near neighbours too, where the measures are far from 0.
    left[: count // 2] = np.arange(count // 2) % n
    right[: count // 2] = (np.arange(count // 2) + 1) % n
    return left.astype(np.int64), right.astype(np.int64)


def _assert_rows_match(featurizer, functions, records, count=600, seed=0):
    assert featurizer.n_features == len(functions)
    left, right = _random_pairs(len(records), count, seed)
    block = featurizer.block(records, left, right)
    for row, (i, j) in enumerate(zip(left.tolist(), right.tolist())):
        expected = [fn(records[i], records[j]) for fn in functions]
        assert block[row].tolist() == expected, (records[i], records[j])
    # A row is the same whatever block it is computed in.
    for row in range(0, count, 97):
        one = featurizer.vector(records[left[row]], records[right[row]])
        assert one.tolist() == block[row].tolist()


@pytest.mark.parametrize("seed", [0, 1])
def test_citation_featurizer_rows(seed):
    dataset = generate_citations(n_records=400, seed=seed)
    idf = author_idf(dataset.store)
    _assert_rows_match(
        citation_featurizer(idf), _scalar_citation(idf), list(dataset.store), seed=seed
    )


def test_name_only_featurizer_rows():
    dataset = generate_citations(n_records=300, seed=5)
    records = list(
        RecordStore.from_rows([{"name": r["author"]} for r in dataset.store])
    )
    _assert_rows_match(name_only_featurizer(), _scalar_name_only(), records)


@pytest.mark.parametrize("with_idf", [False, True])
def test_address_featurizer_rows(with_idf):
    dataset = generate_addresses(n_records=300, seed=2)
    idf = author_idf(dataset.store, field="name") if with_idf else None
    _assert_rows_match(
        address_featurizer(idf), _scalar_address(idf), list(dataset.store)
    )


def test_restaurant_featurizer_rows():
    dataset = generate_restaurants(seed=3)
    _assert_rows_match(
        restaurant_featurizer(), _scalar_restaurant(), list(dataset.store)
    )


def test_block_spans_several_chunks():
    dataset = generate_citations(n_records=300, seed=7)
    idf = author_idf(dataset.store)
    featurizer = citation_featurizer(idf)
    records = list(dataset.store)
    left, right = _random_pairs(len(records), PAIR_CHUNK + 50, 7)
    whole = featurizer.block(records, left, right)
    tail = featurizer.block(records, left[PAIR_CHUNK:], right[PAIR_CHUNK:])
    assert whole[PAIR_CHUNK:].tolist() == tail.tolist()


def test_plain_callable_feature_is_mapped_over_pairs():
    calls = []

    def length_gap(a, b):
        calls.append((a.record_id, b.record_id))
        return float(abs(len(a["name"]) - len(b["name"])))

    featurizer = PairFeaturizer([("gap", length_gap)])
    records = list(RecordStore.from_rows([{"name": n} for n in ["a", "bbb", "cc"]]))
    block = featurizer.block(records, np.array([0, 1]), np.array([1, 2]))
    assert block[:, 0].tolist() == [2.0, 1.0]
    assert calls == [(0, 1), (1, 2)]


def test_empty_block():
    featurizer = name_only_featurizer()
    block = featurizer.block([], np.empty(0, np.int64), np.empty(0, np.int64))
    assert block.shape == (0, featurizer.n_features)


# -- scorers -----------------------------------------------------------------


def _name_records(names):
    return list(RecordStore.from_rows([{"name": n} for n in names]))


NAMES = [
    "sunita sarawagi", "s sarawagi", "sunita sarawgi", "vinay deshpande",
    "v deshpande", "sourabh kasliwal", "s kasliwal", "amit sharma",
    "a sharma", "priya gupta", "p gupta", "", "x",
]


def _trained_name_scorer():
    records = _name_records(NAMES)
    pairs = [(records[i], records[j]) for i in range(9) for j in range(i + 1, 9)]
    labels = [
        int(records[i]["name"].split()[-1][:4] == records[j]["name"].split()[-1][:4])
        for i in range(9)
        for j in range(i + 1, 9)
    ]
    return train_scorer(name_only_featurizer(), pairs, labels, l2=0.5)


def _scorers():
    featurizer = name_only_featurizer()
    weighted = WeightedScorer(featurizer, [2.0, 2.0, 1.0, 1.0, 2.0], bias=-3.5)
    trained = _trained_name_scorer()
    return {
        "trained": trained,
        "weighted": weighted,
        "cached": CachedScorer(trained),
    }


@pytest.mark.parametrize("kind", ["trained", "weighted", "cached"])
def test_score_equals_its_score_pairs_row(kind):
    scorer = _scorers()[kind]
    records = _name_records(NAMES)
    n = len(records)
    left, right = np.triu_indices(n, k=1)
    block = scorer.score_pairs(records, left, right)
    for row, (i, j) in enumerate(zip(left.tolist(), right.tolist())):
        assert scorer.score(records[i], records[j]) == block[row]


def test_cached_scorer_fills_from_one_block():
    calls = []

    class Counting(PairwiseScorer):
        def __init__(self, inner):
            self.inner = inner

        def score(self, a, b):
            raise AssertionError("the cache must score in blocks")

        def score_pairs(self, records, left, right):
            calls.append(len(left))
            return self.inner.score_pairs(records, left, right)

    trained = _trained_name_scorer()
    cached = CachedScorer(Counting(trained))
    records = _name_records(NAMES)
    left = np.array([0, 1, 0, 2, 1], dtype=np.int64)
    right = np.array([1, 0, 1, 3, 2], dtype=np.int64)
    first = cached.score_pairs(records, left, right)
    # (0,1), (1,0) and (0,1) again are one unordered pair: scored once.
    assert calls == [3]
    assert cached.n_evaluations == 3
    assert first[0] == first[1] == first[2]
    again = cached.score_pairs(records, left, right)
    assert calls == [3]
    assert again.tolist() == first.tolist()
    assert cached.score(records[1], records[0]) == first[0]


def test_cli_generic_scorer_equals_lambda_version():
    from repro.cli import generic_scorer

    field = "name"
    lambda_featurizer = PairFeaturizer(
        [
            (
                "3gram_jaccard",
                lambda a, b: jaccard(
                    cached_ngram_set(a[field]), cached_ngram_set(b[field])
                ),
            ),
            (
                "word_jaccard",
                lambda a, b: jaccard(
                    cached_word_set(a[field]), cached_word_set(b[field])
                ),
            ),
            (
                "jaro_winkler",
                lambda a, b: jaro_winkler(normalize(a[field]), normalize(b[field])),
            ),
        ]
    )
    lambdas = WeightedScorer(lambda_featurizer, weights=[2.0, 2.0, 2.0], bias=-3.0)
    columns = generic_scorer(field, -3.0)
    dataset = generate_citations(n_records=300, seed=11)
    records = list(
        RecordStore.from_rows([{"name": r["author"]} for r in dataset.store])
    )
    left, right = _random_pairs(len(records), 800, 11)
    expected = lambdas.score_pairs(records, left, right)
    assert columns.score_pairs(records, left, right).tolist() == expected.tolist()
    assert columns.score(records[0], records[1]) == lambdas.score(records[0], records[1])


# -- candidate pairs ----------------------------------------------------------


def _predicate_case(name):
    citations = list(generate_citations(n_records=500, seed=4).store)
    if name == "citation-n1":
        return citation_n1(), citations
    if name == "citation-n2":
        return citation_n2(), citations
    if name == "ngram-generic":
        return NgramOverlapPredicate("author", 0.3), citations
    if name == "jaccard":
        return JaccardPredicate("author", 0.5), citations
    if name == "tfidf-canopy":
        return TfIdfCanopy.from_records(citations, "author", 0.5), citations
    students = list(generate_students(n_records=400, seed=4).store)
    if name == "student-n1":
        return student_n1(), students
    if name == "student-n2":
        return student_n2(), students
    addresses = generate_addresses(n_records=400, seed=4).store
    return address_n1(word_frequency=address_word_frequency(addresses)), list(
        addresses
    )


@pytest.mark.parametrize(
    "name",
    [
        "citation-n1",
        "citation-n2",
        "student-n1",
        "student-n2",
        "address-n1",
        "ngram-generic",
        "jaccard",
        "tfidf-canopy",
    ],
)
def test_candidate_pairs_same_with_and_without_vectorization(name):
    predicate, records = _predicate_case(name)
    with vectorize_mode(False):
        scalar = list(candidate_pairs(predicate, records))
    with vectorize_mode(True):
        vectorized = list(candidate_pairs(predicate, records))
    assert scalar == vectorized
    assert scalar == sorted(set(scalar))
    assert all(i < j for i, j in scalar)
    reference = {
        (i, j)
        for i in range(len(records))
        for j in range(i + 1, len(records))
        if set(predicate.blocking_keys(records[i]))
        & set(predicate.blocking_keys(records[j]))
        and predicate.evaluate(records[i], records[j])
    }
    assert set(scalar) == reference
    left, right = candidate_pair_arrays(predicate, records)
    assert list(zip(left.tolist(), right.tolist())) == scalar


# -- segment table -------------------------------------------------------------


def _reference_table(scores, embedding, max_span):
    """The stated accumulation order, as a plain loop."""
    order = embedding.order
    n = len(order)
    position = {original: index for index, original in enumerate(order)}
    neg_all = [0.0] * n
    edges: dict[tuple[int, int], float] = {}
    for i, j, score in scores.scored_pairs():
        a, b = position[i], position[j]
        if score < 0:
            neg_all[a] += -score
            neg_all[b] += -score
        edges[(min(a, b), max(a, b))] = score
    table = []
    for a in range(n):
        row = [neg_all[a]]
        for b in range(a + 1, min(n, a + max_span)):
            pos_in = 0.0
            neg_in = 0.0
            for other in range(b - 1, a - 1, -1):  # nearest first
                score = edges.get((other, b), 0.0)
                pos_in += score if score > 0 else 0.0
                neg_in += -score if score < 0 else 0.0
            row.append(row[-1] + ((2.0 * pos_in + neg_all[b]) - 2.0 * neg_in))
        table.append(row)
    return table


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=14),
    st.integers(min_value=1, max_value=20),  # wider than n, too
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=13),
            st.integers(min_value=0, max_value=13),
            st.floats(min_value=-5, max_value=5, allow_nan=False),
        ),
        max_size=40,
    ),
    st.randoms(use_true_random=False),
)
def test_segment_table_matches_stated_order(n, max_span, edges, random):
    scores = ScoreMatrix(n)
    for i, j, value in edges:
        if i < n and j < n and i != j:
            scores.set(i, j, value)
    order = list(range(n))
    random.shuffle(order)
    embedding = LinearEmbedding(order=order, breaks={0})
    table = SegmentScoreTable(scores, embedding, max_span)
    reference = _reference_table(scores, embedding, max_span)
    for a, row in enumerate(reference):
        for s, value in enumerate(row):
            assert table.score(a, a + s) == value


def test_segment_table_on_scored_citations():
    dataset = generate_citations(n_records=300, seed=9)
    idf = author_idf(dataset.store)
    records = list(dataset.store)
    scorer = WeightedScorer(
        citation_featurizer(idf), [1.0, 1.0, 1.0, 1.0, 2.0, 0.5, 0.5, 1.0, 1.0], -4.0
    )
    scores = ScoreMatrix.from_scorer(records, scorer, citation_n1())
    embedding = greedy_embedding(scores)
    table = SegmentScoreTable(scores, embedding, 12)
    reference = _reference_table(scores, embedding, 12)
    assert all(
        table.score(a, a + s) == value
        for a, row in enumerate(reference)
        for s, value in enumerate(row)
    )
