"""Unit coverage for the vectorized batch hot path.

Three layers, each checked against its scalar reference:

* the encoding kernels (:mod:`repro.similarity.encoding`) against
  plain Python set arithmetic and :mod:`repro.similarity.measures`,
  asserting *bit-identical* floats;
* the batch verifiers / count rule (:mod:`repro.predicates.batch`)
  against ``predicate.evaluate`` for every library predicate shape, on
  randomized records;
* the :class:`~repro.predicates.batch.BatchNeighborEngine` (direct,
  state-roundtripped, and via :class:`~repro.predicates.blocking.NeighborIndex`)
  against a forced-scalar index, member and external probes alike, and
  its symmetric sweep against a per-member reference, counter deltas
  included.

The end-to-end equality lives in the differential-oracle, storage and
uncertainty property suites; this module pins down each layer in
isolation so a regression points at the culprit.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.records import GroupSet, RecordStore
from repro.core.verification import VerificationContext
from repro.experiments.storage_scale import synthetic_events
from repro.predicates import batch as batch_module
from repro.predicates.base import FunctionPredicate
from repro.predicates.batch import (
    VECTORIZE_ENV_VAR,
    BatchNeighborEngine,
    NeighborRows,
    vectorize_enabled,
)
from repro.predicates.blocking import NeighborIndex, build_key_index
from repro.predicates.library import (
    AddressS1,
    CitationS2,
    CommonWordsPredicate,
    InitialsWordOverlapPredicate,
    JaccardPredicate,
    NgramOverlapPredicate,
)
from repro.similarity.encoding import (
    EncodedSetCorpus,
    TokenDictionary,
    bitmask_encode,
    bitmask_probe,
    gather_rows,
    gather_spans,
    intersection_counts,
    jaccard_block,
    overlap_block,
)
from repro.similarity.measures import jaccard, overlap_coefficient
from tests.conftest import vectorize_mode

# ---------------------------------------------------------------------------
# Encoding kernels


def test_token_dictionary_assigns_dense_first_seen_ids():
    dictionary = TokenDictionary()
    ids = dictionary.encode(["b", "a", "b", "c"])
    assert ids.tolist() == [0, 1, 0, 2]
    assert len(dictionary) == 3
    assert "a" in dictionary and "z" not in dictionary
    # lookup never assigns: unknown tokens are dropped.
    assert dictionary.lookup_ids(["c", "z", "a"]).tolist() == [2, 1]
    assert len(dictionary) == 3


def test_corpus_rows_and_sizes():
    sets = [frozenset("ab"), frozenset(), frozenset("bcd")]
    corpus = EncodedSetCorpus.from_sets(sets)
    assert corpus.sizes().tolist() == [2, 0, 3]
    for position, token_set in enumerate(sets):
        assert len(corpus.row(position)) == len(token_set)
    assert corpus.vocabulary_size == 4


def test_gather_rows_matches_manual_concatenation():
    rng = random.Random(0)
    sets = [
        frozenset(rng.sample(range(50), rng.randint(0, 10))) for _ in range(30)
    ]
    corpus = EncodedSetCorpus.from_sets(sets)
    rows = np.array([3, 0, 17, 3, 29], dtype=np.int64)
    flat, lengths = gather_rows(corpus.indptr, corpus.token_ids, rows)
    expected = np.concatenate([corpus.row(r) for r in rows])
    assert flat.tolist() == expected.tolist()
    assert lengths.tolist() == [len(corpus.row(r)) for r in rows]


def test_gather_spans_matches_slices():
    rng = random.Random(3)
    data = np.arange(500, dtype=np.int32)[::-1].copy()
    starts = np.array([rng.randrange(400) for _ in range(40)], dtype=np.int64)
    lengths = np.array([rng.choice([0, 1, 3, 9, 40]) for _ in range(40)])
    expected = [int(v) for s, n in zip(starts, lengths) for v in data[s : s + n]]
    flat, got_lengths = gather_spans(data, starts, lengths)
    assert flat.dtype == np.int32
    assert flat.tolist() == expected
    assert got_lengths.tolist() == lengths.tolist()


def test_intersection_counts_matches_set_arithmetic():
    rng = random.Random(1)
    sets = [
        frozenset(rng.sample(range(40), rng.randint(0, 12)))
        for _ in range(60)
    ]
    corpus = EncodedSetCorpus.from_sets(sets)
    scratch = np.zeros(corpus.vocabulary_size, dtype=bool)
    for probe_position in (0, 7, 33):
        rows = np.arange(len(sets), dtype=np.int64)
        counts = intersection_counts(
            corpus.row(probe_position),
            corpus.indptr,
            corpus.token_ids,
            rows,
            scratch,
        )
        expected = [len(sets[probe_position] & sets[r]) for r in rows]
        assert counts.tolist() == expected
        assert not scratch.any(), "scratch must be restored to all-False"


def test_block_measures_bit_identical_to_scalar_measures():
    rng = random.Random(2)
    sets = [
        frozenset(rng.sample(range(30), rng.randint(0, 9))) for _ in range(40)
    ]
    sets += [frozenset(), frozenset()]  # empty-set conventions
    corpus = EncodedSetCorpus.from_sets(sets)
    scratch = np.zeros(corpus.vocabulary_size, dtype=bool)
    sizes = corpus.sizes()
    rows = np.arange(len(sets), dtype=np.int64)
    for probe_position in (5, len(sets) - 1):
        probe_set = sets[probe_position]
        inter = intersection_counts(
            corpus.row(probe_position),
            corpus.indptr,
            corpus.token_ids,
            rows,
            scratch,
        )
        overlap = overlap_block(inter, len(probe_set), sizes)
        jac = jaccard_block(inter, len(probe_set), sizes)
        for r in rows:
            assert overlap[r] == overlap_coefficient(probe_set, sets[r])
            assert jac[r] == jaccard(probe_set, sets[r])


def test_bitmask_encode_and_probe():
    sets = [frozenset("ab"), frozenset("bc"), frozenset()]
    masks, bit_of_token = bitmask_encode(sets)
    for i in range(len(sets)):
        for j in range(len(sets)):
            assert (int(masks[i]) & int(masks[j]) != 0) == bool(
                sets[i] & sets[j]
            )
    # Probe tokens outside the assignment are droppable: they intersect
    # no encoded set.
    probe = bitmask_probe(frozenset("bz"), bit_of_token)
    assert (probe & int(masks[0]) != 0) == bool(frozenset("bz") & sets[0])
    # Over 64 distinct tokens cannot be bitmask-encoded.
    assert bitmask_encode([frozenset([i]) for i in range(65)]) is None


# ---------------------------------------------------------------------------
# Batch verifiers vs scalar evaluate, per library predicate shape


def _citation_rows(rng, n):
    names = ["sunita sarawagi", "s sarawagi", "alok kirpal", "a kirpal",
             "rakesh agrawal", "r agrawal", "jeff ullman", "j d ullman"]
    coauthors = ["alok kirpal vgs anil", "anil kumar vgs alok",
                 "jeff ullman jennifer widom", "", "rakesh r srikant"]
    return [
        {
            "author": rng.choice(names),
            "coauthors": rng.choice(coauthors),
            "name": rng.choice(names),
            "address": rng.choice(
                ["12 mg road pune", "flat 3 sector 9", "mg road",
                 "9 hill lane", ""]
            ),
            "class": str(rng.randint(1, 3)),
            "school": str(rng.randint(100, 102)),
            "dob": f"199{rng.randint(0, 9)}",
        }
        for _ in range(n)
    ]


def _library_predicates():
    """One fresh instance of each library predicate shape (fresh because
    ``CommonWordsPredicate`` caches word sets per record id, so an
    instance must stay with one store)."""
    return [
        NgramOverlapPredicate(field="author", threshold=0.6),
        NgramOverlapPredicate(
            field="author", threshold=0.6, require_common_initial=True
        ),
        NgramOverlapPredicate(
            field="name", threshold=0.5, exact_fields=("class", "school")
        ),
        InitialsWordOverlapPredicate(
            field="name", exact_fields=("class", "school")
        ),
        InitialsWordOverlapPredicate(field="name"),
        CommonWordsPredicate(fields=("name", "address"), min_common=2),
        JaccardPredicate(field="coauthors", threshold=0.4),
        CitationS2(min_coauthors=2),
        AddressS1(),
    ]


PREDICATES = _library_predicates()


@pytest.mark.parametrize(
    "predicate", PREDICATES, ids=lambda p: p.name
)
def test_batch_verifier_matches_scalar_evaluate(predicate):
    rng = random.Random(7)
    store = RecordStore.from_rows(_citation_rows(rng, 60))
    records = list(store)
    verifier = predicate.batch_verifier(records)
    assert verifier is not None
    candidates = np.arange(len(records), dtype=np.int64)
    for position in range(0, len(records), 7):
        verdicts = verifier.verify_member_block(position, candidates)
        for other in range(len(records)):
            assert verdicts[other] == predicate.evaluate(
                records[position], records[other]
            ), (predicate.name, position, other)


def test_count_rule_matches_scalar_evaluate():
    predicate = NgramOverlapPredicate(
        field="author", threshold=0.6, require_common_initial=True
    )
    rng = random.Random(9)
    store = RecordStore.from_rows(_citation_rows(rng, 50))
    records = list(store)
    rule = predicate.batch_count_rule(records)
    key_counts = np.array(
        [len(set(predicate.blocking_keys(r))) for r in records],
        dtype=np.int64,
    )
    for position in range(0, len(records), 5):
        probe = records[position]
        n_probe = int(key_counts[position])
        if n_probe == 0:
            continue
        others = np.array(
            [i for i in range(len(records)) if key_counts[i] > 0],
            dtype=np.int64,
        )
        shared = np.array(
            [
                len(
                    set(predicate.blocking_keys(probe))
                    & set(predicate.blocking_keys(records[i]))
                )
                for i in others
            ],
            dtype=np.int64,
        )
        verdicts = rule.accepts(
            shared, n_probe, key_counts[others], rule.probe_mask(probe), others
        )
        for verdict, other, shared_count in zip(
            verdicts, others.tolist(), shared.tolist()
        ):
            assert bool(verdict) == predicate.evaluate(
                probe, records[other]
            ), (position, other, shared_count)


# ---------------------------------------------------------------------------
# BatchNeighborEngine vs forced-scalar NeighborIndex


@pytest.mark.parametrize(
    "predicate",
    [
        NgramOverlapPredicate(field="author", threshold=0.6),
        NgramOverlapPredicate(
            field="author", threshold=0.6, require_common_initial=True
        ),
        CommonWordsPredicate(fields=("name", "address"), min_common=2),
        CitationS2(min_coauthors=2),
        AddressS1(),
    ],
    ids=lambda p: p.name,
)
def test_vectorized_index_matches_scalar_index(predicate):
    rng = random.Random(11)
    store = RecordStore.from_rows(_citation_rows(rng, 80))
    records = list(store)
    scalar = NeighborIndex(predicate, records, vectorize=False)
    vector = NeighborIndex(predicate, records, vectorize=True)
    assert scalar.batch_engine is None
    assert vector.batch_engine is not None
    # Member probes.
    for position in range(len(records)):
        assert vector.neighbors(
            records[position], exclude_position=position
        ).tolist() == scalar.neighbors(
            records[position], exclude_position=position
        ).tolist()
    # External probes (not in the index), including tokens the encoding
    # dictionaries have never seen.
    probes = RecordStore.from_rows(_citation_rows(random.Random(99), 20))
    for probe in probes:
        assert vector.neighbors(probe).tolist() == scalar.neighbors(probe).tolist()


def test_engine_state_roundtrip_preserves_member_queries():
    predicate = CitationS2(min_coauthors=2)
    rng = random.Random(13)
    store = RecordStore.from_rows(_citation_rows(rng, 60))
    records = list(store)
    engine = BatchNeighborEngine.build(
        predicate, records, build_key_index(predicate, records)
    )
    arrays, params = engine.export_state()
    rebuilt = BatchNeighborEngine.from_state(arrays, params)

    class _Sink:
        predicate_evaluations = 0
        cache_hits = 0

    for position in range(len(records)):
        assert rebuilt.member_neighbors(position, _Sink()).tolist() == (
            engine.member_neighbors(position, _Sink()).tolist()
        )
    # Array rebuilds drop the probe-encoding state: external probes
    # must report "cannot encode" (None), never a wrong answer.
    assert (
        rebuilt.probe_neighbors(records[0], {"x"}, -1, _Sink()) is None
    )


def test_engine_csr_matches_per_member_lists():
    predicate = NgramOverlapPredicate(field="author", threshold=0.6)
    rng = random.Random(17)
    store = RecordStore.from_rows(_citation_rows(rng, 50))
    records = list(store)
    engine = BatchNeighborEngine.build(
        predicate, records, build_key_index(predicate, records)
    )

    class _Sink:
        predicate_evaluations = 0
        cache_hits = 0

    positions = list(range(0, len(records), 3))
    indptr, flat = engine.member_neighbors_csr(positions, _Sink())
    for row, position in enumerate(positions):
        assert flat[indptr[row] : indptr[row + 1]].tolist() == (
            engine.member_neighbors(position, _Sink()).tolist()
        )


# ---------------------------------------------------------------------------
# The symmetric sweep vs a per-member reference


class _VerifierOnlyNgram(NgramOverlapPredicate):
    """Offers only the pairwise verifier, so the engine decides with the
    ``overlap_ge`` verifier rule instead of the count rule."""

    def batch_count_rule(self, records):
        return None


def _sweep_predicates():
    """Every library shape plus the ``overlap_ge`` verifier: the count
    rule and each verifier rule reach the sweep."""
    return _library_predicates() + [
        _VerifierOnlyNgram(
            field="name",
            threshold=0.5,
            exact_fields=("class",),
            require_common_initial=True,
        )
    ]


SWEEP_IDS = [
    f"{index}-{predicate.name}"
    for index, predicate in enumerate(_sweep_predicates())
]


class _Counts:
    """The two counters the sweep moves."""

    def __init__(self):
        self.cache_hits = 0
        self.predicate_evaluations = 0

    def totals(self):
        return (self.cache_hits, self.predicate_evaluations)


def _engine(predicate, records):
    return BatchNeighborEngine.build(
        predicate, records, build_key_index(predicate, records)
    )


def _reference_sweep(engine, records, predicate, positions, known=None):
    """The sweep's lists and counter deltas, one member at a time.

    A member's candidates are the positions sharing a key with it.  A
    batch member below the probe is decided by the symmetric merge (the
    lower member's own ``member_neighbors`` list) and a *known* member
    outside the batch by membership in its set, each a cache hit; every
    other candidate is verified from the probe's side.
    """
    order = sorted(set(positions))
    batch = set(order)
    sharing: dict[int, set[int]] = {p: set() for p in order}
    for posting in build_key_index(predicate, records).values():
        for p in posting:
            if p in batch:
                sharing[p].update(posting)
    verified = {p: set(engine.member_neighbors(p, _Counts())) for p in order}
    counts = _Counts()
    lists = {}
    for p in order:
        found = []
        for c in sorted(sharing[p] - {p}):
            if c in batch and c < p:
                counts.cache_hits += 1
                keep = p in verified[c]
            elif known is not None and c in known and c not in batch:
                counts.cache_hits += 1
                keep = p in known[c]
            else:
                counts.predicate_evaluations += 1
                keep = c in verified[p]
            if keep:
                found.append(c)
        lists[p] = found
    return lists, counts


def _sweep_rows(seed, n):
    """Citation-shaped rows plus records with no keys under most
    predicates (every field empty)."""
    rows = _citation_rows(random.Random(seed), n)
    for index in range(0, n, 9):
        rows[index] = {field: "" for field in rows[index]}
    return rows


def _known_rows(known, n):
    """*known* ({position: set of positions}) as the NeighborRows memo
    the sweep reads."""
    rows = NeighborRows(n)
    for position in sorted(known or {}):
        row = np.array(sorted(known[position]), dtype=np.int32)
        rows.add(
            np.array([position], dtype=np.int64),
            np.array([0, len(row)], dtype=np.int64),
            row,
        )
    return rows


def _csr_lists(indptr, flat):
    return [
        flat[indptr[row] : indptr[row + 1]].tolist()
        for row in range(len(indptr) - 1)
    ]


def _check_sweep(predicate, records, positions, known):
    """member_neighbors_csr against the per-member reference: equal
    lists and equal counter deltas, with *known* read from the rows."""
    engine = _engine(predicate, records)
    expected, expected_counts = _reference_sweep(
        engine, records, predicate, positions, known
    )
    counts = _Counts()
    indptr, flat = engine.member_neighbors_csr(
        positions, counts, known=_known_rows(known, len(records))
    )
    assert flat.dtype == np.int32
    assert _csr_lists(indptr, flat) == [expected[int(p)] for p in positions]
    assert counts.totals() == expected_counts.totals()


@pytest.mark.parametrize("budget", [1, None, 10**12], ids=["1", "default", "huge"])
@pytest.mark.parametrize("with_known", [False, True], ids=["plain", "known"])
@pytest.mark.parametrize("index", range(len(SWEEP_IDS)), ids=SWEEP_IDS)
def test_sweep_matches_per_member_reference(
    index, with_known, budget, monkeypatch
):
    if budget is not None:
        monkeypatch.setattr(batch_module, "SWEEP_ENTRY_BUDGET", budget)
    predicate = _sweep_predicates()[index]
    records = list(RecordStore.from_rows(_sweep_rows(29, 90)))
    rng = random.Random(31)
    # A subset of the records, unsorted, with duplicates.
    positions = rng.sample(range(len(records)), 40)
    positions += positions[:5]
    rng.shuffle(positions)
    known = None
    if with_known:
        outside = sorted(set(range(len(records))) - set(positions))
        known = {
            c: set(rng.sample(range(len(records)), 25))
            for c in outside[::2]
        }
    _check_sweep(predicate, records, positions, known)


@pytest.mark.parametrize("index", range(len(SWEEP_IDS)), ids=SWEEP_IDS)
def test_sweep_with_true_known_sets_equals_member_lists(index):
    """With *known* holding the members' true lists — what
    ``NeighborIndex`` passes — every list equals ``member_neighbors``."""
    predicate = _sweep_predicates()[index]
    records = list(RecordStore.from_rows(_sweep_rows(37, 70)))
    engine = _engine(predicate, records)
    truth = [
        engine.member_neighbors(p, _Counts()).tolist()
        for p in range(len(records))
    ]
    known = {c: set(truth[c]) for c in range(0, len(records), 2)}
    probes = range(1, len(records), 2)
    indptr, flat = engine.member_neighbors_csr(
        probes, _Counts(), known=_known_rows(known, len(records))
    )
    assert _csr_lists(indptr, flat) == [truth[p] for p in probes]


# ---------------------------------------------------------------------------
# A memoizing NeighborIndex keeps its rows as one CSR


@pytest.mark.parametrize("budget", [1, None, 10**12], ids=["1", "default", "huge"])
@pytest.mark.parametrize("with_known", [False, True], ids=["plain", "known"])
@pytest.mark.parametrize("index", range(len(SWEEP_IDS)), ids=SWEEP_IDS)
def test_memo_rows_equal_per_probe_lists(index, with_known, budget, monkeypatch):
    """Every row a memoizing index serves equals the member's own
    per-probe list (``member_neighbors``), whether the sweep filled it
    alone or read pairs from rows filled before it."""
    if budget is not None:
        monkeypatch.setattr(batch_module, "SWEEP_ENTRY_BUDGET", budget)
    predicate = _sweep_predicates()[index]
    records = list(RecordStore.from_rows(_sweep_rows(29, 90)))
    engine = _engine(predicate, records)
    truth = [
        engine.member_neighbors(p, _Counts()).tolist()
        for p in range(len(records))
    ]
    memo = NeighborIndex(predicate, records, memoize=True, vectorize=True)
    rng = random.Random(31)
    if with_known:
        # One probe at a time first, as the lower-bound walk does: the
        # sweep below then reads these rows.
        for p in rng.sample(range(len(records)), 30):
            row = memo.neighbors(records[p], exclude_position=p)
            assert row.tolist() == truth[p]
    positions = rng.sample(range(len(records)), 40)
    positions += positions[:5]
    rng.shuffle(positions)
    indptr, flat = memo.neighbors_csr(positions)
    assert flat.dtype == np.int32
    assert _csr_lists(indptr, flat) == [truth[p] for p in positions]
    assert _csr_lists(*memo.neighbors_csr(range(len(records)))) == truth
    for p, record in enumerate(records):
        row = memo.neighbors(record, exclude_position=p)
        assert row.dtype == np.int32 and not row.flags.writeable
        assert row.tolist() == truth[p]


def _walk_and_fill(predicate, groups, vectorized):
    """Rows and counters of the three ways a query reads a level's
    index: a one-probe-at-a-time walk (lower bound), one batch over
    every member (prune), then every member again (rank pruning)."""
    with vectorize_mode(vectorized):
        context = VerificationContext()
        index = context.neighbor_index(predicate, groups)
        assert (index.batch_engine is not None) == vectorized
        representatives = groups.representatives()
        walk = [
            index.neighbors(representatives[p], exclude_position=p).tolist()
            for p in range(12)
        ]
        indptr, flat = index.neighbors_csr(range(len(groups)))
        again = [
            index.neighbors(record, exclude_position=p).tolist()
            for p, record in enumerate(representatives)
        ]
    counters = context.counters
    return (
        walk,
        _csr_lists(indptr, flat),
        again,
        counters.predicate_evaluations,
        counters.cache_hits,
        counters.neighbor_queries,
        counters.neighbor_memo_hits,
    )


@pytest.mark.parametrize("index", range(len(SWEEP_IDS)), ids=SWEEP_IDS)
def test_vectorized_and_scalar_fills_agree(index):
    """The batch engine and plain ``evaluate`` (``REPRO_VECTORIZE=0``)
    fill equal rows and move the shared counters alike: each pair is
    decided once and its second side is a cache hit, from a filled row
    or from the verdict dict."""
    predicate = _sweep_predicates()[index]
    groups = GroupSet.singletons(RecordStore.from_rows(_sweep_rows(43, 80)))
    vectorized = _walk_and_fill(predicate, groups, True)
    scalar = _walk_and_fill(predicate, groups, False)
    assert vectorized == scalar


def test_memo_costs_at_most_8_bytes_per_directed_edge():
    records = list(
        RecordStore.from_rows(
            [fields for fields, _ in synthetic_events(600, seed=1)]
        )
    )
    predicate = NgramOverlapPredicate(field="name", threshold=0.6)
    index = NeighborIndex(predicate, records, memoize=True, vectorize=True)
    # Row by row, so the buffer grows many times.
    edges = sum(
        len(index.neighbors(record, exclude_position=p))
        for p, record in enumerate(records)
    )
    assert edges > 10 * len(records)
    assert 0 < index._rows.nbytes <= 8 * edges
    # No Python container per probe: the indexed records and the key
    # index, both built before any probe, are the only ones.
    containers = {
        name
        for name, value in vars(index).items()
        if isinstance(value, (list, set, dict))
    }
    assert containers == {"_records", "_index"}


@pytest.mark.parametrize("index", range(len(SWEEP_IDS)), ids=SWEEP_IDS)
def test_verify_pairs_matches_member_blocks(index):
    predicate = _sweep_predicates()[index]
    records = list(RecordStore.from_rows(_sweep_rows(41, 50)))
    verifier = predicate.batch_verifier(records)
    left, right = np.divmod(
        np.arange(len(records) ** 2, dtype=np.int64), len(records)
    )
    verdicts = verifier.verify_pairs(left, right)
    for position in range(len(records)):
        expected = verifier.verify_member_block(
            position, np.arange(len(records), dtype=np.int64)
        )
        rows = slice(position * len(records), (position + 1) * len(records))
        assert verdicts[rows].tolist() == expected.tolist()


_WORDS = ["ann", "anne", "bob", "rob", "ab", "ba", "x", "kim lee", ""]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=len(SWEEP_IDS) - 1),
    st.lists(
        st.tuples(
            st.lists(st.sampled_from(_WORDS), max_size=3),
            st.lists(st.sampled_from(_WORDS), max_size=3),
            st.sampled_from(["1", "2"]),
        ),
        min_size=1,
        max_size=14,
    ),
    st.data(),
)
def test_sweep_matches_reference_on_random_corpora(index, rows, data):
    records = list(
        RecordStore.from_rows(
            [
                {
                    "author": " ".join(first),
                    "name": " ".join(first),
                    "coauthors": " ".join(second),
                    "address": " ".join(second),
                    "class": klass,
                    "school": "100",
                    "dob": "1990",
                }
                for first, second, klass in rows
            ]
        )
    )
    n = len(records)
    positions = data.draw(
        st.lists(st.integers(min_value=0, max_value=n - 1), max_size=2 * n)
    )
    known = None
    if data.draw(st.booleans()):
        known = data.draw(
            st.dictionaries(
                st.integers(min_value=0, max_value=n - 1),
                st.sets(st.integers(min_value=0, max_value=n - 1)),
            )
        )
    budget = data.draw(st.sampled_from([1, 2, 7, 10**12]))
    saved = batch_module.SWEEP_ENTRY_BUDGET
    batch_module.SWEEP_ENTRY_BUDGET = budget
    try:
        _check_sweep(_sweep_predicates()[index], records, positions, known)
    finally:
        batch_module.SWEEP_ENTRY_BUDGET = saved


def test_custom_predicate_without_hooks_stays_scalar():
    predicate = FunctionPredicate(
        evaluate_fn=lambda a, b: a["name"] == b["name"],
        keys_fn=lambda r: [r["name"]],
        name="custom",
    )
    store = RecordStore.from_rows([{"name": "x"}, {"name": "x"}, {"name": "y"}])
    index = NeighborIndex(predicate, list(store), vectorize=True)
    assert not predicate.supports_batch
    assert index.batch_engine is None
    assert index.neighbors(store[0], exclude_position=0).tolist() == [1]


def test_vectorize_env_switch():
    assert vectorize_enabled(True) and not vectorize_enabled(False)
    import os

    old = os.environ.get(VECTORIZE_ENV_VAR)
    try:
        os.environ[VECTORIZE_ENV_VAR] = "0"
        assert not vectorize_enabled(None)
        os.environ[VECTORIZE_ENV_VAR] = "1"
        assert vectorize_enabled(None)
        os.environ.pop(VECTORIZE_ENV_VAR)
        assert vectorize_enabled(None)
    finally:
        if old is None:
            os.environ.pop(VECTORIZE_ENV_VAR, None)
        else:
            os.environ[VECTORIZE_ENV_VAR] = old
