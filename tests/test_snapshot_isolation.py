"""Snapshot-isolation properties of the serving read path.

The contract under test (docs/serving.md): a reader that dereferenced a
published :class:`EngineSnapshot` sees one engine generation, bit-
identically, for as long as it holds the snapshot — no matter how many
inserts the writer applies concurrently; and every published snapshot
is internally consistent (its closure partitions exactly its own record
set — never a mixed-generation index).
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import IncrementalTopK, group_fingerprint
from repro.core.resilience import ExecutionPolicy
from repro.predicates.base import PredicateLevel
from repro.server import EngineSnapshot, SnapshotPublisher

from .conftest import exact_name_predicate, shared_word_predicate


def levels():
    return [PredicateLevel(exact_name_predicate(), shared_word_predicate())]


NAMES = ["ann smith", "a smith", "bob jones", "bob j jones", "cara lee"]


def build_engine(rows):
    engine = IncrementalTopK(levels())
    for name, weight in rows:
        engine.add({"name": name}, weight)
    return engine


def topk_fingerprint(result):
    return group_fingerprint(result.groups)


# -- equivalence with the live engine ---------------------------------


def test_snapshot_answers_match_engine_at_freeze_time():
    rows = [(NAMES[i % len(NAMES)], float(i + 1)) for i in range(12)]
    engine = build_engine(rows)
    snapshot = EngineSnapshot.freeze(engine)
    assert snapshot.generation == engine._version
    assert snapshot.entries_applied == engine.entries_applied
    assert topk_fingerprint(snapshot.query_topk(3)) == topk_fingerprint(
        engine.query(3)
    )
    # Rank and threshold agree with the engine-independent pipelines on
    # the same records (weights and ids, order included).
    store = engine.current_store()
    from repro.core.rank_query import thresholded_rank_query, topk_rank_query

    expected_rank = topk_rank_query(store, 3, engine._levels)
    got_rank = snapshot.query_rank(3)
    assert [
        (entry.representative_id, entry.weight)
        for entry in got_rank.ranking
    ] == [
        (entry.representative_id, entry.weight)
        for entry in expected_rank.ranking
    ]
    expected_threshold = thresholded_rank_query(store, 4.0, engine._levels)
    got_threshold = snapshot.query_threshold(4.0)
    assert [
        entry.representative_id for entry in got_threshold.ranking
    ] == [entry.representative_id for entry in expected_threshold.ranking]


def test_snapshot_is_isolated_from_later_inserts():
    engine = build_engine([("ann smith", 1.0), ("bob jones", 2.0)])
    snapshot = EngineSnapshot.freeze(engine)
    before = topk_fingerprint(snapshot.query_topk(2))
    for index in range(20):
        engine.add({"name": f"ann smith {index}"}, 10.0)
    # The frozen generation still answers exactly as before.
    assert snapshot.n_records == 2
    assert topk_fingerprint(snapshot.query_topk(2)) == before
    assert snapshot.consistency_problems() == []


def test_reader_answers_bit_identical_during_concurrent_writes():
    engine = build_engine(
        [(NAMES[i % len(NAMES)], 1.0 + i) for i in range(10)]
    )
    snapshot = EngineSnapshot.freeze(engine)
    reference = topk_fingerprint(snapshot.query_topk(3))
    stop = threading.Event()

    def writer():
        index = 0
        while not stop.is_set():
            engine.add({"name": f"{NAMES[index % len(NAMES)]} v{index}"}, 2.0)
            index += 1

    thread = threading.Thread(target=writer)
    thread.start()
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            fingerprints = list(
                pool.map(
                    lambda _: topk_fingerprint(
                        snapshot.query_topk(3, policy=ExecutionPolicy())
                    ),
                    range(40),
                )
            )
    finally:
        stop.set()
        thread.join()
    assert all(fp == reference for fp in fingerprints)


# -- atomic publication ------------------------------------------------


def test_publisher_swaps_whole_generations_under_concurrent_writes():
    engine = build_engine([("ann smith", 1.0)])
    publisher = SnapshotPublisher()
    publisher.publish(EngineSnapshot.freeze(engine))
    done = threading.Event()
    problems: list[str] = []
    epochs: list[int] = []

    def writer():
        # Single-writer discipline: add then freeze+publish, 40 times.
        for index in range(40):
            engine.add({"name": f"name {index}"}, 1.0)
            publisher.publish(EngineSnapshot.freeze(engine))
        done.set()

    def reader():
        seen_epoch = 0
        while not done.is_set() or seen_epoch < publisher.epoch:
            snapshot = publisher.current
            epoch = publisher.epoch
            problems.extend(snapshot.consistency_problems())
            # A snapshot's closure must partition its own record set —
            # a torn publication would surface here as a mixed index.
            if epoch < seen_epoch:
                problems.append(f"epoch went backwards: {epoch}")
            seen_epoch = max(seen_epoch, epoch)
            if done.is_set() and seen_epoch >= publisher.epoch:
                break
        epochs.append(seen_epoch)

    readers = [threading.Thread(target=reader) for _ in range(3)]
    for thread in readers:
        thread.start()
    writer_thread = threading.Thread(target=writer)
    writer_thread.start()
    writer_thread.join()
    for thread in readers:
        thread.join()
    assert problems == []
    assert publisher.epoch == 41
    assert all(epoch == 41 for epoch in epochs)
    assert publisher.current.n_records == 41


def test_generation_snapshot_equals_clean_prefix_replay():
    inserts = [(NAMES[i % len(NAMES)], float(1 + i % 4)) for i in range(15)]
    engine = IncrementalTopK(levels())
    frozen: list[tuple[int, EngineSnapshot]] = []
    for count, (name, weight) in enumerate(inserts, start=1):
        engine.add({"name": name}, weight)
        frozen.append((count, EngineSnapshot.freeze(engine)))
    for count, snapshot in frozen:
        replay = build_engine(inserts[:count])
        assert snapshot.consistency_problems() == []
        assert topk_fingerprint(snapshot.query_topk(4)) == topk_fingerprint(
            replay.query(4)
        ), f"snapshot after {count} inserts diverges from clean replay"


# -- caching -----------------------------------------------------------


def test_policy_free_queries_are_cached_per_snapshot():
    engine = build_engine([("ann smith", 1.0), ("bob jones", 2.0)])
    snapshot = EngineSnapshot.freeze(engine)
    first = snapshot.query_topk(2)
    assert snapshot.query_topk(2) is first  # cache hit: identical object
    assert snapshot.query_topk(1) is not first  # different key
    # A clean policy-armed answer is a cache hit: a clean answer is the
    # same under any policy, so the key leaves the policy out.
    assert snapshot.query_topk(2, policy=ExecutionPolicy()) is first
    # A degraded answer never is: every request runs afresh.
    fresh = EngineSnapshot.freeze(engine)
    expired = ExecutionPolicy(deadline_seconds=0.0)
    degraded = fresh.query_topk(1, policy=expired)
    assert degraded.degraded
    again = fresh.query_topk(1, policy=expired)
    assert again.degraded and again is not degraded
    assert fresh.cache_size == 0
    assert snapshot.query_rank(2) is snapshot.query_rank(2)
    assert snapshot.query_threshold(1.5) is snapshot.query_threshold(1.5)


def test_snapshot_rejects_bad_k():
    snapshot = EngineSnapshot.freeze(build_engine([("a b", 1.0)]))
    with pytest.raises(ValueError):
        snapshot.query_topk(0)
    with pytest.raises(ValueError):
        snapshot.query_rank(-1)


# -- property: random streams ------------------------------------------


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(NAMES),
            st.floats(min_value=0.5, max_value=9.5),
        ),
        min_size=1,
        max_size=12,
    ),
    st.integers(min_value=1, max_value=4),
)
def test_snapshot_topk_equals_replay_for_random_streams(rows, k):
    engine = build_engine(rows)
    snapshot = EngineSnapshot.freeze(engine)
    replay = build_engine(rows)
    assert snapshot.consistency_problems() == []
    assert topk_fingerprint(snapshot.query_topk(k)) == topk_fingerprint(
        replay.query(k)
    )
