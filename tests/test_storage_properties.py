"""Seeded bit-identity sweep: columnar record store vs. in-memory.

The contract of ``store="columnar"`` is that the storage backend is
invisible in every answer — stream fingerprints, top-k groups,
rankings, thresholded answers, and certainty flags must match the
in-memory engine bit-for-bit, on live streams, on frozen snapshots, and
after restoring from a compacted columnar checkpoint.  This module
checks that contract across 10 seeds on both the citations and students
generators.
"""

import functools

import pytest

from repro.core.incremental import IncrementalTopK
from repro.core.persistence import DurabilityPolicy
from repro.core.records import group_fingerprint
from repro.experiments import citation_pipeline, student_pipeline
from repro.server import EngineSnapshot
from repro.testing.crashpoints import stream_fingerprint

N_RECORDS = 200
K = 10
THRESHOLD = 5.0
SEEDS = range(10)


@functools.lru_cache(maxsize=8)
def _pipeline(dataset: str, seed: int):
    if dataset == "citations":
        return citation_pipeline(
            n_records=N_RECORDS, seed=seed, with_scorer=False
        )
    return student_pipeline(n_records=N_RECORDS, seed=seed)


def _feed(engine, store, start=0, stop=None):
    for record in list(store)[start:stop]:
        engine.add(dict(record.fields), record.weight)


def _engine_pair(pipeline):
    memory = IncrementalTopK(pipeline.levels)
    columnar = IncrementalTopK(pipeline.levels, store="columnar")
    _feed(memory, pipeline.store)
    _feed(columnar, pipeline.store)
    return memory, columnar


@pytest.mark.parametrize("dataset", ["citations", "students"])
@pytest.mark.parametrize("seed", SEEDS)
def test_stream_state_bit_identical(dataset, seed):
    pipeline = _pipeline(dataset, seed)
    memory, columnar = _engine_pair(pipeline)
    assert columnar.store_kind == "columnar"
    assert stream_fingerprint(columnar) == stream_fingerprint(memory)
    assert columnar.audit() == []
    result = columnar.query(K)
    baseline = memory.query(K)
    assert group_fingerprint(result.groups) == group_fingerprint(
        baseline.groups
    )
    assert result.groups.weights() == baseline.groups.weights()


@pytest.mark.parametrize("dataset", ["citations", "students"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_snapshot_queries_bit_identical(dataset, seed):
    pipeline = _pipeline(dataset, seed)
    memory, columnar = _engine_pair(pipeline)
    snap_memory = EngineSnapshot.freeze(memory)
    snap_columnar = EngineSnapshot.freeze(columnar)
    assert snap_columnar.consistency_problems() == []
    topk = snap_columnar.query_topk(K)
    topk_base = snap_memory.query_topk(K)
    assert group_fingerprint(topk.groups) == group_fingerprint(
        topk_base.groups
    )
    rank = snap_columnar.query_rank(K)
    rank_base = snap_memory.query_rank(K)
    assert rank.ranking == rank_base.ranking
    assert rank.certain == rank_base.certain
    threshold = snap_columnar.query_threshold(THRESHOLD)
    threshold_base = snap_memory.query_threshold(THRESHOLD)
    assert threshold.ranking == threshold_base.ranking
    assert threshold.certain == threshold_base.certain


@pytest.mark.parametrize("dataset", ["citations", "students"])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("restore_store", ["columnar", "memory"])
def test_restore_from_compacted_checkpoint(
    tmp_path, dataset, seed, restore_store
):
    # Feed half the corpus, compact to a columnar checkpoint, feed the
    # rest, compact again, then restore cold.  Restoring either store
    # kind from the columnar sidecar must reproduce the live engine's
    # state bit-for-bit with zero WAL entries replayed.
    pipeline = _pipeline(dataset, seed)
    memory = IncrementalTopK(pipeline.levels)
    _feed(memory, pipeline.store)
    policy = DurabilityPolicy(tmp_path / "state", fsync=False)
    columnar = IncrementalTopK(
        pipeline.levels, durability=policy, store="columnar"
    )
    half = N_RECORDS // 2
    _feed(columnar, pipeline.store, stop=half)
    columnar.checkpoint()
    _feed(columnar, pipeline.store, start=half)
    columnar.checkpoint()
    live = stream_fingerprint(columnar)
    columnar.close()
    assert live == stream_fingerprint(memory)

    restored = IncrementalTopK.restore(
        tmp_path / "state", pipeline.levels, store=restore_store
    )
    assert restored.store_kind == restore_store
    assert restored.last_recovery.entries_replayed == 0
    assert restored.last_recovery.checkpoint_path is not None
    assert stream_fingerprint(restored) == live
    assert restored.audit() == []
    result = restored.query(K)
    baseline = memory.query(K)
    assert group_fingerprint(result.groups) == group_fingerprint(
        baseline.groups
    )
    assert result.groups.weights() == baseline.groups.weights()
    restored.close()
