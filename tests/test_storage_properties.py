"""Seeded bit-identity sweep: restored-from-sidecar engine vs. live.

Every checkpoint writes its bulk state into a ``columnar-<entries>.col``
array sidecar, and a restore decodes it in bulk: records, union-find
closure and the blocking-key postings.  The contract is that the
restore is invisible in every answer — stream fingerprints, top-k
groups, rankings, thresholded answers and certainty flags of the
restored engine must match the live engine that wrote the checkpoint,
bit for bit, with and without a WAL tail to replay, on frozen
snapshots, and for inserts arriving after the restore.  This module
checks that contract across 10 seeds on both the citations and
students generators; the compacted-checkpoint restore also runs from
the inline-JSON layout that state directories written before the
sidecar hold.
"""

import functools

import pytest

from repro.core.incremental import IncrementalTopK
from repro.core.persistence import DurabilityPolicy, DurableStateStore
from repro.core.records import group_fingerprint
from repro.experiments import citation_pipeline, student_pipeline
from repro.server import EngineSnapshot
from repro.testing import checkpoint_as
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


def _live_and_restored(
    pipeline, state_dir, *, final_checkpoint, layout="sidecar"
):
    """A live durable engine fed the whole corpus (checkpointed in
    *layout* at half and, with *final_checkpoint*, at the end) and the
    engine restored from its state directory."""
    policy = DurabilityPolicy(state_dir, fsync=False)
    live = IncrementalTopK(pipeline.levels, durability=policy)
    half = N_RECORDS // 2
    _feed(live, pipeline.store, stop=half)
    checkpoint_as(live, layout)
    _feed(live, pipeline.store, start=half)
    if final_checkpoint:
        checkpoint_as(live, layout)
    live.close()
    restored = IncrementalTopK.restore(state_dir, pipeline.levels)
    return live, restored


def _assert_same_answers(restored, live):
    assert stream_fingerprint(restored) == stream_fingerprint(live)
    assert restored.audit() == []
    result = restored.query(K)
    baseline = live.query(K)
    assert group_fingerprint(result.groups) == group_fingerprint(
        baseline.groups
    )
    assert result.groups.weights() == baseline.groups.weights()


@pytest.mark.parametrize("dataset", ["citations", "students"])
@pytest.mark.parametrize("seed", SEEDS)
def test_stream_state_bit_identical(tmp_path, dataset, seed):
    # Restore decodes the half-way sidecar, then replays the WAL tail
    # through the decoded key index.
    pipeline = _pipeline(dataset, seed)
    live, restored = _live_and_restored(
        pipeline, tmp_path / "state", final_checkpoint=False
    )
    info = restored.last_recovery
    assert info.checkpoint_entries == N_RECORDS // 2
    assert info.entries_replayed == N_RECORDS - N_RECORDS // 2
    _assert_same_answers(restored, live)
    restored.close()


@pytest.mark.parametrize("dataset", ["citations", "students"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_snapshot_queries_bit_identical(tmp_path, dataset, seed):
    pipeline = _pipeline(dataset, seed)
    live, restored = _live_and_restored(
        pipeline, tmp_path / "state", final_checkpoint=True
    )
    snap_live = EngineSnapshot.freeze(live)
    snap_restored = EngineSnapshot.freeze(restored)
    assert snap_restored.consistency_problems() == []
    topk = snap_restored.query_topk(K)
    topk_base = snap_live.query_topk(K)
    assert group_fingerprint(topk.groups) == group_fingerprint(
        topk_base.groups
    )
    rank = snap_restored.query_rank(K)
    rank_base = snap_live.query_rank(K)
    assert rank.ranking == rank_base.ranking
    assert rank.certain == rank_base.certain
    threshold = snap_restored.query_threshold(THRESHOLD)
    threshold_base = snap_live.query_threshold(THRESHOLD)
    assert threshold.ranking == threshold_base.ranking
    assert threshold.certain == threshold_base.certain
    restored.close()


@pytest.mark.parametrize("dataset", ["citations", "students"])
@pytest.mark.parametrize("seed", [0, 1, 2])
# The ids keep the names these cases had when the layouts came from
# two record stores: "columnar" wrote the sidecar, "memory" inline JSON.
@pytest.mark.parametrize(
    "layout", ["sidecar", "json"], ids=["columnar", "memory"]
)
def test_restore_from_compacted_checkpoint(tmp_path, dataset, seed, layout):
    # Checkpoint at half and at the end, then restore cold: zero WAL
    # entries replayed, and the restored key index (decoded from the
    # sidecar, or rebuilt from inline-JSON records) must union later
    # inserts exactly as the live engine's index does (the live engine
    # closed its WAL, so an in-memory twin takes the later inserts).
    pipeline = _pipeline(dataset, seed)
    live, restored = _live_and_restored(
        pipeline, tmp_path / "state", final_checkpoint=True, layout=layout
    )
    assert restored.last_recovery.entries_replayed == 0
    path = restored.last_recovery.checkpoint_path
    assert path is not None
    _header, sections = DurableStateStore.read_checkpoint(path)
    assert ("columnar" in sections) == (layout == "sidecar")
    assert ("records" in sections) == (layout == "json")
    _assert_same_answers(restored, live)
    twin = IncrementalTopK(pipeline.levels)
    _feed(twin, pipeline.store)
    assert stream_fingerprint(twin) == stream_fingerprint(live)
    _feed(twin, pipeline.store, stop=N_RECORDS // 4)
    _feed(restored, pipeline.store, stop=N_RECORDS // 4)
    _assert_same_answers(restored, twin)
    restored.close()
