"""Seeded fault-injection sweep: the fault plane's acceptance contract.

Under **any** injected fault schedule — WAL appends failing with EIO or
ENOSPC, fsyncs failing, checkpoint writes dying mid-tmp — the engine
must return answers bit-identical to the clean run, or an explicitly
flagged degraded one (``durability_degraded``, breaker open).  Never a
silently wrong answer, never a corrupted store: every recovery here
must reproduce the exact fingerprint of replaying the journaled prefix,
and every restore must pass ``audit()``.

Under predicate faults — sufficient and necessary predicates raising
at increasing rates — a containment policy must keep the answer safe
in both directions: never merge across the fault-free run's groups,
never lose a true Top-K entity.

The sweep is 160 parameterized cases across the storage fault families
× seeds, with the clean references cached per seed, plus 4 predicate
fault rates on 800 citations.
"""

import functools

import pytest

from repro.core import DurabilityPolicy, IncrementalTopK
from repro.core.persistence import CheckpointWriteError
from repro.core.pruned_dedup import pruned_dedup
from repro.core.records import GroupSet
from repro.core.resilience import ExecutionPolicy
from repro.datasets import (
    author_idf,
    author_string_idf,
    generate_citations,
    suggest_min_idf,
)
from repro.predicates import citation_levels
from repro.testing import FaultPlane
from repro.testing.crashpoints import reference_fingerprints, stream_fingerprint
from tests.test_crashpoints import make_levels, seeded_events

N_EVENTS = 40
SEGMENT_BYTES = 2048
STORAGE_SEEDS = range(20)
PERSISTENT_SEEDS = range(10)


@functools.lru_cache(maxsize=None)
def _events(seed):
    return tuple(seeded_events(N_EVENTS, seed=seed))


@functools.lru_cache(maxsize=None)
def _references(seed):
    return reference_fingerprints(make_levels, _events(seed))


def _run_faulted_stream(plane, seed, state_dir, *, fsync=False, checkpoint_every=0):
    """Stream the seeded events with *plane* armed; return the engine.

    Checkpoint failures are caught (the degraded path under test) and
    counted on the store; everything else must not raise.
    """
    policy = DurabilityPolicy(
        state_dir=state_dir, segment_bytes=SEGMENT_BYTES, fsync=fsync
    )
    engine = IncrementalTopK(make_levels(), durability=policy)
    with plane.active():
        for position, (fields, weight) in enumerate(_events(seed), start=1):
            engine.add(fields, weight)
            if checkpoint_every and position % checkpoint_every == 0:
                try:
                    engine.checkpoint()
                except CheckpointWriteError:
                    pass
    engine.close()
    return engine


def _assert_consistent(engine, seed, state_dir):
    """The safety property, checked end to end for one faulted stream.

    * Live answers are bit-identical to the clean run — faults never
      change what the engine computes, only what it journals.
    * Degradation is explicit: a shortened journal is only ever paired
      with ``durability_degraded`` set.
    * Recovery replays exactly the journaled prefix, reproduces its
      clean-run fingerprint, and passes the state audit.
    """
    references = _references(seed)
    assert stream_fingerprint(engine) == references[N_EVENTS], (
        f"seed {seed}: live answers diverged under faults"
    )
    store = engine._durable
    journaled = store.next_index
    if store.durability_degraded:
        assert store.degraded_reason
        assert journaled + store.appends_suspended == N_EVENTS
    else:
        assert journaled == N_EVENTS
    recovered = IncrementalTopK.restore(state_dir, make_levels())
    try:
        assert recovered.entries_applied == journaled
        assert stream_fingerprint(recovered) == references[journaled], (
            f"seed {seed}: recovery diverged from the journaled prefix"
        )
        assert recovered.audit(strict=False) == []
    finally:
        recovered.close()
    return store


# -- WAL append faults ------------------------------------------------------


@pytest.mark.parametrize("rate", [0.25, 0.6])
@pytest.mark.parametrize("seed", STORAGE_SEEDS)
def test_wal_append_eio(tmp_path, seed, rate):
    plane = FaultPlane(seed=seed, wal_append_rate=rate)
    engine = _run_faulted_stream(plane, seed, tmp_path / "state")
    _assert_consistent(engine, seed, tmp_path / "state")


@pytest.mark.parametrize("seed", PERSISTENT_SEEDS)
def test_wal_append_persistent_eio(tmp_path, seed):
    # persistent=True: the retry layer cannot clear the fault, so any
    # faulted append must end in explicit suspension, never corruption.
    plane = FaultPlane(seed=seed, wal_append_rate=0.3, persistent=True)
    engine = _run_faulted_stream(plane, seed, tmp_path / "state")
    store = _assert_consistent(engine, seed, tmp_path / "state")
    assert store.durability_degraded == (plane.total_injected > 0)


@pytest.mark.parametrize("seed", STORAGE_SEEDS)
def test_wal_append_enospc(tmp_path, seed):
    plane = FaultPlane(seed=seed, wal_enospc_rate=0.1)
    engine = _run_faulted_stream(plane, seed, tmp_path / "state")
    store = _assert_consistent(engine, seed, tmp_path / "state")
    # ENOSPC is never retried: the first hit suspends journaling.
    assert store.durability_degraded == (plane.total_injected > 0)


@pytest.mark.parametrize("seed", STORAGE_SEEDS)
def test_wal_fsync_eio(tmp_path, seed):
    plane = FaultPlane(seed=seed, wal_fsync_rate=0.4)
    engine = _run_faulted_stream(plane, seed, tmp_path / "state", fsync=True)
    _assert_consistent(engine, seed, tmp_path / "state")


# -- checkpoint faults ------------------------------------------------------


@pytest.mark.parametrize("seed", STORAGE_SEEDS)
def test_checkpoint_write_eio(tmp_path, seed):
    plane = FaultPlane(seed=seed, checkpoint_rate=0.5)
    engine = _run_faulted_stream(
        plane, seed, tmp_path / "state", checkpoint_every=10
    )
    store = _assert_consistent(engine, seed, tmp_path / "state")
    assert store.checkpoints_failed >= 0  # counted, never raised through


@pytest.mark.parametrize("seed", PERSISTENT_SEEDS)
def test_checkpoint_write_always_fails(tmp_path, seed):
    # Every checkpoint write fails on every attempt: the WAL must be
    # fully retained and recovery must replay it from scratch.
    plane = FaultPlane(seed=seed, checkpoint_rate=1.0, persistent=True)
    engine = _run_faulted_stream(
        plane, seed, tmp_path / "state", checkpoint_every=10
    )
    store = _assert_consistent(engine, seed, tmp_path / "state")
    assert store.checkpoints_failed == N_EVENTS // 10
    assert not list((tmp_path / "state").glob("checkpoint-*.ckpt"))
    recovered = IncrementalTopK.restore(tmp_path / "state", make_levels())
    try:
        assert recovered.last_recovery.checkpoint_path is None
        assert recovered.entries_applied == N_EVENTS
    finally:
        recovered.close()


# -- restores with the plane still armed ------------------------------------


@pytest.mark.parametrize(
    "rates",
    [
        {"wal_append_rate": 0.4, "checkpoint_rate": 0.5},
        {"wal_enospc_rate": 0.1, "wal_fsync_rate": 0.3},
    ],
    ids=["eio-mix", "enospc-mix"],
)
@pytest.mark.parametrize("seed", STORAGE_SEEDS)
def test_restore_under_armed_plane(tmp_path, seed, rates):
    # Write under faults, then restore with the plane STILL armed: the
    # restore must pass its audit (or raise) before serving — recovery
    # reads are not a fault site, so it must come back clean.
    plane = FaultPlane(seed=seed, **rates)
    engine = _run_faulted_stream(
        plane, seed, tmp_path / "state", checkpoint_every=15
    )
    journaled = engine._durable.next_index
    with plane.active():
        recovered = IncrementalTopK.restore(tmp_path / "state", make_levels())
        try:
            assert recovered.audit(strict=False) == []
            # A checkpoint taken after journaling suspended snapshots the
            # full in-memory state, so recovery may land *beyond* the
            # journaled WAL prefix — but always on an exact clean-run
            # prefix, never between entries and never diverging from it.
            assert recovered.entries_applied >= journaled
            assert (
                stream_fingerprint(recovered)
                == _references(seed)[recovered.entries_applied]
            )
        finally:
            recovered.close()


# -- predicate faults -------------------------------------------------------


def refines(groups: GroupSet, baseline: GroupSet) -> bool:
    """True when every group of *groups* sits inside one baseline group.

    This is the no-over-merge criterion: with sufficient-predicate
    faults falling back to False, a faulted run may merge *less* than
    the fault-free run but never across its group boundaries.
    """
    owner = {
        record_id: position
        for position, group in enumerate(baseline)
        for record_id in group.member_ids
    }
    return all(
        len({owner[r] for r in group.member_ids if r in owner}) <= 1
        for group in groups
    )


@functools.lru_cache(maxsize=None)
def _citations():
    """800 citations, their levels, and the fault-free K=5 run."""
    dataset = generate_citations(n_records=800, seed=0)
    idf = author_idf(dataset.store)
    levels = citation_levels(
        idf, suggest_min_idf(idf), anchor_idf=author_string_idf(dataset.store)
    )
    return dataset, levels, pruned_dedup(dataset.store, 5, levels)


@pytest.mark.parametrize("rate", [0.0, 0.1, 0.2, 0.4])
def test_predicate_faults_are_contained(rate):
    # Both roles raise at *rate*; every fault is contained (a failing S
    # reads False, a failing N reads True) without degrading the run.
    dataset, levels, baseline = _citations()
    faulty = FaultPlane(seed=0).wrap_levels(levels, error_rate=rate)
    result = pruned_dedup(
        dataset.store, 5, faulty, policy=ExecutionPolicy(on_error="degrade")
    )
    assert (result.counters.total_contained > 0) == (rate > 0)
    assert refines(result.groups, baseline.groups)
    surviving = {
        dataset.labels[record_id]
        for group in result.groups
        for record_id in group.member_ids
    }
    assert all(entity in surviving for entity, _ in dataset.true_topk(5))
    assert not result.degraded
