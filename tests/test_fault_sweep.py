"""Seeded fault-injection sweep: the fault plane's acceptance contract.

Under **any** injected fault schedule — WAL appends failing with EIO or
ENOSPC, fsyncs failing, checkpoint writes dying mid-tmp — the engine
must return answers bit-identical to the clean run, or an explicitly
flagged degraded one (``durability_degraded``, breaker open).  Never a
silently wrong answer, never a corrupted store: every recovery here
must reproduce the exact fingerprint of replaying the journaled prefix,
and every restore must pass ``audit()``.

The sweep is 160 parameterized cases across the storage fault families
× seeds, with the clean references cached per seed.
"""

import functools

import pytest

from repro.core import DurabilityPolicy, IncrementalTopK
from repro.core.persistence import CheckpointWriteError
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
