"""Tests for the durable stream state layer (checkpoint + WAL + recovery)."""

import json
import math
import random
import struct

import pytest

from repro.core.incremental import IncrementalTopK
from repro.core.persistence import (
    CheckpointError,
    DurabilityPolicy,
    DurableStateStore,
    PersistenceError,
    StateAuditError,
    WalCorruptionError,
    has_state,
    wal_entry_spans,
)
from repro.predicates.base import FunctionPredicate, PredicateLevel
from repro.testing import checkpoint_as, write_json_checkpoint
from repro.testing.crashpoints import stream_fingerprint
from tests.conftest import exact_name_predicate, shared_word_predicate


def poison_keys(record):
    if record["name"] == "poison":
        raise ValueError("poisoned keying")
    return [record["name"]]


def make_levels():
    """Deterministic level whose keying raises for name == 'poison'."""
    sufficient = FunctionPredicate(
        evaluate_fn=lambda a, b: a["name"] == b["name"],
        keys_fn=poison_keys,
        name="exact-name-poisonable",
        key_implies_match=True,
    )
    return [PredicateLevel(sufficient, shared_word_predicate())]


def plain_levels():
    return [PredicateLevel(exact_name_predicate(), shared_word_predicate())]


def policy_for(tmp_path, **kwargs):
    kwargs.setdefault("fsync", False)
    return DurabilityPolicy(state_dir=tmp_path / "state", **kwargs)


def feed(engine, names, weight=1.0):
    for name in names:
        engine.add({"name": name}, weight)


def flip_body_byte(sidecar, array_name):
    """Flip the low bit of the first body byte of *array_name* in an
    array sidecar, leaving its header (and so its recorded CRC32)
    intact."""
    data = bytearray(sidecar.read_bytes())
    (length,) = struct.unpack(">I", data[8:12])
    header = json.loads(data[16 : 16 + length])
    (entry,) = [e for e in header["arrays"] if e["name"] == array_name]
    data[entry["offset"]] ^= 0x01
    sidecar.write_bytes(bytes(data))


class TestDurabilityPolicy:
    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            DurabilityPolicy(tmp_path, segment_bytes=0)
        with pytest.raises(ValueError):
            DurabilityPolicy(tmp_path, keep_checkpoints=0)

    def test_path_coercion(self, tmp_path):
        policy = DurabilityPolicy(str(tmp_path / "s"))
        assert policy.path == tmp_path / "s"

    def test_has_state(self, tmp_path):
        assert not has_state(tmp_path / "nope")
        engine = IncrementalTopK(plain_levels(), durability=policy_for(tmp_path))
        assert not has_state(tmp_path / "state")
        engine.add({"name": "a"})
        assert has_state(tmp_path / "state")
        engine.close()

    def test_fresh_dir_refuses_existing_state(self, tmp_path):
        engine = IncrementalTopK(plain_levels(), durability=policy_for(tmp_path))
        engine.add({"name": "a"})
        engine.close()
        with pytest.raises(PersistenceError, match="already holds"):
            IncrementalTopK(plain_levels(), durability=policy_for(tmp_path))

    def test_no_durability_writes_nothing(self, tmp_path):
        engine = IncrementalTopK(plain_levels())
        feed(engine, ["a", "b", "a"])
        assert not engine.durable
        assert list(tmp_path.iterdir()) == []
        with pytest.raises(PersistenceError):
            engine.checkpoint()


class TestWalRoundTrip:
    def test_wal_only_restore(self, tmp_path):
        engine = IncrementalTopK(plain_levels(), durability=policy_for(tmp_path))
        feed(engine, ["ann smith", "bob jones", "ann smith", "cara lee"], 2.0)
        engine.close()
        restored = IncrementalTopK.restore(tmp_path / "state", plain_levels())
        assert stream_fingerprint(restored) == stream_fingerprint(engine)
        assert restored.last_recovery.checkpoint_path is None
        assert restored.last_recovery.entries_replayed == 4
        assert restored.last_recovery.torn_tail_bytes == 0
        restored.close()

    def test_segment_rotation(self, tmp_path):
        policy = policy_for(tmp_path, segment_bytes=128)
        engine = IncrementalTopK(plain_levels(), durability=policy)
        feed(engine, [f"name-{i}" for i in range(20)])
        engine.close()
        segments = wal_entry_spans(tmp_path / "state")
        assert len(segments) > 1
        # Global numbering is contiguous across segments.
        expected = 0
        for _path, first_index, spans in segments:
            assert first_index == expected
            expected += len(spans)
        assert expected == 20
        restored = IncrementalTopK.restore(tmp_path / "state", plain_levels())
        assert len(restored) == 20
        restored.close()

    def test_restore_continues_journaling(self, tmp_path):
        engine = IncrementalTopK(plain_levels(), durability=policy_for(tmp_path))
        feed(engine, ["a", "b"])
        engine.close()
        restored = IncrementalTopK.restore(tmp_path / "state", plain_levels())
        feed(restored, ["a", "c"])
        restored.close()
        again = IncrementalTopK.restore(tmp_path / "state", plain_levels())
        assert stream_fingerprint(again) == stream_fingerprint(restored)
        assert len(again) == 4
        again.close()

    def test_restore_empty_dir_raises(self, tmp_path):
        (tmp_path / "state").mkdir()
        with pytest.raises(PersistenceError, match="no stream state"):
            IncrementalTopK.restore(tmp_path / "state", plain_levels())

    def test_weights_survive_exactly(self, tmp_path):
        engine = IncrementalTopK(plain_levels(), durability=policy_for(tmp_path))
        weights = [0.1, 2.5, 1e-3, 123456.789, 7.0]
        for i, w in enumerate(weights):
            engine.add({"name": f"n{i % 2}"}, w)
        engine.close()
        restored = IncrementalTopK.restore(tmp_path / "state", plain_levels())
        assert [r.weight for r in restored.current_store()] == weights
        restored.close()


class TestTornAndCorrupt:
    def _write_three(self, tmp_path):
        engine = IncrementalTopK(plain_levels(), durability=policy_for(tmp_path))
        feed(engine, ["a", "b", "c"])
        engine.close()
        [(path, _first, spans)] = wal_entry_spans(tmp_path / "state")
        return path, spans

    def test_torn_tail_is_absorbed(self, tmp_path):
        path, spans = self._write_three(tmp_path)
        with open(path, "r+b") as handle:
            handle.truncate(spans[-1][1] - 1)
        restored = IncrementalTopK.restore(tmp_path / "state", plain_levels())
        assert len(restored) == 2
        assert restored.last_recovery.torn_tail_bytes > 0
        # The torn tail is physically truncated so journaling resumes
        # from a clean boundary.
        restored.add({"name": "c"})
        restored.close()
        again = IncrementalTopK.restore(tmp_path / "state", plain_levels())
        assert len(again) == 3
        again.close()

    def test_corrupt_trailing_entry_is_absorbed(self, tmp_path):
        path, spans = self._write_three(tmp_path)
        start, end = spans[-1]
        data = bytearray(path.read_bytes())
        data[end - 2] ^= 0xFF  # flip a payload byte; length still intact
        path.write_bytes(data)
        restored = IncrementalTopK.restore(tmp_path / "state", plain_levels())
        assert len(restored) == 2
        restored.close()

    def test_mid_log_corruption_raises(self, tmp_path):
        path, spans = self._write_three(tmp_path)
        start, end = spans[0]
        data = bytearray(path.read_bytes())
        data[end - 2] ^= 0xFF  # corrupt the FIRST entry; two intact follow
        path.write_bytes(data)
        with pytest.raises(WalCorruptionError, match="mid-log"):
            IncrementalTopK.restore(tmp_path / "state", plain_levels())

    def test_corruption_in_non_final_segment_raises(self, tmp_path):
        policy = policy_for(tmp_path, segment_bytes=64)
        engine = IncrementalTopK(plain_levels(), durability=policy)
        feed(engine, [f"name-{i}" for i in range(10)])
        engine.close()
        segments = wal_entry_spans(tmp_path / "state")
        assert len(segments) > 2
        first_path = segments[0][0]
        with open(first_path, "r+b") as handle:
            handle.truncate(segments[0][2][-1][1] - 1)
        with pytest.raises(WalCorruptionError):
            IncrementalTopK.restore(tmp_path / "state", plain_levels())

    def test_missing_segment_raises(self, tmp_path):
        policy = policy_for(tmp_path, segment_bytes=64)
        engine = IncrementalTopK(plain_levels(), durability=policy)
        feed(engine, [f"name-{i}" for i in range(10)])
        engine.close()
        segments = wal_entry_spans(tmp_path / "state")
        segments[1][0].unlink()
        with pytest.raises(WalCorruptionError, match="gap"):
            IncrementalTopK.restore(tmp_path / "state", plain_levels())

    def test_garbage_length_field_in_tail_is_torn(self, tmp_path):
        path, spans = self._write_three(tmp_path)
        data = path.read_bytes()
        garbage = struct.pack(">II", 0x7FFFFFFF, 0) + b"xx"
        path.write_bytes(data + garbage)
        restored = IncrementalTopK.restore(tmp_path / "state", plain_levels())
        assert len(restored) == 3
        restored.close()


class TestCheckpoint:
    def test_checkpoint_restores_without_wal(self, tmp_path):
        engine = IncrementalTopK(plain_levels(), durability=policy_for(tmp_path))
        feed(engine, ["ann smith", "ann smith", "bob jones"], 3.0)
        engine.checkpoint()
        engine.close()
        state = tmp_path / "state"
        # The single retained checkpoint subsumes the whole WAL.
        assert not any(p.name.startswith("wal-") for p in state.iterdir())
        restored = IncrementalTopK.restore(state, plain_levels())
        assert stream_fingerprint(restored) == stream_fingerprint(engine)
        assert restored.last_recovery.checkpoint_entries == 3
        assert restored.last_recovery.entries_replayed == 0
        restored.close()

    def test_checkpoint_plus_tail_replay(self, tmp_path):
        engine = IncrementalTopK(plain_levels(), durability=policy_for(tmp_path))
        feed(engine, ["a"] * 5)
        engine.checkpoint()
        feed(engine, ["b"] * 3)
        engine.close()
        restored = IncrementalTopK.restore(tmp_path / "state", plain_levels())
        assert stream_fingerprint(restored) == stream_fingerprint(engine)
        assert restored.last_recovery.checkpoint_entries == 5
        assert restored.last_recovery.entries_replayed == 3
        restored.close()

    def test_corrupt_newest_checkpoint_falls_back(self, tmp_path):
        engine = IncrementalTopK(
            plain_levels(), durability=policy_for(tmp_path, keep_checkpoints=2)
        )
        feed(engine, ["a"] * 4)
        engine.checkpoint()
        feed(engine, ["b"] * 4)
        engine.checkpoint()
        engine.close()
        state = tmp_path / "state"
        checkpoints = sorted(state.glob("checkpoint-*.ckpt"))
        assert len(checkpoints) == 2
        newest = checkpoints[-1]
        data = bytearray(newest.read_bytes())
        data[len(data) // 2] ^= 0xFF
        newest.write_bytes(data)
        restored = IncrementalTopK.restore(state, plain_levels())
        # Fell back to the older checkpoint, then replayed the WAL tail
        # that was retained exactly for this case.
        assert restored.last_recovery.corrupt_checkpoints_skipped == 1
        assert restored.last_recovery.checkpoint_entries == 4
        assert stream_fingerprint(restored) == stream_fingerprint(engine)
        restored.close()

    def test_lone_corrupt_checkpoint_with_pruned_wal_fails_restore(
        self, tmp_path
    ):
        # The checkpoint subsumed (and pruned) the whole WAL: skipping
        # it would restore an empty stream as if nothing was lost.
        engine = IncrementalTopK(plain_levels(), durability=policy_for(tmp_path))
        feed(engine, ["a", "b", "a"])
        path = engine.checkpoint()
        engine.close()
        assert not list((tmp_path / "state").glob("wal-*.log"))
        path.write_bytes(b"\x00" * 64)
        with pytest.raises(CheckpointError, match="entry 3 is unusable"):
            IncrementalTopK.restore(tmp_path / "state", plain_levels())

    def test_restore_clears_tmp_files_of_interrupted_checkpoints(
        self, tmp_path
    ):
        engine = IncrementalTopK(plain_levels(), durability=policy_for(tmp_path))
        feed(engine, ["a", "b"])
        engine.checkpoint()
        engine.close()
        state = tmp_path / "state"
        stale = [
            state / "checkpoint-000000000009.ckpt.tmp",
            state / "columnar-000000000009.col.tmp",
        ]
        for path in stale:
            path.write_bytes(b"half-written")
        restored = IncrementalTopK.restore(state, plain_levels())
        assert not any(path.exists() for path in stale)
        assert stream_fingerprint(restored) == stream_fingerprint(engine)
        restored.close()

    def test_checkpoint_retention(self, tmp_path):
        engine = IncrementalTopK(
            plain_levels(), durability=policy_for(tmp_path, keep_checkpoints=2)
        )
        for round_number in range(4):
            feed(engine, [f"name-{round_number}"] * 2)
            engine.checkpoint()
        engine.close()
        checkpoints = sorted((tmp_path / "state").glob("checkpoint-*.ckpt"))
        assert len(checkpoints) == 2

    def test_bad_magic_rejected(self, tmp_path):
        engine = IncrementalTopK(plain_levels(), durability=policy_for(tmp_path))
        feed(engine, ["a"])
        path = engine.checkpoint()
        engine.close()
        header, _sections = DurableStateStore.read_checkpoint(path)
        assert header["magic"] == "repro-checkpoint"
        # Rewrite with a bogus magic: structurally valid frames, wrong format.
        blob = json.dumps({"magic": "not-a-checkpoint"}).encode()
        frame = struct.pack(">II", len(blob), __import__("zlib").crc32(blob)) + blob
        path.write_bytes(frame)
        with pytest.raises(CheckpointError):
            DurableStateStore.read_checkpoint(path)

    def test_checkpoint_frames_above_wal_entry_cap_stay_readable(
        self, tmp_path
    ):
        # Regression: checkpoint sections hold the whole record store
        # and legitimately clear the WAL's 32 MiB per-insert bound
        # (~400k records inline).  Reading them back through that bound
        # made every large checkpoint unreadable the moment after it
        # was written — restores silently fell back to full WAL replay.
        from repro.core.persistence import MAX_ENTRY_BYTES

        store = DurableStateStore(policy_for(tmp_path))
        store.directory.mkdir(parents=True, exist_ok=True)
        filler = "x" * 1024
        rows = [[filler, 1.0]] * (MAX_ENTRY_BYTES // 1024 + 64)
        path = store.write_checkpoint(
            {"entries_applied": 7, "version": 7}, {"records": rows}
        )
        assert path.stat().st_size > MAX_ENTRY_BYTES
        header, sections = DurableStateStore.read_checkpoint(path)
        assert header["entries_applied"] == 7
        assert sections["records"] == rows
        assert store.checkpoint_usable(path)
        assert store.checkpoints() == [(7, path)]

    def test_tampered_group_weights_fail_restore(self, tmp_path):
        # Inline-JSON checkpoints carry their own per-group weights;
        # restore cross-checks them against the records.
        engine = IncrementalTopK(plain_levels(), durability=policy_for(tmp_path))
        feed(engine, ["a", "a", "b"], 2.0)
        path = write_json_checkpoint(engine)
        engine.close()
        header, sections = DurableStateStore.read_checkpoint(path)
        sections["groups"] = [[root, weight + 1.0] for root, weight in sections["groups"]]
        store = DurableStateStore(policy_for(tmp_path))
        path.unlink()
        store.write_checkpoint(
            {k: v for k, v in header.items() if k not in ("magic", "format_version", "sections")},
            sections,
        )
        with pytest.raises(StateAuditError, match="group weights"):
            IncrementalTopK.restore(tmp_path / "state", plain_levels())

    def test_inline_json_checkpoint_restores_bit_identical(self, tmp_path):
        # State directories written before every checkpoint carried an
        # array sidecar hold inline-JSON checkpoints: they restore to
        # the same state, and the next checkpoint writes a sidecar.
        engine = IncrementalTopK(make_levels(), durability=policy_for(tmp_path))
        feed(engine, ["ann smith", "poison", "ann smith", "bob jones"], 2.5)
        engine.add({"name": "carol", "city": ""}, -0.0)
        path = write_json_checkpoint(engine)
        feed(engine, ["bob jones", "dave"], 1.5)
        engine.close()
        _header, sections = DurableStateStore.read_checkpoint(path)
        assert "records" in sections and "columnar" not in sections
        assert not list((tmp_path / "state").glob("columnar-*.col"))

        restored = IncrementalTopK.restore(tmp_path / "state", make_levels())
        assert restored.last_recovery.checkpoint_path == path
        assert restored.last_recovery.entries_replayed == 2
        assert stream_fingerprint(restored) == stream_fingerprint(engine)
        (carol,) = [r for r in restored.current_store() if r["name"] == "carol"]
        assert list(carol.fields.items()) == [("name", "carol"), ("city", "")]
        assert math.copysign(1.0, carol.weight) == -1.0
        assert restored.query(2).groups.weights() == engine.query(2).groups.weights()

        next_path = restored.checkpoint()
        restored.close()
        _header, sections = DurableStateStore.read_checkpoint(next_path)
        assert "columnar" in sections and "records" not in sections
        assert (tmp_path / "state" / sections["columnar"]["file"]).exists()
        again = IncrementalTopK.restore(tmp_path / "state", make_levels())
        assert again.last_recovery.checkpoint_path == next_path
        assert again.last_recovery.entries_replayed == 0
        assert stream_fingerprint(again) == stream_fingerprint(engine)
        again.close()

    def test_failed_sidecar_write_counts_as_failed_checkpoint(self, tmp_path):
        import errno

        from repro.core.persistence import CheckpointWriteError
        from repro.core.retry import install_fault_hook

        engine = IncrementalTopK(plain_levels(), durability=policy_for(tmp_path))
        feed(engine, ["a", "b"])
        first = engine.checkpoint()
        feed(engine, ["c"])

        def disk_full(site, ids):
            if ids.get("file") == "sidecar":
                raise OSError(errno.ENOSPC, "No space left on device")

        previous = install_fault_hook(disk_full)
        try:
            with pytest.raises(CheckpointWriteError, match="sidecar"):
                engine.checkpoint()
        finally:
            install_fault_hook(previous)
        assert engine.durability_status()["checkpoints_failed"] == 1
        assert not list((tmp_path / "state").glob("*.tmp"))
        engine.close()
        restored = IncrementalTopK.restore(tmp_path / "state", plain_levels())
        assert restored.last_recovery.checkpoint_path == first
        assert restored.last_recovery.entries_replayed == 1
        assert stream_fingerprint(restored) == stream_fingerprint(engine)
        restored.close()

    def test_transient_sidecar_write_error_is_retried(self, tmp_path):
        import errno

        from repro.core.retry import install_fault_hook

        engine = IncrementalTopK(plain_levels(), durability=policy_for(tmp_path))
        feed(engine, ["a", "b", "a"])
        attempts = []

        def flaky_sidecar(site, ids):
            if ids.get("file") == "sidecar":
                attempts.append(ids["attempt"])
                if ids["attempt"] == 0:
                    raise OSError(errno.EIO, "injected: transient I/O error")

        previous = install_fault_hook(flaky_sidecar)
        try:
            path = engine.checkpoint()
        finally:
            install_fault_hook(previous)
        assert attempts == [0, 1]
        assert engine.durability_status()["checkpoints_failed"] == 0
        engine.close()
        restored = IncrementalTopK.restore(tmp_path / "state", plain_levels())
        assert restored.last_recovery.checkpoint_path == path
        assert restored.last_recovery.entries_replayed == 0
        assert stream_fingerprint(restored) == stream_fingerprint(engine)
        restored.close()

    def test_open_breaker_refuses_before_encoding_the_sidecar(
        self, tmp_path, monkeypatch
    ):
        from repro.core.persistence import CheckpointWriteError
        from repro.storage import engine_state

        engine = IncrementalTopK(plain_levels(), durability=policy_for(tmp_path))
        feed(engine, ["a", "b"])
        breaker = engine._durable.breaker
        for _ in range(breaker.failure_threshold):
            breaker.record_failure()
        assert not breaker.allow()

        def must_not_encode(*args, **kwargs):
            raise AssertionError("sidecar encoded behind an open breaker")

        monkeypatch.setattr(engine_state, "build_sidecar_arrays", must_not_encode)
        with pytest.raises(CheckpointWriteError, match="breaker"):
            engine.checkpoint()
        assert engine.durability_status()["checkpoints_failed"] == 1
        engine.close()

    @pytest.mark.parametrize("bad_value", ["\ud800", 2009])
    def test_unencodable_replayed_record_fails_checkpoint_visibly(
        self, tmp_path, bad_value
    ):
        # add() rejects such fields, but state replayed from a WAL
        # written before it did can hold them: every checkpoint must
        # then fail as a counted write failure naming the record, with
        # the prior checkpoint and the WAL kept.
        from repro.core.persistence import CheckpointWriteError

        engine = IncrementalTopK(plain_levels(), durability=policy_for(tmp_path))
        feed(engine, ["a"])
        first = engine.checkpoint()
        engine._apply_add({"name": bad_value}, 1.0)  # the WAL-replay path
        with pytest.raises(CheckpointWriteError, match="record 1"):
            engine.checkpoint()
        assert engine.durability_status()["checkpoints_failed"] == 1
        assert sorted((tmp_path / "state").glob("checkpoint-*.ckpt")) == [first]
        assert not list((tmp_path / "state").glob("*.tmp"))
        engine.close()

    def test_damaged_newest_sidecar_body_falls_back(self, tmp_path):
        # A body byte flipped so that it still decodes (record 0's
        # weight moves by one ulp, inside the group-weight tolerance):
        # only the body checksum can tell.  Restore must skip that
        # checkpoint for the older one and replay the WAL kept for it.
        engine = IncrementalTopK(
            plain_levels(), durability=policy_for(tmp_path, keep_checkpoints=2)
        )
        feed(engine, ["a"] * 4)
        first = engine.checkpoint()
        feed(engine, ["b"] * 4)
        newest = engine.checkpoint()
        engine.close()
        state = tmp_path / "state"
        (sidecar,) = state.glob("columnar-000000000008.col")
        flip_body_byte(sidecar, "records.weights")
        store = DurableStateStore(policy_for(tmp_path))
        assert not store.checkpoint_usable(newest)
        assert store.checkpoint_usable(first)
        restored = IncrementalTopK.restore(state, plain_levels())
        assert restored.last_recovery.corrupt_checkpoints_skipped == 1
        assert restored.last_recovery.checkpoint_path == first
        assert restored.last_recovery.entries_replayed == 4
        assert stream_fingerprint(restored) == stream_fingerprint(engine)
        restored.close()

    def test_damaged_sidecar_body_fails_restore_cleanly(self, tmp_path):
        # A sidecar whose checksums hold but whose record id points
        # outside its string pool must surface as a CheckpointError,
        # never a raw IndexError — and with no older checkpoint to fall
        # back to, restore must fail rather than drop the entries.
        import numpy as np

        from repro.storage import MappedArrays, write_arrays

        engine = IncrementalTopK(plain_levels(), durability=policy_for(tmp_path))
        feed(engine, ["ann smith", "bob jones"])
        engine.checkpoint()
        engine.close()
        (sidecar,) = (tmp_path / "state").glob("columnar-*.col")
        mapped = MappedArrays(sidecar)
        arrays = {name: np.array(view) for name, view in mapped.arrays.items()}
        meta = mapped.meta
        del mapped
        arrays["records.value_ids"][0] = 99
        write_arrays(sidecar, arrays, meta)
        with pytest.raises(CheckpointError, match="does not decode"):
            IncrementalTopK.restore(tmp_path / "state", plain_levels())


class TestPruneRetention:
    """Regression: prune must never count corrupt checkpoints toward
    retention — doing so deleted the older *valid* checkpoint plus the
    WAL segments needed to replay forward from it, turning a
    recoverable directory into an unrecoverable one."""

    def _grow_state(self, tmp_path, *, layout="sidecar", rounds=3):
        engine = IncrementalTopK(
            plain_levels(),
            durability=policy_for(tmp_path, keep_checkpoints=2),
        )
        for round_number in range(rounds):
            feed(engine, [f"name-{round_number} shared"] * 10)
            checkpoint_as(engine, layout, prune=False)
        fingerprint = stream_fingerprint(engine)
        engine.close()
        return tmp_path / "state", fingerprint

    @staticmethod
    def _pruned_store(state):
        store = DurableStateStore(policy_for(state.parent, keep_checkpoints=2))
        log = store.recover_log()
        store.resume_appends(log, log.end_index)
        store.prune()
        store.close()

    # The ids keep the names these two cases had when the layouts came
    # from two record stores: "memory" wrote inline JSON, "columnar"
    # the sidecar.
    @pytest.mark.parametrize(
        "layout", ["json", "sidecar"], ids=["memory", "columnar"]
    )
    def test_corrupt_checkpoints_do_not_occupy_retention_slots(
        self, tmp_path, layout
    ):
        state, fingerprint = self._grow_state(tmp_path, layout=layout)
        checkpoints = sorted(state.glob("checkpoint-*.ckpt"))
        assert len(checkpoints) == 3
        for path in checkpoints[1:]:  # entries 20 and 30 — the newest two
            path.write_bytes(b"\x00" * 64)
        self._pruned_store(state)
        # The only valid checkpoint (entries=10) survived, with the WAL
        # tail needed to replay entries 10..30 behind it.
        survivors = sorted(state.glob("checkpoint-*.ckpt"))
        assert survivors == [checkpoints[0]]
        assert any(p.name.startswith("wal-") for p in state.iterdir())
        restored = IncrementalTopK.restore(state, plain_levels())
        assert stream_fingerprint(restored) == fingerprint
        assert restored.entries_applied == 30
        assert restored.last_recovery.checkpoint_entries == 10
        assert restored.last_recovery.entries_replayed == 20
        restored.close()

    def test_no_valid_checkpoint_prunes_nothing(self, tmp_path):
        state, fingerprint = self._grow_state(tmp_path)
        checkpoints = sorted(state.glob("checkpoint-*.ckpt"))
        for path in checkpoints:
            path.write_bytes(b"\x00" * 64)
        wal_before = sorted(p.name for p in state.glob("wal-*.log"))
        self._pruned_store(state)
        # Recovery must replay from entry 0, so every WAL segment (and
        # the checkpoint files, for forensics) is still load-bearing.
        assert sorted(p.name for p in state.glob("wal-*.log")) == wal_before
        assert sorted(state.glob("checkpoint-*.ckpt")) == checkpoints
        restored = IncrementalTopK.restore(state, plain_levels())
        assert stream_fingerprint(restored) == fingerprint
        assert restored.last_recovery.checkpoint_path is None
        assert restored.last_recovery.entries_replayed == 30
        restored.close()

    def test_columnar_sidecars_follow_their_checkpoints(self, tmp_path):
        state, _ = self._grow_state(tmp_path, rounds=4)
        assert len(sorted(state.glob("columnar-*.col"))) == 4
        # Fabricate an orphan sidecar (crash between sidecar write and
        # checkpoint rename leaves exactly this).
        orphan = state / "columnar-000000000099.col"
        orphan.write_bytes(b"orphan")
        self._pruned_store(state)
        survivors = sorted(state.glob("checkpoint-*.ckpt"))
        assert len(survivors) == 2
        kept = {p.name.split("-")[1].split(".")[0] for p in survivors}
        sidecars = sorted(state.glob("columnar-*.col"))
        assert {
            p.name.split("-")[1].split(".")[0] for p in sidecars
        } == kept
        assert not orphan.exists()
        restored = IncrementalTopK.restore(state, plain_levels())
        assert restored.last_recovery.entries_replayed == 0
        restored.close()

    def test_damaged_sidecar_body_invalidates_checkpoint_for_retention(
        self, tmp_path
    ):
        # A sidecar whose header is intact but whose body fails its
        # checksum is as unusable as a missing one.
        state, fingerprint = self._grow_state(tmp_path)
        sidecars = sorted(state.glob("columnar-*.col"))
        for path in sidecars[1:]:  # damage checkpoints 20 and 30
            flip_body_byte(path, "uf.parent")
        self._pruned_store(state)
        survivors = sorted(state.glob("checkpoint-*.ckpt"))
        assert [p.name for p in survivors] == [
            "checkpoint-000000000010.ckpt"
        ]
        restored = IncrementalTopK.restore(state, plain_levels())
        assert stream_fingerprint(restored) == fingerprint
        assert restored.last_recovery.checkpoint_entries == 10
        restored.close()

    def test_missing_sidecar_invalidates_checkpoint_for_retention(
        self, tmp_path
    ):
        # A v2 checkpoint whose sidecar vanished must not count toward
        # retention either: restores cannot seed from it.
        state, fingerprint = self._grow_state(tmp_path)
        sidecars = sorted(state.glob("columnar-*.col"))
        assert len(sidecars) == 3
        for path in sidecars[1:]:  # strand checkpoints 20 and 30
            path.unlink()
        self._pruned_store(state)
        survivors = sorted(state.glob("checkpoint-*.ckpt"))
        assert [p.name for p in survivors] == [
            "checkpoint-000000000010.ckpt"
        ]
        restored = IncrementalTopK.restore(state, plain_levels())
        assert stream_fingerprint(restored) == fingerprint
        assert restored.last_recovery.checkpoint_entries == 10
        assert restored.last_recovery.entries_replayed == 20
        restored.close()


class TestDeadLetterDurability:
    def test_dead_letters_roundtrip_checkpoint_restore(self, tmp_path):
        engine = IncrementalTopK(make_levels(), durability=policy_for(tmp_path))
        feed(engine, ["a", "poison", "b", "poison", "a"])
        assert len(engine.dead_letters) == 2
        engine.checkpoint()
        feed(engine, ["poison"])
        engine.close()
        restored = IncrementalTopK.restore(tmp_path / "state", make_levels())
        assert stream_fingerprint(restored) == stream_fingerprint(engine)
        letters = restored.dead_letters
        assert len(letters) == 3
        assert all(letter.stage == "keying" for letter in letters)
        assert all(letter.fields == {"name": "poison"} for letter in letters)
        assert "poisoned keying" in letters[0].error
        # Quarantined inserts never bump version but do advance the log.
        assert restored.version == 3
        assert restored.entries_applied == 6
        restored.close()

    def test_dropped_counter_survives(self, tmp_path):
        engine = IncrementalTopK(
            make_levels(), dead_letter_limit=2, durability=policy_for(tmp_path)
        )
        feed(engine, ["poison"] * 5 + ["a"])
        assert engine.dead_letters_dropped == 3
        engine.checkpoint()
        engine.close()
        restored = IncrementalTopK.restore(
            tmp_path / "state", make_levels(), dead_letter_limit=2
        )
        assert restored.dead_letters_dropped == 3
        assert len(restored.dead_letters) == 2
        restored.close()


class TestInsertValidation:
    """An insert outside the record domain is rejected before it is
    journaled: accepted, it would break every later checkpoint (a
    non-string field value, or a string with a lone surrogate, cannot
    enter the sidecar's UTF-8 string pool) or every later restore (a
    non-finite weight fails the audit)."""

    @pytest.mark.parametrize(
        "fields, weight",
        [
            ({"name": "ann smith", "year": 2009}, 1.0),
            ({"name": "ann smith", 7: "x"}, 1.0),
            ({"name": "\ud800"}, 1.0),
            ({"name": "ann smith", "\udfff": "x"}, 1.0),
            (["name", "ann smith"], 1.0),
            ({"name": "ann smith"}, float("nan")),
            ({"name": "ann smith"}, float("-inf")),
            ({"name": "ann smith"}, "heavy"),
            ({"name": "ann smith"}, None),
        ],
    )
    def test_rejected_insert_leaves_wal_and_engine_unchanged(
        self, tmp_path, fields, weight
    ):
        engine = IncrementalTopK(make_levels(), durability=policy_for(tmp_path))
        feed(engine, ["ann smith", "poison", "bob jones"])
        state = tmp_path / "state"
        wal_before = {p.name: p.read_bytes() for p in state.glob("wal-*.log")}
        fingerprint = stream_fingerprint(engine)
        with pytest.raises(ValueError, match="string-to-string|UTF-8|finite"):
            engine.add(fields, weight)
        assert {p.name: p.read_bytes() for p in state.glob("wal-*.log")} == (
            wal_before
        )
        assert stream_fingerprint(engine) == fingerprint
        assert engine.entries_applied == 3
        assert len(engine.dead_letters) == 1
        engine.add({"name": "ann smith"}, 2.0)
        engine.checkpoint()
        engine.add({"name": "cara"}, 0.5)
        engine.close()
        restored = IncrementalTopK.restore(state, make_levels())
        assert stream_fingerprint(restored) == stream_fingerprint(engine)
        restored.close()

    def test_accepted_weight_is_stored_as_float(self):
        engine = IncrementalTopK(plain_levels())
        engine.add({"name": "a"}, 3)
        engine.add({"name": "b"}, "2.5")
        assert [r.weight for r in engine.current_store()] == [3.0, 2.5]
        assert all(type(r.weight) is float for r in engine.current_store())


class TestAudit:
    def test_healthy_engine_passes(self):
        engine = IncrementalTopK(plain_levels())
        feed(engine, ["a", "b", "a"])
        assert engine.audit() == []

    def test_corrupted_parent_out_of_range(self):
        engine = IncrementalTopK(plain_levels())
        feed(engine, ["a", "b", "a"])
        parent, size, n_components = engine._uf.state()
        parent[1] = 99  # points outside the element range
        engine._uf = type(engine._uf).from_state(parent, size, n_components)
        with pytest.raises(StateAuditError, match="valid range"):
            engine.audit()

    def test_corrupted_parent_cycle(self):
        engine = IncrementalTopK(plain_levels())
        feed(engine, ["a", "b", "c"])
        parent, size, n_components = engine._uf.state()
        parent[0], parent[1] = 1, 0  # two-cycle that never reaches a root
        engine._uf = type(engine._uf).from_state(parent, size, n_components)
        problems = engine.audit(strict=False)
        assert any("cycle" in problem for problem in problems)

    def test_size_mismatch_detected(self):
        engine = IncrementalTopK(plain_levels())
        feed(engine, ["a", "a", "b"])
        parent, size, n_components = engine._uf.state()
        root = parent[0] if parent[0] == parent[parent[0]] else parent[parent[0]]
        size[root] += 1
        engine._uf = type(engine._uf).from_state(parent, size, n_components)
        problems = engine.audit(strict=False)
        assert any("members" in problem for problem in problems)

    def test_nonfinite_weight_detected(self):
        # add() rejects a non-finite weight before journaling it, but a
        # WAL written before that check can still replay one.
        engine = IncrementalTopK(plain_levels())
        engine._apply_add({"name": "a"}, float("inf"))
        problems = engine.audit(strict=False)
        assert any("non-finite" in problem for problem in problems)


class TestQueryBitIdentity:
    @pytest.mark.parametrize("seed", range(20))
    def test_restored_query_matches_uninterrupted(self, tmp_path, seed):
        rng = random.Random(seed)
        events = []
        for _ in range(60):
            name = f"entity-{rng.randrange(12)}"
            events.append(({"name": name}, float(rng.randrange(1, 6))))
        reference = IncrementalTopK(plain_levels())
        durable = IncrementalTopK(plain_levels(), durability=policy_for(tmp_path))
        for position, (fields, weight) in enumerate(events, start=1):
            reference.add(fields, weight)
            durable.add(fields, weight)
            if position == 30:
                durable.checkpoint()
        durable.close()
        restored = IncrementalTopK.restore(tmp_path / "state", plain_levels())
        k = rng.randrange(1, 6)
        expected = reference.query(k)
        actual = restored.query(k)
        assert actual.groups.weights() == expected.groups.weights()
        assert [sorted(g.member_ids) for g in actual.groups] == [
            sorted(g.member_ids) for g in expected.groups
        ]
        assert actual.terminated_early == expected.terminated_early
        assert actual.degraded == expected.degraded
        restored.close()


class TestBoundedDeadLetters:
    def test_fifo_eviction_and_counter(self):
        engine = IncrementalTopK(make_levels(), dead_letter_limit=3)
        for i in range(5):
            engine.add({"name": "poison", "tag": str(i)})
        letters = engine.dead_letters
        assert len(letters) == 3
        assert [letter.fields["tag"] for letter in letters] == ["2", "3", "4"]
        assert engine.dead_letters_dropped == 2

    def test_zero_limit_keeps_nothing(self):
        engine = IncrementalTopK(make_levels(), dead_letter_limit=0)
        engine.add({"name": "poison"})
        assert engine.dead_letters == []
        assert engine.dead_letters_dropped == 1

    def test_negative_limit_rejected(self):
        with pytest.raises(ValueError):
            IncrementalTopK(make_levels(), dead_letter_limit=-1)

    def test_default_limit_generous(self):
        engine = IncrementalTopK(make_levels())
        for _ in range(50):
            engine.add({"name": "poison"})
        assert len(engine.dead_letters) == 50
        assert engine.dead_letters_dropped == 0
