"""Crash-point injection harness for the durable stream state layer.

The durability contract (``docs/robustness.md``): a crash at **any byte
offset** of the write-ahead log must restore to a state identical to
replaying the surviving prefix of inserts.  This harness checks that
exhaustively instead of anecdotally:

1. run a seeded stream into a state directory (optionally taking
   checkpoints along the way);
2. enumerate every WAL entry boundary, plus mid-entry offsets, as
   crash points;
3. for each point, clone the state directory, truncate the crashed
   segment at that offset, delete every file that did not yet exist at
   crash time (later segments, later checkpoints), restore, and
   compare the recovered engine against an in-memory reference engine
   that applied exactly the surviving prefix of inserts.

Equality is structural (:func:`stream_fingerprint`): record count,
engine version, the collapsed groups with their member sets and
weights, and the full dead-letter state.  ``restore`` additionally
runs the engine's ``audit`` on every recovered state.
"""

from __future__ import annotations

import shutil
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path

from ..core.incremental import EngineSnapshot, IncrementalTopK
from ..core.persistence import (
    DurabilityPolicy,
    _CKPT_PREFIX,
    _CKPT_SUFFIX,
    _list_indexed,
    wal_entry_spans,
)
from ..predicates.base import PredicateLevel

Event = tuple[Mapping[str, str], float]
LevelsFactory = Callable[[], list[PredicateLevel]]


@dataclass(frozen=True)
class CrashPoint:
    """One simulated crash location in the write-ahead log.

    Attributes:
        segment: Name of the WAL segment that was being written.
        offset: Byte offset the segment is truncated to.
        surviving_entries: Insert attempts whose WAL entries fully
            survive the crash (earlier segments plus the complete
            entries before *offset*).
        mid_entry: True when *offset* falls inside an entry (a torn
            write) rather than on a boundary.
    """

    segment: str
    offset: int
    surviving_entries: int
    mid_entry: bool


@dataclass(frozen=True)
class CrashPointResult:
    """Outcome of recovering from one simulated crash."""

    point: CrashPoint
    recovered_entries: int
    ok: bool
    detail: str


def stream_fingerprint(engine: IncrementalTopK) -> tuple:
    """Structural identity of a stream engine's user-visible state."""
    groups = tuple(
        sorted(
            (tuple(sorted(g.member_ids)), g.weight)
            for g in EngineSnapshot.freeze(engine).collapsed_groups()
        )
    )
    dead = tuple(
        (tuple(sorted(letter.fields.items())), letter.weight, letter.stage)
        for letter in engine.dead_letters
    )
    return (
        len(engine),
        engine.version,
        groups,
        dead,
        engine.dead_letters_dropped,
    )


def reference_fingerprints(
    make_levels: LevelsFactory, events: Sequence[Event]
) -> list[tuple]:
    """Fingerprint of an uninterrupted in-memory run after each prefix.

    ``result[n]`` is the state after applying the first *n* events —
    the ground truth a recovery from *n* surviving WAL entries must
    reproduce exactly.
    """
    engine = IncrementalTopK(make_levels())
    fingerprints = [stream_fingerprint(engine)]
    for fields, weight in events:
        engine.add(fields, weight)
        fingerprints.append(stream_fingerprint(engine))
    return fingerprints


def write_stream(
    make_levels: LevelsFactory,
    events: Sequence[Event],
    state_dir: str | Path,
    *,
    segment_bytes: int = 4096,
    checkpoint_every: int = 0,
    fsync: bool = False,
    keep_checkpoints: int = 2,
    prune: bool = True,
) -> IncrementalTopK:
    """Run *events* through a durable engine rooted at *state_dir*.

    The checkpoint-crash sweep passes ``prune=False`` (and a generous
    *keep_checkpoints*) so the full WAL and every checkpoint survive,
    keeping each checkpoint-write moment reconstructible from the
    final directory.  Every checkpoint writes an array sidecar; the
    crash simulators leave sidecars of deleted checkpoints in place,
    which is exactly the shape a real crash produces (the sidecar is
    written *before* its checkpoint).
    """
    policy = DurabilityPolicy(
        state_dir=state_dir,
        segment_bytes=segment_bytes,
        fsync=fsync,
        keep_checkpoints=keep_checkpoints,
    )
    engine = IncrementalTopK(make_levels(), durability=policy)
    for position, (fields, weight) in enumerate(events, start=1):
        engine.add(fields, weight)
        if checkpoint_every and position % checkpoint_every == 0:
            engine.checkpoint(prune=prune)
    engine.close()
    return engine


def enumerate_crash_points(
    state_dir: str | Path, mid_entry_per_segment: int = 3
) -> list[CrashPoint]:
    """Every entry boundary plus mid-entry offsets, across all segments."""
    points: list[CrashPoint] = []
    for path, first_index, spans in wal_entry_spans(state_dir):
        points.append(
            CrashPoint(
                segment=path.name,
                offset=0,
                surviving_entries=first_index,
                mid_entry=False,
            )
        )
        for position, (_start, end) in enumerate(spans):
            points.append(
                CrashPoint(
                    segment=path.name,
                    offset=end,
                    surviving_entries=first_index + position + 1,
                    mid_entry=False,
                )
            )
        # Torn-write offsets: mid-payload cuts spread across the
        # segment, plus a cut inside the frame header and a one-byte-
        # short cut on the final entry — at least `mid_entry_per_segment`
        # distinct torn offsets per segment.
        if spans:
            n = len(spans)
            torn: list[tuple[int, int]] = []  # (entry position, offset)
            for pick in sorted({0, n // 2, n - 1})[:mid_entry_per_segment]:
                start, end = spans[pick]
                mid = start + 8 + (end - start - 8) // 2
                torn.append((pick, mid))
            last_start, last_end = spans[-1]
            torn.append((n - 1, last_start + 4))  # inside the length/CRC header
            torn.append((n - 1, last_end - 1))  # one byte short of complete
            for pick, offset in torn:
                start, end = spans[pick]
                points.append(
                    CrashPoint(
                        segment=path.name,
                        offset=min(max(offset, start + 1), end - 1),
                        surviving_entries=first_index + pick,
                        mid_entry=True,
                    )
                )
    # Deduplicate (tiny entries can collapse several cuts onto one byte).
    unique = {(p.segment, p.offset): p for p in points}
    return sorted(unique.values(), key=lambda p: (p.segment, p.offset))


def simulate_crash(
    state_dir: str | Path, scratch_dir: str | Path, point: CrashPoint
) -> Path:
    """Clone *state_dir* as it would look after crashing at *point*.

    Truncates the crashed segment, removes WAL segments and checkpoints
    that had not been written yet at crash time, and returns the clone.
    """
    source = Path(state_dir)
    clone = Path(scratch_dir) / f"crash-{point.segment}-{point.offset}"
    if clone.exists():
        shutil.rmtree(clone)
    shutil.copytree(source, clone)
    crashed = clone / point.segment
    with open(crashed, "r+b") as handle:
        handle.truncate(point.offset)
    for other in sorted(clone.iterdir()):
        if other.name > point.segment and other.name.startswith("wal-"):
            other.unlink()
    for entries, path in _list_indexed(clone, _CKPT_PREFIX, _CKPT_SUFFIX):
        if entries > point.surviving_entries:
            path.unlink()
    return clone


@dataclass(frozen=True)
class CheckpointCrashPoint:
    """One simulated crash *during* a checkpoint write.

    The write protocol is tmp file → fsync → rename; a crash before the
    rename leaves the previous checkpoint as the newest complete one
    and a ``.tmp`` file of arbitrary completeness lying around.

    Attributes:
        checkpoint: Name of the checkpoint file being written.
        entries: WAL entries the interrupted checkpoint would have
            covered (the WAL is complete through this entry at crash
            time — appends resume only after the checkpoint call
            returns).
        tmp_bytes: Size of the leftover ``.tmp`` file (0 = crashed
            before any byte reached it; full size = crashed between
            fsync and rename).
        complete: True when the tmp file holds the full checkpoint
            (rename was the only step missing) — recovery must *still*
            ignore it.
    """

    checkpoint: str
    entries: int
    tmp_bytes: int
    complete: bool


@dataclass(frozen=True)
class CheckpointCrashResult:
    """Outcome of recovering from one mid-checkpoint crash."""

    point: CheckpointCrashPoint
    recovered_entries: int
    ok: bool
    detail: str


def simulate_checkpoint_crash(
    state_dir: str | Path, scratch_dir: str | Path, point: CheckpointCrashPoint
) -> Path:
    """Clone *state_dir* as it looked when *point*'s write was cut short.

    Rewinds the directory to the moment ``checkpoint()`` was called at
    entry ``point.entries``: later checkpoints and the interrupted one
    are gone, a ``.tmp`` of ``tmp_bytes`` stands in its place, and the
    WAL is truncated back to exactly ``point.entries`` entries.
    Requires a stream written with pruning disabled (high
    ``keep_checkpoints``), so the rewind loses nothing.
    """
    source = Path(state_dir)
    clone = (
        Path(scratch_dir)
        / f"ckpt-crash-{point.checkpoint}-{point.tmp_bytes}"
    )
    if clone.exists():
        shutil.rmtree(clone)
    shutil.copytree(source, clone)
    blob = (clone / point.checkpoint).read_bytes()
    for entries, path in _list_indexed(clone, _CKPT_PREFIX, _CKPT_SUFFIX):
        if entries >= point.entries:
            path.unlink()
    tmp = clone / (point.checkpoint + ".tmp")
    tmp.write_bytes(blob[: point.tmp_bytes])
    # Rewind the WAL to the checkpoint moment: entries >= point.entries
    # had not been appended yet.
    for path, first_index, spans in wal_entry_spans(clone):
        if first_index >= point.entries:
            path.unlink()
        elif first_index + len(spans) > point.entries:
            cut = spans[point.entries - first_index][0]
            with open(path, "r+b") as handle:
                handle.truncate(cut)
    return clone


def run_checkpoint_crash_sweep(
    make_levels: LevelsFactory,
    events: Sequence[Event],
    state_dir: str | Path,
    scratch_dir: str | Path,
    *,
    segment_bytes: int = 4096,
    checkpoint_every: int = 25,
) -> list[CheckpointCrashResult]:
    """Crash every checkpoint write at three byte offsets of its tmp file.

    For each checkpoint the stream took, simulate a crash that left the
    tmp file empty, half-written, and fully-written-but-unrenamed.  In
    all three shapes recovery must ignore the tmp, seed from the
    newest *complete* checkpoint (the previous one), replay the WAL to
    exactly the interrupted checkpoint's entry count, and reproduce the
    in-memory reference fingerprint — mid-checkpoint crashes lose
    nothing and corrupt nothing.
    """
    if checkpoint_every < 1:
        raise ValueError("checkpoint_every must be >= 1 for this sweep")
    write_stream(
        make_levels,
        events,
        state_dir,
        segment_bytes=segment_bytes,
        checkpoint_every=checkpoint_every,
        keep_checkpoints=max(1, len(events)),
        prune=False,
    )
    references = reference_fingerprints(make_levels, events)
    results: list[CheckpointCrashResult] = []
    checkpoints = _list_indexed(Path(state_dir), _CKPT_PREFIX, _CKPT_SUFFIX)
    for entries, path in checkpoints:
        size = path.stat().st_size
        prior = [c for c, _p in checkpoints if c < entries]
        expected_checkpoint = max(prior) if prior else 0
        for tmp_bytes in sorted({0, size // 2, size}):
            point = CheckpointCrashPoint(
                checkpoint=path.name,
                entries=entries,
                tmp_bytes=tmp_bytes,
                complete=tmp_bytes == size,
            )
            clone = simulate_checkpoint_crash(state_dir, scratch_dir, point)
            try:
                recovered = IncrementalTopK.restore(clone, make_levels())
            except Exception as exc:  # noqa: BLE001 — report, don't crash
                results.append(
                    CheckpointCrashResult(
                        point, -1, False, f"restore raised {exc!r}"
                    )
                )
                shutil.rmtree(clone)
                continue
            fingerprint = stream_fingerprint(recovered)
            info = recovered.last_recovery
            recovered.close()
            shutil.rmtree(clone)
            if recovered.entries_applied != entries:
                ok, detail = False, (
                    f"recovered {recovered.entries_applied} entries, "
                    f"expected {entries}"
                )
            elif info.checkpoint_entries != expected_checkpoint:
                ok, detail = False, (
                    f"recovery seeded from checkpoint at entry "
                    f"{info.checkpoint_entries}, expected the last "
                    f"complete one at {expected_checkpoint}"
                )
            elif fingerprint != references[entries]:
                ok, detail = False, (
                    "recovered state differs from surviving-prefix replay"
                )
            else:
                ok, detail = True, "ok"
            results.append(
                CheckpointCrashResult(
                    point, recovered.entries_applied, ok, detail
                )
            )
    return results


def run_crash_sweep(
    make_levels: LevelsFactory,
    events: Sequence[Event],
    state_dir: str | Path,
    scratch_dir: str | Path,
    *,
    segment_bytes: int = 4096,
    checkpoint_every: int = 0,
    mid_entry_per_segment: int = 3,
) -> list[CrashPointResult]:
    """The full crash-point sweep; see the module docstring.

    Returns one result per crash point; ``ok`` is True when the
    recovered state's fingerprint equals the in-memory reference for
    the surviving prefix (recovery's own audit having passed).

    Crash points older than the data the retention policy kept are
    skipped: once a later checkpoint pruned the segments (or the
    checkpoint) a crash at that moment would have recovered from, the
    final directory can no longer be rewound to that moment — the
    simulated shape would be one no real crash can produce.
    """
    final = write_stream(
        make_levels,
        events,
        state_dir,
        segment_bytes=segment_bytes,
        checkpoint_every=checkpoint_every,
    )
    references = reference_fingerprints(make_levels, events)
    if stream_fingerprint(final) != references[-1]:
        raise AssertionError(
            "durable and in-memory engines diverged before any crash — "
            "the sweep's reference would be meaningless"
        )
    checkpoint_entries = [
        entries
        for entries, _path in _list_indexed(
            Path(state_dir), _CKPT_PREFIX, _CKPT_SUFFIX
        )
    ]
    segments = wal_entry_spans(state_dir)
    first_wal_index = segments[0][1] if segments else 0
    results: list[CrashPointResult] = []
    for point in enumerate_crash_points(state_dir, mid_entry_per_segment):
        recoverable = [
            c for c in checkpoint_entries if c <= point.surviving_entries
        ]
        if first_wal_index > 0 and not any(
            c >= first_wal_index for c in recoverable
        ):
            continue
        clone = simulate_crash(state_dir, scratch_dir, point)
        try:
            recovered = IncrementalTopK.restore(clone, make_levels())
        except Exception as exc:  # noqa: BLE001 — report, don't crash the sweep
            results.append(
                CrashPointResult(point, -1, False, f"restore raised {exc!r}")
            )
            shutil.rmtree(clone)
            continue
        expected_entries = max(
            point.surviving_entries,
            recovered.last_recovery.checkpoint_entries,
        )
        fingerprint = stream_fingerprint(recovered)
        expected = references[expected_entries]
        recovered.close()
        shutil.rmtree(clone)
        if recovered.entries_applied != expected_entries:
            detail = (
                f"recovered {recovered.entries_applied} entries, expected "
                f"{expected_entries}"
            )
            ok = False
        elif fingerprint != expected:
            detail = "recovered state differs from surviving-prefix replay"
            ok = False
        else:
            detail = "ok"
            ok = True
        results.append(
            CrashPointResult(point, recovered.entries_applied, ok, detail)
        )
    return results
