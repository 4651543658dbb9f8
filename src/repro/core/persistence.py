"""Durable stream state: checkpoints + write-ahead log for IncrementalTopK.

The incremental engine exists to avoid re-tokenizing and re-unioning
history on every query — but a process death used to lose the whole
maintained sufficient-predicate closure, forcing exactly that replay.
This module makes stream state recoverable with the discipline of
log-structured stores:

* **Write-ahead log** — every ``add`` appends a length-prefixed,
  CRC32-checksummed JSON record *before* engine state mutates, into
  segment files (``wal-<first_entry>.log``) rotated at a configurable
  size.  A crash can therefore only ever lose the suffix of inserts
  whose WAL entries did not survive — never corrupt the applied prefix.
* **Checkpoints** — versioned snapshot files
  (``checkpoint-<entries>.ckpt``) of the record store, union-find
  closure, per-group weights and dead letters, written atomically
  (tmp file + fsync + rename + directory fsync) as framed sections,
  each carrying its own CRC32, behind a format-version header.
  Segments fully subsumed by a retained checkpoint are deleted.
* **Recovery** — load the newest *valid* checkpoint (corrupt ones fall
  back to older), replay the WAL tail, stop cleanly at a torn or
  corrupt **trailing** entry (the signature of a crash mid-append) and
  raise :class:`WalCorruptionError` on **mid-log** damage (an invalid
  entry with intact data after it, a missing segment, or an index gap
  — real damage, not a crash).

The index side of the state (the blocking-key inverted lists) is
deliberately *not* persisted: as in the Sarawagi–Kirpal set-join
infrastructure, indexes are cheap to rebuild from the record store,
while the closure — the expensive pairwise-verified part — is exactly
what the checkpoint preserves.

File formats are private to this module; the public surface is
:class:`DurabilityPolicy`, :class:`DurableStateStore`,
:func:`has_state` and the error types.  See ``docs/robustness.md``
("Durability") for the recovery contract and fsync caveats.
"""

from __future__ import annotations

import errno
import json
import os
import struct
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

from .retry import (
    SITE_CHECKPOINT_WRITE,
    SITE_WAL_APPEND,
    SITE_WAL_FSYNC,
    CircuitBreaker,
    RetryExhausted,
    RetryPolicy,
    fire_fault,
)

FORMAT_VERSION = 2
#: Checkpoint formats this build can restore.  Format 2 (current) may
#: carry a ``columnar`` section referencing a ``columnar-<entries>.col``
#: array sidecar instead of inline JSON state; format 1 (inline JSON
#: only) stays fully readable for state directories written before the
#: columnar store existed.
SUPPORTED_FORMAT_VERSIONS = (1, 2)
CHECKPOINT_MAGIC = "repro-checkpoint"

_FRAME = struct.Struct(">II")  # payload byte length, CRC32 of the payload
_WAL_PREFIX = "wal-"
_WAL_SUFFIX = ".log"
_CKPT_PREFIX = "checkpoint-"
_CKPT_SUFFIX = ".ckpt"
#: Columnar engine-state sidecars (format-2 checkpoints reference one).
_COL_PREFIX = "columnar-"
_COL_SUFFIX = ".col"
_INDEX_DIGITS = 12
# A WAL entry is one JSON-encoded insert; anything claiming to be larger
# than this is a corrupted length field, not a real record.
MAX_ENTRY_BYTES = 32 * 1024 * 1024
# A checkpoint section frame holds the whole record store, so it is
# legitimately huge (an inline-JSON section clears 32 MiB around 400k
# records).  Reading is still bounded by the file's actual size and the
# per-frame CRC; this cap only rejects absurd decoded lengths.
MAX_CHECKPOINT_FRAME_BYTES = 4 * 1024 * 1024 * 1024


class PersistenceError(ValueError):
    """Base error for durable-state problems (a ValueError: bad data)."""


class CheckpointError(PersistenceError):
    """A checkpoint file is structurally invalid or fails its checksums."""


class CheckpointWriteError(PersistenceError):
    """Writing a new checkpoint failed.

    The prior checkpoint and every WAL segment are untouched — a failed
    snapshot narrows nothing, it only means recovery replays a longer
    tail.  ``__cause__`` carries the underlying ``OSError``."""


class WalCorruptionError(PersistenceError):
    """The WAL is damaged *mid-log*: an invalid entry with intact data
    after it, a segment gap, or an index mismatch.  Unlike a torn tail
    (which recovery absorbs silently), this indicates real damage.

    ``segment`` names the damaged file when known (the CLI uses it for
    its remediation hint)."""

    def __init__(self, message: str, segment: str | None = None):
        super().__init__(message)
        self.segment = segment


#: Default retry schedule for transient WAL/checkpoint I/O errors.
#: Deliberately short: storage faults that survive three spaced attempts
#: are treated as persistent and degrade the store instead of blocking
#: the stream.
STORAGE_RETRY = RetryPolicy(
    max_attempts=3,
    base_delay_seconds=0.002,
    max_delay_seconds=0.05,
    retryable=(OSError,),
)


def _transient_storage_error(exc: BaseException) -> bool:
    """Whether retrying *exc* could plausibly succeed.

    ``ENOSPC`` is the canonical persistent fault — retrying a full disk
    is pointless, the store degrades instead.  A torn-segment rewind
    failure is likewise final: retrying would append after a torn frame
    and corrupt the log.
    """
    if isinstance(exc, _SegmentRewindError):
        return False
    return getattr(exc, "errno", None) != errno.ENOSPC


class _SegmentRewindError(OSError):
    """Truncating a partially-written entry back off the segment failed;
    the tail can no longer be proven clean, so appends must stop."""


class StateAuditError(PersistenceError):
    """Recovered (or live) engine state violates a closure invariant."""


@dataclass(frozen=True)
class DurabilityPolicy:
    """Configuration of the durable state directory.

    Attributes:
        state_dir: Directory holding WAL segments and checkpoints
            (created on first use).
        segment_bytes: Rotate to a new WAL segment once the current one
            reaches this size.
        fsync: Fsync the WAL after every append (durable against OS
            crash, not just process crash).  With False, appends are
            flushed to the OS but an OS/power failure may lose a
            recent suffix — recovery semantics are unchanged either
            way (the surviving prefix is restored exactly).
        keep_checkpoints: Retain this many newest checkpoints; WAL
            segments are only pruned once subsumed by the *oldest*
            retained checkpoint, so every retained checkpoint stays a
            usable fallback.
    """

    state_dir: str | Path
    segment_bytes: int = 4 * 1024 * 1024
    fsync: bool = True
    keep_checkpoints: int = 2

    def __post_init__(self) -> None:
        if self.segment_bytes < 1:
            raise ValueError(
                f"segment_bytes must be positive, got {self.segment_bytes}"
            )
        if self.keep_checkpoints < 1:
            raise ValueError(
                f"keep_checkpoints must be >= 1, got {self.keep_checkpoints}"
            )

    @property
    def path(self) -> Path:
        return Path(self.state_dir)


def as_policy(
    durability: DurabilityPolicy | str | Path | None,
) -> DurabilityPolicy | None:
    """Coerce a state-dir path (or policy, or None) to a policy."""
    if durability is None or isinstance(durability, DurabilityPolicy):
        return durability
    return DurabilityPolicy(state_dir=durability)


def has_state(state_dir: str | Path) -> bool:
    """Return True when *state_dir* holds any WAL segment or checkpoint."""
    directory = Path(state_dir)
    if not directory.is_dir():
        return False
    for entry in directory.iterdir():
        name = entry.name
        if name.startswith(_WAL_PREFIX) and name.endswith(_WAL_SUFFIX):
            return True
        if name.startswith(_CKPT_PREFIX) and name.endswith(_CKPT_SUFFIX):
            return True
    return False


@dataclass(frozen=True)
class RecoveryInfo:
    """What a :meth:`IncrementalTopK.restore` actually did.

    Attributes:
        checkpoint_path: The checkpoint the state was seeded from
            (None when recovery replayed the WAL from scratch).
        checkpoint_entries: WAL entries subsumed by that checkpoint.
        entries_replayed: WAL entries applied on top of the checkpoint.
        torn_tail_bytes: Bytes dropped from the final segment because
            the last entry was torn or corrupt (0 for a clean log).
        corrupt_checkpoints_skipped: Newer checkpoint files that failed
            validation and were passed over.
    """

    checkpoint_path: Path | None
    checkpoint_entries: int
    entries_replayed: int
    torn_tail_bytes: int
    corrupt_checkpoints_skipped: int


@dataclass(frozen=True)
class _ScannedSegment:
    """One WAL segment's parse result."""

    path: Path
    first_index: int
    payloads: list[dict]
    spans: list[tuple[int, int]]  # (start, end) byte offsets per entry
    valid_end: int  # byte offset of the last intact entry's end
    torn_reason: str | None  # why scanning stopped early (final segment)
    file_size: int = 0  # segment size at scan time


@dataclass(frozen=True)
class _RecoveredLog:
    """The surviving WAL contents, in global entry order."""

    segments: list[_ScannedSegment] = field(default_factory=list)

    @property
    def first_index(self) -> int:
        return self.segments[0].first_index if self.segments else 0

    @property
    def end_index(self) -> int:
        if not self.segments:
            return 0
        last = self.segments[-1]
        return last.first_index + len(last.payloads)

    def entries(self) -> list[tuple[int, dict]]:
        out: list[tuple[int, dict]] = []
        for segment in self.segments:
            for offset, payload in enumerate(segment.payloads):
                out.append((segment.first_index + offset, payload))
        return out

    @property
    def torn_tail_bytes(self) -> int:
        if not self.segments:
            return 0
        last = self.segments[-1]
        return last.file_size - last.valid_end


def _frame(payload: dict) -> bytes:
    blob = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    return _FRAME.pack(len(blob), zlib.crc32(blob) & 0xFFFFFFFF) + blob


def _fsync_dir(directory: Path) -> None:
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _scan_segment(
    path: Path,
    first_index: int,
    *,
    final: bool,
    max_entry_bytes: int = MAX_ENTRY_BYTES,
) -> _ScannedSegment:
    """Parse one segment; absorb a torn/corrupt tail only when *final*.

    Raises :class:`WalCorruptionError` for any invalid entry that is
    not the trailing entry of the final segment — data after the damage
    proves the log was written past this point, so the damage is real.
    """
    data = path.read_bytes()
    payloads: list[dict] = []
    spans: list[tuple[int, int]] = []
    pos = 0

    def _fail(reason: str, *, trailing: bool) -> _ScannedSegment:
        if final and trailing:
            return _ScannedSegment(
                path, first_index, payloads, spans, pos, reason, len(data)
            )
        raise WalCorruptionError(
            f"{path.name}: {reason} at byte {pos} with "
            f"{'data following' if final else 'later segments present'} — "
            f"mid-log corruption, not a torn tail",
            segment=path.name,
        )

    while pos < len(data):
        if len(data) - pos < _FRAME.size:
            return _fail("truncated entry header", trailing=True)
        length, crc = _FRAME.unpack_from(data, pos)
        end = pos + _FRAME.size + length
        if length > max_entry_bytes or end > len(data):
            # An absurd length and an overrunning length are both
            # indistinguishable from a torn final append.
            return _fail("truncated or length-corrupt entry", trailing=True)
        blob = data[pos + _FRAME.size : end]
        if zlib.crc32(blob) & 0xFFFFFFFF != crc:
            return _fail("entry checksum mismatch", trailing=end >= len(data))
        try:
            payload = json.loads(blob.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return _fail("entry is not valid JSON", trailing=end >= len(data))
        if not isinstance(payload, dict):
            return _fail("entry is not a JSON object", trailing=end >= len(data))
        payloads.append(payload)
        spans.append((pos, end))
        pos = end
    return _ScannedSegment(path, first_index, payloads, spans, pos, None, len(data))


def wal_entry_spans(
    state_dir: str | Path,
) -> list[tuple[Path, int, list[tuple[int, int]]]]:
    """Return ``(segment_path, first_entry_index, [(start, end), ...])``
    for every WAL segment of *state_dir*, in log order.

    Strict: any framing damage raises.  Used by the crash-point test
    harness to enumerate truncation offsets on a pristine log.
    """
    directory = Path(state_dir)
    out: list[tuple[Path, int, list[tuple[int, int]]]] = []
    for first_index, path in _list_indexed(directory, _WAL_PREFIX, _WAL_SUFFIX):
        scanned = _scan_segment(path, first_index, final=False)
        out.append((path, first_index, scanned.spans))
    return out


def columnar_sidecar_path(directory: str | Path, entries: int) -> Path:
    """Path of the columnar sidecar paired with ``checkpoint-<entries>``."""
    return Path(directory) / (
        f"{_COL_PREFIX}{entries:0{_INDEX_DIGITS}d}{_COL_SUFFIX}"
    )


def _list_indexed(
    directory: Path, prefix: str, suffix: str
) -> list[tuple[int, Path]]:
    """List ``<prefix><index><suffix>`` files sorted by index."""
    found: list[tuple[int, Path]] = []
    if not directory.is_dir():
        return found
    for entry in directory.iterdir():
        name = entry.name
        if not (name.startswith(prefix) and name.endswith(suffix)):
            continue
        digits = name[len(prefix) : -len(suffix)]
        if not digits.isdigit():
            raise PersistenceError(f"unparseable state file name: {name}")
        found.append((int(digits), entry))
    found.sort()
    return found


class DurableStateStore:
    """Manages one state directory: WAL segments plus checkpoints.

    The store is a mechanism, not a policy: :class:`IncrementalTopK`
    decides *what* to journal and snapshot; this class owns framing,
    atomicity, rotation, pruning and recovery scanning.
    """

    def __init__(
        self, policy: DurabilityPolicy, retry: RetryPolicy = STORAGE_RETRY
    ):
        self.policy = policy
        self.retry = retry
        self.directory = policy.path
        self.directory.mkdir(parents=True, exist_ok=True)
        self._segment_handle = None
        self._segment_path: Path | None = None
        self._segment_size = 0
        self._next_index = 0
        self._metrics = None
        # Per-store breaker (not the global registry): storage health is
        # a property of this directory/device, and sharing it across
        # stores would leak one stream's tripped state into another.
        self.breaker = CircuitBreaker(
            name="storage.wal", failure_threshold=3, recovery_seconds=30.0
        )
        self.durability_degraded = False
        self.degraded_reason: str | None = None
        self.appends_suspended = 0
        self.checkpoints_failed = 0

    def set_metrics(self, metrics) -> None:
        """Feed WAL instrumentation (append counts/bytes, fsync latency)
        into a :class:`repro.observability.MetricsRegistry`.

        Duck-typed and optional so the persistence layer works without
        observability; pass None to detach.
        """
        if metrics is not None and not getattr(metrics, "enabled", False):
            metrics = None
        self._metrics = metrics
        if metrics is not None:
            metrics.describe(
                "repro_wal_fsync_seconds", "WAL per-append fsync latency"
            )
            metrics.describe(
                "repro_wal_appends_total", "WAL entries appended"
            )
            metrics.describe(
                "repro_wal_bytes_total", "WAL bytes written (framed)"
            )
            metrics.describe(
                "repro_retries_total", "Retried storage operations"
            )
            metrics.describe(
                "repro_wal_appends_suspended_total",
                "WAL entries skipped while journaling was suspended",
            )
            metrics.describe(
                "repro_checkpoint_failures_total",
                "Checkpoint writes that failed (prior checkpoint retained)",
            )
            metrics.describe(
                "repro_durability_degraded",
                "1 when journaling is suspended (degraded durability)",
            )

    # -- lifecycle ----------------------------------------------------

    def has_state(self) -> bool:
        return has_state(self.directory)

    def open_fresh(self) -> None:
        """Arm the store for a brand-new stream; refuse to overwrite."""
        if self.has_state():
            raise PersistenceError(
                f"{self.directory} already holds stream state; use "
                f"IncrementalTopK.restore() to resume it"
            )
        self._next_index = 0

    def close(self) -> None:
        """Release the open WAL segment handle.

        Idempotent and exception-safe: a second close is a no-op, and a
        handle whose final flush fails (the device died under us, or a
        fault-injection run left the descriptor wedged) is dropped
        instead of raising — the on-disk tail is recovered like any
        torn tail, and close() is routinely called from ``finally``
        blocks that must not mask the original error.
        """
        handle = self._segment_handle
        self._segment_handle = None
        self._segment_path = None
        if handle is not None:
            try:
                handle.close()
            except OSError:
                pass

    @property
    def next_index(self) -> int:
        """Global index the next appended entry will receive."""
        return self._next_index

    # -- write-ahead log ----------------------------------------------

    def append(self, payload: dict) -> None:
        """Append one framed entry, rotating segments as configured.

        Transient I/O errors (``EIO`` and friends) are retried under
        :attr:`retry` with deterministic backoff; a partially-written
        entry is truncated back off the segment before any retry, so a
        retry can never land after a torn frame.  Persistent failures —
        ``ENOSPC``, an unrewindable tail, or retry exhaustion — switch
        the store into **journaling-suspended** mode
        (:attr:`durability_degraded`): the entry (and all later ones)
        is not journaled, live answers stay correct, and recovery
        replays only the journaled prefix.  Suspension never raises —
        a full disk must degrade durability, not crash the stream.
        """
        if self.durability_degraded:
            self.appends_suspended += 1
            if self._metrics is not None:
                self._metrics.counter("repro_wal_appends_suspended_total").inc()
            return
        blob = _frame(payload)
        try:
            self.retry.call(
                lambda attempt: self._append_once(blob, attempt),
                key="wal.append",
                retry_on=_transient_storage_error,
                breaker=self.breaker,
                metrics=self._metrics,
                subsystem="wal",
            )
        except (RetryExhausted, OSError) as exc:
            self._suspend(f"WAL append of entry {self._next_index}: {exc}")
            return
        metrics = self._metrics
        if metrics is not None:
            metrics.counter("repro_wal_appends_total").inc()
            metrics.counter("repro_wal_bytes_total").inc(len(blob))
        self._segment_size += len(blob)
        self._next_index += 1

    def _append_once(self, blob: bytes, attempt: int) -> None:
        """One append attempt: rotate/open, write, flush, fsync."""
        if (
            self._segment_handle is not None
            and self._segment_size >= self.policy.segment_bytes
        ):
            self.close()
        if self._segment_handle is None:
            self._start_segment(self._next_index)
        handle = self._segment_handle
        start = self._segment_size
        fire_fault(SITE_WAL_APPEND, index=self._next_index, attempt=attempt)
        try:
            handle.write(blob)
            handle.flush()
        except OSError:
            self._rewind_segment(start)
            raise
        if self.policy.fsync:
            metrics = self._metrics
            started = time.perf_counter() if metrics is not None else 0.0
            try:
                fire_fault(
                    SITE_WAL_FSYNC, index=self._next_index, attempt=attempt
                )
                os.fsync(handle.fileno())
            except OSError:
                self._rewind_segment(start)
                raise
            if metrics is not None:
                metrics.histogram("repro_wal_fsync_seconds").observe(
                    time.perf_counter() - started
                )

    def _rewind_segment(self, size: int) -> None:
        """Truncate a failed attempt's partial bytes back off the
        segment, so the next attempt (or recovery) sees a clean tail."""
        try:
            handle = self._segment_handle
            handle.truncate(size)
            handle.flush()
        except OSError as exc:
            raise _SegmentRewindError(
                f"could not rewind segment to byte {size}: {exc}"
            ) from exc

    def _suspend(self, reason: str) -> None:
        """Enter journaling-suspended (degraded-durability) mode."""
        self.durability_degraded = True
        self.degraded_reason = reason
        self.appends_suspended += 1
        metrics = self._metrics
        if metrics is not None:
            metrics.counter("repro_wal_appends_suspended_total").inc()
            metrics.gauge("repro_durability_degraded").set(1.0)
        try:
            self.close()
        except OSError:
            self._segment_handle = None
            self._segment_path = None

    def _start_segment(self, first_index: int) -> None:
        path = self.directory / (
            f"{_WAL_PREFIX}{first_index:0{_INDEX_DIGITS}d}{_WAL_SUFFIX}"
        )
        self._segment_handle = open(path, "ab")
        self._segment_path = path
        self._segment_size = path.stat().st_size
        _fsync_dir(self.directory)

    def recover_log(self) -> _RecoveredLog:
        """Scan every surviving segment, validating contiguity.

        Only the final segment may end in a torn/corrupt entry; damage
        anywhere else raises :class:`WalCorruptionError`.
        """
        listed = _list_indexed(self.directory, _WAL_PREFIX, _WAL_SUFFIX)
        segments: list[_ScannedSegment] = []
        expected: int | None = None
        for position, (first_index, path) in enumerate(listed):
            if expected is not None and first_index != expected:
                raise WalCorruptionError(
                    f"WAL segment gap: expected entry {expected} next but "
                    f"{path.name} starts at {first_index}",
                    segment=path.name,
                )
            scanned = _scan_segment(
                path, first_index, final=position == len(listed) - 1
            )
            segments.append(scanned)
            expected = first_index + len(scanned.payloads)
        return _RecoveredLog(segments)

    def resume_appends(self, log: _RecoveredLog, entries_applied: int) -> None:
        """Position the store to append entry *entries_applied* next.

        Truncates a torn tail off the final segment and deletes stale
        segments wholly behind the restored state (possible when a
        checkpoint outlived the log's tail), so the on-disk entry
        numbering stays contiguous with what recovery restored.
        """
        self.close()
        # A crash mid-checkpoint can leave a ``.tmp`` behind; recovery
        # never reads them, but clear them so the directory only holds
        # live state.
        for stale in self.directory.glob(f"{_CKPT_PREFIX}*{_CKPT_SUFFIX}.tmp"):
            stale.unlink()
        if log.segments:
            last = log.segments[-1]
            if last.torn_reason is not None:
                with open(last.path, "r+b") as handle:
                    handle.truncate(last.valid_end)
                    handle.flush()
                    os.fsync(handle.fileno())
        if log.end_index < entries_applied:
            # The newest checkpoint is ahead of the surviving log:
            # every segment is subsumed; clear them so the next append
            # starts a fresh, correctly-numbered segment.
            for segment in log.segments:
                segment.path.unlink()
            _fsync_dir(self.directory)
        self._next_index = max(log.end_index, entries_applied)

    # -- checkpoints --------------------------------------------------

    def write_checkpoint(self, header: dict, sections: dict[str, object]) -> Path:
        """Atomically write a sectioned, per-section-checksummed snapshot.

        Transient I/O errors are retried under :attr:`retry`; a failed
        write raises :class:`CheckpointWriteError` after removing the
        tmp file (best-effort — a tmp left by a crash is equally
        harmless, recovery never reads ``.tmp`` files).  The prior
        checkpoint and all WAL segments are untouched either way.
        """
        header = dict(header)
        header["magic"] = CHECKPOINT_MAGIC
        header["format_version"] = FORMAT_VERSION
        header["sections"] = list(sections)
        blob = bytearray(_frame(header))
        for name, data in sections.items():
            blob += _frame({"section": name, "data": data})
        entries = int(header["entries_applied"])
        path = self.directory / (
            f"{_CKPT_PREFIX}{entries:0{_INDEX_DIGITS}d}{_CKPT_SUFFIX}"
        )
        tmp = path.with_suffix(path.suffix + ".tmp")

        def _attempt(attempt: int) -> None:
            with open(tmp, "wb") as handle:
                fire_fault(
                    SITE_CHECKPOINT_WRITE, entries=entries, attempt=attempt
                )
                handle.write(blob)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
            _fsync_dir(self.directory)

        try:
            self.retry.call(
                _attempt,
                key="checkpoint.write",
                retry_on=_transient_storage_error,
                breaker=self.breaker,
                metrics=self._metrics,
                subsystem="checkpoint",
            )
        except (RetryExhausted, OSError) as exc:
            self.checkpoints_failed += 1
            if self._metrics is not None:
                self._metrics.counter("repro_checkpoint_failures_total").inc()
            try:
                tmp.unlink()
            except OSError:
                pass
            raise CheckpointWriteError(
                f"checkpoint at entry {entries} failed ({exc}); the prior "
                f"checkpoint and all WAL segments are retained"
            ) from exc
        return path

    @staticmethod
    def read_checkpoint(path: Path) -> tuple[dict, dict[str, object]]:
        """Parse and fully validate one checkpoint file.

        Checkpoint frames use the relaxed
        :data:`MAX_CHECKPOINT_FRAME_BYTES` cap, not the WAL's per-insert
        bound: an inline-JSON record section grows with the corpus, and
        rejecting a frame the writer just produced would make every
        checkpoint beyond ~400k records silently unreadable (restores
        would fall back to full WAL replay — or to nothing once the WAL
        was pruned against that very checkpoint).
        """
        try:
            scanned = _scan_segment(
                path,
                0,
                final=False,
                max_entry_bytes=MAX_CHECKPOINT_FRAME_BYTES,
            )
        except WalCorruptionError as exc:
            raise CheckpointError(f"{path.name}: {exc}") from None
        frames = scanned.payloads
        if not frames:
            raise CheckpointError(f"{path.name}: empty checkpoint")
        header = frames[0]
        if header.get("magic") != CHECKPOINT_MAGIC:
            raise CheckpointError(f"{path.name}: bad magic in header")
        if header.get("format_version") not in SUPPORTED_FORMAT_VERSIONS:
            raise CheckpointError(
                f"{path.name}: unsupported format version "
                f"{header.get('format_version')!r} (expected one of "
                f"{SUPPORTED_FORMAT_VERSIONS})"
            )
        sections: dict[str, object] = {}
        for frame_payload in frames[1:]:
            name = frame_payload.get("section")
            if not isinstance(name, str) or "data" not in frame_payload:
                raise CheckpointError(f"{path.name}: malformed section frame")
            sections[name] = frame_payload["data"]
        declared = header.get("sections")
        if declared != list(sections):
            raise CheckpointError(
                f"{path.name}: header declares sections {declared!r} but "
                f"file holds {list(sections)!r}"
            )
        return header, sections

    def load_latest_checkpoint(
        self,
    ) -> tuple[dict, dict[str, object], Path, int] | None:
        """Return the newest checkpoint that validates, or None.

        Corrupt newer checkpoints are skipped (their count is returned
        as the 4th element) — a torn checkpoint write must never make
        older durable state unreachable.
        """
        skipped = 0
        for _entries, path in reversed(
            _list_indexed(self.directory, _CKPT_PREFIX, _CKPT_SUFFIX)
        ):
            try:
                header, sections = self.read_checkpoint(path)
            except CheckpointError:
                skipped += 1
                continue
            if not self._sidecar_valid(sections):
                # A format-2 checkpoint whose columnar sidecar is gone
                # or damaged is as unusable as a corrupt checkpoint:
                # fall back to the next older one.
                skipped += 1
                continue
            return header, sections, path, skipped
        return None

    def _sidecar_valid(self, sections: dict[str, object]) -> bool:
        """Whether the columnar sidecar *sections* references (if any)
        exists with an intact header.  Cheap: the sidecar's array
        bodies are checksum-verified lazily, never at validation."""
        ref = sections.get("columnar")
        if ref is None:
            return True
        if not isinstance(ref, dict):
            return False
        name = ref.get("file")
        if not isinstance(name, str) or "/" in name or name in (".", ".."):
            return False
        from ..storage.layout import read_header_meta

        try:
            read_header_meta(self.directory / name)
        except (ValueError, OSError):
            return False
        return True

    def checkpoint_usable(self, path: Path) -> bool:
        """Whether a restore could actually seed from this checkpoint:
        it parses, its checksums hold, and (format 2) its columnar
        sidecar's header validates."""
        try:
            _header, sections = self.read_checkpoint(path)
        except CheckpointError:
            return False
        return self._sidecar_valid(sections)

    def prune(self) -> None:
        """Drop checkpoints beyond the retention count, then WAL
        segments wholly subsumed by the oldest *retained* checkpoint.

        Only checkpoints that **validate** (sidecar included) count
        toward retention or set the WAL floor.  A corrupt checkpoint —
        e.g. one renamed into place but never durably written before an
        OS crash under ``fsync=False`` — must not occupy a retention
        slot: counting it would delete the older *valid* checkpoint a
        restore would really seed from, plus the WAL segments needed to
        replay forward from it, turning a recoverable directory into an
        unrecoverable one.  With no valid checkpoint at all, nothing is
        pruned: recovery would have to replay the WAL from entry 0, so
        every segment (and every checkpoint file, for forensics) is
        still load-bearing.
        """
        checkpoints = _list_indexed(self.directory, _CKPT_PREFIX, _CKPT_SUFFIX)
        valid: list[tuple[int, Path]] = []
        corrupt: list[Path] = []
        for entries, path in checkpoints:
            if self.checkpoint_usable(path):
                valid.append((entries, path))
            else:
                corrupt.append(path)
        retained = valid[-self.policy.keep_checkpoints :]
        if not retained:
            return
        for _entries, path in valid[: -self.policy.keep_checkpoints]:
            path.unlink()
        for path in corrupt:
            # Restores skip these anyway; with a valid fallback retained
            # they carry no recovery value, only confusion.
            path.unlink()
        floor = retained[0][0]
        segments = _list_indexed(self.directory, _WAL_PREFIX, _WAL_SUFFIX)
        for position, (first_index, path) in enumerate(segments):
            if position + 1 < len(segments):
                end = segments[position + 1][0]
            else:
                end = self._next_index
            if end <= floor:
                if path == self._segment_path:
                    self.close()
                path.unlink()
        # Columnar sidecars follow their checkpoints: drop any not
        # referenced by a retained one (orphans from a crash between
        # sidecar and checkpoint write included).
        keep_entries = {entries for entries, _path in retained}
        for entries, path in _list_indexed(
            self.directory, _COL_PREFIX, _COL_SUFFIX
        ):
            if entries not in keep_entries:
                path.unlink()
        _fsync_dir(self.directory)
