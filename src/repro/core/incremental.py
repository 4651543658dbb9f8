"""Incremental Top-K over evolving sources.

The paper's opening motivation: "sources that are constantly evolving,
or are otherwise too vast or open-ended to be amenable to offline
deduplication".  :class:`IncrementalTopK` keeps the expensive part of
the pipeline — the sufficient-predicate closure of the *first* level —
up to date as records stream in: each arriving record is unioned with
existing groups through the predicate's blocking keys, so a query only
pays for bound-estimation, pruning and the later levels on the *current
collapsed state*, never re-tokenizing history.

Queries are answered by :class:`EngineSnapshot`, an immutable copy of
one engine version and the one code path over a maintained closure:
:meth:`IncrementalTopK.query` freezes its current version on the first
query after an insert and answers through it, and the query service
(:mod:`repro.server`) publishes one per generation.  A snapshot runs
the batch engine's machinery
(:func:`repro.core.pruned_dedup.run_level_pipeline`) from the
maintained collapse on, so results match a from-scratch
:func:`repro.core.pruned_dedup.pruned_dedup` run on the accumulated
records (verified by the test suite) — including execution policies: a
query armed with an :class:`~repro.core.resilience.ExecutionPolicy`
degrades anytime instead of hanging.

Streams are hardened against poison records: an insert whose keying or
pairwise verification raises is **quarantined** into an inspectable,
bounded dead-letter list (:attr:`IncrementalTopK.dead_letters`) instead
of stopping the stream or corrupting the maintained closure.

Stream state can be made **durable** (:mod:`repro.core.persistence`):
with a state directory configured, every ``add`` is journaled to a
write-ahead log *before* engine state mutates, :meth:`checkpoint`
snapshots the closure atomically, and :meth:`restore` rebuilds the
engine after a crash to exactly the state of replaying the surviving
prefix of inserts — validated by :meth:`audit` before being accepted.
With no state directory, behaviour is bit-identical to the in-memory
engine.
"""

from __future__ import annotations

import math
import operator
import threading
from collections import defaultdict, deque
from collections.abc import Hashable, Mapping
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

import numpy as np

from ..graphs.union_find import UnionFind
from ..observability import NULL_METRICS
from ..predicates.base import PredicateLevel
from .persistence import (
    CheckpointError,
    DurabilityPolicy,
    DurableStateStore,
    PersistenceError,
    RecoveryInfo,
    StateAuditError,
    WalCorruptionError,
    as_policy,
)
from .pruned_dedup import PrunedDedupResult, run_level_pipeline
from .rank_query import RankQueryResult, thresholded_rank_query, topk_rank_query
from .records import Group, GroupSet, Record, RecordStore, merge_groups
from .resilience import ExecutionPolicy, run_is_clean
from .verification import VerificationContext


@dataclass(frozen=True)
class DeadLetter:
    """One quarantined stream record.

    Attributes:
        fields: The record's raw fields, as submitted.
        weight: The record's weight, as submitted.
        error: ``repr`` of the exception that poisoned the insert.
        stage: Where the insert failed: ``"keying"`` (the sufficient
            predicate's ``blocking_keys`` raised) or ``"evaluate"``
            (pairwise verification against an existing record raised).
    """

    fields: Mapping[str, str]
    weight: float
    error: str
    stage: str


def validate_fields(fields) -> dict[str, str]:
    """Check a record's fields; return them as a plain dict.

    Keys and values must be strings that encode as UTF-8 (a lone
    surrogate such as ``"\\ud800"`` is a legal JSON string but does
    not), else :class:`ValueError` names the rule broken.
    """
    if not isinstance(fields, Mapping) or not all(
        isinstance(key, str) and isinstance(value, str)
        for key, value in fields.items()
    ):
        raise ValueError("fields must be a string-to-string object")
    try:
        for key, value in fields.items():
            key.encode("utf-8")
            value.encode("utf-8")
    except UnicodeEncodeError:
        raise ValueError("fields must be valid UTF-8 strings") from None
    return dict(fields)


def validate_insert(fields, weight) -> tuple[dict[str, str], float]:
    """Check one insert's payload; return the ``(fields, weight)`` to store.

    *fields* must pass :func:`validate_fields` and *weight* must convert
    to a finite float.  A record outside that domain would be journaled
    and then break the directory for good: its fields cannot be encoded
    into a checkpoint sidecar, and a non-finite weight fails the audit
    of every later restore.  :meth:`IncrementalTopK.add` and the
    service's ``/insert`` handler both call this before anything is
    journaled; the :class:`ValueError` it raises names the rule broken.
    """
    fields = validate_fields(fields)
    try:
        value = float(weight)
    except (TypeError, ValueError):
        raise ValueError("weight must be a finite number") from None
    if not math.isfinite(value):
        raise ValueError("weight must be a finite number")
    return fields, value


def _walk_root(parent: list[int], record_id: int) -> int:
    """Bounded, non-mutating root walk (safe on corrupt parent arrays)."""
    node = record_id
    for _ in range(len(parent) + 1):
        if not 0 <= node < len(parent):
            raise StateAuditError(
                f"union-find parent of {record_id} points out of range "
                f"({node})"
            )
        if parent[node] == node:
            return node
        node = parent[node]
    raise StateAuditError(
        f"union-find parent chain from {record_id} does not terminate (cycle)"
    )


class IncrementalTopK:
    """Maintain Top-K count query state over an insert-only record stream.

    Args:
        levels: Predicate levels, cheapest first (as for PrunedDedup).
            The first level's sufficient predicate is maintained
            incrementally; later levels run at query time on the
            collapsed state.
        max_block_verifications: Per arriving record, cap on how many
            same-key records are verified pairwise for non-equivalence
            sufficient predicates (newest first) — bounds per-insert
            cost on pathological keys.
        verdict_cache_limit: Cap on cached necessary-predicate pair
            verdicts per predicate.  Records are immutable and ids are
            stable, so verdicts stay valid across inserts and queries;
            past this size the oldest verdicts are evicted (bounded
            FIFO) to bound memory on long streams without dropping
            verdicts the query in flight still needs.
        quarantine: Divert records whose keying/verification raises into
            :attr:`dead_letters` (the default — one poison record cannot
            stop the stream).  With False, such exceptions propagate to
            the ``add`` caller.
        dead_letter_limit: Retain at most this many quarantined records
            (FIFO: the oldest are evicted first, counted in
            :attr:`dead_letters_dropped`) — a long hostile stream must
            not grow memory without bound.
        durability: A state directory (or full
            :class:`~repro.core.persistence.DurabilityPolicy`) to
            journal inserts into.  Must not already hold stream state —
            resume an existing directory with :meth:`restore` instead.
            None (the default) keeps the engine purely in-memory.
        scorer: Final pairwise criterion P
            (:class:`~repro.scoring.pairwise.PairwiseScorer`), required
            only for ``query(kind="interval")`` — interval semantics
            enumerate scored dedup worlds, which the count path never
            needs.  None (the default) leaves interval queries
            unavailable.
        tracer: Span sink (:class:`repro.observability.Tracer`) for
            query traces; the zero-overhead default otherwise.
        metrics: Metric sink (:class:`repro.observability.MetricsRegistry`)
            fed by queries, quarantines, and — when durability is
            configured — WAL appends and fsync latencies.
    """

    def __init__(
        self,
        levels: list[PredicateLevel],
        max_block_verifications: int = 64,
        verdict_cache_limit: int = 2_000_000,
        quarantine: bool = True,
        dead_letter_limit: int = 1000,
        durability: DurabilityPolicy | str | Path | None = None,
        scorer=None,
        tracer=None,
        metrics=None,
    ):
        if not levels:
            raise ValueError("need at least one predicate level")
        if dead_letter_limit < 0:
            raise ValueError(
                f"dead_letter_limit must be >= 0, got {dead_letter_limit}"
            )
        self._levels = levels
        self._scorer = scorer
        self._max_verifications = max_block_verifications
        self._quarantine = quarantine
        self._records: list[Record] = []
        self._uf = UnionFind(0)
        self._key_members: dict[Hashable, list[int]] = defaultdict(list)
        self._version = 0
        self._entries_applied = 0
        # The snapshot query() answers from; refrozen when the version
        # has moved on (see snapshot()).
        self._snapshot: EngineSnapshot | None = None
        self._dead_letters: deque[DeadLetter] = deque()
        self._dead_letter_limit = dead_letter_limit
        self._dead_letters_dropped = 0
        self._verification = VerificationContext(
            verdict_cache_limit=verdict_cache_limit,
            tracer=tracer,
            metrics=metrics,
        )
        self.last_recovery: RecoveryInfo | None = None
        policy = as_policy(durability)
        if policy is None:
            self._durable: DurableStateStore | None = None
        else:
            self._durable = DurableStateStore(policy)
            self._durable.set_metrics(self._verification.metrics)
            self._durable.open_fresh()

    @property
    def verification(self) -> VerificationContext:
        """The stream-lifetime verification context (counters included)."""
        return self._verification

    @property
    def dead_letters(self) -> list[DeadLetter]:
        """Quarantined records, in arrival order (inspect and replay)."""
        return list(self._dead_letters)

    @property
    def dead_letters_dropped(self) -> int:
        """Quarantined records evicted from the bounded dead-letter list."""
        return self._dead_letters_dropped

    def __len__(self) -> int:
        return len(self._records)

    @property
    def version(self) -> int:
        """Monotone counter bumped on every insert."""
        return self._version

    @property
    def entries_applied(self) -> int:
        """Insert *attempts* applied (quarantined ones included) — the
        engine's position in its write-ahead log."""
        return self._entries_applied

    @property
    def durable(self) -> bool:
        """True when inserts are journaled to a state directory."""
        return self._durable is not None

    @property
    def durability_degraded(self) -> bool:
        """True when journaling was suspended by a persistent storage
        fault (``ENOSPC``, retry exhaustion): live answers stay correct,
        but inserts since the suspension are not journaled — a crash
        would lose them.  Always False without durability."""
        return self._durable is not None and self._durable.durability_degraded

    def durability_status(self) -> dict:
        """Health-facing snapshot of the durable store's state."""
        store = self._durable
        if store is None:
            return {"durable": False}
        return {
            "durable": True,
            "degraded": store.durability_degraded,
            "degraded_reason": store.degraded_reason,
            "appends_suspended": store.appends_suspended,
            "checkpoints_failed": store.checkpoints_failed,
            "breaker_state": store.breaker.state,
            "entries_journaled": store.next_index,
        }

    def add(self, fields: Mapping[str, str], weight: float = 1.0) -> int:
        """Insert one record; return its id (or -1 when quarantined).

        Cost is proportional to the record's blocking keys and (for
        non-equivalence sufficient predicates) a bounded number of
        pairwise verifications inside its key blocks.  A record whose
        keying or verification raises is quarantined into
        :attr:`dead_letters` before any engine state is touched, so the
        stream and the maintained closure stay intact.

        With durability configured, the insert is appended to the
        write-ahead log *before* any engine state mutates — a crash at
        any point loses at most inserts whose WAL entries did not
        survive, never the applied prefix.

        Raises :class:`ValueError` (see :func:`validate_insert`) before
        journaling anything when *fields* is not string-to-string or
        *weight* is not a finite number.
        """
        fields, weight = validate_insert(fields, weight)
        if self._durable is not None:
            self._durable.append(
                {"op": "add", "fields": fields, "weight": weight}
            )
        return self._apply_add(fields, weight)

    def _apply_add(self, fields: Mapping[str, str], weight: float) -> int:
        """Mutate engine state for one insert (journaling already done)."""
        self._entries_applied += 1
        record = Record(
            record_id=len(self._records), fields=dict(fields), weight=weight
        )
        sufficient = self._levels[0].sufficient
        # Key and verify BEFORE mutating any engine state, so a poison
        # record can be quarantined without rollback.
        try:
            keys = set(sufficient.blocking_keys(record))
        except Exception as exc:
            if not self._quarantine:
                raise
            self._divert(fields, weight, exc, "keying")
            return -1
        unions: list[int] = []
        try:
            for key in keys:
                members = self._key_members.get(key)
                if not members:
                    continue
                if sufficient.key_implies_match:
                    unions.append(members[0])
                    continue
                matched_roots: set[int] = set()
                for other in reversed(members[-self._max_verifications:]):
                    root = self._uf.find(other)
                    if root in matched_roots:
                        continue
                    if sufficient.evaluate(record, self._records[other]):
                        unions.append(other)
                        matched_roots.add(root)
        except Exception as exc:
            if not self._quarantine:
                raise
            self._divert(fields, weight, exc, "evaluate")
            return -1

        self._records.append(record)
        self._uf.add()
        for other in unions:
            self._uf.union(record.record_id, other)
        for key in keys:
            self._key_members[key].append(record.record_id)
        self._version += 1
        return record.record_id

    def _divert(
        self, fields: Mapping[str, str], weight: float, exc: Exception, stage: str
    ) -> None:
        self._dead_letters.append(
            DeadLetter(
                fields=dict(fields), weight=weight, error=repr(exc), stage=stage
            )
        )
        while len(self._dead_letters) > self._dead_letter_limit:
            self._dead_letters.popleft()
            self._dead_letters_dropped += 1
        self._verification.counters.records_quarantined += 1
        metrics = self._verification.metrics
        if metrics.enabled:
            metrics.counter("repro_records_quarantined_total", stage=stage).inc()

    def add_store(self, store: RecordStore) -> None:
        """Bulk-insert every record of *store* (ids are reassigned)."""
        for record in store:
            self.add(record.fields, record.weight)

    def current_store(self) -> RecordStore:
        """Snapshot of all accumulated records."""
        return RecordStore(self._records)

    def snapshot(self) -> EngineSnapshot:
        """The :class:`EngineSnapshot` that :meth:`query` answers from.

        Frozen on the first call after an insert and kept until the
        version moves on, so ``add`` (and WAL replay) stays O(keys) and
        every query at one version shares the snapshot's answer cache.
        """
        snapshot = self._snapshot
        if snapshot is None or snapshot.generation != self._version:
            snapshot = self._snapshot = EngineSnapshot.freeze(
                self, metrics=self._verification.metrics
            )
        return snapshot

    def query(
        self,
        k: int,
        policy: ExecutionPolicy | None = None,
        kind: str = "count",
        r: int = 8,
        min_probability: float = 0.0,
    ):
        """Answer the Top-K query on the current stream state.

        With ``kind="count"`` (the default) returns the pruning result
        (:class:`~repro.core.pruned_dedup.PrunedDedupResult`).  With
        ``kind="interval"`` the engine must have been constructed with a
        ``scorer``; the query then enumerates the *r* highest-scoring
        dedup worlds over the pruned state and returns an
        :class:`~repro.uncertainty.IntervalQueryResult` with per-entity
        count intervals and top-K membership probabilities (entities
        below *min_probability* membership mass are pruned).

        The query runs on :meth:`snapshot` with the engine's lifetime
        :attr:`verification` context, so queries at one version share
        its neighbour index, and clean answers are cached by the
        snapshot (see :class:`EngineSnapshot`) until the next insert.
        With a *policy*, the query degrades anytime exactly like the
        batch engine: on deadline/budget exhaustion it returns the best
        answer derivable from the current collapsed state, flagged
        ``degraded``.
        """
        if kind == "count":
            return self.snapshot().query_topk(
                k, policy=policy, context=self._verification
            )
        if kind == "interval":
            return self.snapshot().query_interval(
                k,
                r=r,
                min_probability=min_probability,
                policy=policy,
                context=self._verification,
            )
        raise ValueError(f"kind must be 'count' or 'interval', got {kind!r}")

    # -- durability ----------------------------------------------------

    def checkpoint(self, *, prune: bool = True) -> Path:
        """Snapshot the full stream state into the state directory.

        The bulk state (records, union-find closure, per-group weights,
        blocking-key postings) goes into a ``columnar-<entries>.col``
        array sidecar, written before the small JSON checkpoint file
        (header, dead letters) that references it; both writes are
        atomic, retried on transient I/O errors and guarded by the
        checkpoint breaker.  A crash between the two leaves an orphan
        sidecar that the next prune removes.  A failed write — or state
        replayed from an older directory whose fields cannot be encoded
        — raises :class:`~repro.core.persistence.CheckpointWriteError`
        and counts in ``checkpoints_failed``.  WAL segments and
        checkpoints subsumed by the retention policy are pruned unless
        *prune* is False (crash harnesses keep the full history so any
        write moment stays reconstructible).

        Returns the checkpoint's path.  Requires durability.
        """
        if self._durable is None:
            raise PersistenceError(
                "checkpoint() requires durability: construct the engine "
                "with a state directory (durability=...)"
            )
        from ..storage import engine_state

        def build_sidecar():
            parent, size, n_components = self._uf.state()
            arrays, meta = engine_state.build_sidecar_arrays(
                self._records, parent, size, n_components, self._key_members
            )
            meta["engine_version"] = self._version
            meta["entries_applied"] = self._entries_applied
            return arrays, meta

        sidecar = self._durable.write_sidecar(
            self._entries_applied, build_sidecar
        )
        header = {
            "engine_version": self._version,
            "entries_applied": self._entries_applied,
            "n_records": len(self._records),
        }
        sections = {
            "columnar": {"file": sidecar.name, "n_records": len(self._records)},
            "dead_letters": self._dead_letter_section(),
        }
        path = self._durable.write_checkpoint(header, sections)
        if prune:
            self._durable.prune()
        return path

    def _dead_letter_section(self) -> dict:
        """The checkpoint's ``dead_letters`` section (JSON-ready)."""
        return {
            "letters": [
                {
                    "fields": dict(letter.fields),
                    "weight": letter.weight,
                    "error": letter.error,
                    "stage": letter.stage,
                }
                for letter in self._dead_letters
            ],
            "dropped": self._dead_letters_dropped,
            "limit": self._dead_letter_limit,
        }

    @classmethod
    def restore(
        cls,
        state_dir: str | Path | DurabilityPolicy,
        levels: list[PredicateLevel],
        *,
        max_block_verifications: int = 64,
        verdict_cache_limit: int = 2_000_000,
        quarantine: bool = True,
        dead_letter_limit: int = 1000,
        scorer=None,
        tracer=None,
        metrics=None,
    ) -> "IncrementalTopK":
        """Rebuild an engine from a state directory after a crash.

        Seeds from the newest checkpoint that installs, replays the
        surviving WAL tail, absorbs a torn or corrupt *trailing* entry
        (the signature of a crash mid-append) and raises
        :class:`~repro.core.persistence.WalCorruptionError` on mid-log
        damage.  The recovered state must pass :meth:`audit` before it
        is accepted; what recovery did is recorded in
        :attr:`last_recovery`.  The returned engine keeps journaling
        into the same directory.

        A checkpoint's ``columnar-<entries>.col`` sidecar is mapped,
        every array checksum verified, its closure validated with array
        kernels, and its records and blocking-key index decoded in bulk
        (no predicate calls).  A checkpoint that fails any of that — or
        its own frame checksums — is skipped for the next older one
        (counted in ``corrupt_checkpoints_skipped``); the WAL retained
        behind that one replays forward.  When nothing older reaches
        the skipped checkpoint's entry count, restore raises
        :class:`~repro.core.persistence.CheckpointError` rather than
        silently dropping entries.  Checkpoints written before the
        sidecar became the only layout (inline JSON sections) stay
        readable; the next :meth:`checkpoint` writes a sidecar.

        *levels* must be the same predicate suite the stream was built
        with (predicates are code and are not serialized); recovery
        equality additionally assumes the suite is deterministic.
        """
        policy = as_policy(state_dir)
        durable = DurableStateStore(policy)
        if not durable.has_state():
            raise PersistenceError(
                f"{policy.path} holds no stream state to restore"
            )

        def empty_engine() -> "IncrementalTopK":
            return cls(
                levels,
                max_block_verifications=max_block_verifications,
                verdict_cache_limit=verdict_cache_limit,
                quarantine=quarantine,
                dead_letter_limit=dead_letter_limit,
                durability=None,
                scorer=scorer,
                tracer=tracer,
                metrics=metrics,
            )

        engine = empty_engine()
        checkpoint_path: Path | None = None
        checkpoint_entries = 0
        skipped: list[tuple[int, CheckpointError]] = []
        for entries, path in reversed(durable.checkpoints()):
            try:
                header, sections = durable.read_checkpoint(path)
                engine._install_checkpoint(
                    header, sections, directory=durable.directory
                )
            except CheckpointError as exc:
                skipped.append((entries, exc))
                engine = empty_engine()  # drop a partial install
                continue
            checkpoint_path = path
            checkpoint_entries = engine._entries_applied
            break
        log = durable.recover_log()
        if skipped:
            lost, reason = skipped[0]
            if max(checkpoint_entries, log.end_index) < lost:
                raise CheckpointError(
                    f"the checkpoint at entry {lost} is unusable "
                    f"({reason}) and no older checkpoint or WAL segment "
                    f"reaches that entry"
                ) from reason
        if log.segments and log.first_index > checkpoint_entries:
            raise WalCorruptionError(
                f"WAL starts at entry {log.first_index} but the newest "
                f"valid checkpoint covers only {checkpoint_entries} — "
                f"intervening segments are missing"
            )
        replayed = 0
        for index, payload in log.entries():
            if index < checkpoint_entries:
                continue
            if index != engine._entries_applied:
                raise WalCorruptionError(
                    f"WAL entry index {index} does not follow applied "
                    f"count {engine._entries_applied}"
                )
            if payload.get("op") != "add" or "fields" not in payload:
                raise WalCorruptionError(
                    f"WAL entry {index} has unknown shape: "
                    f"{sorted(payload)!r}"
                )
            engine._apply_add(payload["fields"], payload.get("weight", 1.0))
            replayed += 1
        problems = engine.audit(strict=False)
        if problems:
            raise StateAuditError(
                "recovered state failed audit: " + "; ".join(problems)
            )
        durable.resume_appends(log, engine._entries_applied)
        durable.set_metrics(engine._verification.metrics)
        engine._durable = durable
        engine.last_recovery = RecoveryInfo(
            checkpoint_path=checkpoint_path,
            checkpoint_entries=checkpoint_entries,
            entries_replayed=replayed,
            torn_tail_bytes=log.torn_tail_bytes,
            corrupt_checkpoints_skipped=len(skipped),
        )
        return engine

    def _install_checkpoint(
        self, header: dict, sections: dict[str, object], *, directory=None
    ) -> None:
        """Load a validated checkpoint's sections into this (empty) engine.

        A ``columnar`` reference section installs from the array
        sidecar; inline JSON sections (written before the sidecar was
        the only layout) install through the legacy reader.
        """
        if "columnar" in sections:
            self._install_columnar_checkpoint(header, sections, directory)
        else:
            self._install_json_checkpoint(header, sections)

    def _install_columnar_checkpoint(
        self, header: dict, sections: dict[str, object], directory
    ) -> None:
        """Map a checkpoint's array sidecar and decode it into the engine.

        The sidecar's closure is validated with array kernels (same
        invariants as the scalar path, bit for bit), the records are
        decoded in one bulk pass, and when the blocking-key index was
        persisted it loads from postings with zero predicate calls;
        otherwise it is re-derived from the records.
        """
        import struct

        from ..storage import engine_state
        from ..storage.layout import ArrayFileError

        if directory is None:
            raise CheckpointError(
                "a columnar checkpoint needs its state directory to "
                "resolve the array sidecar"
            )
        try:
            ref = sections["columnar"]
            dead = sections["dead_letters"]
            name = ref["file"]
            n_declared = int(ref["n_records"])
            self._dead_letters = deque(
                DeadLetter(
                    fields=dict(entry["fields"]),
                    weight=entry["weight"],
                    error=entry["error"],
                    stage=entry["stage"],
                )
                for entry in dead["letters"]
            )
            self._dead_letters_dropped = int(dead["dropped"])
            self._version = int(header["engine_version"])
            self._entries_applied = int(header["entries_applied"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"checkpoint sections are malformed: {exc!r}"
            ) from exc
        try:
            columns = engine_state.open_sidecar(Path(directory) / name)
            columns.validate()
        except (ArrayFileError, OSError) as exc:
            raise CheckpointError(
                f"columnar sidecar {name} is unusable: {exc}"
            ) from exc
        if columns.records.n != n_declared or n_declared != int(
            header.get("n_records", n_declared)
        ):
            raise CheckpointError(
                f"checkpoint declares {n_declared} records but the sidecar "
                f"holds {columns.records.n}"
            )
        try:
            records = columns.records.to_records()
            key_members = columns.key_members()
        except (IndexError, ValueError, struct.error) as exc:
            # The bodies' checksums held, so this sidecar was written
            # wrong: an id out of range, bad UTF-8, a truncated key.
            raise CheckpointError(
                f"columnar sidecar {name} does not decode: {exc!r}"
            ) from exc
        self._uf = UnionFind.from_state(
            columns.uf_parent.tolist(),
            columns.uf_size.tolist(),
            columns.n_components,
        )
        self._records = records
        if key_members is not None:
            self._key_members = key_members
        else:
            self._rebuild_key_index()

    def _rebuild_key_index(self) -> None:
        """Re-derive the blocking-key index from the record store.

        Re-keys in id order so the per-key member lists match the
        original insertion order exactly.
        """
        sufficient = self._levels[0].sufficient
        self._key_members = defaultdict(list)
        for record in self._records:
            try:
                keys = set(sufficient.blocking_keys(record))
            except Exception as exc:
                raise StateAuditError(
                    f"blocking-key rebuild failed for record "
                    f"{record.record_id}: {exc!r} (stored records keyed "
                    f"successfully when inserted — is the predicate suite "
                    f"deterministic and unchanged?)"
                ) from exc
            for key in keys:
                self._key_members[key].append(record.record_id)

    def _install_json_checkpoint(
        self, header: dict, sections: dict[str, object]
    ) -> None:
        """Install inline JSON sections, the checkpoint layout written
        before every checkpoint carried an array sidecar."""
        try:
            records = sections["records"]
            uf_state = sections["union_find"]
            groups = sections["groups"]
            dead = sections["dead_letters"]
            self._records = [
                Record(
                    record_id=i,
                    fields=dict(entry["fields"]),
                    weight=entry["weight"],
                )
                for i, entry in enumerate(records)
            ]
            self._uf = UnionFind.from_state(
                uf_state["parent"], uf_state["size"], uf_state["n_components"]
            )
            self._dead_letters = deque(
                DeadLetter(
                    fields=dict(entry["fields"]),
                    weight=entry["weight"],
                    error=entry["error"],
                    stage=entry["stage"],
                )
                for entry in dead["letters"]
            )
            self._dead_letters_dropped = int(dead["dropped"])
            self._version = int(header["engine_version"])
            self._entries_applied = int(header["entries_applied"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"checkpoint sections are malformed: {exc!r}"
            ) from exc
        if len(self._records) != int(header.get("n_records", len(self._records))):
            raise CheckpointError(
                f"checkpoint header declares {header.get('n_records')} "
                f"records but the records section holds {len(self._records)}"
            )
        if len(self._uf) != len(self._records):
            raise CheckpointError(
                f"union-find covers {len(self._uf)} elements but the store "
                f"holds {len(self._records)} records"
            )
        # Cross-check the persisted per-group weights against the
        # record store before trusting the closure at all.
        parent, _size, _n = self._uf.state()
        recomputed: dict[int, float] = defaultdict(float)
        for record in self._records:
            recomputed[_walk_root(parent, record.record_id)] += record.weight
        persisted = {int(root): weight for root, weight in groups}
        if set(persisted) != set(recomputed) or any(
            not math.isclose(persisted[root], recomputed[root], rel_tol=1e-9)
            for root in persisted
        ):
            raise StateAuditError(
                "checkpointed group weights do not sum to member weights"
            )
        # This layout does not persist the blocking-key index; it is
        # re-derived from the records.
        self._rebuild_key_index()

    def _audit_closure_fast(self, parent, record_weights, n):
        """Vectorised closure walk: ``(root → count, root → weight)``.

        Only applicable when the union-find covers the store exactly.
        Returns ``None`` when inapplicable or when the parent array is
        malformed — the scalar walk then re-discovers the damage one
        record at a time with precise messages.
        """
        if len(parent) != n or n == 0:
            return None
        from ..storage.engine_state import resolve_roots
        from ..storage.layout import ArrayFileError

        try:
            resolved = resolve_roots(np.asarray(parent, dtype=np.int64))
        except (ArrayFileError, ValueError):
            return None
        counts = np.bincount(resolved, minlength=n)
        sums = np.bincount(resolved, weights=record_weights, minlength=n)
        root_ids = np.nonzero(counts)[0]
        root_list = root_ids.tolist()
        roots = dict(zip(root_list, counts[root_ids].tolist()))
        weights = dict(zip(root_list, sums[root_ids].tolist()))
        return roots, weights

    def _audit_closure_scalar(self, parent, record_weights, n, problems):
        """The original record-at-a-time closure walk (precise messages)."""
        roots: dict[int, int] = defaultdict(int)  # root -> member count
        weights: dict[int, float] = defaultdict(float)
        for record_id in range(min(n, len(parent))):
            node = record_id
            steps = 0
            while True:
                if not 0 <= node < len(parent):
                    problems.append(
                        f"parent chain from record {record_id} leaves the "
                        f"valid range at {node}"
                    )
                    node = None
                    break
                if parent[node] == node:
                    break
                node = parent[node]
                steps += 1
                if steps > len(parent):
                    problems.append(
                        f"parent chain from record {record_id} cycles"
                    )
                    node = None
                    break
            if node is None:
                continue
            roots[node] += 1
            weights[node] += float(record_weights[record_id])
        return roots, weights

    def audit(self, strict: bool = True) -> list[str]:
        """Self-check the closure invariants of the live state.

        Verifies that every record is covered by the union-find (and
        every parent chain terminates acyclically in range), that
        component sizes and the component count are consistent, that
        group weights sum to member weights with finite values, that
        the blocking-key index references valid record ids in insertion
        order, and that the dead-letter bound holds.

        Returns the list of problems found (empty when healthy).  With
        ``strict`` (the default) a non-empty list raises
        :class:`~repro.core.persistence.StateAuditError` instead.
        """
        problems: list[str] = []
        parent, size, n_components = self._uf.state()
        n = len(self._records)
        if len(parent) != n:
            problems.append(
                f"union-find covers {len(parent)} elements but the store "
                f"holds {n} records"
            )
        record_weights = np.fromiter(
            (record.weight for record in self._records),
            dtype=np.float64,
            count=n,
        )
        fast = self._audit_closure_fast(parent, record_weights, n)
        if fast is not None:
            roots, weights = fast
        else:
            roots, weights = self._audit_closure_scalar(
                parent, record_weights, n, problems
            )
        if len(parent) == n:
            if n_components != len(roots):
                problems.append(
                    f"n_components says {n_components} but {len(roots)} "
                    f"roots are reachable"
                )
            for root, members in roots.items():
                if root < len(size) and size[root] != members:
                    problems.append(
                        f"component at root {root} has {members} members "
                        f"but size[{root}] == {size[root]}"
                    )
        for root, weight in weights.items():
            if not math.isfinite(weight):
                problems.append(f"group at root {root} has non-finite weight")
        total_group = sum(weights.values())
        total_records = float(np.sum(record_weights))
        if not math.isclose(total_group, total_records, rel_tol=1e-9, abs_tol=1e-9):
            problems.append(
                f"group weights sum to {total_group} but record weights "
                f"sum to {total_records}"
            )
        for key, members in self._key_members.items():
            if members and (min(members) < 0 or max(members) >= n):
                problems.append(
                    f"key index entry {key!r} references an invalid record id"
                )
            elif not all(map(operator.lt, members, members[1:])):
                problems.append(
                    f"key index entry {key!r} is not in insertion order"
                )
        if len(self._dead_letters) > self._dead_letter_limit:
            problems.append(
                f"dead-letter list holds {len(self._dead_letters)} entries, "
                f"over the limit of {self._dead_letter_limit}"
            )
        if strict and problems:
            raise StateAuditError(
                "state audit failed: " + "; ".join(problems)
            )
        return problems

    def close(self) -> None:
        """Release the WAL file handle (no-op without durability).

        Idempotent: closing twice — or closing after a storage fault
        already wedged the segment handle — is always safe.  A server
        draining through an error path must be able to call this
        unconditionally.
        """
        if self._durable is not None:
            self._durable.close()


class EngineSnapshot:
    """One immutable, queryable version of the stream engine.

    :meth:`freeze` copies what a reader needs out of the live engine —
    the records as a tuple and the level-1 closure as member-id tuples
    — so the snapshot shares nothing mutable with it and no later
    insert can reach it.  It is the one code path that answers queries
    over a maintained closure: :meth:`IncrementalTopK.query` answers
    through the snapshot of its current version, and the query service
    publishes one per generation.

    Each query runs on the caller's
    :class:`~repro.core.verification.VerificationContext` or, without
    one, on a fresh context over the registry given to :meth:`freeze`
    (the service's readers run on worker threads; nothing here is
    shared-mutable between concurrent queries except the answer cache,
    which is lock-guarded).  Identical queries are cached per snapshot
    — the state can never change under it — whenever the run was clean
    (:func:`~repro.core.resilience.run_is_clean` on the run's own
    counter delta: not degraded, no containment).  A clean answer is
    the same under any policy, so the key leaves the policy out and
    deadline-stamped requests share one entry; a degraded answer is
    never cached.

    The cache is **bounded** (``cache_limit`` distinct keys): a client
    sweeping ``k`` or ``min_weight`` across a long-lived snapshot must
    not grow memory without limit, so the oldest entries are evicted
    FIFO — the same bounded-cache discipline as the engine's verdict
    cache.  Evictions are counted (:attr:`cache_evictions`) and
    published as ``repro_snapshot_cache_evictions_total``.
    """

    def __init__(
        self,
        records: tuple[Record, ...],
        components: tuple[tuple[int, ...], ...],
        levels: list[PredicateLevel],
        *,
        generation: int = 0,
        entries_applied: int = 0,
        dead_letters: int = 0,
        cache_limit: int = 256,
        scorer=None,
        metrics=None,
    ):
        if cache_limit < 1:
            raise ValueError(f"cache_limit must be >= 1, got {cache_limit}")
        self._records = records
        self._components = components
        self._levels = levels
        self._generation = generation
        self._entries_applied = entries_applied
        self._dead_letters = dead_letters
        self._scorer = scorer
        self._metrics = metrics if metrics is not None else NULL_METRICS
        self._cache: dict[tuple, object] = {}
        self._cache_lock = threading.Lock()
        self._cache_limit = cache_limit
        self._cache_evictions = 0

    @classmethod
    def freeze(
        cls,
        engine: IncrementalTopK,
        *,
        cache_limit: int = 256,
        metrics=None,
    ) -> "EngineSnapshot":
        """Freeze *engine*'s current version.

        Must be called by the stream's single writer (never concurrently
        with :meth:`IncrementalTopK.add`): the records tuple and the
        component member lists are copied here, so a reader holding the
        snapshot never observes a torn in-flight add.  *metrics* is the
        registry of the queries that bring no context of their own.
        """
        by_root: dict[int, list[int]] = defaultdict(list)
        for record_id in range(len(engine._records)):
            by_root[engine._uf.find(record_id)].append(record_id)
        # Roots first appear at their smallest member, so the components
        # come out ordered by smallest member id.
        return cls(
            tuple(engine._records),
            tuple(tuple(members) for members in by_root.values()),
            engine._levels,
            generation=engine._version,
            entries_applied=engine._entries_applied,
            dead_letters=len(engine._dead_letters),
            cache_limit=cache_limit,
            scorer=engine._scorer,
            metrics=metrics,
        )

    # -- identity ------------------------------------------------------

    @property
    def generation(self) -> int:
        """Engine version this snapshot reflects (monotone per insert)."""
        return self._generation

    @property
    def entries_applied(self) -> int:
        """WAL position at freeze time."""
        return self._entries_applied

    @property
    def n_records(self) -> int:
        return len(self._records)

    @property
    def n_components(self) -> int:
        """Groups of the level-1 sufficient closure."""
        return len(self._components)

    @property
    def dead_letters(self) -> int:
        """Quarantine size at freeze time (a health signal)."""
        return self._dead_letters

    @property
    def supports_interval(self) -> bool:
        """True when the engine carried a pairwise scorer at freeze time
        (interval queries need one to score dedup worlds)."""
        return self._scorer is not None

    def record_label(self, record_id: int, field: str) -> str:
        """Field value of one record (for response labelling)."""
        return self._records[record_id][field]

    def consistency_problems(self) -> list[str]:
        """Structural self-check (the atomic-publication property).

        A correctly published snapshot's components partition exactly
        its own record ids — a mixed-generation index (members from a
        newer record set, or records missing from the closure) shows up
        here immediately.  Used by the isolation property suite and the
        soak harness; cheap (O(n)).
        """
        problems: list[str] = []
        n = len(self._records)
        seen: set[int] = set()
        for members in self._components:
            for member in members:
                if not 0 <= member < n:
                    problems.append(
                        f"component member {member} outside record range "
                        f"0..{n - 1}"
                    )
                elif member in seen:
                    problems.append(f"record {member} in two components")
                seen.add(member)
        if len(seen) != n:
            problems.append(
                f"components cover {len(seen)} records but the snapshot "
                f"holds {n}"
            )
        for record_id, record in enumerate(self._records):
            if record.record_id != record_id:
                problems.append(
                    f"record at position {record_id} carries id "
                    f"{record.record_id}"
                )
        return problems

    def collapsed_groups(self) -> GroupSet:
        """The frozen level-1 closure as a fresh GroupSet (per call —
        the level pipeline consumes its input)."""
        store = RecordStore(self._records)
        groups = [
            merge_groups(
                store, [Group.singleton(0, store[m]) for m in members]
            )
            for members in self._components
        ]
        return GroupSet(store=store, groups=groups)

    # -- queries -------------------------------------------------------

    @property
    def cache_evictions(self) -> int:
        """Answer-cache entries evicted over this snapshot's lifetime."""
        with self._cache_lock:
            return self._cache_evictions

    @property
    def cache_size(self) -> int:
        with self._cache_lock:
            return len(self._cache)

    def _cached(self, key: tuple, context, compute):
        """The cached answer for *key*, else *compute*'s on *context* (a
        fresh one when None) — *compute* returns ``(result, the run's
        counter delta)`` — cached only when the run was clean."""
        with self._cache_lock:
            hit = self._cache.get(key)
        if hit is not None:
            return hit
        if context is None:
            context = VerificationContext(metrics=self._metrics)
        result, run = compute(context)
        if not run_is_clean(result.degraded, run):
            return result
        evicted = 0
        with self._cache_lock:
            self._cache.setdefault(key, result)
            excess = len(self._cache) - self._cache_limit
            if excess > 0:
                # dicts preserve insertion order, so the leading keys
                # are the oldest answers — evict those first.
                for oldest in list(islice(iter(self._cache), excess)):
                    del self._cache[oldest]
                self._cache_evictions += excess
                evicted = excess
        if evicted:
            self._metrics.counter(
                "repro_snapshot_cache_evictions_total"
            ).inc(evicted)
        return result

    def _collapse(self, context: VerificationContext) -> GroupSet:
        with context.span("collapse"):
            with context.stage("collapse"):
                return self.collapsed_groups()

    def query_topk(
        self,
        k: int,
        policy: ExecutionPolicy | None = None,
        context: VerificationContext | None = None,
    ) -> PrunedDedupResult:
        """Top-K count query on the frozen closure: Algorithm 2 from
        the maintained level-1 collapse on."""
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")

        def compute(context):
            with context.span("query", kind="stream", k=k):
                before_run = context.counters.snapshot()
                result = run_level_pipeline(
                    self._collapse(context),
                    k,
                    self._levels,
                    context=context,
                    policy=policy,
                    skip_first_collapse=True,
                    n_starting_records=self.n_records,
                    before_run=before_run,
                )
            context.publish_query_metrics("stream", result, before_run)
            return result, result.counters

        return self._cached(("topk", k), context, compute)

    def query_interval(
        self,
        k: int,
        r: int = 8,
        min_probability: float = 0.0,
        policy: ExecutionPolicy | None = None,
        context: VerificationContext | None = None,
    ):
        """Interval-semantics Top-K query on the frozen closure.

        Enumerates the *r* highest-scoring dedup worlds over the pruned
        state and returns an
        :class:`~repro.uncertainty.IntervalQueryResult` — per-entity
        count intervals and top-K membership probabilities.  Requires
        the engine to carry a pairwise scorer.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if self._scorer is None:
            raise ValueError(
                "interval queries need a pairwise scorer: construct the "
                "engine with scorer=..."
            )

        def compute(context):
            from ..uncertainty.query import (
                interval_from_pruning,
                publish_interval_metrics,
            )

            with context.span("query", kind="stream_interval", k=k):
                before_run = context.counters.snapshot()
                # Arm the policy up front so pruning and world scoring
                # share one deadline (as in the batch engine).
                state = (
                    policy.start(context.counters)
                    if policy is not None
                    else None
                )
                pruning = run_level_pipeline(
                    self._collapse(context),
                    k,
                    self._levels,
                    context=context,
                    execution_state=state,
                    skip_first_collapse=True,
                    n_starting_records=self.n_records,
                    before_run=before_run,
                )
                result = interval_from_pruning(
                    pruning,
                    k,
                    self._scorer,
                    self._levels[-1].necessary,
                    r=r,
                    min_probability=min_probability,
                    context=context,
                    state=state,
                )
            publish_interval_metrics(context, result, before_run)
            return result, context.counters.delta(before_run)

        # min_probability + 0.0 canonicalises -0.0 (see query_threshold).
        return self._cached(
            ("interval", k, r, min_probability + 0.0), context, compute
        )

    def query_rank(
        self,
        k: int,
        policy: ExecutionPolicy | None = None,
        context: VerificationContext | None = None,
    ) -> RankQueryResult:
        """Top-K rank query over the frozen record store."""
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")

        def compute(context):
            before = context.counters.snapshot()
            result = topk_rank_query(
                RecordStore(self._records),
                k,
                self._levels,
                context=context,
                policy=policy,
            )
            return result, context.counters.delta(before)

        return self._cached(("rank", k), context, compute)

    def query_threshold(
        self,
        min_weight: float,
        policy: ExecutionPolicy | None = None,
        context: VerificationContext | None = None,
    ) -> RankQueryResult:
        """Thresholded rank query over the frozen record store.

        Rejects non-finite thresholds up front (the HTTP layer already
        400s them; this guards embedded callers too): a NaN threshold
        would cache a dead entry under a key that can never hit again
        (``NaN != NaN``), and infinities answer nothing useful.  The
        cache key canonicalises the sign of zero — ``-0.0 == 0.0``
        answers identically, so the two must share one entry rather
        than occupying two cache slots for one answer.
        """
        if not math.isfinite(min_weight):
            raise ValueError(
                f"min_weight must be finite, got {min_weight!r}"
            )

        def compute(context):
            before = context.counters.snapshot()
            result = thresholded_rank_query(
                RecordStore(self._records),
                min_weight,
                self._levels,
                context=context,
                policy=policy,
            )
            return result, context.counters.delta(before)

        # min_weight + 0.0 maps -0.0 to +0.0 (all other finite floats
        # are unchanged), so both spellings of zero share one cache slot.
        return self._cached(
            ("threshold", min_weight + 0.0), context, compute
        )
