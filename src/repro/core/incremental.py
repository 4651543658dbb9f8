"""Incremental Top-K over evolving sources.

The paper's opening motivation: "sources that are constantly evolving,
or are otherwise too vast or open-ended to be amenable to offline
deduplication".  :class:`IncrementalTopK` keeps the expensive part of
the pipeline — the sufficient-predicate closure of the *first* level —
up to date as records stream in: each arriving record is unioned with
existing groups through the predicate's blocking keys, so a query only
pays for bound-estimation, pruning and the later levels on the *current
collapsed state*, never re-tokenizing history.

Queries are answered through the same machinery as the batch engine
(:func:`repro.core.pruned_dedup.run_level_pipeline`), so results match
a from-scratch :func:`repro.core.pruned_dedup.pruned_dedup` run on the
accumulated records (verified by the test suite) — including execution
policies: a query armed with an
:class:`~repro.core.resilience.ExecutionPolicy` degrades anytime instead
of hanging.

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
from collections import defaultdict, deque
from collections.abc import Hashable, Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..graphs.union_find import UnionFind
from ..predicates.base import PredicateLevel
from .persistence import (
    DurabilityPolicy,
    DurableStateStore,
    PersistenceError,
    RecoveryInfo,
    StateAuditError,
    WalCorruptionError,
    as_policy,
)
from .pruned_dedup import run_level_pipeline
from .records import Group, GroupSet, Record, RecordStore, merge_groups
from .resilience import ExecutionPolicy, run_is_clean
from .verification import VerificationContext


@dataclass(frozen=True)
class EngineSnapshotState:
    """Immutable copy of the engine state one query generation serves.

    Produced by :meth:`IncrementalTopK.snapshot_state` under the
    single-writer discipline: the writer (and only the writer) freezes
    the state between inserts, so the copy is never torn.  Everything
    inside is either immutable (:class:`~repro.core.records.Record`)
    or copied at freeze time (the component membership lists), so a
    reader holding this snapshot is isolated from every later insert.

    Attributes:
        records: All records at freeze time, in id order — a tuple for
            the in-memory store, or an immutable lazily-materialising
            :class:`~repro.storage.columnar.FrozenRecordView` over the
            mapped generation for the columnar store (either way,
            isolated from every later insert).
        components: The level-1 sufficient closure as member-id tuples,
            ordered by smallest member id (deterministic across runs).
        generation: The engine :attr:`~IncrementalTopK.version` the
            snapshot reflects.
        entries_applied: WAL position at freeze time.
        dead_letters: Quarantine size at freeze time (a health signal,
            not replayable state).
    """

    records: Sequence
    components: tuple[tuple[int, ...], ...]
    generation: int
    entries_applied: int
    dead_letters: int


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
        store: ``"memory"`` (the default) keeps records as resident
            Python objects and writes inline-JSON checkpoints;
            ``"columnar"`` keeps records in a
            :class:`~repro.storage.columnar.HybridRecordList` (an
            immutable mapped base generation plus an in-memory tail)
            and compacts checkpoints into ``columnar-<entries>.col``
            array sidecars, so a restore cold-starts by mapping the
            sidecar instead of parsing JSON.  Answers are bit-identical
            between the two.
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
        store: str = "memory",
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
        if store not in ("memory", "columnar"):
            raise ValueError(
                f"store must be 'memory' or 'columnar', got {store!r}"
            )
        self._levels = levels
        self._scorer = scorer
        self._max_verifications = max_block_verifications
        self._quarantine = quarantine
        self._store_kind = store
        if store == "columnar":
            from ..storage.columnar import HybridRecordList

            self._records: Sequence[Record] = HybridRecordList()
        else:
            self._records = []
        self._uf = UnionFind(0)
        self._key_members: dict[Hashable, list[int]] = defaultdict(list)
        self._version = 0
        self._entries_applied = 0
        # Clean answers of the current version only (see query()), keyed
        # by ("count", k) or ("interval", k, r, min_probability); emptied
        # whenever the version advances.
        self._query_cache: dict[tuple, object] = {}
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
    def store_kind(self) -> str:
        """The record-store backend: ``"memory"`` or ``"columnar"``."""
        return self._store_kind

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
        """
        if self._durable is not None:
            self._durable.append(
                {"op": "add", "fields": dict(fields), "weight": weight}
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
        self._query_cache.clear()
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

    def snapshot_state(self) -> EngineSnapshotState:
        """Freeze the current closure for snapshot-isolated readers.

        Must be called by the stream's single writer (never concurrently
        with :meth:`add`): the records tuple and the component member
        lists are copied here, so the returned snapshot is immune to
        every later insert — the query service publishes these through
        an atomic generation pointer and long-running readers never
        observe a torn in-flight add.
        """
        by_root: dict[int, list[int]] = defaultdict(list)
        for record_id in range(len(self._records)):
            by_root[self._uf.find(record_id)].append(record_id)
        components = tuple(
            tuple(members)
            for members in sorted(by_root.values(), key=lambda m: m[0])
        )
        # The columnar container freezes into an immutable view sharing
        # the mapped base — copying one tuple of tail references, not
        # the corpus; the in-memory list is copied wholesale as before.
        freeze = getattr(self._records, "freeze", None)
        return EngineSnapshotState(
            records=freeze() if freeze is not None else tuple(self._records),
            components=components,
            generation=self._version,
            entries_applied=self._entries_applied,
            dead_letters=len(self._dead_letters),
        )

    def add_store(self, store: RecordStore) -> None:
        """Bulk-insert every record of *store* (ids are reassigned)."""
        for record in store:
            self.add(record.fields, record.weight)

    def current_store(self) -> RecordStore:
        """Snapshot of all accumulated records."""
        return RecordStore(list(self._records))

    def collapsed_groups(self) -> GroupSet:
        """The maintained level-1 sufficient closure as a GroupSet."""
        store = self.current_store()
        by_root: dict[int, list[int]] = defaultdict(list)
        for record_id in range(len(self._records)):
            by_root[self._uf.find(record_id)].append(record_id)
        groups = []
        for members in by_root.values():
            singletons = [
                Group.singleton(0, self._records[m]) for m in members
            ]
            groups.append(merge_groups(store, singletons))
        return GroupSet(store=store, groups=groups)

    def query(
        self,
        k: int,
        prune_iterations: int = 2,
        policy: ExecutionPolicy | None = None,
        kind: str = "count",
        r: int = 8,
        min_probability: float = 0.0,
    ):
        """Answer the Top-K query on the current stream state.

        With ``kind="count"`` (the default) returns the pruning result
        (:class:`~repro.core.pruned_dedup.PrunedDedupResult`), exactly
        as before.  With ``kind="interval"`` the engine must have been
        constructed with a ``scorer``; the query then enumerates the *r*
        highest-scoring dedup worlds over the pruned state and returns
        an :class:`~repro.uncertainty.IntervalQueryResult` with
        per-entity count intervals and top-K membership probabilities
        (entities below *min_probability* membership mass are pruned).

        Clean results (:func:`~repro.core.resilience.run_is_clean`: not
        degraded, no containment) are cached per ``(kind, k[, r,
        min_probability])`` until the next insert.  The key leaves
        the policy out — a clean answer is the same under any policy —
        and degraded or containment-touched answers are never cached,
        so a later request always gets a fresh run.  With a *policy*,
        the query degrades anytime exactly like the batch engine: on
        deadline/budget exhaustion it returns the best answer derivable
        from the current collapsed state, flagged ``degraded``.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if kind not in ("count", "interval"):
            raise ValueError(f"kind must be 'count' or 'interval', got {kind!r}")
        if kind == "interval" and self._scorer is None:
            raise ValueError(
                "interval queries need a pairwise scorer: construct the "
                "engine with scorer=..."
            )
        if kind == "interval":
            cache_key: tuple = ("interval", k, r, min_probability)
        else:
            cache_key = ("count", k)
        cached = self._query_cache.get(cache_key)
        if cached is not None:
            return cached

        d = len(self._records)
        context = self._verification
        span_kind = "stream" if kind == "count" else "stream_interval"
        with context.span("query", kind=span_kind, k=k):
            before_run = context.counters.snapshot()
            # Interval queries arm the policy up front so pruning and
            # world scoring share one deadline (as in the batch engine);
            # count queries keep arming it inside the level pipeline.
            state = (
                policy.start(context.counters)
                if policy is not None and kind == "interval"
                else None
            )
            with context.span("collapse"):
                with context.stage("collapse"):
                    groups = self.collapsed_groups()
            pruning = run_level_pipeline(
                groups,
                k,
                self._levels,
                context=context,
                prune_iterations=prune_iterations,
                policy=policy if state is None else None,
                execution_state=state,
                skip_first_collapse=True,
                n_starting_records=d,
                before_run=before_run,
            )
            if kind == "interval":
                from ..uncertainty.query import interval_from_pruning

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
            else:
                result = pruning
            run = context.counters.delta(before_run)
        metrics = context.metrics
        if metrics.enabled:
            if kind == "interval":
                from ..uncertainty.query import publish_interval_metrics

                publish_interval_metrics(context, result, None)
                context.publish_pipeline_metrics(pruning.counters)
            else:
                metrics.counter("repro_queries_total", kind="stream").inc()
                if result.degraded:
                    metrics.counter(
                        "repro_degraded_queries_total",
                        reason=result.degraded_reason,
                    ).inc()
                context.publish_pipeline_metrics(result.counters)
        if run_is_clean(result.degraded, run):
            self._query_cache[cache_key] = result
        return result

    # -- durability ----------------------------------------------------

    def checkpoint(self, *, prune: bool = True) -> Path:
        """Snapshot the full stream state into the state directory.

        The snapshot (record store, union-find closure, per-group
        weights, dead letters) is written atomically; WAL segments and
        checkpoints subsumed by the retention policy are pruned unless
        *prune* is False (crash harnesses keep the full history so any
        write moment stays reconstructible).

        With the columnar store, the bulk state is **compacted** into a
        ``columnar-<entries>.col`` array sidecar written before the
        (now small) checkpoint file that references it, and the live
        container swaps its base to the freshly mapped generation —
        releasing the resident tail.  A crash between the two writes
        leaves an orphan sidecar that the next prune removes.

        Returns the checkpoint's path.  Requires durability.
        """
        if self._durable is None:
            raise PersistenceError(
                "checkpoint() requires durability: construct the engine "
                "with a state directory (durability=...)"
            )
        parent, size, n_components = self._uf.state()
        header = {
            "engine_version": self._version,
            "entries_applied": self._entries_applied,
            "n_records": len(self._records),
        }
        dead_letters_section = {
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
        if self._store_kind == "columnar":
            from ..storage import engine_state as col_state

            arrays, meta, _has_postings = col_state.build_sidecar_arrays(
                self._records, parent, size, n_components, self._key_members
            )
            meta["engine_version"] = self._version
            meta["entries_applied"] = self._entries_applied
            sidecar = col_state.write_sidecar(
                self._durable.directory, self._entries_applied, arrays, meta
            )
            sections: dict[str, object] = {
                "columnar": {
                    "file": sidecar.name,
                    "n_records": len(self._records),
                },
                "dead_letters": dead_letters_section,
            }
            path = self._durable.write_checkpoint(header, sections)
            generation = col_state.open_sidecar(sidecar)
            self._records.swap_base(generation.records)
        else:
            group_weights: dict[int, float] = defaultdict(float)
            for record in self._records:
                group_weights[self._uf.find(record.record_id)] += record.weight
            sections = {
                "records": [
                    {"fields": dict(r.fields), "weight": r.weight}
                    for r in self._records
                ],
                "union_find": {
                    "parent": parent,
                    "size": size,
                    "n_components": n_components,
                },
                "groups": sorted(group_weights.items()),
                "dead_letters": dead_letters_section,
            }
            path = self._durable.write_checkpoint(header, sections)
        if prune:
            self._durable.prune()
        return path

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
        store: str = "memory",
        scorer=None,
        tracer=None,
        metrics=None,
    ) -> "IncrementalTopK":
        """Rebuild an engine from a state directory after a crash.

        Loads the newest checkpoint that validates (corrupt newer ones
        fall back to older), rebuilds the blocking-key index from the
        record store, replays the surviving WAL tail, absorbs a torn or
        corrupt *trailing* entry (the signature of a crash mid-append)
        and raises :class:`~repro.core.persistence.WalCorruptionError`
        on mid-log damage.  The recovered state must pass
        :meth:`audit` before it is accepted; what recovery did is
        recorded in :attr:`last_recovery`.  The returned engine keeps
        journaling into the same directory.

        A ``store="columnar"`` engine restoring from a compacted
        (format-2) checkpoint maps the ``columnar-<entries>.col``
        sidecar: records stay on disk and materialise lazily, the
        closure is validated with array kernels, and the blocking-key
        index is loaded from persisted postings instead of re-keying
        every record — no per-record Python work before the WAL tail
        replays.  Either store kind restores either checkpoint format
        (a memory engine materialises a columnar checkpoint; a columnar
        engine accepts an inline-JSON one and compacts at its next
        checkpoint), with bit-identical answers throughout.

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
        engine = cls(
            levels,
            max_block_verifications=max_block_verifications,
            verdict_cache_limit=verdict_cache_limit,
            quarantine=quarantine,
            dead_letter_limit=dead_letter_limit,
            durability=None,
            store=store,
            scorer=scorer,
            tracer=tracer,
            metrics=metrics,
        )
        loaded = durable.load_latest_checkpoint()
        checkpoint_path: Path | None = None
        checkpoint_entries = 0
        corrupt_skipped = 0
        if loaded is not None:
            header, sections, checkpoint_path, corrupt_skipped = loaded
            engine._install_checkpoint(
                header, sections, directory=durable.directory
            )
            checkpoint_entries = engine._entries_applied
        log = durable.recover_log()
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
            corrupt_checkpoints_skipped=corrupt_skipped,
        )
        return engine

    def _install_checkpoint(
        self, header: dict, sections: dict[str, object], *, directory=None
    ) -> None:
        """Load a validated checkpoint's sections into this (empty) engine.

        Dispatches on the checkpoint's shape, not the engine's store
        kind: a ``columnar`` reference section installs by mapping the
        array sidecar, inline JSON sections install the v1 way.  Either
        engine kind accepts either shape — the store kind only decides
        whether the installed records live in a hybrid mapped container
        or a plain list.
        """
        if "columnar" in sections:
            self._install_columnar_checkpoint(header, sections, directory)
        else:
            self._install_json_checkpoint(header, sections)

    def _install_columnar_checkpoint(
        self, header: dict, sections: dict[str, object], directory
    ) -> None:
        """Map a format-2 checkpoint's array sidecar and adopt it.

        The sidecar's closure is validated with array kernels (same
        invariants as the scalar path, bit for bit), and when the
        blocking-key index was persisted it loads from postings with
        zero predicate calls; otherwise it is re-derived exactly like a
        v1 restore.
        """
        from ..storage import engine_state as col_state
        from ..storage.columnar import HybridRecordList
        from ..storage.layout import ArrayFileError
        from .persistence import CheckpointError

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
            columns = col_state.open_sidecar(Path(directory) / name)
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
        self._uf = UnionFind.from_state(
            columns.uf_parent.tolist(),
            columns.uf_size.tolist(),
            columns.n_components,
        )
        if self._store_kind == "columnar":
            self._records = HybridRecordList(columns.records)
        else:
            self._records = [
                columns.records.record(i) for i in range(columns.records.n)
            ]
        key_members = columns.key_members()
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
        """Install inline (v1-style) JSON sections."""
        from .persistence import CheckpointError

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
        if self._store_kind == "columnar":
            # A columnar engine restoring a v1 checkpoint keeps its
            # hybrid container (all records in the tail); the next
            # checkpoint compacts them into a mapped generation.
            from ..storage.columnar import HybridRecordList

            hybrid = HybridRecordList()
            for record in self._records:
                hybrid.append(record)
            self._records = hybrid
        # The v1 format deliberately does not persist the blocking-key
        # index; it is re-derived from the records.
        self._rebuild_key_index()

    def _audit_closure_fast(self, parent, record_weights, n):
        """Vectorised closure walk: ``(root → count, root → weight)``.

        Only applicable when the record store exposes its weights as an
        array (hybrid/columnar containers) and the union-find covers the
        store exactly.  Returns ``None`` when inapplicable or when the
        parent array is malformed — the scalar walk then re-discovers
        the damage one record at a time with precise messages.
        """
        if record_weights is None or len(parent) != n or n == 0:
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
        roots = {
            int(root): int(counts[root]) for root in root_ids.tolist()
        }
        weights = {
            int(root): float(sums[root]) for root in root_ids.tolist()
        }
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
            if record_weights is not None:
                weights[node] += float(record_weights[record_id])
            else:
                weights[node] += self._records[record_id].weight
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
        weights_array = getattr(self._records, "weights_array", None)
        record_weights = weights_array() if weights_array is not None else None
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
        if record_weights is not None:
            total_records = float(np.sum(record_weights))
        else:
            total_records = sum(r.weight for r in self._records)
        if not math.isclose(total_group, total_records, rel_tol=1e-9, abs_tol=1e-9):
            problems.append(
                f"group weights sum to {total_group} but record weights "
                f"sum to {total_records}"
            )
        for key, members in self._key_members.items():
            if any(not 0 <= m < n for m in members):
                problems.append(
                    f"key index entry {key!r} references an invalid record id"
                )
            elif any(a >= b for a, b in zip(members, members[1:])):
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
