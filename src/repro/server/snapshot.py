"""Snapshot-isolated read path: immutable engine generations for readers.

The query service runs one writer task and many concurrent readers.
The writer owns the mutable :class:`~repro.core.incremental.IncrementalTopK`
and, after each applied batch, freezes its state
(:meth:`~repro.core.incremental.IncrementalTopK.snapshot_state`) into an
:class:`EngineSnapshot` — records tuple plus copied closure membership,
nothing shared-mutable with the live engine.  The
:class:`SnapshotPublisher` then swaps a single generation pointer: a
reader grabs ``publisher.current`` exactly once per request and answers
entirely from that object, so a long query can never observe a torn
in-flight add or a mixed-generation index, no matter how many inserts
land while it runs.

Snapshots answer all three query verbs through the same machinery as
the engines (:func:`~repro.core.pruned_dedup.run_level_pipeline` for
counts on the maintained closure, the rank/threshold pipelines on the
frozen store), including :class:`~repro.core.resilience.ExecutionPolicy`
anytime degradation — the substrate the service's per-request deadlines
thread into.
"""

from __future__ import annotations

import math
import threading
from itertools import islice

from ..core.incremental import EngineSnapshotState
from ..core.pruned_dedup import PrunedDedupResult, run_level_pipeline
from ..core.rank_query import (
    RankQueryResult,
    thresholded_rank_query,
    topk_rank_query,
)
from ..core.records import Group, GroupSet, RecordStore, merge_groups
from ..core.resilience import ExecutionPolicy, run_is_clean
from ..core.verification import VerificationContext


class EngineSnapshot:
    """One immutable, queryable generation of the stream engine.

    Construction copies nothing itself — the writer already copied the
    mutable parts into the :class:`EngineSnapshotState` — so publishing
    is cheap.  Queries build a fresh
    :class:`~repro.core.verification.VerificationContext` per call
    (readers run on worker threads; nothing here is shared-mutable
    between concurrent queries except the answer cache, which is
    lock-guarded).  Identical queries are cached per snapshot — the
    state can never change under it — whenever the run was clean
    (:func:`~repro.core.resilience.run_is_clean`: not degraded, no
    containment).  A clean answer is the same under any policy, so the
    key leaves the policy out and the service's deadline-stamped
    requests share one entry; a degraded answer is never cached.

    The cache is **bounded** (``cache_limit`` distinct keys): a client
    sweeping ``k`` or ``min_weight`` across a long-lived snapshot must
    not grow server memory without limit, so the oldest entries are
    evicted FIFO — the same bounded-cache discipline as the engine's
    verdict cache.  Evictions are counted (:attr:`cache_evictions`) and
    published as ``repro_snapshot_cache_evictions_total`` when a
    metrics registry is attached.
    """

    def __init__(
        self,
        state: EngineSnapshotState,
        levels,
        *,
        prune_iterations: int = 2,
        cache_limit: int = 256,
        scorer=None,
        metrics=None,
    ):
        if cache_limit < 1:
            raise ValueError(f"cache_limit must be >= 1, got {cache_limit}")
        self._state = state
        self._levels = levels
        self._scorer = scorer
        self._prune_iterations = prune_iterations
        self._cache: dict[tuple, object] = {}
        self._cache_lock = threading.Lock()
        self._cache_limit = cache_limit
        self._cache_evictions = 0
        self._metrics = metrics

    @classmethod
    def freeze(
        cls,
        engine,
        *,
        prune_iterations: int = 2,
        cache_limit: int = 256,
        metrics=None,
    ) -> "EngineSnapshot":
        """Freeze *engine*'s current state (writer-side only — see
        :meth:`IncrementalTopK.snapshot_state`)."""
        return cls(
            engine.snapshot_state(),
            engine._levels,
            prune_iterations=prune_iterations,
            cache_limit=cache_limit,
            scorer=getattr(engine, "_scorer", None),
            metrics=metrics,
        )

    # -- identity ------------------------------------------------------

    @property
    def generation(self) -> int:
        """Engine version this snapshot reflects (monotone per insert)."""
        return self._state.generation

    @property
    def entries_applied(self) -> int:
        return self._state.entries_applied

    @property
    def n_records(self) -> int:
        return len(self._state.records)

    @property
    def n_components(self) -> int:
        return len(self._state.components)

    @property
    def dead_letters(self) -> int:
        return self._state.dead_letters

    @property
    def supports_interval(self) -> bool:
        """True when the engine carried a pairwise scorer at freeze time
        (interval queries need one to score dedup worlds)."""
        return self._scorer is not None

    def record_label(self, record_id: int, field: str) -> str:
        """Field value of one record (for response labelling)."""
        return self._state.records[record_id][field]

    def consistency_problems(self) -> list[str]:
        """Structural self-check (the atomic-publication property).

        A correctly published snapshot's components partition exactly
        its own record ids — a mixed-generation index (members from a
        newer record set, or records missing from the closure) shows up
        here immediately.  Used by the isolation property suite and the
        soak harness; cheap (O(n)).
        """
        problems: list[str] = []
        n = len(self._state.records)
        seen: set[int] = set()
        for members in self._state.components:
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
        for record_id, record in enumerate(self._state.records):
            if record.record_id != record_id:
                problems.append(
                    f"record at position {record_id} carries id "
                    f"{record.record_id}"
                )
        return problems

    # -- queries -------------------------------------------------------

    def _collapsed_groups(self) -> GroupSet:
        """A fresh GroupSet of the frozen closure (per call — the level
        pipeline consumes its input)."""
        store = RecordStore(list(self._state.records))
        groups = [
            merge_groups(
                store, [Group.singleton(0, store[m]) for m in members]
            )
            for members in self._state.components
        ]
        return GroupSet(store=store, groups=groups)

    @property
    def cache_evictions(self) -> int:
        """Answer-cache entries evicted over this snapshot's lifetime."""
        with self._cache_lock:
            return self._cache_evictions

    @property
    def cache_size(self) -> int:
        with self._cache_lock:
            return len(self._cache)

    def _cached(self, key: tuple, compute):
        """The cached answer for *key*, else *compute*'s — which returns
        ``(result, run counters)`` — cached only when the run was
        clean."""
        with self._cache_lock:
            hit = self._cache.get(key)
        if hit is not None:
            return hit
        result, counters = compute()
        if not run_is_clean(result.degraded, counters):
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
        if evicted and self._metrics is not None:
            self._metrics.counter(
                "repro_snapshot_cache_evictions_total"
            ).inc(evicted)
        return result

    def query_topk(
        self,
        k: int,
        policy: ExecutionPolicy | None = None,
        metrics=None,
    ) -> PrunedDedupResult:
        """Top-K count query on the frozen closure (mirrors
        :meth:`IncrementalTopK.query`, minus the live-state coupling)."""
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")

        def compute():
            context = VerificationContext(metrics=metrics)
            with context.span("query", kind="server-topk", k=k):
                before_run = context.counters.snapshot()
                with context.span("collapse"):
                    with context.stage("collapse"):
                        groups = self._collapsed_groups()
                result = run_level_pipeline(
                    groups,
                    k,
                    self._levels,
                    context=context,
                    prune_iterations=self._prune_iterations,
                    policy=policy,
                    skip_first_collapse=True,
                    n_starting_records=self.n_records,
                    before_run=before_run,
                )
            return result, context.counters

        return self._cached(("topk", k), compute)

    def query_interval(
        self,
        k: int,
        r: int = 8,
        min_probability: float = 0.0,
        policy: ExecutionPolicy | None = None,
        metrics=None,
    ):
        """Interval-semantics Top-K query on the frozen closure.

        Enumerates the *r* highest-scoring dedup worlds over the pruned
        state and returns an
        :class:`~repro.uncertainty.IntervalQueryResult` — per-entity
        count intervals and top-K membership probabilities.  Requires
        the snapshot to carry the engine's pairwise scorer.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if self._scorer is None:
            raise ValueError(
                "interval queries need a pairwise scorer: construct the "
                "engine (and so its snapshots) with scorer=..."
            )

        def compute():
            from ..uncertainty.query import (
                interval_from_pruning,
                publish_interval_metrics,
            )

            context = VerificationContext(metrics=metrics)
            with context.span("query", kind="server-interval", k=k, r=r):
                before_run = context.counters.snapshot()
                state = (
                    policy.start(context.counters)
                    if policy is not None
                    else None
                )
                with context.span("collapse"):
                    with context.stage("collapse"):
                        groups = self._collapsed_groups()
                pruning = run_level_pipeline(
                    groups,
                    k,
                    self._levels,
                    context=context,
                    prune_iterations=self._prune_iterations,
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
            if context.metrics.enabled:
                publish_interval_metrics(context, result, None)
            return result, context.counters

        # min_probability + 0.0 canonicalises -0.0 (see query_threshold).
        return self._cached(
            ("interval", k, r, min_probability + 0.0), compute
        )

    def query_rank(
        self,
        k: int,
        policy: ExecutionPolicy | None = None,
        metrics=None,
    ) -> RankQueryResult:
        """Top-K rank query over the frozen record store."""
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")

        def compute():
            store = RecordStore(list(self._state.records))
            context = VerificationContext(metrics=metrics)
            result = topk_rank_query(
                store,
                k,
                self._levels,
                prune_iterations=self._prune_iterations,
                context=context,
                policy=policy,
            )
            return result, context.counters

        return self._cached(("rank", k), compute)

    def query_threshold(
        self,
        min_weight: float,
        policy: ExecutionPolicy | None = None,
        metrics=None,
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

        def compute():
            store = RecordStore(list(self._state.records))
            context = VerificationContext(metrics=metrics)
            result = thresholded_rank_query(
                store,
                min_weight,
                self._levels,
                prune_iterations=self._prune_iterations,
                context=context,
                policy=policy,
            )
            return result, context.counters

        # min_weight + 0.0 maps -0.0 to +0.0 (all other finite floats
        # are unchanged), so both spellings of zero share one cache slot.
        return self._cached(("threshold", min_weight + 0.0), compute)


class SnapshotPublisher:
    """The atomic generation pointer readers dereference once per request.

    ``publish`` swaps one attribute (atomic under the GIL, and in the
    service called only from the event loop); ``current`` hands back
    whole snapshots — there is no window in which a reader can see half
    of one generation and half of another.  Epochs count publications
    (distinct from the engine generation, which counts inserts).
    """

    def __init__(self) -> None:
        self._current: EngineSnapshot | None = None
        self._epoch = 0

    @property
    def current(self) -> EngineSnapshot | None:
        """The newest published snapshot (None before the first)."""
        return self._current

    @property
    def epoch(self) -> int:
        """Number of publications so far."""
        return self._epoch

    def publish(self, snapshot: EngineSnapshot) -> int:
        """Make *snapshot* the current generation; returns its epoch.

        In-flight readers keep the snapshot they already dereferenced;
        the old generation is garbage-collected once the last of them
        finishes.
        """
        self._epoch += 1
        self._current = snapshot
        return self._epoch
