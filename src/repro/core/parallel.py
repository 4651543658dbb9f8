"""Sharded parallel execution for the PrunedDedup hot stages.

Figure 6's timing is dominated by S/N predicate evaluation inside two
stages of Algorithm 2 — the sufficient-closure **collapse** and the
necessary-predicate **neighbor verification** feeding the lower-bound
and prune stages.  Both decompose over the blocking structure:

* :meth:`ShardPlan.by_components` partitions group representatives by
  connected components of the predicate's key-sharing graph.  Every
  candidate pair lies inside one component, so per-shard transitive
  closures compose exactly: the collapse stage runs :func:`~repro.predicates.blocking.closure`
  per shard in worker processes and the parent folds the returned merge
  edges into one union-find **in fixed shard order**, then regroups
  exactly like the serial :func:`~repro.core.collapse.collapse` — the
  resulting :class:`~repro.core.records.GroupSet` is bit-identical.
* :meth:`ShardPlan.by_candidate_mass` balances *probes* instead:
  neighbor lists are independent per probe, so the parent builds the
  (one, shared) :class:`~repro.predicates.blocking.NeighborIndex`, the
  workers verify disjoint probe batches against it, and the parent
  primes the index's memo with the returned lists.  Downstream stages
  (lower bound, prune, rank pruning) run unchanged and hit the memo.

Both plans balance shards by estimated candidate-pair count (LPT
bin-packing, deterministic tie-breaks).

Worker processes are **forked**, not spawned: predicates routinely hold
closures (:class:`~repro.predicates.base.FunctionPredicate`, chaos and
resilience wrappers) that cannot be pickled, so the task payload is
published in a module global immediately before the pool is created and
inherited by the children.  Where ``fork`` is unavailable the layer
falls back to serial execution — never to different results.

Composition with :class:`~repro.core.resilience.ExecutionPolicy`:
guarded predicates — and the guarded batch engines built over them —
travel into the workers with their armed state by fork inheritance
(never through the shared-memory array export, which would shed the
guard), so deadline checks and role-safe fault containment apply
inside each worker exactly as they would serially
(``time.perf_counter`` is the system-wide CLOCK_MONOTONIC on the
supported platforms, so an inherited deadline stays valid across
``fork``).  A worker that reports policy
exhaustion degrades the whole stage — the serial semantics — while a
worker that *dies* degrades only its shard: the parent recomputes that
shard serially (counted in ``PipelineCounters.shards_degraded``) and
the query completes with identical results.  Per-worker counter deltas
(and ``GuardedPredicate.keying_failures``, which gates the pipelines'
pruning stand-down) are merged back into the parent in shard order.
"""

from __future__ import annotations

import heapq
import multiprocessing
import os
import time
from collections import defaultdict
from collections.abc import Hashable, Sequence
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FutureTimeout
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Callable

import numpy as np

from ..graphs.union_find import UnionFind
from ..observability import RATIO_BUCKETS
from ..predicates.base import Predicate
from ..predicates.batch import BatchNeighborEngine
from ..predicates.blocking import NeighborIndex, build_key_index, closure
from .collapse import collapse
from .records import Group, GroupSet, Record, merge_groups
from .resilience import GuardedPredicate, ResilienceExhausted
from .retry import (
    BREAKERS,
    SITE_SHM_ATTACH,
    SITE_SHM_CREATE,
    SITE_WORKER_CRASH,
    SITE_WORKER_HANG,
    RetryPolicy,
    fire_fault,
)
from .verification import PipelineCounters, VerificationContext

#: Environment variable consulted when no explicit worker count is given.
WORKERS_ENV_VAR = "REPRO_WORKERS"

#: Environment variable overriding the per-stage shard wall-clock budget.
SHARD_TIMEOUT_ENV_VAR = "REPRO_SHARD_TIMEOUT"

#: Default wall-clock budget for collecting one stage's shard results.
#: A worker that hangs past it is killed and its shard recomputed
#: serially — generous enough that no legitimate shard ever hits it.
DEFAULT_SHARD_TIMEOUT = 300.0

#: Below this many groups the fork + merge overhead outweighs any
#: parallel speedup; stages run serially regardless of the worker knob.
MIN_PARALLEL_GROUPS = 32

#: Name of the shard pool's circuit breaker in the global registry
#: (:data:`repro.core.retry.BREAKERS`).  After
#: :data:`SHARD_BREAKER_THRESHOLD` consecutive shard failures *that
#: survived their retry*, the breaker opens and queries run serial-only
#: for the rest of the session — bit-identical answers, no more forked
#: pools against infrastructure that keeps eating workers.
SHARD_BREAKER = "parallel.shards"
SHARD_BREAKER_THRESHOLD = 5

#: Retry schedule for attaching a worker to the shared-memory segment.
SHM_ATTACH_RETRY = RetryPolicy(
    max_attempts=3, base_delay_seconds=0.001, max_delay_seconds=0.01
)

_shard_timeout_override: float | None = None


def shard_timeout() -> float | None:
    """Effective shard-collection budget in seconds (None = unbounded).

    Resolution order: :func:`set_shard_timeout` override, then the
    ``REPRO_SHARD_TIMEOUT`` environment variable (0 or negative =
    unbounded), then :data:`DEFAULT_SHARD_TIMEOUT`.
    """
    if _shard_timeout_override is not None:
        return _shard_timeout_override if _shard_timeout_override > 0 else None
    raw = os.environ.get(SHARD_TIMEOUT_ENV_VAR, "").strip()
    if raw:
        try:
            value = float(raw)
        except ValueError:
            raise ValueError(
                f"{SHARD_TIMEOUT_ENV_VAR} must be a number, got {raw!r}"
            ) from None
        return value if value > 0 else None
    return DEFAULT_SHARD_TIMEOUT


def set_shard_timeout(seconds: float | None) -> float | None:
    """Override the shard budget for this process (tests, embedders).

    Pass ``None`` to fall back to the environment/default chain; 0 or a
    negative value disables the budget.  Returns the previous override.
    """
    global _shard_timeout_override
    previous = _shard_timeout_override
    _shard_timeout_override = seconds
    return previous


def shard_breaker():
    """The shard pool's session circuit breaker (global registry)."""
    return BREAKERS.breaker(
        SHARD_BREAKER,
        failure_threshold=SHARD_BREAKER_THRESHOLD,
        recovery_seconds=float("inf"),
    )


def resolve_workers(workers: int | None = None) -> int:
    """Resolve the effective worker count for a query run.

    An explicit *workers* wins; ``None`` falls back to the
    ``REPRO_WORKERS`` environment variable, then to 1 (serial).
    """
    if workers is None:
        raw = os.environ.get(WORKERS_ENV_VAR, "").strip()
        if not raw:
            return 1
        try:
            workers = int(raw)
        except ValueError:
            raise ValueError(
                f"{WORKERS_ENV_VAR} must be an integer, got {raw!r}"
            ) from None
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return workers


def fork_available() -> bool:
    """True when forked worker processes are supported on this platform."""
    return "fork" in multiprocessing.get_all_start_methods()


@dataclass(frozen=True)
class ShardPlan:
    """A deterministic partition of record positions into worker shards.

    Attributes:
        shards: Per-shard record positions, ascending within each shard.
        shard_pairs: Estimated candidate-pair count per shard (the LPT
            balancing weight).
        isolated: Positions participating in no candidate pair; they
            need no predicate work at all and are handled directly by
            the parent (a collapse leaves them untouched, a neighbor
            probe returns the empty list).
    """

    shards: tuple[tuple[int, ...], ...]
    shard_pairs: tuple[int, ...]
    isolated: tuple[int, ...]

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    @classmethod
    def by_components(
        cls,
        predicate: Predicate,
        records: Sequence[Record],
        max_shards: int,
    ) -> "ShardPlan":
        """Partition by connected components of *predicate*'s key graph.

        Two records land in the same shard whenever any key chain links
        them, so every candidate pair — and therefore every possible
        closure merge — is local to one shard.  Components are packed
        into at most *max_shards* shards by estimated pair count.
        """
        n = len(records)
        uf = UnionFind(n)
        index = build_key_index(predicate, records)
        for positions in index.values():
            if len(positions) < 2:
                continue
            first = positions[0]
            for other in positions[1:]:
                uf.union(first, other)
        pairs_by_root: dict[int, int] = defaultdict(int)
        for positions in index.values():
            if len(positions) < 2:
                continue
            pairs_by_root[uf.find(positions[0])] += (
                len(positions) * (len(positions) - 1) // 2
            )
        members: dict[int, list[int]] = defaultdict(list)
        for position in range(n):
            members[uf.find(position)].append(position)
        components: list[tuple[int, list[int]]] = []
        isolated: list[int] = []
        for root, positions in members.items():
            weight = pairs_by_root.get(root, 0)
            if weight == 0:
                isolated.extend(positions)
            else:
                components.append((weight, positions))
        components.sort(key=lambda c: (-c[0], c[1][0]))
        return cls._pack(components, isolated, max_shards)

    @classmethod
    def by_candidate_mass(
        cls,
        postings: dict[Hashable, list[int]],
        n_records: int,
        max_shards: int,
    ) -> "ShardPlan":
        """Balance individual probes by their candidate posting mass.

        Used for neighbor verification, where each probe's list is
        independent (the workers all read one shared index), so no
        component constraint applies and per-record LPT packing gives
        near-perfect balance even when one stop-key chains most records
        into a single connected component.
        """
        mass = [0] * n_records
        for positions in postings.values():
            if len(positions) < 2:
                continue
            bump = len(positions) - 1
            for position in positions:
                mass[position] += bump
        components = [(m, [p]) for p, m in enumerate(mass) if m > 0]
        isolated = [p for p, m in enumerate(mass) if m == 0]
        components.sort(key=lambda c: (-c[0], c[1][0]))
        return cls._pack(components, isolated, max_shards)

    @classmethod
    def _pack(
        cls,
        components: list[tuple[int, list[int]]],
        isolated: list[int],
        max_shards: int,
    ) -> "ShardPlan":
        """LPT bin-packing of (weight, positions) components, heaviest
        first, ties broken toward the lowest shard index — fully
        deterministic for a deterministic component list."""
        if not components or max_shards < 1:
            return cls(
                shards=(), shard_pairs=(), isolated=tuple(sorted(isolated))
            )
        n_shards = min(max_shards, len(components))
        heap = [(0, index) for index in range(n_shards)]
        bins: list[list[int]] = [[] for _ in range(n_shards)]
        loads = [0] * n_shards
        for weight, positions in components:
            load, index = heapq.heappop(heap)
            bins[index].extend(positions)
            loads[index] = load + weight
            heapq.heappush(heap, (load + weight, index))
        return cls(
            shards=tuple(tuple(sorted(b)) for b in bins),
            shard_pairs=tuple(loads),
            isolated=tuple(sorted(isolated)),
        )


def group_fingerprint(group_set: GroupSet) -> tuple:
    """Canonical, order-insensitive identity of a group partition.

    Two group sets with equal fingerprints have identical members,
    weights (bit-exact floats), and elected representatives — the
    equality the parallel path promises against the serial one.
    """
    return tuple(
        sorted(
            (
                group.weight,
                tuple(sorted(group.member_ids)),
                group.representative_id,
            )
            for group in group_set
        )
    )


# --------------------------------------------------------------------------
# Shared-memory transport for the batch neighbor engine.  Forked children
# share parent pages copy-on-write, but touching millions of Python
# objects (records, postings dicts) faults their refcount
# pages into every worker.  The batch engine's state is a handful of
# flat NumPy arrays, so shipping it as one ``multiprocessing.shared_memory``
# segment keeps the workers' working set to genuinely shared read-only
# pages — the payload then carries only the segment name and a manifest.


def _attach_shared_memory(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without resource-tracker tracking.

    Python 3.13 has ``track=False`` for exactly this; earlier versions
    unconditionally register the attachment, and each worker's tracker
    would then unlink the (parent-owned) segment at exit.  The fallback
    suppresses registration around the attach only.

    Attaches are retried under :data:`SHM_ATTACH_RETRY` (transient
    ``ENOENT``/``EACCES`` around segment publication); exhaustion
    propagates out of the worker, which degrades that shard to the
    parent's serial fallback.
    """

    def _attempt(attempt: int) -> shared_memory.SharedMemory:
        fire_fault(SITE_SHM_ATTACH, segment=name, attempt=attempt)
        try:
            return shared_memory.SharedMemory(name=name, track=False)
        except TypeError:  # Python <= 3.12: no track parameter
            from multiprocessing import resource_tracker

            original = resource_tracker.register
            resource_tracker.register = lambda *args, **kwargs: None
            try:
                return shared_memory.SharedMemory(name=name)
            finally:
                resource_tracker.register = original

    return SHM_ATTACH_RETRY.call(_attempt, key=f"shm.attach:{name}")


class SharedArrayPack:
    """Named arrays packed into one shared-memory segment.

    The creating (parent) process owns the segment and must call
    :meth:`destroy` after the workers are done; workers :meth:`attach`
    by name, read zero-copy views, and :meth:`close` their mapping.
    """

    _ALIGN = 8

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        manifest: dict[str, tuple[int, str, tuple[int, ...]]],
        owner: bool,
    ) -> None:
        self.shm = shm
        self.manifest = manifest
        self._owner = owner

    @property
    def name(self) -> str:
        return self.shm.name

    @classmethod
    def create(cls, arrays: dict[str, np.ndarray]) -> "SharedArrayPack":
        fire_fault(SITE_SHM_CREATE, n_arrays=len(arrays))
        contiguous = {
            name: np.ascontiguousarray(array) for name, array in arrays.items()
        }
        align = cls._ALIGN
        total = sum(
            (array.nbytes + align - 1) // align * align
            for array in contiguous.values()
        )
        shm = shared_memory.SharedMemory(create=True, size=max(1, total))
        manifest: dict[str, tuple[int, str, tuple[int, ...]]] = {}
        offset = 0
        for name, array in contiguous.items():
            view = np.ndarray(
                array.shape, dtype=array.dtype, buffer=shm.buf, offset=offset
            )
            view[...] = array
            manifest[name] = (offset, array.dtype.str, array.shape)
            offset += (array.nbytes + align - 1) // align * align
        return cls(shm, manifest, owner=True)

    @classmethod
    def attach(
        cls, name: str, manifest: dict[str, tuple[int, str, tuple[int, ...]]]
    ) -> "SharedArrayPack":
        return cls(_attach_shared_memory(name), manifest, owner=False)

    def arrays(self) -> dict[str, np.ndarray]:
        """Zero-copy views of every packed array (valid until close)."""
        return {
            name: np.ndarray(
                shape, dtype=np.dtype(dtype_str), buffer=self.shm.buf, offset=offset
            )
            for name, (offset, dtype_str, shape) in self.manifest.items()
        }

    def close(self) -> None:
        self.shm.close()

    def destroy(self) -> None:
        """Close and (owner only) unlink the segment."""
        self.shm.close()
        if self._owner:
            try:
                self.shm.unlink()
            except FileNotFoundError:
                pass


# --------------------------------------------------------------------------
# Worker-side machinery.  The payload is published in a module global and
# inherited by forked children: predicates (lambdas, guards, chaos
# wrappers) are not picklable, and the records/indexes are large enough
# that copy-on-write inheritance beats serialization anyway.

_PAYLOAD: dict | None = None


def _keying_failures(predicate: Predicate) -> int:
    return getattr(predicate, "keying_failures", 0)


def _collapse_positions(
    predicate: Predicate, records: Sequence[Record], positions: Sequence[int]
) -> list[tuple[int, int]]:
    """Run the S-closure over one shard; return merge edges in global
    positions.  Deterministic: the closure partition is the transitive
    closure of all true candidate pairs (order-independent), and edges
    are emitted in ascending local position."""
    local = [records[position] for position in positions]
    uf = closure(predicate, local)
    merges: list[tuple[int, int]] = []
    for local_index in range(len(local)):
        root = uf.find(local_index)
        if root != local_index:
            merges.append((positions[root], positions[local_index]))
    return merges


def _neighbor_lists(
    index: NeighborIndex, positions: Sequence[int]
) -> list[list[int]]:
    """Verify the neighbor list of each probe in *positions* against the
    shared index (member-probe semantics: the probe excludes itself),
    in one :meth:`~NeighborIndex.neighbors_batch` call, so a guarded
    engine sweeps the shard as the exported engine of
    :func:`_neighbor_csr` does."""
    return index.neighbors_batch(positions)


def _neighbor_csr(
    payload: dict, positions: Sequence[int], counters: PipelineCounters
) -> tuple[np.ndarray, np.ndarray]:
    """Batch-engine worker body: attach the shared-memory pack, rebuild
    the engine over its arrays, and return this shard's verified
    neighbor lists in CSR form (int64 indptr, int32 flat) — a far
    cheaper pickle than one Python list per probe."""
    pack = SharedArrayPack.attach(payload["pack_name"], payload["pack_manifest"])
    try:
        engine = BatchNeighborEngine.from_state(
            pack.arrays(), payload["engine_params"]
        )
        counters.neighbor_queries += len(positions)
        return engine.member_neighbors_csr(positions, counters)
    finally:
        pack.close()


def _csr_to_lists(
    indptr: np.ndarray, flat: np.ndarray, n_rows: int
) -> list[list[int]]:
    """Expand a worker's CSR result back into per-probe Python lists."""
    return [
        flat[indptr[row] : indptr[row + 1]].tolist() for row in range(n_rows)
    ]


def _shard_entry(task: tuple[str, int, int]):
    """Child-process entry point: run one shard, returning its data plus
    the counter and keying-failure deltas it produced (fork gives each
    child an independent copy of the shared counters, so deltas are the
    only way work travels back to the parent) and the worker-side
    elapsed wall time (observability only — the parent folds it into a
    transient shard span, never into stage timings).

    The first two fault sites fire here, inside the child: a crash
    fault hard-exits the process (the parent sees a dead worker), a
    hang fault sleeps past the parent's shard budget (the parent times
    the result out and kills the pool).  The attempt number keys the
    draws so a one-shot fault clears on the shard's retry.
    """
    kind, shard_index, attempt = task
    payload = _PAYLOAD
    assert payload is not None, "worker forked before the payload was set"
    fire_fault(SITE_WORKER_CRASH, shard=shard_index, attempt=attempt)
    fire_fault(SITE_WORKER_HANG, shard=shard_index, attempt=attempt)
    counters: PipelineCounters = payload["counters"]
    predicate: Predicate = payload["predicate"]
    records: Sequence[Record] = payload["records"]
    positions = payload["plan"].shards[shard_index]
    before = counters.snapshot()
    keying_before = _keying_failures(predicate)
    started = time.perf_counter()
    try:
        if kind == "collapse":
            data = _collapse_positions(predicate, records, positions)
        elif kind == "neighbors_batch":
            data = _neighbor_csr(payload, positions, counters)
        else:
            data = _neighbor_lists(payload["index"], positions)
    except ResilienceExhausted as exc:
        # Policy exhaustion inside a worker degrades the whole stage —
        # exactly what the serial pipeline would do — so it is reported
        # as data, not as a worker failure.
        return ("exhausted", exc.reason)
    elapsed = time.perf_counter() - started
    delta = counters.delta(before)
    return (
        "ok",
        (data, delta, _keying_failures(predicate) - keying_before, elapsed),
    )


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down without waiting on its (possibly hung) workers.

    ``shutdown(wait=True)`` — what a ``with`` block does — joins every
    worker, so one hung child would hang the parent forever.  Cancel
    what hasn't started, kill what has, then reap.  ``_processes`` is
    private API, so it is read defensively; on an interpreter where it
    is absent the workers leak until process exit rather than hang us.
    """
    # Grab the worker handles first: shutdown(wait=False) clears the
    # pool's _processes dict reference on some interpreter versions.
    processes = list((getattr(pool, "_processes", None) or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        try:
            process.kill()
        except Exception:  # noqa: BLE001 — already-dead workers etc.
            pass
    for process in processes:
        try:
            process.join(timeout=5.0)
        except Exception:  # noqa: BLE001
            pass


def _run_shard_batch(
    payload: dict,
    shard_indices: Sequence[int],
    workers: int,
    attempt: int,
    budget: float | None,
) -> dict[int, object]:
    """Run *shard_indices* over one fresh fork pool; map shard → result.

    A missing/None value means that shard failed this round: its worker
    died, its result did not arrive within *budget* seconds, or the
    pool itself broke.  On a timeout the pool's workers are killed —
    a hung worker must not outlive the stage.
    """
    global _PAYLOAD
    out: dict[int, object] = {index: None for index in shard_indices}
    _PAYLOAD = payload
    pool = None
    hung = False
    try:
        context = multiprocessing.get_context("fork")
        pool = ProcessPoolExecutor(
            max_workers=min(workers, len(shard_indices)), mp_context=context
        )
        futures = {
            shard_index: pool.submit(
                _shard_entry, (payload["kind"], shard_index, attempt)
            )
            for shard_index in shard_indices
        }
        deadline = None if budget is None else time.monotonic() + budget
        for shard_index, future in futures.items():
            remaining = (
                None
                if deadline is None
                else max(0.0, deadline - time.monotonic())
            )
            try:
                out[shard_index] = future.result(timeout=remaining)
            except _FutureTimeout:
                hung = True
                out[shard_index] = None
            except Exception:
                # Worker process died (or its result failed to travel):
                # leave None, the caller retries or recomputes it.
                out[shard_index] = None
    except Exception:
        # Pool-level failure: every unfinished shard falls back serially.
        pass
    finally:
        _PAYLOAD = None
        if pool is not None:
            if hung:
                _kill_pool(pool)
            else:
                pool.shutdown(wait=True)
    return out


def _run_shards(payload: dict, plan: ShardPlan, workers: int) -> list:
    """Fan the plan's shards out, retrying failed shards once.

    Returns one entry per shard: the worker's ``("ok", ...)`` /
    ``("exhausted", reason)`` result, or None when the worker died or
    hung twice (the caller recomputes such shards serially).  A fresh
    fork pool per batch is required for correctness: forked children
    snapshot the payload global at fork time, so a reused pool would
    serve stale payloads — and a dead worker breaks its whole pool
    anyway, so the retry round *needs* a new one.

    Every shard's final outcome feeds the session breaker
    (:func:`shard_breaker`): enough consecutive failures and the
    breaker opens, standing the parallel path down for the session
    (callers then run serial — bit-identical answers either way).
    """
    budget = shard_timeout()
    metrics = payload.get("metrics")
    results_map = _run_shard_batch(
        payload, range(plan.n_shards), workers, attempt=0, budget=budget
    )
    failed = [
        index for index in range(plan.n_shards) if results_map[index] is None
    ]
    if failed:
        if metrics is not None and metrics.enabled:
            metrics.counter("repro_shard_retries_total").inc(len(failed))
        retry_map = _run_shard_batch(
            payload, failed, workers, attempt=1, budget=budget
        )
        results_map.update(
            {i: r for i, r in retry_map.items() if r is not None}
        )
    breaker = shard_breaker()
    for index in range(plan.n_shards):
        if results_map[index] is None:
            breaker.record_failure()
        else:
            breaker.record_success()
    return [results_map[index] for index in range(plan.n_shards)]


def _fold_shard_results(
    results: list,
    predicate: Predicate,
    context: VerificationContext,
    fallback: Callable[[int], object],
    plan: ShardPlan | None = None,
) -> list:
    """Merge worker results deterministically, in fixed shard order.

    Counter and keying-failure deltas are applied for every completed
    shard first; a reported policy exhaustion then aborts the stage
    (serial semantics).  Only after that are dead-worker shards
    recomputed serially in the parent via *fallback* — each counted as
    one degraded shard.

    Observability rides the same fixed-order fold: each shard becomes a
    transient child span of the current stage span (its counter delta
    attached, the worker-side elapsed time as an attribute — never as
    span wall time, since shards overlap in real time), dead workers
    emit a ``shard_degraded`` event, and shard imbalance is observed
    into the metrics registry when *plan* is given.
    """
    folded: list = [None] * len(results)
    failed: list[int] = []
    exhausted: str | None = None
    for shard_index, result in enumerate(results):
        if result is None:
            failed.append(shard_index)
            continue
        status, value = result
        if status == "exhausted":
            exhausted = value
            continue
        data, delta, keying_delta, elapsed = value
        context.counters.merge(delta)
        if keying_delta and isinstance(predicate, GuardedPredicate):
            predicate.keying_failures += keying_delta
        context.record_span(
            "shard",
            counters_delta=delta,
            transient=True,
            shard=shard_index,
            worker_wall_seconds=elapsed,
        )
        folded[shard_index] = data
    if exhausted is not None:
        raise ResilienceExhausted(exhausted)
    metrics = context.metrics
    for shard_index in failed:
        context.counters.shards_degraded += 1
        context.event("shard_degraded", shard=shard_index)
        if metrics.enabled:
            metrics.counter("repro_shards_degraded_total").inc()
        before = context.counters.snapshot()
        folded[shard_index] = fallback(shard_index)
        context.record_span(
            "shard",
            counters_delta=context.counters.delta(before),
            transient=True,
            shard=shard_index,
            recovered_serially=True,
        )
    if metrics.enabled:
        metrics.counter("repro_shards_total").inc(len(results))
        if plan is not None and plan.shard_pairs:
            mean = sum(plan.shard_pairs) / len(plan.shard_pairs)
            if mean > 0:
                metrics.histogram(
                    "repro_shard_imbalance_ratio", buckets=RATIO_BUCKETS
                ).observe(max(plan.shard_pairs) / mean)
    return folded


# --------------------------------------------------------------------------
# The two parallel stages.


def _parallel_allowed(context: VerificationContext) -> bool:
    """Consult the session breaker before forking a pool.

    An open breaker stands the parallel path down: the stage runs
    serially (bit-identical answer), the stand-down is visible as a
    span event and the ``repro_parallel_stand_downs_total`` counter.
    """
    if shard_breaker().allow():
        return True
    context.event("parallel_stood_down", breaker=SHARD_BREAKER)
    metrics = context.metrics
    if metrics.enabled:
        metrics.counter("repro_parallel_stand_downs_total").inc()
    return False


def parallel_collapse(
    group_set: GroupSet,
    sufficient: Predicate,
    workers: int,
    context: VerificationContext,
) -> GroupSet:
    """Collapse *group_set* under *sufficient*, sharded over *workers*.

    Bit-identical to :func:`~repro.core.collapse.collapse`: the shard
    plan keeps every S-candidate pair inside one shard, per-shard
    closures therefore compose to exactly the global closure partition,
    and the parent rebuilds the merged groups with the serial stage's
    own position-ordered fold (same member order, same float summation
    order, same representative election).

    Falls back to the serial stage when parallelism cannot pay or is
    unavailable: fewer than :data:`MIN_PARALLEL_GROUPS` groups, a
    ``key_implies_match`` predicate (its closure does no predicate work
    worth distributing), fewer than two populated shards, or no ``fork``
    support.
    """
    if (
        workers < 2
        or len(group_set) < MIN_PARALLEL_GROUPS
        or sufficient.key_implies_match
        or not fork_available()
    ):
        return collapse(group_set, sufficient)
    if not _parallel_allowed(context):
        return collapse(group_set, sufficient)
    representatives = group_set.representatives()
    plan = ShardPlan.by_components(sufficient, representatives, workers)
    if plan.n_shards < 2:
        return collapse(group_set, sufficient)

    payload = {
        "kind": "collapse",
        "predicate": sufficient,
        "records": representatives,
        "plan": plan,
        "counters": context.counters,
        "metrics": context.metrics,
    }
    results = _run_shards(payload, plan, workers)
    merge_lists = _fold_shard_results(
        results,
        sufficient,
        context,
        fallback=lambda shard_index: _collapse_positions(
            sufficient, representatives, plan.shards[shard_index]
        ),
        plan=plan,
    )

    uf = UnionFind(len(representatives))
    for merges in merge_lists:
        for a, b in merges:
            uf.union(a, b)
    by_root: dict[int, list[Group]] = defaultdict(list)
    for position, group in enumerate(group_set):
        by_root[uf.find(position)].append(group)
    merged = [
        merge_groups(group_set.store, members) for members in by_root.values()
    ]
    return GroupSet(store=group_set.store, groups=merged)


def prime_neighbor_index(
    group_set: GroupSet,
    necessary: Predicate,
    workers: int,
    context: VerificationContext,
) -> NeighborIndex:
    """Build the level's shared neighbor index and pre-verify, in
    parallel, the member neighbor list of every group representative.

    The parent builds the index (one postings pass), forked workers
    verify disjoint probe batches against it, and the returned lists are
    injected into the index memo (:meth:`NeighborIndex.prime`).  The
    subsequent lower-bound / prune / rank stages then run unchanged and
    are answered from the memo — each list is the pure function of the
    shared index and an immutable probe, so results are exactly what
    the stage would have computed itself.

    With ``workers < 2`` (or no payoff / no ``fork``) this degenerates
    to plain :meth:`VerificationContext.neighbor_index`, which is also
    the thresholded query's keying sweep.
    """
    index = context.neighbor_index(necessary, group_set)
    if (
        workers < 2
        or len(group_set) < MIN_PARALLEL_GROUPS
        or necessary.key_implies_match
        or not fork_available()
        or not index.memoizing
    ):
        return index
    if not _parallel_allowed(context):
        return index
    representatives = group_set.representatives()
    plan = ShardPlan.by_candidate_mass(
        index.key_postings, len(representatives), workers
    )
    if plan.n_shards < 2:
        return index

    engine = index.batch_engine
    pack = None
    if engine is not None and not isinstance(necessary, GuardedPredicate):
        # Batch path: workers rebuild the engine from one shared-memory
        # segment of flat arrays and never touch a Record object, so
        # their resident working set is the genuinely shared pages plus
        # the (compact, CSR) result.  A failed segment creation falls
        # back to the record-sharing payload — slower, same answers.
        # A guarded engine stays off this path: its rule carries the
        # armed policy state, which the array export would shed, so it
        # takes the record-sharing payload and reaches workers by fork
        # inheritance, where the deadline and block containment hold.
        arrays, engine_params = engine.export_state()
        try:
            pack = SharedArrayPack.create(arrays)
        except OSError:
            context.event("shm_create_failed")
            if context.metrics.enabled:
                context.metrics.counter("repro_shm_create_failures_total").inc()
            pack = None
    if pack is not None:
        payload = {
            "kind": "neighbors_batch",
            "predicate": necessary,
            "records": representatives,
            "plan": plan,
            "counters": context.counters,
            "metrics": context.metrics,
            "pack_name": pack.name,
            "pack_manifest": pack.manifest,
            "engine_params": engine_params,
        }
    else:
        payload = {
            "kind": "neighbors",
            "predicate": necessary,
            "records": representatives,
            "plan": plan,
            "counters": context.counters,
            "metrics": context.metrics,
            "index": index,
        }
    try:
        results = _run_shards(payload, plan, workers)
    finally:
        if pack is not None:
            pack.destroy()
    shard_lists = _fold_shard_results(
        results,
        necessary,
        context,
        fallback=lambda shard_index: _neighbor_lists(
            index, plan.shards[shard_index]
        ),
        plan=plan,
    )
    for positions, lists in zip(plan.shards, shard_lists):
        if isinstance(lists, tuple):  # CSR from a batch worker
            lists = _csr_to_lists(lists[0], lists[1], len(positions))
        for position, neighbor_list in zip(positions, lists):
            index.prime(position, neighbor_list)
    for position in plan.isolated:
        # No shared key with anyone: the verified list is empty by
        # construction, no predicate call needed.
        index.prime(position, [])
    return index
