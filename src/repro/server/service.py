"""The always-on query service: one writer, many snapshot readers.

:class:`QueryService` is the transport-agnostic core of the server — the
HTTP layer (:mod:`repro.server.http`) only parses frames and calls the
``handle_*`` coroutines here.  The design is a single-writer/multi-reader
split over the warm incremental engine:

* **Writer** — exactly one task owns the mutable
  :class:`~repro.core.incremental.IncrementalTopK`.  It drains admitted
  inserts in batches, applies them through the normal WAL path, runs
  periodic checkpoints, then freezes and publishes a fresh
  :class:`~repro.core.incremental.EngineSnapshot`.  Apply work runs on a
  dedicated single-thread executor, so the event loop keeps answering
  probes while fsync stalls.
* **Readers** — queries dereference the published snapshot once and run
  on a bounded reader pool under a per-request
  :class:`~repro.core.resilience.ExecutionPolicy` deadline: an admitted
  query that turns out slow returns an explicitly ``degraded`` anytime
  answer instead of timing out opaquely.
* **Admission** — every request passes the
  :class:`~repro.server.admission.AdmissionController` before any work
  starts; the overloaded service sheds with 429 + Retry-After and
  counts every shed.  The SLO contract: every request resolves as
  success, explicitly degraded, or shed — zero hangs, zero silent drops.
* **Supervision** — a crashed writer task is restarted under
  :class:`~repro.core.retry.RetryPolicy` backoff while readers keep
  serving the last published snapshot; after ``max_attempts``
  consecutive failures inserts are refused (503) until a batch
  succeeds again.
* **Drain** — :meth:`QueryService.drain` (wired to SIGTERM by the CLI)
  stops admission, applies the already-accepted insert queue, waits for
  in-flight readers, checkpoints, and closes the WAL — after which a
  restart recovers bit-identical state.
"""

from __future__ import annotations

import asyncio
import contextlib
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from ..core.health import HealthCheck, HealthMonitor
from ..core.incremental import validate_insert
from ..core.resilience import ExecutionPolicy
from ..core.retry import RetryPolicy
from .admission import (
    CLASS_INSERT,
    CLASS_QUERY,
    AdmissionConfig,
    AdmissionController,
    SHED_DRAINING,
    estimate_query_cost,
)
from .snapshot import EngineSnapshot, SnapshotPublisher

#: Service lifecycle states.
STATE_STARTING = "starting"
STATE_READY = "ready"
STATE_DRAINING = "draining"
STATE_STOPPED = "stopped"

#: Query kinds the service answers.
QUERY_KINDS = ("topk", "rank", "threshold", "interval")

#: Request outcomes (``repro_requests_total{verb,outcome}`` label values).
OUTCOME_OK = "ok"
OUTCOME_DEGRADED = "degraded"
OUTCOME_QUARANTINED = "quarantined"
OUTCOME_SHED = "shed"
OUTCOME_UNAVAILABLE = "unavailable"
OUTCOME_INVALID = "invalid"
OUTCOME_TIMEOUT = "timeout"
OUTCOME_ERROR = "error"


@dataclass(frozen=True)
class ServerConfig:
    """Tuning knobs of one service instance.

    Attributes:
        host/port: Bind address for the HTTP layer (port 0 = ephemeral).
        label_field: Record field used to label answer groups in
            responses (None = ids only).
        admission: Capacity contract (queue depths, deadlines, cost).
        snapshot_cache_limit: Distinct cached answers per snapshot; the
            oldest are evicted FIFO past this bound (a parameter sweep
            must not grow server memory without limit).
        max_insert_batch: Inserts the writer applies per wakeup before
            publishing a snapshot (larger = fewer publications, longer
            reader staleness).
        checkpoint_every: Checkpoint after this many applied entries
            (0 = only on drain; requires a durable engine).
        checkpoint_on_drain: Snapshot state as part of graceful drain.
        drain_grace_seconds: Budget for the whole drain sequence; work
            still pending after it is abandoned (and counted).
        request_hard_timeout_seconds: Last-resort per-request ceiling —
            cooperative deadlines should always fire first; this bound
            guarantees "zero hangs" even against a wedged reader thread.
        writer_retry: Backoff schedule for writer restarts; its
            ``max_attempts`` is also the consecutive-failure threshold
            past which inserts are refused.
        on_predicate_error: Containment mode stamped on the base query
            policy (``"degrade"`` or ``"raise"``).
    """

    host: str = "127.0.0.1"
    port: int = 0
    label_field: str | None = None
    admission: AdmissionConfig = field(default_factory=AdmissionConfig)
    snapshot_cache_limit: int = 256
    max_insert_batch: int = 64
    checkpoint_every: int = 0
    checkpoint_on_drain: bool = True
    drain_grace_seconds: float = 30.0
    request_hard_timeout_seconds: float = 120.0
    writer_retry: RetryPolicy = field(
        default_factory=lambda: RetryPolicy(
            max_attempts=5, base_delay_seconds=0.05, max_delay_seconds=2.0
        )
    )
    on_predicate_error: str = "degrade"


@dataclass
class ServiceStats:
    """Monotone counters surfaced by ``/stats`` and the soak harness."""

    requests: dict = field(default_factory=dict)  # "verb.outcome" -> count
    snapshots_published: int = 0
    checkpoints_written: int = 0
    checkpoint_failures: int = 0
    writer_restarts: int = 0
    inserts_applied: int = 0

    def count(self, verb: str, outcome: str) -> None:
        key = f"{verb}.{outcome}"
        self.requests[key] = self.requests.get(key, 0) + 1

    def total(self, outcome: str | None = None) -> int:
        if outcome is None:
            return sum(self.requests.values())
        return sum(
            count
            for key, count in self.requests.items()
            if key.endswith(f".{outcome}")
        )

    def as_dict(self) -> dict:
        return {
            "requests": dict(sorted(self.requests.items())),
            "snapshots_published": self.snapshots_published,
            "checkpoints_written": self.checkpoints_written,
            "checkpoint_failures": self.checkpoint_failures,
            "writer_restarts": self.writer_restarts,
            "inserts_applied": self.inserts_applied,
        }


class _InsertItem:
    """One admitted insert waiting for the writer."""

    __slots__ = ("fields", "weight", "future")

    def __init__(self, fields: dict, weight: float, future: asyncio.Future):
        self.fields = fields
        self.weight = weight
        self.future = future


class QueryService:
    """See the module docstring for the architecture.

    Args:
        engine: A ready :class:`~repro.core.incremental.IncrementalTopK`,
            or None with *loader* — a callable building/restoring the
            engine, run off-loop during :meth:`start` so readiness
            probes answer 503 while a long WAL replay runs.
        config: :class:`ServerConfig`.
        metrics: Optional :class:`~repro.observability.MetricsRegistry`.
        monitor: Optional :class:`~repro.core.health.HealthMonitor`;
            one is built over the engine (with the service's own checks
            registered) when omitted.
    """

    def __init__(
        self,
        engine=None,
        *,
        loader=None,
        config: ServerConfig | None = None,
        metrics=None,
        monitor: HealthMonitor | None = None,
    ):
        if engine is None and loader is None:
            raise ValueError("need an engine or a loader")
        self.engine = engine
        self._loader = loader
        self.config = config or ServerConfig()
        self.metrics = metrics
        self.monitor = monitor
        self.publisher = SnapshotPublisher()
        self.admission = AdmissionController(self.config.admission, metrics)
        self.stats = ServiceStats()
        self._state = STATE_STARTING
        self._started_at = time.monotonic()
        self._base_policy = ExecutionPolicy(
            on_error=self.config.on_predicate_error
        )
        self._insert_queue: asyncio.Queue = asyncio.Queue()
        self._query_slots = asyncio.Semaphore(
            self.config.admission.max_concurrent_queries
        )
        self._writer_executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-writer"
        )
        self._query_executor = ThreadPoolExecutor(
            max_workers=self.config.admission.max_concurrent_queries,
            thread_name_prefix="repro-reader",
        )
        self._supervisor_task: asyncio.Task | None = None
        self._writer_task: asyncio.Task | None = None
        self._writer_consecutive_failures = 0
        self._last_writer_error: str | None = None
        self._last_checkpoint_entries = 0
        self._drain_started = False
        self._drained = asyncio.Event()
        self._drain_report: dict | None = None
        if metrics is not None and getattr(metrics, "enabled", False):
            metrics.describe(
                "repro_requests_total", "Service requests by verb and outcome"
            )
            metrics.describe(
                "repro_request_seconds", "Request wall time by verb"
            )
            metrics.describe(
                "repro_snapshot_generation",
                "Engine generation of the published snapshot",
            )
            metrics.describe(
                "repro_writer_restarts_total",
                "Writer task crashes recovered by the supervisor",
            )
            metrics.describe(
                "repro_snapshot_cache_evictions_total",
                "Snapshot answer-cache entries evicted (FIFO bound)",
            )

    # -- lifecycle -----------------------------------------------------

    @property
    def state(self) -> str:
        return self._state

    @property
    def draining(self) -> bool:
        return self._drain_started

    async def start(self) -> None:
        """Load the engine (off-loop), publish generation 0, arm the
        writer supervisor, and become ready."""
        loop = asyncio.get_running_loop()
        if self.engine is None:
            self.engine = await loop.run_in_executor(
                self._writer_executor, self._loader
            )
        if self.monitor is None:
            self.monitor = HealthMonitor(
                engine=self.engine, extra_checks=[self.health_checks]
            )
        self._last_checkpoint_entries = self.engine.entries_applied
        snapshot = await loop.run_in_executor(
            self._writer_executor, self._freeze
        )
        self._publish(snapshot)
        if self._drain_started:
            # SIGTERM landed during the load — never serve, close clean.
            await loop.run_in_executor(self._writer_executor, self.engine.close)
            self._state = STATE_STOPPED
            self._drained.set()
            return
        self._supervisor_task = asyncio.create_task(self._supervisor_loop())
        self._state = STATE_READY

    def _freeze(self) -> EngineSnapshot:
        return EngineSnapshot.freeze(
            self.engine,
            cache_limit=self.config.snapshot_cache_limit,
            metrics=self.metrics,
        )

    def _publish(self, snapshot: EngineSnapshot) -> None:
        self.publisher.publish(snapshot)
        self.stats.snapshots_published += 1
        metrics = self.metrics
        if metrics is not None and getattr(metrics, "enabled", False):
            metrics.gauge("repro_snapshot_generation").set(
                float(snapshot.generation)
            )

    # -- writer + supervisor -------------------------------------------

    def _apply_batch(self, items: list[_InsertItem]):
        """Writer-thread body: apply a batch, maybe checkpoint, freeze."""
        results = []
        for item in items:
            record_id = self.engine.add(item.fields, item.weight)
            results.append(
                {
                    "record_id": record_id,
                    "quarantined": record_id < 0,
                    "entries_applied": self.engine.entries_applied,
                }
            )
        checkpointed = False
        if (
            self.config.checkpoint_every
            and self.engine.durable
            and self.engine.entries_applied - self._last_checkpoint_entries
            >= self.config.checkpoint_every
        ):
            # A failed periodic checkpoint keeps the prior one and all
            # WAL — degrade the signal, never the admitted inserts.
            try:
                self.engine.checkpoint()
                self._last_checkpoint_entries = self.engine.entries_applied
                checkpointed = True
            except Exception:
                self.stats.checkpoint_failures += 1
        return results, self._freeze(), checkpointed

    async def _writer_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            item = await self._insert_queue.get()
            batch = [item]
            while len(batch) < self.config.max_insert_batch:
                try:
                    batch.append(self._insert_queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            try:
                results, snapshot, checkpointed = await loop.run_in_executor(
                    self._writer_executor, self._apply_batch, batch
                )
            except Exception as exc:
                # The batch failed before its effects were published:
                # resolve every waiter explicitly (a crash must never
                # hang a client), then crash into the supervisor.
                for waiter in batch:
                    if not waiter.future.done():
                        waiter.future.set_result(
                            {"error": f"writer crashed: {exc!r}"}
                        )
                raise
            finally:
                for _ in batch:
                    self._insert_queue.task_done()
                    self.admission.release(CLASS_INSERT)
            self._publish(snapshot)
            if checkpointed:
                self.stats.checkpoints_written += 1
            self.stats.inserts_applied += len(batch)
            self._writer_consecutive_failures = 0
            for waiter, result in zip(batch, results):
                if not waiter.future.done():
                    waiter.future.set_result(result)

    async def _supervisor_loop(self) -> None:
        """Keep the writer alive; readers serve through every restart."""
        while True:
            self._writer_task = asyncio.create_task(self._writer_loop())
            try:
                await self._writer_task
                return
            except asyncio.CancelledError:
                self._writer_task.cancel()
                with contextlib.suppress(BaseException):
                    await self._writer_task
                raise
            except Exception as exc:
                self._writer_consecutive_failures += 1
                self.stats.writer_restarts += 1
                self._last_writer_error = repr(exc)
                metrics = self.metrics
                if metrics is not None and getattr(metrics, "enabled", False):
                    metrics.counter("repro_writer_restarts_total").inc()
                delay = self.config.writer_retry.backoff_seconds(
                    min(self._writer_consecutive_failures, 10),
                    key="server.writer",
                )
                await asyncio.sleep(delay)

    @property
    def writer_available(self) -> bool:
        """False once consecutive writer crashes hit the retry budget —
        inserts are then refused until a batch succeeds again."""
        return (
            self._writer_consecutive_failures
            < self.config.writer_retry.max_attempts
        )

    # -- request handling ----------------------------------------------

    def _finish(
        self,
        verb: str,
        started: float,
        status: int,
        body: dict,
        outcome: str,
    ) -> tuple[int, dict]:
        self.stats.count(verb, outcome)
        metrics = self.metrics
        if metrics is not None and getattr(metrics, "enabled", False):
            metrics.counter(
                "repro_requests_total", verb=verb, outcome=outcome
            ).inc()
            metrics.histogram("repro_request_seconds", verb=verb).observe(
                time.monotonic() - started
            )
        body.setdefault("outcome", outcome)
        return status, body

    def _unavailable(self, verb: str, started: float) -> tuple[int, dict]:
        reason = SHED_DRAINING if self._drain_started else self._state
        return self._finish(
            verb,
            started,
            503,
            {"error": f"service unavailable ({reason})", "state": self._state},
            OUTCOME_UNAVAILABLE,
        )

    async def handle_query(self, payload: dict) -> tuple[int, dict]:
        """Answer one query request; returns ``(http_status, body)``."""
        started = time.monotonic()
        kind = payload.get("kind", "topk")
        verb = kind if kind in QUERY_KINDS else "query"
        if kind not in QUERY_KINDS:
            return self._finish(
                verb,
                started,
                400,
                {"error": f"unknown query kind {kind!r}"},
                OUTCOME_INVALID,
            )
        if self._state != STATE_READY:
            return self._unavailable(verb, started)
        snapshot = self.publisher.current
        if snapshot is None:
            return self._unavailable(verb, started)
        if kind == "interval" and not snapshot.supports_interval:
            return self._finish(
                verb,
                started,
                400,
                {
                    "error": "interval queries need a pairwise scorer: "
                    "construct the engine with scorer=..."
                },
                OUTCOME_INVALID,
            )
        try:
            k, min_weight, worlds, min_probability = self._query_params(
                kind, payload
            )
            deadline_raw = payload.get("deadline_seconds")
            if deadline_raw is not None:
                deadline_raw = float(deadline_raw)
                if not math.isfinite(deadline_raw) or deadline_raw <= 0:
                    raise ValueError(
                        f"deadline_seconds must be a positive finite "
                        f"number, got {deadline_raw}"
                    )
        except (TypeError, ValueError) as exc:
            return self._finish(
                verb, started, 400, {"error": str(exc)}, OUTCOME_INVALID
            )
        deadline = self.config.admission.clamp_deadline(deadline_raw)
        cost = estimate_query_cost(
            kind, snapshot.n_records, self.config.admission, worlds=worlds
        )
        decision = self.admission.try_admit(CLASS_QUERY, cost)
        if not decision.admitted:
            return self._finish(
                verb,
                started,
                429,
                {
                    "error": "request shed",
                    "reason": decision.reason,
                    "retry_after_seconds": decision.retry_after_seconds,
                },
                OUTCOME_SHED,
            )
        loop = asyncio.get_running_loop()
        try:
            async with self._query_slots:
                # Queue wait counts against the request's own deadline;
                # an admitted-but-slow query degrades explicitly.
                remaining = max(
                    0.001, deadline - (time.monotonic() - started)
                )
                policy = self._base_policy.with_deadline(remaining)
                if kind == "topk":
                    run = lambda: snapshot.query_topk(  # noqa: E731
                        k, policy=policy
                    )
                elif kind == "interval":
                    run = lambda: snapshot.query_interval(  # noqa: E731
                        k,
                        r=worlds,
                        min_probability=min_probability,
                        policy=policy,
                    )
                elif kind == "rank":
                    run = lambda: snapshot.query_rank(  # noqa: E731
                        k, policy=policy
                    )
                else:
                    run = lambda: snapshot.query_threshold(  # noqa: E731
                        min_weight, policy=policy
                    )
                result = await asyncio.wait_for(
                    loop.run_in_executor(self._query_executor, run),
                    timeout=self.config.request_hard_timeout_seconds,
                )
        except asyncio.TimeoutError:
            return self._finish(
                verb,
                started,
                500,
                {"error": "request exceeded the hard timeout"},
                OUTCOME_TIMEOUT,
            )
        except Exception as exc:
            return self._finish(
                verb, started, 500, {"error": repr(exc)}, OUTCOME_ERROR
            )
        finally:
            self.admission.release(CLASS_QUERY)
        body = self._serialize_result(kind, snapshot, result, k)
        body["elapsed_seconds"] = time.monotonic() - started
        outcome = OUTCOME_DEGRADED if result.degraded else OUTCOME_OK
        return self._finish(verb, started, 200, body, outcome)

    @staticmethod
    def _query_params(kind: str, payload: dict) -> tuple[int, float, int, float]:
        k = 10
        min_weight = 0.0
        worlds = 1
        min_probability = 0.0
        if kind in ("topk", "rank", "interval"):
            k = payload.get("k", 10)
            if not isinstance(k, int) or isinstance(k, bool) or k < 1:
                raise ValueError(f"k must be a positive integer, got {k!r}")
        else:
            if "min_weight" not in payload:
                raise ValueError("threshold queries need min_weight")
            min_weight = float(payload["min_weight"])
            if not math.isfinite(min_weight):
                raise ValueError("min_weight must be finite")
        if kind == "interval":
            worlds = payload.get("worlds", 8)
            if (
                not isinstance(worlds, int)
                or isinstance(worlds, bool)
                or worlds < 1
            ):
                raise ValueError(
                    f"worlds must be a positive integer, got {worlds!r}"
                )
            min_probability = float(payload.get("min_probability", 0.0))
            if not math.isfinite(min_probability) or not (
                0.0 <= min_probability <= 1.0
            ):
                raise ValueError(
                    f"min_probability must be in [0, 1], got {min_probability!r}"
                )
        return k, min_weight, worlds, min_probability

    def _serialize_result(
        self, kind: str, snapshot: EngineSnapshot, result, k: int
    ) -> dict:
        label_field = self.config.label_field

        def label(record_id: int):
            if label_field is None:
                return None
            return snapshot.record_label(record_id, label_field)

        body = {
            "kind": kind,
            "generation": snapshot.generation,
            "entries_applied": snapshot.entries_applied,
            "degraded": result.degraded,
            "degraded_reason": result.degraded_reason,
        }
        if kind == "topk":
            groups = sorted(
                result.groups,
                key=lambda g: (-g.weight, g.representative_id),
            )[:k]
            body["groups"] = [
                {
                    "weight": group.weight,
                    "size": len(group.member_ids),
                    "representative_id": group.representative_id,
                    "label": label(group.representative_id),
                }
                for group in groups
            ]
        elif kind == "interval":
            body["worlds_enumerated"] = result.worlds_enumerated
            body["exact"] = result.exact
            body["entities"] = [
                {
                    "count_lo": entity.count_lo,
                    "count_hi": entity.count_hi,
                    "expected_count": entity.expected_count,
                    "membership_probability": entity.membership_probability,
                    "representative_id": entity.representative_id,
                    "label": label(entity.representative_id),
                }
                for entity in result.entities
            ]
        else:
            ranking = result.ranking
            if kind == "rank":
                ranking = ranking[:k]
            body["ranking"] = [
                {
                    "weight": entry.weight,
                    "upper_bound": entry.upper_bound,
                    "resolved": entry.resolved,
                    "representative_id": entry.representative_id,
                    "label": label(entry.representative_id),
                }
                for entry in ranking
            ]
            if kind == "threshold":
                body["certain"] = result.certain
        return body

    async def handle_insert(self, payload: dict) -> tuple[int, dict]:
        """Accept one insert; resolves once the writer applied it."""
        started = time.monotonic()
        verb = "insert"
        if self._state != STATE_READY:
            return self._unavailable(verb, started)
        if not self.writer_available:
            return self._finish(
                verb,
                started,
                503,
                {
                    "error": "writer unavailable "
                    f"(last: {self._last_writer_error})",
                    "state": self._state,
                },
                OUTCOME_UNAVAILABLE,
            )
        try:
            fields, weight = validate_insert(
                payload.get("fields"), payload.get("weight", 1.0)
            )
        except ValueError as exc:
            return self._finish(
                verb, started, 400, {"error": str(exc)}, OUTCOME_INVALID
            )
        decision = self.admission.try_admit(CLASS_INSERT)
        if not decision.admitted:
            return self._finish(
                verb,
                started,
                429,
                {
                    "error": "request shed",
                    "reason": decision.reason,
                    "retry_after_seconds": decision.retry_after_seconds,
                },
                OUTCOME_SHED,
            )
        future = asyncio.get_running_loop().create_future()
        self._insert_queue.put_nowait(_InsertItem(fields, weight, future))
        try:
            result = await asyncio.wait_for(
                future, timeout=self.config.request_hard_timeout_seconds
            )
        except asyncio.TimeoutError:
            return self._finish(
                verb,
                started,
                500,
                {"error": "insert exceeded the hard timeout"},
                OUTCOME_TIMEOUT,
            )
        if "error" in result:
            return self._finish(verb, started, 500, result, OUTCOME_ERROR)
        outcome = (
            OUTCOME_QUARANTINED if result["quarantined"] else OUTCOME_OK
        )
        return self._finish(verb, started, 200, result, outcome)

    # -- health --------------------------------------------------------

    def health_checks(self) -> list[HealthCheck]:
        """Service-level checks contributed to the HealthMonitor."""
        return [
            HealthCheck(
                name="server.state",
                ok=self._state == STATE_READY,
                detail=self._state,
            ),
            HealthCheck(
                name="server.writer",
                ok=self._writer_consecutive_failures == 0,
                detail=(
                    f"{self.stats.writer_restarts} restart(s), "
                    f"{self._writer_consecutive_failures} consecutive "
                    f"failure(s)"
                    + (
                        f", last: {self._last_writer_error}"
                        if self._last_writer_error
                        else ""
                    )
                ),
            ),
            HealthCheck(
                name="server.admission.query",
                ok=self.admission.pending(CLASS_QUERY)
                < self.config.admission.max_pending_queries,
                detail=(
                    f"{self.admission.pending(CLASS_QUERY)}/"
                    f"{self.config.admission.max_pending_queries} pending"
                ),
            ),
            HealthCheck(
                name="server.admission.insert",
                ok=self.admission.pending(CLASS_INSERT)
                < self.config.admission.max_pending_inserts,
                detail=(
                    f"{self.admission.pending(CLASS_INSERT)}/"
                    f"{self.config.admission.max_pending_inserts} pending"
                ),
            ),
        ]

    def readiness(self) -> tuple[bool, dict]:
        """Readiness verdict + machine-readable detail.

        Not ready while starting (WAL replay runs inside
        :meth:`start`), while draining, while journaling is suspended
        (``durability_degraded`` — accepting writes that cannot be made
        durable is a silent-loss risk), or when the
        :class:`~repro.core.health.HealthMonitor` itself clears
        readiness (failed audit, critical service check).
        """
        problems: list[str] = []
        if self._state != STATE_READY:
            problems.append(f"state={self._state}")
        if self.publisher.current is None:
            problems.append("no published snapshot")
        engine = self.engine
        if engine is not None and engine.durability_degraded:
            problems.append("durability degraded (journaling suspended)")
        health = self.monitor.snapshot() if self.monitor is not None else None
        if health is not None and not health.ready:
            problems.extend(
                f"health: {check.name}" for check in health.problems()
            )
        ready = not problems
        body = {
            "ready": ready,
            "state": self._state,
            "problems": problems,
            "generation": (
                self.publisher.current.generation
                if self.publisher.current is not None
                else None
            ),
            "degraded": bool(health.degraded) if health is not None else False,
        }
        return ready, body

    def liveness(self) -> dict:
        return {"live": True, "state": self._state}

    def health_body(self) -> dict:
        snapshot = (
            self.monitor.snapshot().as_dict()
            if self.monitor is not None
            else {"live": True, "ready": False, "degraded": False, "checks": []}
        )
        snapshot["state"] = self._state
        return snapshot

    def stats_body(self) -> dict:
        body = self.stats.as_dict()
        body["admission"] = self.admission.stats.as_dict()
        body["state"] = self._state
        body["uptime_seconds"] = time.monotonic() - self._started_at
        body["epoch"] = self.publisher.epoch
        current = self.publisher.current
        body["generation"] = (
            current.generation if current is not None else None
        )
        body["pending_inserts"] = self.admission.pending(CLASS_INSERT)
        body["pending_queries"] = self.admission.pending(CLASS_QUERY)
        return body

    # -- drain ---------------------------------------------------------

    async def drain(self) -> dict:
        """Graceful shutdown: stop admitting, apply the accepted insert
        queue, wait for in-flight readers, checkpoint, close the WAL.

        Idempotent — concurrent callers await the same drain.  Returns
        a report of what was finished vs. abandoned at the grace bound.
        """
        if self._drain_started:
            await self._drained.wait()
            return self._drain_report or {}
        self._drain_started = True
        if self._state == STATE_STARTING:
            # start() observes the flag and finishes the shutdown.
            self._state = STATE_DRAINING
            await self._drained.wait()
            return self._drain_report or {}
        self._state = STATE_DRAINING
        loop = asyncio.get_running_loop()
        deadline = time.monotonic() + self.config.drain_grace_seconds
        report: dict = {"abandoned_inserts": 0, "abandoned_queries": 0}

        # 1. Every insert already admitted must reach the WAL: a 200 we
        #    handed out is a promise the record exists after restart.
        try:
            await asyncio.wait_for(
                self._insert_queue.join(),
                timeout=max(0.01, deadline - time.monotonic()),
            )
        except asyncio.TimeoutError:
            report["abandoned_inserts"] = self._insert_queue.qsize()

        # 2. Stop the writer/supervisor.
        if self._supervisor_task is not None:
            self._supervisor_task.cancel()
            with contextlib.suppress(BaseException):
                await self._supervisor_task

        # 3. Let in-flight readers finish (their deadlines bound this).
        while (
            self.admission.pending(CLASS_QUERY) > 0
            and time.monotonic() < deadline
        ):
            await asyncio.sleep(0.02)
        report["abandoned_queries"] = self.admission.pending(CLASS_QUERY)

        # 4. Checkpoint and close the WAL.
        engine = self.engine
        if engine is not None:
            if (
                self.config.checkpoint_on_drain
                and engine.durable
                and not engine.durability_degraded
            ):
                try:
                    await loop.run_in_executor(
                        self._writer_executor, engine.checkpoint
                    )
                    self.stats.checkpoints_written += 1
                    report["checkpointed"] = True
                except Exception as exc:
                    self.stats.checkpoint_failures += 1
                    report["checkpoint_error"] = repr(exc)
            await loop.run_in_executor(self._writer_executor, engine.close)

        self._writer_executor.shutdown(wait=False)
        self._query_executor.shutdown(wait=False)
        self._state = STATE_STOPPED
        self._drain_report = report
        self._drained.set()
        return report

    async def wait_drained(self) -> None:
        await self._drained.wait()
