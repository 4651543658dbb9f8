"""Health signals: one readiness/liveness view over the fault machinery.

The retry layer (:mod:`repro.core.retry`), the hardened storage layer
(:mod:`repro.core.persistence`) and the streaming engine each keep
their own degradation state — breaker automata, the journaling-
suspended latch, dead-letter pressure.  :class:`HealthMonitor` folds
them into a single :class:`HealthSnapshot` an operator (or the query
service) can poll:

* **live** — the process can still compute answers at all.  Nothing in
  the degradation machinery makes the engine un-live: that is the point
  of it.
* **ready** — the engine may serve queries and trust its own state.  A
  failed state audit is the one condition that clears it: serving from
  a closure that violates its invariants is exactly the "silently
  wrong" answer the fault plane exists to rule out.
* **degraded** — answers are still correct but some capability is stood
  down: journaling suspended (``ENOSPC``), a breaker open, dead letters
  piling up.  Every degradation is itemized in
  :attr:`HealthSnapshot.checks`.

:meth:`HealthMonitor.publish` exports the same view through a
:class:`~repro.observability.MetricsRegistry` (``repro_breaker_state``,
``repro_health_ready`` and friends) so the existing Prometheus path
carries it; the CLI ``health`` verb prints it and exits non-zero when
not ready.
"""

from __future__ import annotations

from dataclasses import dataclass

from .retry import BREAKERS, BREAKER_STATE_CODES, STATE_CLOSED, BreakerRegistry


@dataclass(frozen=True)
class HealthCheck:
    """One named health signal.

    Attributes:
        name: Stable dotted identifier (``durability.journaling``,
            ``breaker.storage.wal``...).
        ok: False when this signal is degrading the engine.
        detail: One human-readable line of state.
    """

    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class HealthSnapshot:
    """Point-in-time readiness/liveness aggregate (see module docs)."""

    live: bool
    ready: bool
    degraded: bool
    checks: tuple[HealthCheck, ...]

    def problems(self) -> list[HealthCheck]:
        return [check for check in self.checks if not check.ok]

    def as_dict(self) -> dict:
        return {
            "live": self.live,
            "ready": self.ready,
            "degraded": self.degraded,
            "checks": [
                {"name": c.name, "ok": c.ok, "detail": c.detail}
                for c in self.checks
            ],
        }


#: Dead-letter fill fraction above which the quarantine is flagged.
DEAD_LETTER_PRESSURE_THRESHOLD = 0.5


class HealthMonitor:
    """Aggregate breaker, durability, and quarantine state.

    Args:
        engine: Optional :class:`~repro.core.incremental.IncrementalTopK`
            whose durability/quarantine state should be included (duck-
            typed: anything with ``durability_status()``,
            ``dead_letters`` and ``dead_letters_dropped`` works).
        breakers: Breaker registry to report; defaults to the global
            :data:`~repro.core.retry.BREAKERS`.
        audit: Run the engine's (O(n)) :meth:`audit` on every snapshot
            and clear readiness on problems.  Off by default — restores
            already audit, and a polled health endpoint should be cheap.
        extra_checks: Callables contributing further
            :class:`HealthCheck` lists to every snapshot — the query
            service registers its writer/admission/lifecycle signals
            here.  A check named with a ``critical.`` prefix clears
            readiness when not ok (everything else only marks the
            snapshot degraded).
    """

    def __init__(
        self,
        engine=None,
        breakers: BreakerRegistry | None = None,
        audit: bool = False,
        extra_checks=None,
    ):
        self.engine = engine
        self.breakers = breakers if breakers is not None else BREAKERS
        self.audit = audit
        self.extra_checks = list(extra_checks) if extra_checks else []

    def snapshot(self) -> HealthSnapshot:
        checks: list[HealthCheck] = []
        ready = True

        for name, state in self.breakers.states().items():
            checks.append(
                HealthCheck(
                    name=f"breaker.{name}",
                    ok=state == STATE_CLOSED,
                    detail=f"state={state}",
                )
            )

        engine = self.engine
        if engine is not None:
            status = engine.durability_status()
            if status.get("durable"):
                degraded = bool(status.get("degraded"))
                checks.append(
                    HealthCheck(
                        name="durability.journaling",
                        ok=not degraded,
                        detail=(
                            f"suspended ({status.get('degraded_reason')}); "
                            f"{status.get('appends_suspended')} entries "
                            f"not journaled"
                            if degraded
                            else f"journaling at entry "
                            f"{status.get('entries_journaled')}"
                        ),
                    )
                )
                failed = int(status.get("checkpoints_failed") or 0)
                checks.append(
                    HealthCheck(
                        name="durability.checkpoints",
                        ok=failed == 0,
                        detail=(
                            f"{failed} failed write(s), prior checkpoint "
                            f"retained"
                            if failed
                            else "ok"
                        ),
                    )
                )
                wal_state = status.get("breaker_state", STATE_CLOSED)
                checks.append(
                    HealthCheck(
                        name="breaker.storage.wal",
                        ok=wal_state == STATE_CLOSED,
                        detail=f"state={wal_state}",
                    )
                )

            letters = len(engine.dead_letters)
            limit = getattr(engine, "_dead_letter_limit", 0) or 1
            dropped = engine.dead_letters_dropped
            pressure = letters / limit
            checks.append(
                HealthCheck(
                    name="stream.dead_letters",
                    ok=(
                        pressure < DEAD_LETTER_PRESSURE_THRESHOLD
                        and dropped == 0
                    ),
                    detail=(
                        f"{letters}/{limit} quarantined, {dropped} dropped"
                    ),
                )
            )

            if self.audit:
                problems = engine.audit(strict=False)
                checks.append(
                    HealthCheck(
                        name="state.audit",
                        ok=not problems,
                        detail="; ".join(problems) if problems else "passed",
                    )
                )
                if problems:
                    ready = False

        for contribute in self.extra_checks:
            for check in contribute():
                checks.append(check)
                if not check.ok and check.name.startswith("critical."):
                    ready = False

        degraded = any(not check.ok for check in checks)
        return HealthSnapshot(
            live=True, ready=ready, degraded=degraded, checks=tuple(checks)
        )

    def publish(self, metrics) -> HealthSnapshot:
        """Take a snapshot and export it through *metrics* as gauges."""
        snapshot = self.snapshot()
        if metrics is None or not getattr(metrics, "enabled", False):
            return snapshot
        metrics.describe(
            "repro_breaker_state",
            "Circuit breaker state (0=closed, 1=half-open, 2=open)",
        )
        metrics.describe("repro_health_ready", "1 when the engine is ready")
        metrics.describe(
            "repro_health_degraded", "1 when any capability is stood down"
        )
        for name, state in self.breakers.states().items():
            metrics.gauge("repro_breaker_state", subsystem=name).set(
                BREAKER_STATE_CODES[state]
            )
        engine = self.engine
        if engine is not None:
            status = engine.durability_status()
            if status.get("durable"):
                metrics.gauge("repro_durability_degraded").set(
                    1.0 if status.get("degraded") else 0.0
                )
                metrics.gauge("repro_breaker_state", subsystem="storage.wal").set(
                    BREAKER_STATE_CODES[
                        status.get("breaker_state", STATE_CLOSED)
                    ]
                )
            limit = getattr(engine, "_dead_letter_limit", 0) or 1
            metrics.gauge("repro_dead_letter_pressure").set(
                len(engine.dead_letters) / limit
            )
        metrics.gauge("repro_health_ready").set(1.0 if snapshot.ready else 0.0)
        metrics.gauge("repro_health_degraded").set(
            1.0 if snapshot.degraded else 0.0
        )
        return snapshot
