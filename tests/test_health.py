"""Unit tests for the health monitor (repro.core.health)."""

import pytest

from repro.core import DurabilityPolicy, IncrementalTopK
from repro.core.health import (
    DEAD_LETTER_PRESSURE_THRESHOLD,
    HealthMonitor,
    HealthSnapshot,
)
from repro.core.retry import STATE_CLOSED, STATE_OPEN, BreakerRegistry
from repro.observability import MetricsRegistry
from repro.predicates.base import FunctionPredicate, PredicateLevel


class FakeEngine:
    """Duck-typed engine exposing exactly what HealthMonitor reads."""

    def __init__(
        self,
        durable=True,
        degraded=False,
        degraded_reason=None,
        appends_suspended=0,
        checkpoints_failed=0,
        breaker_state=STATE_CLOSED,
        letters=0,
        limit=10,
        dropped=0,
        audit_problems=(),
    ):
        self._status = {
            "durable": durable,
            "degraded": degraded,
            "degraded_reason": degraded_reason,
            "appends_suspended": appends_suspended,
            "checkpoints_failed": checkpoints_failed,
            "breaker_state": breaker_state,
            "entries_journaled": 42,
        }
        self.dead_letters = [object()] * letters
        self._dead_letter_limit = limit
        self.dead_letters_dropped = dropped
        self._audit_problems = list(audit_problems)

    def durability_status(self):
        return dict(self._status)

    def audit(self, strict=True):
        return list(self._audit_problems)


def check(snapshot: HealthSnapshot, name: str):
    found = [c for c in snapshot.checks if c.name == name]
    assert found, f"no check named {name}: {[c.name for c in snapshot.checks]}"
    return found[0]


def test_empty_monitor_is_live_and_ready():
    snapshot = HealthMonitor(breakers=BreakerRegistry()).snapshot()
    assert snapshot.live and snapshot.ready and not snapshot.degraded
    assert snapshot.checks == ()
    assert snapshot.problems() == []


def test_open_breaker_degrades_but_stays_ready():
    registry = BreakerRegistry()
    registry.breaker("storage.wal", failure_threshold=1).record_failure()
    snapshot = HealthMonitor(breakers=registry).snapshot()
    assert snapshot.live and snapshot.ready and snapshot.degraded
    assert not check(snapshot, "breaker.storage.wal").ok


def test_clean_durable_engine_all_ok():
    snapshot = HealthMonitor(
        FakeEngine(), breakers=BreakerRegistry()
    ).snapshot()
    assert snapshot.ready and not snapshot.degraded
    for name in (
        "durability.journaling",
        "durability.checkpoints",
        "breaker.storage.wal",
        "stream.dead_letters",
    ):
        assert check(snapshot, name).ok, name


def test_suspended_journaling_flags_degraded():
    engine = FakeEngine(
        degraded=True, degraded_reason="ENOSPC", appends_suspended=7
    )
    snapshot = HealthMonitor(engine, breakers=BreakerRegistry()).snapshot()
    assert snapshot.degraded and snapshot.ready
    journaling = check(snapshot, "durability.journaling")
    assert not journaling.ok
    assert "ENOSPC" in journaling.detail
    assert "7" in journaling.detail


def test_failed_checkpoints_and_wal_breaker_flagged():
    engine = FakeEngine(checkpoints_failed=2, breaker_state=STATE_OPEN)
    snapshot = HealthMonitor(engine, breakers=BreakerRegistry()).snapshot()
    assert not check(snapshot, "durability.checkpoints").ok
    assert not check(snapshot, "breaker.storage.wal").ok
    assert snapshot.degraded


@pytest.mark.parametrize(
    ("letters", "dropped", "ok"),
    [
        (0, 0, True),
        (4, 0, True),  # below the pressure threshold
        (5, 0, False),  # at the threshold with limit=10
        (0, 1, False),  # any drop is a flag
    ],
)
def test_dead_letter_pressure(letters, dropped, ok):
    engine = FakeEngine(letters=letters, dropped=dropped, limit=10)
    snapshot = HealthMonitor(engine, breakers=BreakerRegistry()).snapshot()
    assert check(snapshot, "stream.dead_letters").ok is ok
    assert 0 < DEAD_LETTER_PRESSURE_THRESHOLD <= 1


def test_audit_problems_clear_readiness():
    bad = FakeEngine(audit_problems=["group 3 weight mismatch"])
    monitor = HealthMonitor(bad, breakers=BreakerRegistry(), audit=True)
    snapshot = monitor.snapshot()
    assert snapshot.live
    assert not snapshot.ready
    assert not check(snapshot, "state.audit").ok
    # Without audit=True the same engine reports ready.
    assert HealthMonitor(bad, breakers=BreakerRegistry()).snapshot().ready


def test_as_dict_round_trip():
    snapshot = HealthMonitor(
        FakeEngine(degraded=True), breakers=BreakerRegistry()
    ).snapshot()
    payload = snapshot.as_dict()
    assert payload["live"] is True
    assert payload["degraded"] is True
    names = {c["name"] for c in payload["checks"]}
    assert "durability.journaling" in names


def test_publish_exports_gauges():
    registry = BreakerRegistry()
    registry.breaker("example.subsystem", failure_threshold=1).record_failure()
    engine = FakeEngine(degraded=True, letters=3, limit=10)
    metrics = MetricsRegistry()
    snapshot = HealthMonitor(engine, breakers=registry).publish(metrics)
    assert snapshot.degraded
    assert (
        metrics.value("repro_breaker_state", subsystem="example.subsystem")
        == 2.0
    )
    assert metrics.value("repro_breaker_state", subsystem="storage.wal") == 0.0
    assert metrics.value("repro_durability_degraded") == 1.0
    assert metrics.value("repro_dead_letter_pressure") == pytest.approx(0.3)
    assert metrics.value("repro_health_ready") == 1.0
    assert metrics.value("repro_health_degraded") == 1.0


def test_publish_with_disabled_metrics_is_noop():
    snapshot = HealthMonitor(breakers=BreakerRegistry()).publish(None)
    assert snapshot.ready


def _levels():
    exact = FunctionPredicate(
        evaluate_fn=lambda a, b: a["name"] == b["name"],
        keys_fn=lambda r: [r["name"]],
        name="exact-name",
        key_implies_match=True,
    )
    return [PredicateLevel(exact, exact)]


def test_real_durable_engine_snapshot(tmp_path):
    policy = DurabilityPolicy(state_dir=tmp_path / "state")
    engine = IncrementalTopK(_levels(), durability=policy)
    try:
        engine.add({"name": "a"}, 1.0)
        engine.add({"name": "b"}, 2.0)
        monitor = HealthMonitor(engine, breakers=BreakerRegistry(), audit=True)
        snapshot = monitor.snapshot()
        assert snapshot.ready and not snapshot.degraded
        assert check(snapshot, "state.audit").ok
        # Suspend journaling the way an exhausted retry does.
        engine._durable._suspend("injected ENOSPC")
        snapshot = monitor.snapshot()
        assert snapshot.degraded
        assert not check(snapshot, "durability.journaling").ok
    finally:
        engine.close()
