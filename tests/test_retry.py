"""Unit tests for the retry/backoff/breaker layer (repro.core.retry)."""

import pytest

from repro.core.retry import (
    BREAKER_STATE_CODES,
    FAULT_SITES,
    STATE_CLOSED,
    STATE_HALF_OPEN,
    STATE_OPEN,
    AttemptTimeout,
    BreakerOpen,
    BreakerRegistry,
    CircuitBreaker,
    RetryExhausted,
    RetryPolicy,
    fault_hook_installed,
    fire_fault,
    install_fault_hook,
)
from repro.observability import MetricsRegistry


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


# -- fault hook -------------------------------------------------------------


def test_fire_fault_without_hook_is_noop():
    assert not fault_hook_installed()
    fire_fault("wal.append", index=3, attempt=0)  # must not raise


def test_install_fault_hook_returns_previous_and_fires():
    calls = []
    previous = install_fault_hook(lambda site, ids: calls.append((site, ids)))
    try:
        assert previous is None
        assert fault_hook_installed()
        fire_fault("wal.append", index=7, attempt=1)
        assert calls == [("wal.append", {"index": 7, "attempt": 1})]
    finally:
        install_fault_hook(None)
    assert not fault_hook_installed()


def test_fault_sites_are_distinct():
    assert len(set(FAULT_SITES)) == len(FAULT_SITES) == 3


# -- RetryPolicy ------------------------------------------------------------


def test_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(base_delay_seconds=-1)
    with pytest.raises(ValueError):
        RetryPolicy(jitter=1.5)
    with pytest.raises(ValueError):
        RetryPolicy(attempt_timeout_seconds=-0.1)


def test_backoff_is_bounded_and_deterministic():
    policy = RetryPolicy(
        base_delay_seconds=0.01, max_delay_seconds=0.05, jitter=0.5, seed=3
    )
    delays = [policy.backoff_seconds(a, key="wal.append") for a in (1, 2, 3, 4)]
    assert delays == [
        policy.backoff_seconds(a, key="wal.append") for a in (1, 2, 3, 4)
    ]
    for attempt, delay in enumerate(delays, start=1):
        raw = min(0.05, 0.01 * 2 ** (attempt - 1))
        assert raw * 0.5 <= delay <= raw
    # A different seed reshuffles the jitter but not the bounds.
    other = RetryPolicy(
        base_delay_seconds=0.01, max_delay_seconds=0.05, jitter=0.5, seed=4
    )
    assert [
        other.backoff_seconds(a, key="wal.append") for a in (1, 2, 3, 4)
    ] != delays


def test_backoff_without_jitter_is_pure_exponential():
    policy = RetryPolicy(
        base_delay_seconds=0.01, max_delay_seconds=0.04, jitter=0.0
    )
    assert [policy.backoff_seconds(a) for a in (1, 2, 3, 4)] == [
        0.01,
        0.02,
        0.04,
        0.04,
    ]


def test_call_passes_attempt_number_and_succeeds_after_retries():
    policy = RetryPolicy(max_attempts=3, base_delay_seconds=0.0)
    seen = []

    def flaky(attempt):
        seen.append(attempt)
        if attempt < 2:
            raise OSError("transient")
        return "ok"

    assert policy.call(flaky, key="op", sleep=lambda s: None) == "ok"
    assert seen == [0, 1, 2]


def test_call_exhaustion_raises_with_last_cause():
    policy = RetryPolicy(max_attempts=2, base_delay_seconds=0.0)
    boom = OSError("still down")

    def always(attempt):
        raise boom

    with pytest.raises(RetryExhausted) as exc_info:
        policy.call(always, key="op", sleep=lambda s: None)
    assert exc_info.value.attempts == 2
    assert exc_info.value.last is boom
    assert exc_info.value.__cause__ is boom


def test_call_non_retryable_propagates_unchanged():
    policy = RetryPolicy(max_attempts=3)
    with pytest.raises(KeyError):
        policy.call(lambda attempt: (_ for _ in ()).throw(KeyError("x")))


def test_call_retry_on_predicate_stops_retrying():
    policy = RetryPolicy(max_attempts=3, base_delay_seconds=0.0)
    calls = []

    def fatal(attempt):
        calls.append(attempt)
        raise OSError(28, "no space")

    with pytest.raises(OSError):
        policy.call(
            fatal,
            retry_on=lambda exc: exc.errno != 28,
            sleep=lambda s: None,
        )
    assert calls == [0]  # not retried


def test_call_attempt_timeout_discards_late_result():
    policy = RetryPolicy(
        max_attempts=2, base_delay_seconds=0.0, attempt_timeout_seconds=0.0
    )
    with pytest.raises(RetryExhausted) as exc_info:
        policy.call(lambda attempt: "late", sleep=lambda s: None)
    assert isinstance(exc_info.value.last, AttemptTimeout)


def test_call_counts_retries_in_metrics():
    policy = RetryPolicy(max_attempts=3, base_delay_seconds=0.0)
    metrics = MetricsRegistry()

    def flaky(attempt):
        if attempt < 2:
            raise OSError("transient")
        return attempt

    policy.call(
        flaky, metrics=metrics, subsystem="wal", sleep=lambda s: None
    )
    assert metrics.value("repro_retries_total", subsystem="wal") == 2.0


def test_call_open_breaker_fails_fast():
    breaker = CircuitBreaker(name="dep", failure_threshold=1)
    breaker.record_failure()
    assert breaker.state == STATE_OPEN
    policy = RetryPolicy(max_attempts=3)
    calls = []
    with pytest.raises(RetryExhausted) as exc_info:
        policy.call(lambda attempt: calls.append(attempt), breaker=breaker)
    assert calls == []
    assert isinstance(exc_info.value.last, BreakerOpen)


def test_call_records_outcome_on_breaker():
    breaker = CircuitBreaker(name="dep", failure_threshold=2)
    policy = RetryPolicy(max_attempts=1)
    policy.call(lambda attempt: "ok", breaker=breaker)
    assert breaker.state == STATE_CLOSED

    def boom(attempt):
        raise OSError("down")

    for _ in range(2):
        with pytest.raises(RetryExhausted):
            policy.call(boom, breaker=breaker, sleep=lambda s: None)
    assert breaker.state == STATE_OPEN


# -- CircuitBreaker ---------------------------------------------------------


def test_breaker_trips_after_consecutive_failures_only():
    breaker = CircuitBreaker(failure_threshold=3)
    breaker.record_failure()
    breaker.record_failure()
    breaker.record_success()  # resets the streak
    breaker.record_failure()
    breaker.record_failure()
    assert breaker.state == STATE_CLOSED
    breaker.record_failure()
    assert breaker.state == STATE_OPEN
    assert breaker.trips_total == 1
    assert breaker.failures_total == 5


def test_breaker_recovery_clock_half_open_then_close():
    clock = FakeClock()
    breaker = CircuitBreaker(
        failure_threshold=1, recovery_seconds=10.0, clock=clock
    )
    breaker.record_failure()
    assert not breaker.allow()
    clock.advance(9.9)
    assert breaker.state == STATE_OPEN
    clock.advance(0.2)
    assert breaker.state == STATE_HALF_OPEN
    assert breaker.allow()
    breaker.record_success()
    assert breaker.state == STATE_CLOSED


def test_breaker_half_open_failure_retrips():
    clock = FakeClock()
    breaker = CircuitBreaker(
        failure_threshold=1, recovery_seconds=5.0, clock=clock
    )
    breaker.record_failure()
    clock.advance(5.0)
    assert breaker.state == STATE_HALF_OPEN
    breaker.record_failure()
    assert breaker.state == STATE_OPEN
    assert breaker.trips_total == 2
    # The recovery clock restarted at the re-trip.
    clock.advance(4.9)
    assert breaker.state == STATE_OPEN


def test_breaker_infinite_recovery_stays_open():
    clock = FakeClock()
    breaker = CircuitBreaker(
        failure_threshold=1, recovery_seconds=float("inf"), clock=clock
    )
    breaker.record_failure()
    clock.advance(1e9)
    assert breaker.state == STATE_OPEN
    breaker.reset()
    assert breaker.state == STATE_CLOSED


def test_breaker_state_codes():
    breaker = CircuitBreaker(failure_threshold=1)
    assert breaker.state_code == BREAKER_STATE_CODES[STATE_CLOSED] == 0.0
    breaker.record_failure()
    assert breaker.state_code == BREAKER_STATE_CODES[STATE_OPEN] == 2.0


def test_breaker_validation():
    with pytest.raises(ValueError):
        CircuitBreaker(failure_threshold=0)
    with pytest.raises(ValueError):
        CircuitBreaker(recovery_seconds=-1)
    with pytest.raises(ValueError):
        CircuitBreaker(half_open_successes=0)


# -- BreakerRegistry --------------------------------------------------------


def test_registry_get_or_create_and_states():
    registry = BreakerRegistry()
    a = registry.breaker("storage.wal", failure_threshold=2)
    again = registry.breaker("storage.wal", failure_threshold=99)
    assert a is again
    assert a.failure_threshold == 2  # kwargs only apply on first creation
    registry.breaker("example.subsystem")
    assert registry.states() == {
        "example.subsystem": STATE_CLOSED,
        "storage.wal": STATE_CLOSED,
    }
    a.record_failure()
    a.record_failure()
    assert registry.states()["storage.wal"] == STATE_OPEN
    registry.reset()
    assert registry.states()["storage.wal"] == STATE_CLOSED
    registry.clear()
    assert registry.states() == {}


def test_registry_iterates_sorted():
    registry = BreakerRegistry()
    registry.breaker("b")
    registry.breaker("a")
    assert [name for name, _ in registry] == ["a", "b"]
