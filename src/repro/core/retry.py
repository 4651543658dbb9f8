"""Retries, backoff, circuit breakers, and the core fault-injection hook.

The storage layer talks to infrastructure that fails routinely — disks
fill, writes and fsync return ``EIO``.  This module is the one place
its recovery discipline lives:

* :func:`seeded_draw` — the one seeded uniform draw: retry jitter and
  every fault the :class:`~repro.testing.faultplane.FaultPlane` injects
  hash through it, so a pinned seed reproduces its schedule across runs.
* :class:`RetryPolicy` — bounded exponential backoff with
  **deterministic seeded jitter** (a :func:`seeded_draw` of
  ``(seed, key, attempt)``) and a cooperative per-attempt timeout.
* :class:`CircuitBreaker` — the classic closed / open / half-open
  automaton, keyed per subsystem through :class:`BreakerRegistry`, so a
  persistently failing dependency (the WAL device) is stood down
  instead of being hammered on every call.
* :func:`fire_fault` — the **fault-injection hook**.  Production code
  calls ``fire_fault("wal.append", index=i, attempt=a)`` at each
  hardened fault site; with no hook installed this is one global read
  and a ``None`` check (zero overhead, nothing fires).  The seeded
  :class:`~repro.testing.faultplane.FaultPlane` installs a hook that
  deterministically raises ``OSError`` (``EIO`` / ``ENOSPC``) at those
  sites, which is how the fault-sweep suite proves the
  safety property: under any injected schedule the engine returns
  bit-identical answers or an explicitly flagged degraded one — never
  a silently wrong one.

Like the observability modules, this file imports nothing from the
rest of ``repro`` so every layer can depend on it.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Callable

#: Denominator turning a 64-bit hash prefix into a uniform draw in [0, 1).
_DRAW_SPACE = float(2**64)


def seeded_draw(seed: int, salt: str, key: str) -> float:
    """Uniform [0, 1) draw, a pure function of ``(seed, salt, key)``.

    The first 8 bytes of the blake2b hash of ``f"{seed}|{salt}|{key}"``,
    over 2**64.  The hashed string is part of every pinned schedule:
    changing how a caller spells *salt* or *key* reshuffles the faults
    or jitter of every seed that caller draws for.
    """
    digest = hashlib.blake2b(
        f"{seed}|{salt}|{key}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") / _DRAW_SPACE


# -- fault sites ------------------------------------------------------------
# One constant per hardened fault site; the site string is the contract
# between the production call site and the injection plane.

SITE_WAL_APPEND = "wal.append"
SITE_WAL_FSYNC = "wal.fsync"
SITE_CHECKPOINT_WRITE = "checkpoint.write"

FAULT_SITES = (SITE_WAL_APPEND, SITE_WAL_FSYNC, SITE_CHECKPOINT_WRITE)

# -- fault hook -------------------------------------------------------------

_FAULT_HOOK: Callable[[str, dict], None] | None = None


def install_fault_hook(
    hook: Callable[[str, dict], None] | None,
) -> Callable[[str, dict], None] | None:
    """Install *hook* as the process-wide fault hook; return the previous.

    The hook is called as ``hook(site, ids)`` at every hardened fault
    site and injects a fault by raising.  Pass ``None`` to uninstall.
    """
    global _FAULT_HOOK
    previous = _FAULT_HOOK
    _FAULT_HOOK = hook
    return previous


def fault_hook_installed() -> bool:
    """True when a fault-injection hook is currently installed."""
    return _FAULT_HOOK is not None


def fire_fault(site: str, **ids) -> None:
    """Give the installed fault hook (if any) a chance to inject at *site*.

    No-op — one global read — when nothing is installed, so hardened
    production paths pay nothing on the clean path (asserted by the X12
    benchmark).
    """
    hook = _FAULT_HOOK
    if hook is not None:
        hook(site, ids)


# -- retry policy -----------------------------------------------------------


class RetryExhausted(Exception):
    """Every attempt a :class:`RetryPolicy` allowed has failed.

    Carries the last underlying exception as ``__cause__`` and the
    attempt count; callers that can degrade catch this, callers that
    cannot let it propagate.
    """

    def __init__(self, key: str, attempts: int, last: BaseException):
        super().__init__(
            f"{key or 'operation'} failed after {attempts} attempt(s): "
            f"{last!r}"
        )
        self.key = key
        self.attempts = attempts
        self.last = last


class AttemptTimeout(Exception):
    """A retried attempt returned, but only after its per-attempt budget.

    Cooperative, like the resilience layer's call timeouts: pure-Python
    code cannot be preempted, so the over-budget result is discarded
    after the fact and the attempt treated as failed.
    """


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded, deterministic retry schedule for one subsystem.

    Attributes:
        max_attempts: Total tries (first call included).  1 = no retry.
        base_delay_seconds: Backoff before the first retry; doubles per
            retry up to :attr:`max_delay_seconds`.
        max_delay_seconds: Upper bound on any single backoff sleep.
        jitter: Fraction of each backoff randomized *deterministically*:
            the sleep is scaled into ``[1 - jitter, 1]`` by a
            :func:`seeded_draw` of ``(seed, key, attempt)``.  0 disables
            jitter.
        seed: Root of the jitter draws — a pinned seed reproduces the
            exact schedule.
        attempt_timeout_seconds: Cooperative per-attempt budget: an
            attempt that returns after this long is treated as failed
            (and retried) instead of trusted.  None = no budget.
        retryable: Exception types worth retrying; anything else
            propagates immediately.
    """

    max_attempts: int = 3
    base_delay_seconds: float = 0.005
    max_delay_seconds: float = 0.25
    jitter: float = 0.5
    seed: int = 0
    attempt_timeout_seconds: float | None = None
    retryable: tuple[type[BaseException], ...] = (OSError,)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_delay_seconds < 0 or self.max_delay_seconds < 0:
            raise ValueError("backoff delays must be >= 0")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")
        if (
            self.attempt_timeout_seconds is not None
            and self.attempt_timeout_seconds < 0
        ):
            raise ValueError("attempt_timeout_seconds must be >= 0")

    def backoff_seconds(self, attempt: int, key: str = "") -> float:
        """Deterministic sleep before retry *attempt* (1-based)."""
        raw = min(
            self.max_delay_seconds,
            self.base_delay_seconds * (2 ** max(0, attempt - 1)),
        )
        if not self.jitter or raw <= 0:
            return raw
        draw = seeded_draw(self.seed, key, str(attempt))
        return raw * (1.0 - self.jitter * draw)

    def call(
        self,
        fn: Callable[[int], object],
        *,
        key: str = "",
        retry_on: Callable[[BaseException], bool] | None = None,
        breaker: "CircuitBreaker | None" = None,
        metrics=None,
        subsystem: str = "",
        sleep: Callable[[float], None] = time.sleep,
    ):
        """Run ``fn(attempt)`` under this policy; return its value.

        Args:
            fn: The attempt body, called with the 0-based attempt number
                (call sites thread it into :func:`fire_fault` so
                injected faults can differ per attempt).
            key: Stable identity of the operation — seeds the jitter and
                names the failure in :class:`RetryExhausted`.
            retry_on: Extra predicate over a retryable exception; return
                False to stop retrying it (e.g. ``ENOSPC`` is an
                ``OSError`` but retrying a full disk is pointless).
            breaker: Optional circuit breaker observing this call:
                consulted before the first attempt (an open breaker
                fails fast with :class:`RetryExhausted`), told about the
                final success/failure.
            metrics: Optional metrics registry; each *retry* (not the
                first attempt) increments
                ``repro_retries_total{subsystem=...}``.
            subsystem: Label for the retry counter.
            sleep: Injectable for tests.

        Raises:
            RetryExhausted: All attempts failed with retryable errors
                (or the breaker was open).
            BaseException: A non-retryable exception, unchanged, from
                the failing attempt.
        """
        if breaker is not None and not breaker.allow():
            raise RetryExhausted(
                key, 0, BreakerOpen(breaker.name or subsystem or key)
            )
        last: BaseException | None = None
        timeout = self.attempt_timeout_seconds
        for attempt in range(self.max_attempts):
            if attempt:
                if metrics is not None and metrics.enabled:
                    metrics.counter(
                        "repro_retries_total", subsystem=subsystem or key
                    ).inc()
                sleep(self.backoff_seconds(attempt, key=key))
            started = time.perf_counter() if timeout is not None else 0.0
            try:
                value = fn(attempt)
            except self.retryable as exc:
                if retry_on is not None and not retry_on(exc):
                    if breaker is not None:
                        breaker.record_failure()
                    raise
                last = exc
                continue
            if (
                timeout is not None
                and time.perf_counter() - started > timeout
            ):
                last = AttemptTimeout(
                    f"{key or 'attempt'} exceeded {timeout}s budget "
                    f"(attempt {attempt})"
                )
                continue
            if breaker is not None:
                breaker.record_success()
            return value
        if breaker is not None:
            breaker.record_failure()
        raise RetryExhausted(key, self.max_attempts, last) from last


# -- circuit breaker --------------------------------------------------------

STATE_CLOSED = "closed"
STATE_HALF_OPEN = "half_open"
STATE_OPEN = "open"

#: Numeric encoding exported through the ``repro_breaker_state`` gauge.
BREAKER_STATE_CODES = {
    STATE_CLOSED: 0.0,
    STATE_HALF_OPEN: 1.0,
    STATE_OPEN: 2.0,
}


class BreakerOpen(Exception):
    """A call was refused because its subsystem's breaker is open."""

    def __init__(self, name: str):
        super().__init__(f"circuit breaker {name!r} is open")
        self.name = name


class CircuitBreaker:
    """Closed / open / half-open failure automaton for one subsystem.

    * **closed** — calls flow; :attr:`failure_threshold` *consecutive*
      failures trip the breaker open (a success resets the streak).
    * **open** — calls are refused (:meth:`allow` is False) until
      :attr:`recovery_seconds` have elapsed, then one probe is let
      through (half-open).
    * **half-open** — :attr:`half_open_successes` consecutive successes
      close the breaker; any failure re-opens it and restarts the
      recovery clock.

    The clock is injectable so tests drive transitions without real
    waiting.  Thread-unsafe by design (the engine is single-writer).
    """

    def __init__(
        self,
        name: str = "",
        failure_threshold: int = 5,
        recovery_seconds: float = 60.0,
        half_open_successes: int = 1,
        clock: Callable[[], float] = time.monotonic,
    ):
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if recovery_seconds < 0:
            raise ValueError("recovery_seconds must be >= 0")
        if half_open_successes < 1:
            raise ValueError("half_open_successes must be >= 1")
        self.name = name
        self.failure_threshold = failure_threshold
        self.recovery_seconds = recovery_seconds
        self.half_open_successes = half_open_successes
        self._clock = clock
        self._state = STATE_CLOSED
        self._failure_streak = 0
        self._probe_successes = 0
        self._opened_at = 0.0
        self.failures_total = 0
        self.trips_total = 0

    @property
    def state(self) -> str:
        """Current state, recovery-clock transitions applied."""
        if (
            self._state == STATE_OPEN
            and self._clock() - self._opened_at >= self.recovery_seconds
        ):
            self._state = STATE_HALF_OPEN
            self._probe_successes = 0
        return self._state

    @property
    def state_code(self) -> float:
        return BREAKER_STATE_CODES[self.state]

    def allow(self) -> bool:
        """Whether a call may proceed right now (open = fail fast)."""
        return self.state != STATE_OPEN

    def record_success(self) -> None:
        if self.state == STATE_HALF_OPEN:
            self._probe_successes += 1
            if self._probe_successes >= self.half_open_successes:
                self._state = STATE_CLOSED
                self._failure_streak = 0
        else:
            self._failure_streak = 0

    def record_failure(self) -> None:
        self.failures_total += 1
        state = self.state
        if state == STATE_HALF_OPEN:
            self._trip()
        else:
            self._failure_streak += 1
            if self._failure_streak >= self.failure_threshold:
                self._trip()

    def _trip(self) -> None:
        self._state = STATE_OPEN
        self._opened_at = self._clock()
        self._failure_streak = 0
        self._probe_successes = 0
        self.trips_total += 1

    def reset(self) -> None:
        """Force the breaker closed and clear its streaks (tests)."""
        self._state = STATE_CLOSED
        self._failure_streak = 0
        self._probe_successes = 0


class BreakerRegistry:
    """Process-wide named circuit breakers, created on first use.

    The health monitor reads :meth:`states` for its snapshot and the
    ``repro_breaker_state`` gauge export; subsystems fetch their
    breaker with :meth:`breaker` (constructor kwargs apply only on
    first creation).
    """

    def __init__(self) -> None:
        self._breakers: dict[str, CircuitBreaker] = {}

    def breaker(self, name: str, **kwargs) -> CircuitBreaker:
        found = self._breakers.get(name)
        if found is None:
            found = self._breakers[name] = CircuitBreaker(name=name, **kwargs)
        return found

    def states(self) -> dict[str, str]:
        """``{name: state}`` for every registered breaker."""
        return {name: b.state for name, b in sorted(self._breakers.items())}

    def __iter__(self):
        return iter(sorted(self._breakers.items()))

    def reset(self) -> None:
        """Close every breaker and clear its streaks (tests)."""
        for breaker in self._breakers.values():
            breaker.reset()

    def clear(self) -> None:
        """Drop every registered breaker (tests)."""
        self._breakers.clear()


#: The default process-wide registry; subsystems and the health monitor
#: share it unless handed an explicit one.
BREAKERS = BreakerRegistry()
