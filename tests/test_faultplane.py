"""Unit tests for the fault plane (repro.testing.faultplane): its seeded
draws, rate validation, storage-site hook and lifecycle."""

import errno

import pytest

from repro.core.retry import (
    BREAKERS,
    SITE_CHECKPOINT_WRITE,
    SITE_WAL_APPEND,
    SITE_WAL_FSYNC,
    RetryPolicy,
    fault_hook_installed,
    fire_fault,
    install_fault_hook,
)
from repro.observability import MetricsRegistry
from repro.predicates.base import PredicateLevel
from repro.testing import FaultPlane
from tests.conftest import exact_name_predicate, shared_word_predicate


def level():
    return [PredicateLevel(exact_name_predicate(), shared_word_predicate())]


def test_rate_validation():
    with pytest.raises(ValueError):
        FaultPlane(wal_append_rate=1.5)
    with pytest.raises(ValueError):
        FaultPlane(wal_fsync_rate=-0.1)
    with pytest.raises(ValueError):
        FaultPlane(wal_enospc_rate=2.0)


def test_pinned_seeds_keep_their_schedules():
    # Literal draws: a pinned seed must keep its fault and jitter
    # schedule across refactors, so the hashed strings may not change.
    plane = FaultPlane(seed=7)
    assert plane.record_draw("S0:raise", 3, 11) == 0.9113636526024427
    assert plane.record_draw("S0:raise", 11, 3) == 0.9113636526024427
    assert plane.record_draw("N0:keying", 4) == 0.14758315432821892
    assert (
        plane.draw("wal.append", {"index": 5, "attempt": 0})
        == 0.24269658518456233
    )
    assert (
        FaultPlane(seed=7, persistent=True).draw(
            "wal.append", {"index": 5, "attempt": 2}
        )
        == 0.5030322509127855
    )
    policy = RetryPolicy(
        base_delay_seconds=0.01, max_delay_seconds=0.05, jitter=0.5, seed=3
    )
    assert policy.backoff_seconds(2, key="wal.append") == 0.017562501794913397


def test_draw_is_deterministic_and_order_independent():
    plane = FaultPlane(seed=11)
    a = plane.draw("wal.append", {"index": 5, "attempt": 0})
    b = plane.draw("wal.append", {"attempt": 0, "index": 5})
    assert a == b == FaultPlane(seed=11).draw(
        "wal.append", {"index": 5, "attempt": 0}
    )
    assert 0.0 <= a < 1.0
    assert plane.draw("wal.append", {"index": 6, "attempt": 0}) != a
    assert FaultPlane(seed=12).draw(
        "wal.append", {"index": 5, "attempt": 0}
    ) != a


def test_draw_is_roughly_uniform():
    plane = FaultPlane(seed=0)
    draws = [plane.record_draw("u", i) for i in range(2000)]
    assert all(0.0 <= d < 1.0 for d in draws)
    below = sum(d < 0.2 for d in draws) / len(draws)
    assert 0.15 < below < 0.25


def test_stall_pair_matches_either_order():
    [stalled] = FaultPlane().wrap_levels(level(), stall_pair=(4, 9))
    assert stalled.sufficient.is_stall_pair(9, 4)
    assert stalled.necessary.is_stall_pair(4, 9)
    assert not stalled.sufficient.is_stall_pair(4, 5)
    [clean] = FaultPlane().wrap_levels(level())
    assert not clean.sufficient.is_stall_pair(4, 9)


def test_persistent_plane_ignores_attempt():
    transient = FaultPlane(seed=3)
    assert transient.draw("s", {"index": 1, "attempt": 0}) != transient.draw(
        "s", {"index": 1, "attempt": 1}
    )
    persistent = FaultPlane(seed=3, persistent=True)
    assert persistent.draw("s", {"index": 1, "attempt": 0}) == persistent.draw(
        "s", {"index": 1, "attempt": 1}
    )


def _first_faulting_ids(plane, site, salt=None, rate=0.5):
    """First ids dict whose draw falls under *rate* for *site*."""
    for index in range(1000):
        ids = {"index": index, "attempt": 0}
        if plane.draw(salt or site, ids) < rate:
            return ids
    raise AssertionError("no faulting draw in 1000 tries")


def test_wal_append_eio_and_enospc_injection():
    plane = FaultPlane(seed=5, wal_append_rate=0.5)
    ids = _first_faulting_ids(plane, SITE_WAL_APPEND)
    with pytest.raises(OSError) as exc_info:
        plane.hook(SITE_WAL_APPEND, ids)
    assert exc_info.value.errno == errno.EIO
    assert plane.injected[SITE_WAL_APPEND] == 1

    enospc = FaultPlane(seed=5, wal_enospc_rate=0.5)
    ids = _first_faulting_ids(enospc, SITE_WAL_APPEND, salt="wal.enospc")
    with pytest.raises(OSError) as exc_info:
        enospc.hook(SITE_WAL_APPEND, ids)
    assert exc_info.value.errno == errno.ENOSPC


def test_enospc_wins_over_eio_on_same_append():
    plane = FaultPlane(seed=5, wal_append_rate=1.0, wal_enospc_rate=1.0)
    with pytest.raises(OSError) as exc_info:
        plane.hook(SITE_WAL_APPEND, {"index": 0, "attempt": 0})
    assert exc_info.value.errno == errno.ENOSPC


@pytest.mark.parametrize(
    ("site", "rate_name", "expected_errno"),
    [
        (SITE_WAL_FSYNC, "wal_fsync_rate", errno.EIO),
        (SITE_CHECKPOINT_WRITE, "checkpoint_rate", errno.EIO),
    ],
)
def test_site_injection_errno(site, rate_name, expected_errno):
    plane = FaultPlane(seed=1, **{rate_name: 1.0})
    with pytest.raises(OSError) as exc_info:
        plane.hook(site, {"index": 0, "attempt": 0})
    assert exc_info.value.errno == expected_errno
    assert plane.injected[site] == 1
    # Zero rate: same ids, nothing fires.
    clean = FaultPlane(seed=1)
    clean.hook(site, {"index": 0, "attempt": 0})
    assert clean.total_injected == 0


def test_active_installs_and_restores_hook():
    plane = FaultPlane(seed=2, wal_append_rate=1.0)
    sentinel_calls = []
    previous = install_fault_hook(lambda s, i: sentinel_calls.append(s))
    try:
        with plane.active():
            assert fault_hook_installed()
            with pytest.raises(OSError):
                fire_fault(SITE_WAL_APPEND, index=0, attempt=0)
        # The sentinel hook is back after the block.
        fire_fault(SITE_WAL_APPEND, index=0, attempt=0)
        assert sentinel_calls == [SITE_WAL_APPEND]
    finally:
        install_fault_hook(previous)


def test_active_resets_breakers_both_ways():
    breaker = BREAKERS.breaker("faultplane-test", failure_threshold=1)
    breaker.record_failure()
    assert not breaker.allow()
    with FaultPlane(seed=0).active():
        assert breaker.allow()
        breaker.record_failure()
    assert breaker.allow()


def test_active_attaches_metrics_to_injections():
    metrics = MetricsRegistry()
    plane = FaultPlane(seed=4, wal_fsync_rate=1.0)
    with plane.active(metrics=metrics):
        with pytest.raises(OSError):
            fire_fault(SITE_WAL_FSYNC, index=0, attempt=0)
    assert (
        metrics.value(
            "repro_faults_injected_total", site=SITE_WAL_FSYNC, kind="eio"
        )
        == 1.0
    )
    assert plane.total_injected == 1
