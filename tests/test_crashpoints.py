"""Crash-point injection sweep: recovery must equal prefix replay.

The acceptance contract for the durability layer: for a seeded stream,
truncating the WAL at **every** entry boundary (and inside entries)
recovers to exactly the state of replaying the surviving inserts —
same groups, weights, version and dead letters — with ``audit()``
passing on every recovered state (``restore`` runs it before accepting).
"""

import random

import pytest

from repro.predicates.base import FunctionPredicate, PredicateLevel
from repro.testing.crashpoints import (
    CheckpointCrashPoint,
    enumerate_crash_points,
    run_checkpoint_crash_sweep,
    run_crash_sweep,
    simulate_checkpoint_crash,
    write_stream,
)
from tests.conftest import shared_word_predicate


def poison_keys(record):
    if record["name"] == "poison":
        raise ValueError("poisoned keying")
    return [record["name"]]


def make_levels():
    sufficient = FunctionPredicate(
        evaluate_fn=lambda a, b: a["name"] == b["name"],
        keys_fn=poison_keys,
        name="exact-name-poisonable",
        key_implies_match=True,
    )
    return [PredicateLevel(sufficient, shared_word_predicate())]


def seeded_events(n, seed, poison_rate=0.02):
    rng = random.Random(seed)
    events = []
    for _ in range(n):
        if rng.random() < poison_rate:
            name = "poison"
        else:
            name = f"entity-{rng.randrange(40)}"
        events.append(({"name": name}, float(rng.randrange(1, 5))))
    return events


def assert_all_ok(results):
    failures = [r for r in results if not r.ok]
    assert not failures, (
        f"{len(failures)}/{len(results)} crash points failed; first: "
        f"{failures[0]}"
    )


@pytest.mark.timeout(300)
def test_500_insert_sweep_every_boundary(tmp_path):
    events = seeded_events(500, seed=42)
    results = run_crash_sweep(
        make_levels,
        events,
        tmp_path / "state",
        tmp_path / "scratch",
        segment_bytes=4096,
    )
    assert_all_ok(results)
    boundaries = [r for r in results if not r.point.mid_entry]
    torn = [r for r in results if r.point.mid_entry]
    # Every one of the 500 entry boundaries is covered (plus the
    # segment-initial offsets), and every segment got torn-write cuts.
    assert len({r.point.surviving_entries for r in boundaries}) == 501
    segments = {r.point.segment for r in results}
    assert len(segments) > 1
    for segment in segments:
        assert (
            len([r for r in torn if r.point.segment == segment]) >= 3
        ), f"segment {segment} has fewer than 3 mid-entry crash points"


@pytest.mark.timeout(300)
def test_sweep_with_checkpoints_and_rotation(tmp_path):
    events = seeded_events(200, seed=7, poison_rate=0.05)
    results = run_crash_sweep(
        make_levels,
        events,
        tmp_path / "state",
        tmp_path / "scratch",
        segment_bytes=2048,
        checkpoint_every=60,
    )
    assert_all_ok(results)
    # Checkpoints prune subsumed segments, so the sweep only sees the
    # retained suffix of the log — but every surviving boundary works.
    assert results


def test_enumerate_covers_all_entries(tmp_path):
    events = seeded_events(50, seed=3, poison_rate=0.0)
    write_stream(make_levels, events, tmp_path / "state", segment_bytes=1024)
    points = enumerate_crash_points(tmp_path / "state")
    boundary_survivals = {
        p.surviving_entries for p in points if not p.mid_entry
    }
    assert boundary_survivals == set(range(51))


@pytest.mark.timeout(300)
def test_checkpoint_crash_sweep_all_recover(tmp_path):
    events = seeded_events(120, seed=5)
    results = run_checkpoint_crash_sweep(
        make_levels,
        events,
        tmp_path / "state",
        tmp_path / "scratch",
        checkpoint_every=25,
    )
    assert_all_ok(results)
    # Four checkpoints (25..100), each crashed at three tmp offsets:
    # empty, half-written, and fully-written-but-unrenamed.
    assert len(results) == 12
    assert {r.point.entries for r in results} == {25, 50, 75, 100}
    assert {r.point.complete for r in results} == {True, False}


def test_checkpoint_crash_recovery_prefers_last_complete(tmp_path):
    events = seeded_events(120, seed=9)
    results = run_checkpoint_crash_sweep(
        make_levels,
        events,
        tmp_path / "state",
        tmp_path / "scratch",
        checkpoint_every=30,
    )
    assert_all_ok(results)
    # Crashing the first checkpoint leaves no complete one: recovery
    # replays the WAL from scratch.  Crashing a later one must seed
    # from its predecessor — the sweep itself asserts both, so here we
    # just confirm both shapes were exercised.
    assert any(r.point.entries == 30 for r in results)
    assert any(r.point.entries > 30 for r in results)


def test_simulate_checkpoint_crash_leaves_only_the_tmp(tmp_path):
    events = seeded_events(60, seed=2, poison_rate=0.0)
    write_stream(
        make_levels,
        events,
        tmp_path / "state",
        segment_bytes=1024,
        checkpoint_every=20,
        keep_checkpoints=len(events),
        prune=False,
    )
    checkpoint = tmp_path / "state" / "checkpoint-000000000020.ckpt"
    size = checkpoint.stat().st_size
    point = CheckpointCrashPoint(
        checkpoint=checkpoint.name,
        entries=20,
        tmp_bytes=size // 2,
        complete=False,
    )
    clone = simulate_checkpoint_crash(
        tmp_path / "state", tmp_path / "scratch", point
    )
    assert not (clone / checkpoint.name).exists()
    tmp_file = clone / (checkpoint.name + ".tmp")
    assert tmp_file.stat().st_size == size // 2
    # The WAL rewound to exactly the crash moment's 20 entries.
    from repro.core.persistence import wal_entry_spans

    total = sum(len(spans) for _, _, spans in wal_entry_spans(clone))
    assert total == 20


@pytest.mark.timeout(300)
def test_columnar_store_sweep_with_checkpoints(tmp_path):
    # Every checkpoint writes an array sidecar; a crash anywhere in the
    # WAL (sidecars of vanished checkpoints included — they are written
    # first) must recover identically.
    events = seeded_events(200, seed=11, poison_rate=0.05)
    results = run_crash_sweep(
        make_levels,
        events,
        tmp_path / "state",
        tmp_path / "scratch",
        segment_bytes=2048,
        checkpoint_every=60,
    )
    assert_all_ok(results)
    assert any(
        p.name.startswith("columnar-")
        for p in (tmp_path / "state").iterdir()
    )


@pytest.mark.timeout(300)
def test_columnar_checkpoint_crash_sweep_all_recover(tmp_path):
    events = seeded_events(120, seed=13)
    results = run_checkpoint_crash_sweep(
        make_levels,
        events,
        tmp_path / "state",
        tmp_path / "scratch",
        checkpoint_every=30,
    )
    assert_all_ok(results)
    assert {r.point.entries for r in results} == {30, 60, 90, 120}
    # Each interrupted checkpoint left its sidecar (written first).
    assert len(list((tmp_path / "state").glob("columnar-*.col"))) == 4
