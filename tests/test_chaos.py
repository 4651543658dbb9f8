"""Tests for the fault plane's predicate faults and the headline scenario.

Predicate faults are injected only through ``FaultPlane.wrap_levels``.

The acceptance scenario from the robustness issue: a citation-dataset
query with 20% injected predicate exceptions plus one stalling pair must
come back flagged ``degraded`` (no crash, no hang) with top-K groups
that are a superset-safe approximation — fault fallbacks may merge
*less* than the clean run, never more.
"""

import time

import pytest

from repro.core.incremental import IncrementalTopK
from repro.core.collapse import collapse
from repro.core.pruned_dedup import pruned_dedup
from repro.core.records import GroupSet
from repro.core.resilience import REASON_DEADLINE, ExecutionPolicy, guard_levels
from repro.core.verification import PipelineCounters
from repro.datasets import (
    author_idf,
    author_string_idf,
    generate_citations,
    suggest_min_idf,
)
from repro.experiments import citation_pipeline
from repro.predicates import citation_levels
from repro.predicates.base import Predicate, PredicateLevel
from repro.predicates.blocking import NeighborIndex
from repro.testing import ChaosError, ChaosPredicate, FaultPlane
from tests.conftest import exact_name_predicate, make_store, shared_word_predicate
from tests.test_fault_sweep import refines


def level():
    return [PredicateLevel(exact_name_predicate(), shared_word_predicate())]


def records_ab():
    store = make_store(["ann smith", "ann smyth"])
    return store[0], store[1]


def chaos_predicate(inner=None, **faults):
    """The sufficient-role wrapper ``wrap_levels`` puts around *inner*."""
    inner = inner or shared_word_predicate()
    [wrapped] = FaultPlane().wrap_levels(
        [PredicateLevel(inner, shared_word_predicate())],
        roles="sufficient",
        **faults,
    )
    return wrapped.sufficient


class RecordingPredicate(Predicate):
    """Pass-through wrapper noting every evaluated record-id pair."""

    symmetric = False

    def __init__(self, inner):
        self._inner = inner
        self.name = f"recording[{inner.name}]"
        self.cost = inner.cost
        self.key_implies_match = inner.key_implies_match
        self.pairs = []

    def evaluate(self, a, b):
        self.pairs.append((a.record_id, b.record_id))
        return self._inner.evaluate(a, b)

    def blocking_keys(self, record):
        return self._inner.blocking_keys(record)


class TestFaultPlan:
    def test_draw_is_deterministic_and_order_free(self):
        plane = FaultPlane(seed=11)
        assert plane.record_draw("x", 3, 7) == plane.record_draw("x", 7, 3)
        assert plane.record_draw("x", 3, 7) == FaultPlane(seed=11).record_draw(
            "x", 3, 7
        )
        assert plane.record_draw("x", 3, 7) != plane.record_draw("y", 3, 7)
        assert plane.record_draw("x", 3, 7) != FaultPlane(seed=12).record_draw(
            "x", 3, 7
        )

    def test_rejects_bad_rates(self):
        with pytest.raises(ValueError, match="error_rate"):
            FaultPlane().wrap_levels(level(), error_rate=1.5)
        with pytest.raises(ValueError, match="keying_error_rate"):
            FaultPlane().wrap_levels(level(), keying_error_rate=-0.1)
        with pytest.raises(ValueError, match="stall_seconds"):
            FaultPlane().wrap_levels(level(), stall_seconds=-1.0)


class TestChaosPredicate:
    def test_error_rate_one_always_raises(self):
        a, b = records_ab()
        chaos = chaos_predicate(error_rate=1.0)
        with pytest.raises(ChaosError):
            chaos.evaluate(a, b)

    def test_error_rate_zero_never_raises(self):
        a, b = records_ab()
        chaos = chaos_predicate()
        assert chaos.evaluate(a, b) is True

    def test_same_pair_faults_identically_across_calls(self):
        store = make_store([f"name {i}" for i in range(60)])
        chaos = chaos_predicate(error_rate=0.4)
        outcomes = {}
        for trial in range(2):
            for i in range(0, 60, 2):
                a, b = store[i], store[i + 1]
                try:
                    chaos.evaluate(a, b)
                    result = "ok"
                except ChaosError:
                    result = "raise"
                if trial == 0:
                    outcomes[(i, i + 1)] = result
                else:
                    assert outcomes[(i, i + 1)] == result
        assert set(outcomes.values()) == {"ok", "raise"}

    def test_keying_error_rate_one_always_raises(self):
        store = make_store(["ann smith"])
        chaos = chaos_predicate(keying_error_rate=1.0)
        with pytest.raises(ChaosError, match="keying"):
            chaos.blocking_keys(store[0])

    def test_stall_pair_sleeps(self):
        a, b = records_ab()
        chaos = chaos_predicate(stall_pair=(0, 1), stall_seconds=0.05)
        started = time.perf_counter()
        chaos.evaluate(a, b)
        assert time.perf_counter() - started >= 0.05

    def test_forces_pairwise_verification_and_no_verdict_cache(self):
        chaos = chaos_predicate(exact_name_predicate())
        assert isinstance(chaos, ChaosPredicate)
        assert chaos.key_implies_match is False
        assert chaos.symmetric is False
        assert chaos.inner.key_implies_match is True

    def test_salts_decorrelate_roles(self):
        [both] = FaultPlane(seed=3).wrap_levels(
            [PredicateLevel(shared_word_predicate(), shared_word_predicate())],
            error_rate=0.5,
        )
        s, n = both.sufficient, both.necessary
        assert (s.salt, n.salt) == ("S0", "N0")
        store = make_store([f"x {i}" for i in range(40)])
        differs = False
        for i in range(0, 40, 2):
            outcomes = []
            for chaos in (s, n):
                try:
                    chaos.evaluate(store[i], store[i + 1])
                    outcomes.append("ok")
                except ChaosError:
                    outcomes.append("raise")
            differs = differs or outcomes[0] != outcomes[1]
        assert differs


class TestChaosLevels:
    def test_roles_selectable(self):
        plane = FaultPlane()
        [only_s] = plane.wrap_levels(level(), roles="sufficient")
        assert isinstance(only_s.sufficient, ChaosPredicate)
        assert not isinstance(only_s.necessary, ChaosPredicate)
        [only_n] = plane.wrap_levels(level(), roles="necessary")
        assert not isinstance(only_n.sufficient, ChaosPredicate)
        assert isinstance(only_n.necessary, ChaosPredicate)
        with pytest.raises(ValueError, match="roles"):
            plane.wrap_levels(level(), roles="everything")

    def test_chaos_runs_are_reproducible(self):
        names = [f"e{i % 5} v{i % 5}x{i % 3}" for i in range(50)]
        results = []
        for _ in range(2):
            result = pruned_dedup(
                make_store(names),
                2,
                FaultPlane(seed=21).wrap_levels(level(), error_rate=0.3),
                policy=ExecutionPolicy(),
            )
            results.append(
                (
                    sorted(result.groups.weights()),
                    result.counters.predicate_errors_contained,
                )
            )
        assert results[0] == results[1]
        assert results[0][1] > 0

    def test_chaos_wrapped_levels_stay_scalar_under_a_guard(self):
        # Chaos faults are per-pair draws, so chaos runs must keep the
        # scalar path even when a guard forwards the batch hooks.
        pipeline = citation_pipeline(n_records=200, seed=0, with_scorer=False)
        levels = FaultPlane(seed=0).wrap_levels(pipeline.levels, error_rate=0.05)
        state = ExecutionPolicy().start(PipelineCounters())
        for guarded in guard_levels(levels, state):
            index = NeighborIndex(guarded.necessary, list(pipeline.store))
            assert index.batch_engine is None


def citation_setup(n_records=700, seed=3):
    dataset = generate_citations(n_records=n_records, seed=seed)
    idf = author_idf(dataset.store)
    levels = citation_levels(
        idf, suggest_min_idf(idf), anchor_idf=author_string_idf(dataset.store)
    )
    return dataset, levels


class TestAcceptanceScenario:
    """20% predicate exceptions + one stalling pair on citations."""

    def test_degraded_but_safe_and_bounded(self):
        dataset, levels = citation_setup()
        plane = FaultPlane(seed=7)

        # Dry run (same fault schedule, no stall pair yet) to find a
        # pair the chaos pipeline actually evaluates; injecting the
        # stall there guarantees the stall fires in the real run.
        recorders = [RecordingPredicate(p) for p in (levels[0].sufficient,)]
        probe_levels = plane.wrap_levels(
            [PredicateLevel(recorders[0], levels[0].necessary, name=levels[0].name)]
            + levels[1:],
            error_rate=0.2,
            stall_seconds=1.5,
        )
        pruned_dedup(dataset.store, 5, probe_levels, policy=ExecutionPolicy())
        assert recorders[0].pairs, "probe run evaluated no pairs"
        stall_pair = recorders[0].pairs[0]

        policy = ExecutionPolicy(
            deadline_seconds=1.0,
            call_timeout_seconds=0.25,
            on_error="degrade",
        )
        started = time.perf_counter()
        result = pruned_dedup(
            dataset.store,
            5,
            plane.wrap_levels(
                levels, error_rate=0.2, stall_seconds=1.5, stall_pair=stall_pair
            ),
            policy=policy,
        )
        elapsed = time.perf_counter() - started

        # No hang: one bounded stall delays the query by at most that
        # stall before the deadline fires.
        assert elapsed < 10.0
        assert result.degraded
        assert result.degraded_reason == REASON_DEADLINE
        assert result.counters.predicate_timeouts_contained >= 1
        assert result.stage_records[-1].completed is False

        # Superset-safe approximation: no fallback-introduced
        # over-merge, measured against the fault-free full closure.
        clean = GroupSet.singletons(dataset.store)
        for lvl in levels:
            clean = collapse(clean, lvl.sufficient)
        assert refines(result.groups, clean)

    def test_no_policy_no_faults_is_unchanged(self):
        # The resilience layer must be inert when not asked for.
        dataset, levels = citation_setup(n_records=300)
        before = pruned_dedup(dataset.store, 5, levels)
        again = pruned_dedup(dataset.store, 5, levels)
        assert before.groups.weights() == again.groups.weights()
        assert not before.degraded
        assert all(record.completed for record in before.stage_records)
        assert before.counters.total_contained == 0


class TestChaosQuarantine:
    def test_chaos_keying_faults_divert_to_dead_letters(self):
        chaotic = FaultPlane(seed=5).wrap_levels(
            level(), roles="sufficient", keying_error_rate=0.3
        )
        stream = IncrementalTopK(chaotic)
        names = [f"e{i % 4} v{i % 4}x{i % 2}" for i in range(40)]
        ids = [stream.add({"name": name}) for name in names]
        accepted = sum(record_id >= 0 for record_id in ids)
        quarantined = len(stream.dead_letters)
        assert accepted + quarantined == len(names)
        assert 0 < quarantined < len(names)
        # A quarantined insert leaves its id to the next record, which
        # draws afresh: the first fault does not poison the rest.
        first_fault = ids.index(-1)
        assert any(record_id >= 0 for record_id in ids[first_fault + 1:])
        assert all(letter.stage == "keying" for letter in stream.dead_letters)
        assert (
            stream.verification.counters.records_quarantined == quarantined
        )
        # The stream still answers queries over the surviving records.
        result = stream.query(2)
        assert len(result.groups) >= 1

    def test_quarantine_is_deterministic(self):
        def run():
            stream = IncrementalTopK(
                FaultPlane(seed=5).wrap_levels(
                    level(), roles="sufficient", keying_error_rate=0.3
                )
            )
            for i in range(30):
                stream.add({"name": f"e{i % 3} v{i % 3}x{i % 2}"})
            return [letter.fields["name"] for letter in stream.dead_letters]

        assert run() == run()
