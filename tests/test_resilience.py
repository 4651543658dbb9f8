"""Tests for the resilient execution layer (repro.core.resilience).

Covers the guard wrappers' role-safe fallbacks and counters, policy
validation, anytime degradation of every query engine, keying-compromise
handling, the stream quarantine, and — critically — that a policy with
no faults changes nothing about the pipeline's answers.
"""

import time

import numpy as np
import pytest

from repro.core.incremental import EngineSnapshot, IncrementalTopK
from repro.core.prune import prune
from repro.core.pruned_dedup import pruned_dedup
from repro.core.rank_query import thresholded_rank_query, topk_rank_query
from repro.core.records import GroupSet, RecordStore, group_fingerprint
from repro.core import resilience
from repro.core.resilience import (
    REASON_DEADLINE,
    REASON_STAGE_BUDGET,
    ExecutionPolicy,
    GuardedPredicate,
    GuardedScorer,
    ResilienceExhausted,
    StageRunner,
    guard_levels,
    necessary_compromised,
)
from repro.core.topk import topk_count_query
from repro.core.verification import PipelineCounters, VerificationContext
from repro.experiments import citation_pipeline
from repro.predicates import batch as batch_module
from repro.predicates.base import FunctionPredicate, PredicateLevel
from repro.predicates.blocking import NeighborIndex, closure
from repro.predicates.library import JaccardPredicate, NgramOverlapPredicate
from repro.scoring.pairwise import CachedScorer, PairwiseScorer
from tests.conftest import (
    exact_name_predicate,
    make_store,
    shared_word_predicate,
    vectorize_mode,
)
from tests.test_batch_vectorize import SWEEP_IDS, _sweep_predicates, _sweep_rows


def raising_predicate(name="boom", keys_fn=None):
    def explode(a, b):
        raise RuntimeError("predicate exploded")

    return FunctionPredicate(
        evaluate_fn=explode,
        keys_fn=keys_fn or (lambda r: r["name"].split()),
        name=name,
    )


def keying_raiser(trigger="poison"):
    def keys(record):
        if trigger in record["name"]:
            raise ValueError("keying exploded")
        return record["name"].split()

    return FunctionPredicate(
        evaluate_fn=lambda a, b: bool(
            set(a["name"].split()) & set(b["name"].split())
        ),
        keys_fn=keys,
        name="keying-raiser",
    )


class ConstantScorer(PairwiseScorer):
    def __init__(self, value=1.0):
        self.value = value
        self.calls = 0

    def score(self, a, b):
        self.calls += 1
        return self.value


class RaisingScorer(PairwiseScorer):
    def score(self, a, b):
        raise RuntimeError("scorer exploded")


class OneBadPairScorer(PairwiseScorer):
    """Scores 1.0 per pair, implementing only ``score(a, b)``; the pair
    of the two *bad* names raises, or stalls *stall_seconds* instead."""

    def __init__(self, bad=("bob x", "cara x"), stall_seconds=0.0):
        self.bad = set(bad)
        self.stall_seconds = stall_seconds

    def score(self, a, b):
        if {a["name"], b["name"]} == self.bad:
            if not self.stall_seconds:
                raise RuntimeError("scorer exploded")
            time.sleep(self.stall_seconds)
        return 1.0


def armed_state(counters=None, **policy_kwargs):
    counters = counters if counters is not None else PipelineCounters()
    return ExecutionPolicy(**policy_kwargs).start(counters)


def records_ab():
    store = make_store(["ann smith", "ann smyth"])
    return store[0], store[1]


class TestExecutionPolicy:
    def test_rejects_bad_on_error(self):
        with pytest.raises(ValueError, match="on_error"):
            ExecutionPolicy(on_error="explode")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"deadline_seconds": -1.0},
            {"max_stage_evaluations": -1},
            {"call_timeout_seconds": -0.5},
        ],
    )
    def test_rejects_negative_budgets(self, kwargs):
        with pytest.raises(ValueError):
            ExecutionPolicy(**kwargs)

    def test_policy_is_hashable(self):
        # The incremental engine keys its query cache on (k, policy).
        assert hash(ExecutionPolicy()) == hash(ExecutionPolicy())
        assert ExecutionPolicy(deadline_seconds=1.0) != ExecutionPolicy()

    def test_deadline_exhausts_state(self):
        state = armed_state(deadline_seconds=0.0)
        time.sleep(0.002)
        with pytest.raises(ResilienceExhausted) as err:
            state.tick()
        assert err.value.reason == REASON_DEADLINE
        # Once exhausted, check() keeps raising.
        with pytest.raises(ResilienceExhausted):
            state.check()

    def test_stage_budget_resets_per_stage(self):
        state = armed_state(max_stage_evaluations=2)
        state.tick()
        state.tick()
        with pytest.raises(ResilienceExhausted) as err:
            state.tick()
        assert err.value.reason == REASON_STAGE_BUDGET
        state.begin_stage()
        state.tick()  # fresh budget


class TestGuardedPredicate:
    def test_sufficient_fallback_is_false(self):
        a, b = records_ab()
        counters = PipelineCounters()
        guard = GuardedPredicate(
            raising_predicate(), "sufficient", armed_state(counters)
        )
        assert guard.evaluate(a, b) is False
        assert counters.predicate_errors_contained == 1

    def test_necessary_fallback_is_true(self):
        a, b = records_ab()
        counters = PipelineCounters()
        guard = GuardedPredicate(
            raising_predicate(), "necessary", armed_state(counters)
        )
        assert guard.evaluate(a, b) is True
        assert counters.predicate_errors_contained == 1

    def test_on_error_raise_propagates(self):
        a, b = records_ab()
        guard = GuardedPredicate(
            raising_predicate(), "sufficient", armed_state(on_error="raise")
        )
        with pytest.raises(RuntimeError, match="predicate exploded"):
            guard.evaluate(a, b)

    def test_healthy_verdicts_pass_through(self):
        a, b = records_ab()
        guard = GuardedPredicate(
            shared_word_predicate(), "necessary", armed_state()
        )
        assert guard.evaluate(a, b) is True  # share "ann"
        assert guard.keying_failures == 0

    def test_keying_failure_yields_no_keys_and_marks_guard(self):
        store = make_store(["poison pill", "fine record"])
        counters = PipelineCounters()
        guard = GuardedPredicate(keying_raiser(), "necessary", armed_state(counters))
        assert guard.blocking_keys(store[0]) == []
        assert list(guard.blocking_keys(store[1])) == ["fine", "record"]
        assert guard.keying_failures == 1
        assert counters.keying_errors_contained == 1

    def test_call_timeout_replaces_slow_verdict(self):
        a, b = records_ab()
        counters = PipelineCounters()
        slow = FunctionPredicate(
            evaluate_fn=lambda x, y: time.sleep(0.02) or True,
            keys_fn=lambda r: [r["name"]],
            name="slow",
        )
        guard = GuardedPredicate(
            slow, "sufficient", armed_state(counters, call_timeout_seconds=0.001)
        )
        # The slow call really returned True; the guard deems it
        # unreliable and substitutes the role-safe False.
        assert guard.evaluate(a, b) is False
        assert counters.predicate_timeouts_contained == 1

    def test_never_enters_verdict_cache(self):
        guard = GuardedPredicate(
            shared_word_predicate(), "necessary", armed_state()
        )
        assert guard.symmetric is False

    def test_rejects_unknown_role(self):
        with pytest.raises(ValueError, match="role"):
            GuardedPredicate(shared_word_predicate(), "optional", armed_state())


class TestGuardedScorer:
    def test_error_contained_as_neutral_score(self):
        a, b = records_ab()
        counters = PipelineCounters()
        guard = GuardedScorer(RaisingScorer(), armed_state(counters))
        assert guard.score(a, b) == 0.0
        assert counters.scorer_errors_contained == 1

    def test_on_error_raise_propagates(self):
        a, b = records_ab()
        guard = GuardedScorer(RaisingScorer(), armed_state(on_error="raise"))
        with pytest.raises(RuntimeError, match="scorer exploded"):
            guard.score(a, b)

    def test_healthy_scores_pass_through(self):
        a, b = records_ab()
        guard = GuardedScorer(ConstantScorer(2.5), armed_state())
        assert guard.score(a, b) == 2.5

    @pytest.mark.parametrize("cached", [False, True])
    def test_one_raising_pair_zeroes_only_its_own_score(self, cached):
        # A scorer that implements only score(a, b) is guarded pair by
        # pair, through a cache too: its block is the inherited map.
        records = list(make_store(["ann x", "bob x", "dan x", "cara x"]))
        inner = OneBadPairScorer()
        if cached:
            inner = CachedScorer(inner)
        counters = PipelineCounters()
        guard = GuardedScorer(inner, armed_state(counters))
        left, right = np.triu_indices(len(records), k=1)
        scores = guard.score_pairs(records, left, right).tolist()
        bad_pair = list(zip(left.tolist(), right.tolist())).index((1, 3))
        assert scores == [0.0 if row == bad_pair else 1.0 for row in range(6)]
        assert counters.scorer_errors_contained == 1

    def test_call_timeout_is_per_pair_for_a_pair_scorer(self):
        records = list(make_store(["ann x", "bob x", "dan x", "cara x"]))
        counters = PipelineCounters()
        guard = GuardedScorer(
            OneBadPairScorer(stall_seconds=0.05),
            armed_state(counters, call_timeout_seconds=0.02),
        )
        left, right = np.triu_indices(len(records), k=1)
        # Six pairs x 0.02 s would hide the stall in a block budget.
        scores = guard.score_pairs(records, left, right).tolist()
        assert scores.count(0.0) == 1
        assert counters.scorer_errors_contained == 1


class TestStageRunner:
    def test_records_completed_stages(self):
        runner = StageRunner(VerificationContext(), armed_state())
        assert runner.run("level-1", "collapse", lambda: 41) == 41
        assert not runner.aborted
        [record] = runner.records
        assert (record.level_name, record.stage, record.completed) == (
            "level-1",
            "collapse",
            True,
        )

    def test_abort_keeps_reason_and_incomplete_record(self):
        state = armed_state(max_stage_evaluations=0)
        runner = StageRunner(VerificationContext(), state)
        value = runner.run("level-1", "prune", lambda: state.tick())
        assert value is None
        assert runner.aborted
        assert runner.reason == REASON_STAGE_BUDGET
        assert runner.records[-1].completed is False
        assert runner.records[-1].reason == REASON_STAGE_BUDGET

    def test_without_state_only_records(self):
        runner = StageRunner(VerificationContext())
        assert runner.run("level-1", "collapse", lambda: "ok") == "ok"
        assert runner.records[0].completed


def default_levels():
    return [PredicateLevel(exact_name_predicate(), shared_word_predicate())]


class TestNoFaultEquivalence:
    """A policy with no faults must not change any pipeline answer."""

    def test_pruned_dedup_identical_under_policy(self, tiny_store):
        plain = pruned_dedup(tiny_store, 2, default_levels())
        policed = pruned_dedup(
            tiny_store, 2, default_levels(), policy=ExecutionPolicy()
        )
        assert not policed.degraded
        assert policed.groups.weights() == plain.groups.weights()
        assert [
            (s.level_name, s.m, s.bound, s.certified) for s in policed.stats
        ] == [(s.level_name, s.m, s.bound, s.certified) for s in plain.stats]
        # Guards disable the verdict cache, so the policed run may
        # evaluate more — but it must never contain anything.
        assert policed.counters.total_contained == 0

    def test_topk_rank_query_identical_under_policy(self, tiny_store):
        plain = topk_rank_query(tiny_store, 2, default_levels())
        policed = topk_rank_query(
            tiny_store, 2, default_levels(), policy=ExecutionPolicy()
        )
        assert not policed.degraded
        assert policed.ranking == plain.ranking

    def test_thresholded_rank_query_identical_under_policy(self, tiny_store):
        plain = thresholded_rank_query(tiny_store, 2.0, default_levels())
        policed = thresholded_rank_query(
            tiny_store, 2.0, default_levels(), policy=ExecutionPolicy()
        )
        assert not policed.degraded
        assert policed.ranking == plain.ranking
        assert policed.certain == plain.certain

    def test_topk_count_query_identical_under_policy(self, tiny_store):
        scorer = ConstantScorer(1.0)
        plain = topk_count_query(
            tiny_store, 2, default_levels(), scorer, label_field="name"
        )
        policed = topk_count_query(
            tiny_store,
            2,
            default_levels(),
            ConstantScorer(1.0),
            label_field="name",
            policy=ExecutionPolicy(),
        )
        assert not policed.degraded
        assert policed.best.entities == plain.best.entities


class TestAnytimeDegradation:
    def test_expired_deadline_degrades_pruned_dedup(self, tiny_store):
        result = pruned_dedup(
            tiny_store,
            2,
            default_levels(),
            policy=ExecutionPolicy(deadline_seconds=0.0),
        )
        assert result.degraded
        assert result.degraded_reason == REASON_DEADLINE
        # Last consistent state: nothing collapsed yet.
        assert len(result.groups) == len(tiny_store)
        assert result.stage_records[-1].completed is False

    def test_stage_budget_degrades_with_partial_progress(self, tiny_store):
        result = pruned_dedup(
            tiny_store,
            2,
            default_levels(),
            policy=ExecutionPolicy(max_stage_evaluations=1),
        )
        assert result.degraded
        assert result.degraded_reason == REASON_STAGE_BUDGET
        # The collapse stage needs no guarded evaluate calls (keys imply
        # match), so the level-1 closure completed before exhaustion.
        completed = [r for r in result.stage_records if r.completed]
        assert [(r.level_name, r.stage) for r in completed][0][1] == "collapse"
        assert len(result.groups) < len(tiny_store)

    def test_degraded_groups_never_over_merge(self, tiny_store):
        # Against the clean run's *collapse* partition (pruning only
        # drops groups, never splits them): every degraded group must
        # sit inside one clean group.
        from repro.core.collapse import collapse

        clean = collapse(
            GroupSet.singletons(tiny_store), exact_name_predicate()
        )
        degraded = pruned_dedup(
            tiny_store,
            2,
            default_levels(),
            policy=ExecutionPolicy(max_stage_evaluations=1),
        )
        clean_members = [set(g.member_ids) for g in clean]
        for group in degraded.groups:
            members = set(group.member_ids)
            assert any(members <= other for other in clean_members)

    def test_topk_count_query_degrades_to_heaviest_groups(self, tiny_store):
        result = topk_count_query(
            tiny_store,
            2,
            default_levels(),
            ConstantScorer(),
            label_field="name",
            policy=ExecutionPolicy(deadline_seconds=0.0),
        )
        assert result.degraded
        assert result.degraded_reason == REASON_DEADLINE
        assert len(result.answers) == 1
        assert len(result.best.entities) <= 2
        weights = [e.weight for e in result.best.entities]
        assert weights == sorted(weights, reverse=True)

    def test_scoring_stage_shares_the_deadline(self):
        # Pruning is cheap here (collapse needs no evaluate calls and
        # the necessary graph is small); the scorer stalls past the
        # query deadline, so exhaustion must surface during scoring.
        store = make_store(["a x", "b x", "c x", "d x", "e x", "f x"])

        class StallingScorer(PairwiseScorer):
            def score(self, a, b):
                time.sleep(0.4)
                return 1.0

        started = time.perf_counter()
        result = topk_count_query(
            store,
            2,
            default_levels(),
            StallingScorer(),
            label_field="name",
            policy=ExecutionPolicy(deadline_seconds=0.3),
        )
        elapsed = time.perf_counter() - started
        assert result.degraded
        assert result.degraded_reason == REASON_DEADLINE
        # The deadline is checked between pairs, so the query overruns
        # it by about one stall (0.3 + 0.4 s), not the 15 pairs' 6 s.
        assert elapsed < 2.0
        scoring = [
            r for r in result.pruning.stage_records if r.level_name == "scoring"
        ]
        assert scoring and scoring[-1].completed is False

    def test_rank_query_degrades(self, tiny_store):
        result = topk_rank_query(
            tiny_store,
            2,
            default_levels(),
            policy=ExecutionPolicy(deadline_seconds=0.0),
        )
        assert result.degraded
        assert result.degraded_reason == REASON_DEADLINE
        assert not result.certain
        assert all(not entry.resolved for entry in result.ranking)

    def test_threshold_query_degrades(self, tiny_store):
        result = thresholded_rank_query(
            tiny_store,
            2.0,
            default_levels(),
            policy=ExecutionPolicy(deadline_seconds=0.0),
        )
        assert result.degraded
        assert not result.certain


class TestKeyingCompromise:
    def test_necessary_keying_failure_stands_pruning_down(self):
        # "poison" records raise inside the necessary predicate's
        # blocking_keys: the N-graph may be missing edges, so the level
        # must not prune anything (bound forced to 0).
        store = make_store(
            ["ann smith", "ann smith", "poison pill", "bob jones"]
        )
        levels = [PredicateLevel(exact_name_predicate(), keying_raiser())]
        clean_groups = len(
            pruned_dedup(store, 1, levels_without_faults(store)).groups
        )
        result = pruned_dedup(
            store, 1, levels, policy=ExecutionPolicy()
        )
        assert not result.degraded
        assert result.counters.keying_errors_contained > 0
        assert result.stats[-1].bound == 0.0
        assert result.stats[-1].certified is False
        # Nothing pruned: every collapsed group survives.
        assert len(result.groups) == 3 >= clean_groups

    def test_rank_query_skips_rank_pruning_when_compromised(self):
        store = make_store(
            ["ann smith", "ann smith", "poison pill", "bob jones"]
        )
        levels = [PredicateLevel(exact_name_predicate(), keying_raiser())]
        result = topk_rank_query(store, 1, levels, policy=ExecutionPolicy())
        assert not result.degraded
        assert result.n_extra_pruned == 0
        assert all(not entry.resolved for entry in result.ranking)

    def test_threshold_query_forfeits_certainty_when_compromised(self):
        store = make_store(
            ["ann smith", "ann smith", "poison pill", "bob jones"]
        )
        levels = [PredicateLevel(exact_name_predicate(), keying_raiser())]
        result = thresholded_rank_query(
            store, 2.0, levels, policy=ExecutionPolicy()
        )
        assert not result.degraded
        assert result.certain is False
        assert result.n_extra_pruned == 0

    def test_guard_levels_and_detection(self):
        state = armed_state()
        [level] = guard_levels(default_levels(), state)
        assert isinstance(level.sufficient, GuardedPredicate)
        assert isinstance(level.necessary, GuardedPredicate)
        assert not necessary_compromised(level)
        store = make_store(["poison"])
        guarded = PredicateLevel(
            exact_name_predicate(),
            GuardedPredicate(keying_raiser(), "necessary", state),
        )
        guarded.necessary.blocking_keys(store[0])
        assert necessary_compromised(guarded)


def levels_without_faults(store):
    return [PredicateLevel(exact_name_predicate(), shared_word_predicate())]


class TestIncrementalResilience:
    def test_query_accepts_policy_and_degrades(self):
        stream = IncrementalTopK(default_levels())
        for name in ["ann smith", "ann smith", "bob jones"]:
            stream.add({"name": name})
        result = stream.query(1, policy=ExecutionPolicy(deadline_seconds=0.0))
        assert result.degraded
        assert result.degraded_reason == REASON_DEADLINE

    def test_query_cache_is_per_policy(self):
        stream = IncrementalTopK(default_levels())
        stream.add({"name": "ann smith"})
        degraded = stream.query(1, policy=ExecutionPolicy(deadline_seconds=0.0))
        clean = stream.query(1)
        assert degraded.degraded and not clean.degraded
        # Only the clean result is cached, keyed without its policy: a
        # degraded answer is never re-served, the request runs afresh
        # and finds the clean answer of this version.
        assert stream.query(1) is clean
        rerun = stream.query(1, policy=ExecutionPolicy(deadline_seconds=0.0))
        assert rerun is not degraded
        assert rerun is clean

    def test_degraded_answer_is_never_cached(self):
        stream = IncrementalTopK(default_levels())
        for name in ["ann smith", "ann smith", "bob jones"]:
            stream.add({"name": name})
        expired = ExecutionPolicy(deadline_seconds=0.0)
        first = stream.query(1, policy=expired)
        again = stream.query(1, policy=expired)
        assert first.degraded and again.degraded
        assert again is not first  # a fresh run, not a re-serve

    def test_cache_holds_one_clean_entry_per_version(self):
        stream = IncrementalTopK(default_levels())
        for name in ["ann smith", "ann smith", "bob jones"]:
            stream.add({"name": name})
        base = ExecutionPolicy()
        answers = [
            stream.query(1, policy=base.with_deadline(60.0 + i))
            for i in range(20)
        ]
        assert all(answer is answers[0] for answer in answers)
        assert stream.snapshot().cache_size == 1
        stream.add({"name": "cara lee"})
        # The insert moved the version on: the next query answers from
        # a new snapshot, whose cache starts empty.
        assert stream.snapshot().cache_size == 0
        assert stream.query(1) is not answers[0]

    def test_contained_answer_is_never_cached(self):
        stream = IncrementalTopK(
            [PredicateLevel(exact_name_predicate(), raising_predicate())]
        )
        for name in ["ann smith", "ann smith", "ann jones", "bob jones"]:
            stream.add({"name": name})
        first = stream.query(1, policy=ExecutionPolicy())
        assert not first.degraded
        assert first.counters.predicate_errors_contained > 0
        assert stream.query(1, policy=ExecutionPolicy()) is not first

    def test_policy_without_faults_matches_plain_query(self):
        plain = IncrementalTopK(default_levels())
        policed = IncrementalTopK(default_levels())
        names = ["ann smith", "ann smith", "a smith", "bob jones", "bob jones"]
        for name in names:
            plain.add({"name": name})
            policed.add({"name": name})
        a = plain.query(2)
        b = policed.query(2, policy=ExecutionPolicy())
        assert not b.degraded
        assert a.groups.weights() == b.groups.weights()


class TestQuarantine:
    def test_keying_poison_goes_to_dead_letters(self):
        stream = IncrementalTopK(
            [PredicateLevel(keying_raiser(), shared_word_predicate())]
        )
        assert stream.add({"name": "fine record"}) == 0
        assert stream.add({"name": "poison pill"}) == -1
        assert stream.add({"name": "fine record"}) == 1
        assert len(stream) == 2
        [letter] = stream.dead_letters
        assert letter.stage == "keying"
        assert letter.fields == {"name": "poison pill"}
        assert "keying exploded" in letter.error
        assert stream.verification.counters.records_quarantined == 1

    def test_evaluate_poison_goes_to_dead_letters(self):
        def explode_on_poison(a, b):
            if "poison" in a["name"] or "poison" in b["name"]:
                raise RuntimeError("evaluate exploded")
            return a["name"] == b["name"]

        sufficient = FunctionPredicate(
            evaluate_fn=explode_on_poison,
            keys_fn=lambda r: r["name"].split(),
            name="eval-raiser",
        )
        stream = IncrementalTopK(
            [PredicateLevel(sufficient, shared_word_predicate())]
        )
        stream.add({"name": "ann smith"})
        assert stream.add({"name": "poison smith"}) == -1
        [letter] = stream.dead_letters
        assert letter.stage == "evaluate"
        # The stream keeps answering queries.
        result = stream.query(1)
        assert len(result.groups) == 1

    def test_quarantined_record_leaves_no_state_behind(self):
        stream = IncrementalTopK(
            [PredicateLevel(keying_raiser(), shared_word_predicate())]
        )
        stream.add({"name": "fine record"})
        version_before = stream.version
        stream.add({"name": "poison pill"})
        assert stream.version == version_before
        assert len(stream.current_store()) == 1
        groups = EngineSnapshot.freeze(stream).collapsed_groups()
        assert {r for g in groups for r in g.member_ids} == {0}

    def test_quarantine_disabled_propagates(self):
        stream = IncrementalTopK(
            [PredicateLevel(keying_raiser(), shared_word_predicate())],
            quarantine=False,
        )
        with pytest.raises(ValueError, match="keying exploded"):
            stream.add({"name": "poison pill"})


class TestContainmentInsidePipelines:
    def test_raising_necessary_never_prunes_answers(self, tiny_store):
        # A necessary predicate that raises on every pair falls back to
        # True everywhere: the N-graph becomes complete, bounds deflate,
        # and nothing true can be pruned away.
        levels = [PredicateLevel(exact_name_predicate(), raising_predicate())]
        result = pruned_dedup(
            tiny_store, 2, levels, policy=ExecutionPolicy()
        )
        assert not result.degraded
        assert result.counters.predicate_errors_contained > 0
        clean = pruned_dedup(tiny_store, 2, levels_without_faults(tiny_store))
        surviving = {
            r for g in result.groups for r in g.member_ids
        }
        clean_surviving = {r for g in clean.groups for r in g.member_ids}
        assert clean_surviving <= surviving

    def test_raising_sufficient_never_merges(self, tiny_store):
        # A sufficient predicate that raises on every pair falls back to
        # False everywhere: no record can be merged with any other.
        levels = [PredicateLevel(raising_predicate(), shared_word_predicate())]
        result = pruned_dedup(
            tiny_store, len(tiny_store), levels, policy=ExecutionPolicy()
        )
        assert not result.degraded
        assert all(group.size == 1 for group in result.groups)

    def test_on_error_raise_policy_propagates_from_pipeline(self, tiny_store):
        levels = [PredicateLevel(raising_predicate(), shared_word_predicate())]
        with pytest.raises(RuntimeError, match="predicate exploded"):
            pruned_dedup(
                tiny_store,
                2,
                levels,
                policy=ExecutionPolicy(on_error="raise"),
            )


class TestVerdictCacheFifo:
    def test_stream_past_limit_matches_batch(self):
        names = [f"entity {i % 7} common" for i in range(40)]
        limited = IncrementalTopK(default_levels(), verdict_cache_limit=5)
        for name in names:
            limited.add({"name": name})
        batch = pruned_dedup(make_store(names), 3, default_levels())
        streamed = limited.query(3)
        assert sorted(g.weight for g in streamed.groups) == sorted(
            g.weight for g in batch.groups
        )

    def test_singleton_groupset_helper(self, tiny_store):
        # Guard the invariant the degraded paths rely on: singleton
        # group sets cover every record exactly once.
        groups = GroupSet.singletons(tiny_store)
        assert sorted(r for g in groups for r in g.member_ids) == list(
            range(len(tiny_store))
        )


# -- block-level containment on the vectorized path --------------------


class FaultyBlocks:
    """A library batch rule or verifier that raises on every candidate
    block touching a poisoned position, and optionally stalls on its
    first block call; everything else is delegated to the real one."""

    def __init__(self, inner, poisoned, stall_seconds=0.0):
        self._inner = inner
        self._poisoned = poisoned
        self._stall = stall_seconds

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def _enter(self, candidates):
        if self._stall:
            time.sleep(self._stall)
            self._stall = 0.0
        if self._poisoned[candidates].any():
            raise RuntimeError("block exploded")

    def accepts(self, shared, n_probe_keys, counts, probe_mask, candidates):
        self._enter(candidates)
        return self._inner.accepts(
            shared, n_probe_keys, counts, probe_mask, candidates
        )

    def verify_block(self, probe_state, candidates):
        self._enter(candidates)
        return self._inner.verify_block(probe_state, candidates)

    def verify_member_block(self, position, candidates):
        self._enter(candidates)
        return self._inner.verify_member_block(position, candidates)

    def verify_pairs(self, left, right):
        self._enter(right)
        return self._inner.verify_pairs(left, right)


def _poisoned(records, trigger="poison"):
    return np.array([trigger in r["name"] for r in records], dtype=bool)


class BlockFaultNgram(NgramOverlapPredicate):
    """Library n-gram overlap (count-rule shape) with faulty blocks."""

    def __init__(self, stall_seconds=0.0, trigger="poison"):
        super().__init__(field="name", threshold=0.5)
        self.stall_seconds = stall_seconds
        self.trigger = trigger

    def batch_count_rule(self, records):
        return FaultyBlocks(
            super().batch_count_rule(records),
            _poisoned(records, self.trigger),
            self.stall_seconds,
        )


class BlockFaultJaccard(JaccardPredicate):
    """Library word Jaccard (pairwise-verifier shape) with faulty blocks."""

    def __init__(self, threshold=0.9):
        super().__init__(field="name", threshold=threshold)

    def batch_verifier(self, records):
        return FaultyBlocks(super().batch_verifier(records), _poisoned(records))


class UnbuildableNgram(NgramOverlapPredicate):
    """Library n-gram overlap whose batch hooks fail to build."""

    def __init__(self):
        super().__init__(field="name", threshold=0.5)

    def batch_count_rule(self, records):
        raise RuntimeError("cannot encode")

    def batch_verifier(self, records):
        raise RuntimeError("cannot encode")


class UnprobeableRule(FaultyBlocks):
    def encode_probe(self, record):
        raise RuntimeError("cannot encode probe")


class UnprobeableNgram(NgramOverlapPredicate):
    """Library n-gram overlap whose count rule cannot encode probes."""

    def __init__(self):
        super().__init__(field="name", threshold=0.5)

    def batch_count_rule(self, records):
        return UnprobeableRule(
            super().batch_count_rule(records),
            np.zeros(len(records), dtype=bool),
        )


def name_grid():
    firsts = ("ann", "anne", "annie", "bob", "rob", "robert", "cara", "carla")
    lasts = ("smith", "smyth", "jones", "jonas", "brown", "browne")
    names = [f"{first} {last}" for first in firsts for last in lasts]
    return names + ["ann smith poison", "bob jones poison"]


class TestBlockContainment:
    @pytest.fixture(autouse=True)
    def _vectorized(self):
        # Every test here asserts a batch engine and its block calls.
        with vectorize_mode(True):
            yield

    def test_guard_forwards_hooks_but_stays_asymmetric(self):
        # The guard stays asymmetric, so no cache across calls holds its
        # verdicts; its engine sweeps, because the inner predicate is
        # symmetric.
        records = list(make_store(name_grid()))
        state = armed_state()
        guard = GuardedPredicate(BlockFaultNgram(), "necessary", state)
        assert guard.supports_batch
        assert not guard.symmetric
        index = NeighborIndex(guard, records, vectorize=True, memoize=True)
        engine = index.batch_engine
        assert engine is not None and engine.count_mode
        assert engine.symmetric
        index.neighbors_csr(range(len(records)))
        assert index._known is None
        # An asymmetric inner predicate keeps the per-probe path.
        one_way = BlockFaultNgram()
        one_way.symmetric = False
        asymmetric = GuardedPredicate(one_way, "necessary", state)
        assert not NeighborIndex(asymmetric, records).batch_engine.symmetric
        # Scalar-only wrappers keep the scalar path.
        scalar = GuardedPredicate(shared_word_predicate(), "necessary", state)
        assert not scalar.supports_batch
        assert NeighborIndex(scalar, records).batch_engine is None

    def test_sufficient_guard_never_merges(self):
        # Nine identical poisoned names and nine identical clean ones:
        # every closure block of the poisoned names raises, so the whole
        # row falls back to False; the clean block still merges.
        names = ["ann smith poison"] * 9 + ["bob jones"] * 9
        records = list(make_store(names))
        counters = PipelineCounters()
        guard = GuardedPredicate(
            BlockFaultJaccard(), "sufficient", armed_state(counters)
        )
        uf = closure(guard, records, vectorize=True)
        assert all(uf.find(i) == i for i in range(9))
        assert len({uf.find(i) for i in range(9, 18)}) == 1
        # Three poisoned keys, each a 9-member block of 36 pairs.
        assert counters.predicate_errors_contained == 3 * 36
        result = pruned_dedup(
            make_store(names),
            len(names),
            [PredicateLevel(BlockFaultJaccard(), shared_word_predicate())],
            policy=ExecutionPolicy(),
        )
        poisoned = [g for g in result.groups if g.size != 9]
        assert len(poisoned) == 9 and all(g.size == 1 for g in poisoned)

    def test_necessary_guard_keeps_block_edges(self):
        records = list(make_store(name_grid()))
        poisoned = _poisoned(records)
        plain = NeighborIndex(NgramOverlapPredicate("name", 0.5), records)
        counters = PipelineCounters()
        guard = GuardedPredicate(
            BlockFaultNgram(), "necessary", armed_state(counters)
        )
        guarded = NeighborIndex(guard, records, vectorize=True)
        expected_contained = 0
        for position, record in enumerate(records):
            candidates = plain.candidate_positions(record) - {position}
            got = guarded.neighbors(record, exclude_position=position).tolist()
            if poisoned[sorted(candidates)].any():
                # The raising block kept every candidate as an edge.
                assert got == sorted(candidates)
                expected_contained += len(candidates)
            else:
                assert got == plain.neighbors(
                    record, exclude_position=position
                ).tolist()
        assert expected_contained > 0
        assert counters.predicate_errors_contained == expected_contained

    def test_fallback_verdicts_are_never_cached_or_shared(self):
        context = VerificationContext()
        state = ExecutionPolicy().start(context.counters)
        guard = GuardedPredicate(BlockFaultNgram(), "necessary", state)
        groups = GroupSet.singletons(make_store(name_grid()))
        index = context.neighbor_index(guard, groups)
        index.neighbors_csr(list(range(len(groups))))
        assert index.batch_engine is not None
        assert context.counters.predicate_errors_contained > 0
        assert context.cached_verdicts(guard) == 0
        assert context.counters.cache_hits == 0

    def test_necessary_block_faults_never_over_prune(self):
        store = make_store(name_grid() * 2)
        faulty = [PredicateLevel(exact_name_predicate(), BlockFaultNgram())]
        result = pruned_dedup(store, 3, faulty, policy=ExecutionPolicy())
        assert not result.degraded
        assert result.counters.predicate_errors_contained > 0
        clean = pruned_dedup(
            store,
            3,
            [
                PredicateLevel(
                    exact_name_predicate(), NgramOverlapPredicate("name", 0.5)
                )
            ],
        )
        kept = {r for g in result.groups for r in g.member_ids}
        assert {r for g in clean.groups for r in g.member_ids} <= kept

    def test_on_error_raise_propagates_from_block(self):
        store = make_store(name_grid() * 2)
        levels = [PredicateLevel(exact_name_predicate(), BlockFaultNgram())]
        with pytest.raises(RuntimeError, match="block exploded"):
            pruned_dedup(
                store, 3, levels, policy=ExecutionPolicy(on_error="raise")
            )

    @pytest.mark.parametrize("per_pair, timed_out", [(0.01, False), (1e-9, True)])
    def test_block_timeout_scales_with_block_size(self, per_pair, timed_out):
        records = list(make_store(name_grid()))
        probe = records[0]
        plain = NeighborIndex(NgramOverlapPredicate("name", 0.5), records)
        candidates = plain.candidate_positions(probe) - {0}
        assert len(candidates) * 0.01 > 0.1  # block budget beats the stall
        counters = PipelineCounters()
        guard = GuardedPredicate(
            BlockFaultNgram(stall_seconds=0.05, trigger="-never-"),
            "necessary",
            armed_state(counters, call_timeout_seconds=per_pair),
        )
        got = NeighborIndex(guard, records).neighbors(
            probe, exclude_position=0
        ).tolist()
        if timed_out:
            # Over (timeout x size): every candidate becomes a kept
            # edge, counted once per pair.
            assert got == sorted(candidates)
            assert counters.predicate_timeouts_contained == len(candidates)
        else:
            # A 0.05 s stall is over the per-pair timeout but within the
            # block's scaled budget: the verdicts stand.
            assert got == plain.neighbors(probe, exclude_position=0).tolist()
            assert counters.predicate_timeouts_contained == 0

    def test_build_or_probe_failure_falls_back_to_scalar(self):
        records = list(make_store(name_grid()))
        state = armed_state()
        plain = NeighborIndex(NgramOverlapPredicate("name", 0.5), records)
        unbuilt = GuardedPredicate(UnbuildableNgram(), "necessary", state)
        assert NeighborIndex(unbuilt, records).batch_engine is None
        guard = GuardedPredicate(UnprobeableNgram(), "necessary", state)
        index = NeighborIndex(guard, records, vectorize=True)
        assert index.batch_engine is not None
        probe = make_store(["annie smyth"])[0]
        assert index.neighbors(probe).tolist() == plain.neighbors(probe).tolist()
        assert state.counters.total_contained == 0

    def test_budget_exhausts_mid_prune(self):
        store = make_store(name_grid())
        context = VerificationContext()
        state = ExecutionPolicy(max_stage_evaluations=5).start(context.counters)
        guard = GuardedPredicate(
            NgramOverlapPredicate("name", 0.5), "necessary", state
        )
        groups = GroupSet.singletons(store)
        runner = StageRunner(context, state)
        value = runner.run(
            "level-1",
            "prune",
            lambda: prune(groups, guard, 10.0, context=context),
        )
        assert value is None and runner.aborted
        assert runner.reason == REASON_STAGE_BUDGET
        assert context.neighbor_index(guard, groups).batch_engine is not None

    @pytest.mark.parametrize("reason", [REASON_STAGE_BUDGET, REASON_DEADLINE])
    def test_exhaustion_in_block_verification_degrades(self, reason):
        store = make_store(name_grid())
        if reason == REASON_STAGE_BUDGET:
            necessary = NgramOverlapPredicate("name", 0.5)
            policy = ExecutionPolicy(max_stage_evaluations=5)
        else:
            # The first block stalls past the deadline; the next block's
            # tick fires it.
            necessary = BlockFaultNgram(stall_seconds=0.6)
            policy = ExecutionPolicy(deadline_seconds=0.5)
        levels = [PredicateLevel(exact_name_predicate(), necessary)]
        result = pruned_dedup(store, 2, levels, policy=policy)
        assert result.degraded and result.degraded_reason == reason
        [abandoned] = [r for r in result.stage_records if not r.completed]
        assert abandoned.stage in ("lower_bound", "prune")
        assert abandoned.reason == reason


# -- the symmetric sweep under a guard ----------------------------------

#: Word-Jaccard threshold of the sweep tests' verifier shape: low enough
#: that the name grid's lists are not empty ("ann smith" ~ "ann smyth").
SWEEP_JACCARD = 0.3


class SweepOnlyFaults(FaultyBlocks):
    """Faults only the sweep's pair call; per-probe blocks run clean."""

    def verify_block(self, probe_state, candidates):
        return self._inner.verify_block(probe_state, candidates)


class SweepFaultJaccard(JaccardPredicate):
    """Library word Jaccard whose verifier raises only in the sweep's
    pair call (on a poisoned candidate): every chunk that falls back is
    decided again by clean per-probe blocks."""

    def __init__(self):
        super().__init__(field="name", threshold=SWEEP_JACCARD)

    def batch_verifier(self, records):
        return SweepOnlyFaults(super().batch_verifier(records), _poisoned(records))

_COUNTERS = (
    "predicate_evaluations",
    "cache_hits",
    "cache_misses",
    "neighbor_queries",
    "neighbor_memo_hits",
)


def _verify_counts(counters):
    return {name: getattr(counters, name) for name in _COUNTERS}


def _csr_lists(index, positions):
    """The rows of ``index.neighbors_csr(positions)``, as lists."""
    indptr, flat = index.neighbors_csr(positions)
    return [
        flat[indptr[row] : indptr[row + 1]].tolist()
        for row in range(len(indptr) - 1)
    ]


def _member_lists(predicate, records, counters=None):
    """Every member's list in one ``neighbors_csr`` call (the sweep
    for a symmetric engine)."""
    index = NeighborIndex(predicate, records, counters=counters)
    return _csr_lists(index, range(len(records)))


def _per_probe_lists(predicate, records):
    """Every member's list from its own ``neighbors`` query, one block
    per probe: the reference a contained chunk must fall back to."""
    index = NeighborIndex(predicate, records)
    return [
        index.neighbors(record, exclude_position=position).tolist()
        for position, record in enumerate(records)
    ]


def _clean_predicate(shape):
    if shape == "count-rule":
        return NgramOverlapPredicate("name", 0.5)
    return JaccardPredicate(field="name", threshold=SWEEP_JACCARD)


def _block_fault_predicate(shape):
    if shape == "count-rule":
        return BlockFaultNgram()
    return BlockFaultJaccard(threshold=SWEEP_JACCARD)


def _set_budgets(monkeypatch, budget):
    """One sweep chunk budget for guarded and unguarded engines alike."""
    monkeypatch.setattr(batch_module, "SWEEP_ENTRY_BUDGET", budget)
    monkeypatch.setattr(batch_module, "GUARDED_SWEEP_ENTRY_BUDGET", budget)


def _cut_sweep(monkeypatch, shape, records, probes_per_chunk):
    """Set the sweep budgets so that chunks hold about
    *probes_per_chunk* probes of *records*; returns the chunk count."""
    engine = NeighborIndex(_clean_predicate(shape), records).batch_engine
    _set_budgets(
        monkeypatch, int(engine._probe_entries.mean() * probes_per_chunk)
    )
    return len(list(engine._sweep_chunks(np.arange(len(records)))))


def _poison_at(position):
    names = name_grid()[:-2]
    return names[:position] + ["bob jones poison"] + names[position:]


class TestGuardedSweep:
    """A guard around a symmetric predicate sweeps: each pair decided
    once per call, each chunk's call one guarded block, and a chunk that
    fell back decided again one probe block at a time."""

    @pytest.fixture(autouse=True)
    def _vectorized(self):
        with vectorize_mode(True):
            yield

    @pytest.mark.parametrize(
        "budget", [1, None, 10**12], ids=["1", "default", "unbounded"]
    )
    @pytest.mark.parametrize("shape", range(len(SWEEP_IDS)), ids=SWEEP_IDS)
    def test_clean_lists_and_counters_equal_unguarded(
        self, shape, budget, monkeypatch
    ):
        # "default" compares each side at its own default budget.
        if budget is not None:
            _set_budgets(monkeypatch, budget)
        records = list(RecordStore.from_rows(_sweep_rows(43, 90)))
        plain_counters = PipelineCounters()
        plain = _member_lists(
            _sweep_predicates()[shape], records, plain_counters
        )
        guarded_counters = PipelineCounters()
        guard = GuardedPredicate(
            _sweep_predicates()[shape], "necessary", armed_state(guarded_counters)
        )
        assert NeighborIndex(guard, records).batch_engine.symmetric
        guarded = _member_lists(guard, records, guarded_counters)
        assert guarded == plain
        assert _verify_counts(guarded_counters) == _verify_counts(plain_counters)
        assert guarded_counters.cache_hits > 0
        assert guarded_counters.total_contained == 0

    def test_guarded_sweep_is_cut_by_its_own_budget(self, monkeypatch):
        monkeypatch.setattr(batch_module, "GUARDED_SWEEP_ENTRY_BUDGET", 300)
        records = list(make_store(name_grid()))
        order = np.arange(len(records))
        plain = NeighborIndex(NgramOverlapPredicate("name", 0.5), records)
        assert len(list(plain.batch_engine._sweep_chunks(order))) == 1
        guard = GuardedPredicate(
            BlockFaultNgram(trigger="-never-"), "necessary", armed_state()
        )
        engine = NeighborIndex(guard, records).batch_engine
        chunks = list(engine._sweep_chunks(order))
        assert len(chunks) > 10
        assert all(
            len(chunk) == 1 or engine._probe_entries[chunk].sum() <= 300
            for chunk in chunks
        )

    @pytest.mark.parametrize("vectorized", [True, False], ids=["vector", "scalar"])
    def test_clean_answers_equal_unguarded(self, vectorized):
        pipeline = citation_pipeline(n_records=200, seed=3, with_scorer=False)
        necessary = pipeline.levels[0].necessary
        groups = GroupSet.singletons(pipeline.store)
        with vectorize_mode(vectorized):
            plain_context = VerificationContext()
            plain = plain_context.neighbor_index(necessary, groups)
            plain_lists = _csr_lists(plain, range(len(groups)))
            context = VerificationContext()
            guard = GuardedPredicate(
                necessary, "necessary", ExecutionPolicy().start(context.counters)
            )
            guarded = context.neighbor_index(guard, groups)
            assert (guarded.batch_engine is not None) == vectorized
            assert _csr_lists(guarded, range(len(groups))) == plain_lists
            assert context.counters.total_contained == 0
            if vectorized:
                assert _verify_counts(context.counters) == _verify_counts(
                    plain_context.counters
                )
            answer = pruned_dedup(
                pipeline.store, 5, pipeline.levels, policy=ExecutionPolicy()
            )
            reference = pruned_dedup(pipeline.store, 5, pipeline.levels)
        assert not answer.degraded
        assert answer.counters.total_contained == 0
        assert group_fingerprint(answer.groups) == group_fingerprint(
            reference.groups
        )
        assert answer.groups.weights() == reference.groups.weights()

    @pytest.mark.parametrize("probes_per_chunk", [1, 4])
    @pytest.mark.parametrize("role", ["necessary", "sufficient"])
    @pytest.mark.parametrize("shape", ["count-rule", "verifier"])
    def test_one_poisoned_record_lists_equal_per_probe_reference(
        self, shape, role, probes_per_chunk, monkeypatch
    ):
        records = list(make_store(name_grid()[:-1]))  # poison is last
        assert _cut_sweep(monkeypatch, shape, records, probes_per_chunk) > 5
        reference = _per_probe_lists(
            GuardedPredicate(_block_fault_predicate(shape), role, armed_state()),
            records,
        )
        counters = PipelineCounters()
        guard = GuardedPredicate(
            _block_fault_predicate(shape), role, armed_state(counters)
        )
        assert _member_lists(guard, records, counters) == reference
        assert counters.predicate_errors_contained > 0
        assert counters.cache_hits > 0

    @pytest.mark.parametrize("position", [17, 30, 48])
    @pytest.mark.parametrize("role", ["necessary", "sufficient"])
    @pytest.mark.parametrize("shape", ["count-rule", "verifier"])
    def test_fallback_verdict_reaches_only_its_own_probe(
        self, shape, role, position, monkeypatch
    ):
        # Wherever the poisoned record sits, each list is either the
        # probe's clean list or the fallback of its own block (which
        # then touched the poisoned record), never a mix.
        records = list(make_store(_poison_at(position)))
        _cut_sweep(monkeypatch, shape, records, 4)
        poisoned = _poisoned(records)
        clean_predicate = _clean_predicate(shape)
        clean = _member_lists(clean_predicate, records)
        plain = NeighborIndex(clean_predicate, records)
        counters = PipelineCounters()
        guard = GuardedPredicate(
            _block_fault_predicate(shape), role, armed_state(counters)
        )
        fallbacks = 0
        for probe, got in enumerate(_member_lists(guard, records, counters)):
            if got == clean[probe]:
                continue
            candidates = sorted(
                plain.candidate_positions(records[probe]) - {probe}
            )
            assert poisoned[candidates].any(), probe
            assert got == (candidates if role == "necessary" else []), probe
            fallbacks += 1
        assert fallbacks > 0
        assert counters.cache_hits > 0

    def test_chunk_decided_again_is_contained_once_and_shares_nothing(
        self, monkeypatch
    ):
        # Only the sweep's pair call faults here, so every chunk that
        # falls back is decided again cleanly: the lists are the clean
        # ones, and each member's candidate entries are covered exactly
        # once, by its own evaluation or by a shared verdict.  The
        # fallen-back chunk calls are the evaluations covering none.
        records = list(make_store(name_grid()[:-1]))
        _cut_sweep(monkeypatch, "verifier", records, 4)
        clean_predicate = _clean_predicate("verifier")
        counters = PipelineCounters()
        guard = GuardedPredicate(
            SweepFaultJaccard(), "necessary", armed_state(counters)
        )
        lists = _member_lists(guard, records, counters)
        assert lists == _member_lists(clean_predicate, records)
        plain = NeighborIndex(clean_predicate, records)
        entries = sum(
            len(plain.candidate_positions(record) - {position})
            for position, record in enumerate(records)
        )
        wasted = counters.predicate_errors_contained
        assert wasted > 0 and counters.cache_hits > 0
        assert counters.predicate_timeouts_contained == 0
        assert (
            counters.predicate_evaluations - wasted + counters.cache_hits
            == entries
        )

    def test_contained_sweep_answer_is_never_cached(self, monkeypatch):
        names = name_grid() + ["ann smith"] * 3 + ["rob jones"] * 3
        stream = IncrementalTopK(
            [PredicateLevel(exact_name_predicate(), BlockFaultNgram())]
        )
        for name in names:
            stream.add({"name": name})
        _cut_sweep(monkeypatch, "count-rule", list(make_store(names)), 1)
        first = stream.query(2, policy=ExecutionPolicy())
        assert not first.degraded
        assert first.counters.predicate_errors_contained > 0
        assert first.counters.cache_hits > 0  # the guarded sweep shared
        assert stream.query(2, policy=ExecutionPolicy()) is not first
        assert stream.snapshot().cache_size == 0

    def test_clean_rerun_after_a_contained_one_is_cached(self):
        # Clean-ness is judged on each run's own counters: the fault the
        # first run contained stays in the engine's lifetime totals, yet
        # a clean rerun at the same version is cached.
        necessary = BlockFaultNgram()
        stream = IncrementalTopK(
            [PredicateLevel(exact_name_predicate(), necessary)]
        )
        for name in name_grid():
            stream.add({"name": name})
        first = stream.query(2, policy=ExecutionPolicy())
        assert first.counters.predicate_errors_contained > 0
        necessary.trigger = "-never-"
        clean = stream.query(2, policy=ExecutionPolicy())
        assert clean.counters.total_contained == 0
        assert stream.verification.counters.predicate_errors_contained > 0
        assert stream.query(2) is clean
        assert stream.snapshot().cache_size == 1

    @pytest.mark.parametrize("shape", ["count-rule", "verifier"])
    def test_on_error_raise_propagates_from_a_sweep_chunk(self, shape):
        records = list(make_store(name_grid()))
        guard = GuardedPredicate(
            _block_fault_predicate(shape),
            "necessary",
            armed_state(on_error="raise"),
        )
        index = NeighborIndex(guard, records)
        assert index.batch_engine.symmetric
        with pytest.raises(RuntimeError, match="block exploded"):
            index.neighbors_csr(range(len(records)))


# -- block-level containment of the scorer ------------------------------


class BlockScorer(PairwiseScorer):
    """Scores *value* per pair, one block per call; a block touching a
    record whose name holds *trigger* raises, and each block can stall."""

    def __init__(self, value=1.0, trigger="poison", stall_seconds=0.0):
        self.value = value
        self.trigger = trigger
        self.stall_seconds = stall_seconds
        self.blocks = []

    def score(self, a, b):
        return self.score_one(a, b)

    def score_pairs(self, records, left, right):
        self.blocks.append(len(left))
        if self.stall_seconds:
            time.sleep(self.stall_seconds)
        touched = np.concatenate((left, right)).tolist()
        if any(self.trigger in records[i]["name"] for i in touched):
            raise RuntimeError("scorer block exploded")
        return np.full(len(left), self.value)


def key_implies_levels():
    # The necessary predicate decides by shared key alone, so pruning
    # makes no guarded evaluations: every tick lands in scoring.
    necessary = FunctionPredicate(
        evaluate_fn=lambda a, b: True,
        keys_fn=lambda r: r["name"].split()[-1:],
        name="same-last-word",
        key_implies_match=True,
    )
    return [PredicateLevel(exact_name_predicate(), necessary)]


SCORED_NAMES = ["a x", "b x", "c x", "d x", "e x", "f x"]


def upper_pairs(n):
    left, right = np.triu_indices(n, k=1)
    return left, right


class TestScorerBlockContainment:
    def test_raising_block_scores_neutral_for_each_pair(self):
        records = list(make_store(["ann x", "bob x", "poison x", "cara x"]))
        counters = PipelineCounters()
        guard = GuardedScorer(BlockScorer(), armed_state(counters))
        left, right = upper_pairs(len(records))
        assert guard.score_pairs(records, left, right).tolist() == [0.0] * 6
        assert counters.scorer_errors_contained == 6
        clean = guard.score_pairs(records, np.array([0, 1]), np.array([1, 3]))
        assert clean.tolist() == [1.0, 1.0]
        assert counters.scorer_errors_contained == 6
        # score(a, b) is the one-pair block.
        assert guard.score(records[0], records[2]) == 0.0
        assert counters.scorer_errors_contained == 7

    def test_block_native_scorer_is_guarded_in_chunks(self, monkeypatch):
        monkeypatch.setattr(resilience, "PAIR_CHUNK", 2)
        records = list(make_store(["ann x", "bob x", "poison x", "cara x"]))
        counters = PipelineCounters()
        inner = BlockScorer()
        guard = GuardedScorer(inner, armed_state(counters))
        # Chunks (0,1),(0,3) | (1,3),(2,3) | (1,2): the middle and last
        # touch the poison record.
        left, right = np.array([0, 0, 1, 2, 1]), np.array([1, 3, 3, 3, 2])
        scores = guard.score_pairs(records, left, right).tolist()
        assert scores == [1.0, 1.0, 0.0, 0.0, 0.0]
        assert inner.blocks == [2, 2, 1]
        assert counters.scorer_errors_contained == 3

    def test_deadline_checked_between_chunks(self, monkeypatch):
        monkeypatch.setattr(resilience, "PAIR_CHUNK", 3)
        records = list(make_store(SCORED_NAMES))
        inner = BlockScorer(stall_seconds=0.2)
        guard = GuardedScorer(inner, armed_state(deadline_seconds=0.1))
        left, right = upper_pairs(len(records))
        with pytest.raises(ResilienceExhausted) as raised:
            guard.score_pairs(records, left, right)
        assert raised.value.reason == REASON_DEADLINE
        assert inner.blocks == [3]  # one chunk of the 15 pairs ran

    def test_on_error_raise_propagates_from_block(self):
        records = list(make_store(["ann x", "poison x"]))
        guard = GuardedScorer(BlockScorer(), armed_state(on_error="raise"))
        with pytest.raises(RuntimeError, match="scorer block exploded"):
            guard.score_pairs(records, np.array([0]), np.array([1]))

    def test_stage_budget_checked_per_block(self):
        records = list(make_store(SCORED_NAMES))
        inner = BlockScorer()
        state = armed_state(max_stage_evaluations=5)
        guard = GuardedScorer(inner, state)
        block = (np.array([0, 0, 1]), np.array([1, 2, 2]))
        assert guard.score_pairs(records, *block).tolist() == [1.0] * 3
        with pytest.raises(ResilienceExhausted) as raised:
            guard.score_pairs(records, *block)
        assert raised.value.reason == REASON_STAGE_BUDGET
        assert inner.blocks == [3]  # the over-budget block never ran

    def test_deadline_checked_per_block(self):
        records = list(make_store(SCORED_NAMES))
        inner = BlockScorer(stall_seconds=0.2)
        guard = GuardedScorer(inner, armed_state(deadline_seconds=0.1))
        block = (np.array([0, 0, 1]), np.array([1, 2, 2]))
        # Checked before the block, so the block runs to the end...
        assert guard.score_pairs(records, *block).tolist() == [1.0] * 3
        # ...and the next block finds the deadline spent.
        with pytest.raises(ResilienceExhausted) as raised:
            guard.score_pairs(records, *block)
        assert raised.value.reason == REASON_DEADLINE
        assert inner.blocks == [3]

    @pytest.mark.parametrize("per_pair, timed_out", [(0.02, False), (1e-9, True)])
    def test_call_timeout_scales_with_block_size(self, per_pair, timed_out):
        records = list(make_store(SCORED_NAMES))
        left, right = upper_pairs(len(records))
        assert len(left) * 0.02 > 0.1  # block budget beats the stall
        counters = PipelineCounters()
        guard = GuardedScorer(
            BlockScorer(value=2.5, stall_seconds=0.05),
            armed_state(counters, call_timeout_seconds=per_pair),
        )
        scores = guard.score_pairs(records, left, right).tolist()
        if timed_out:
            assert scores == [0.0] * len(left)
            assert counters.scorer_errors_contained == len(left)
        else:
            # Over the per-pair timeout, within the block's budget.
            assert scores == [2.5] * len(left)
            assert counters.scorer_errors_contained == 0

    @pytest.mark.parametrize("query", ["topk", "interval"])
    @pytest.mark.parametrize("reason", [REASON_STAGE_BUDGET, REASON_DEADLINE])
    def test_exhaustion_in_scoring_degrades(self, query, reason):
        from repro.uncertainty.query import topk_interval_query

        store = make_store(SCORED_NAMES)
        if reason == REASON_STAGE_BUDGET:
            scorer = BlockScorer()
            policy = ExecutionPolicy(max_stage_evaluations=3)
        else:
            # Pruning is instant; the one scoring block stalls past the
            # deadline, which the stage's next check finds spent.
            scorer = BlockScorer(stall_seconds=0.4)
            policy = ExecutionPolicy(deadline_seconds=0.2)
        if query == "topk":
            result = topk_count_query(
                store, 2, key_implies_levels(), scorer, policy=policy
            )
            records = result.pruning.stage_records
        else:
            result = topk_interval_query(
                store, 2, key_implies_levels(), scorer, r=4, policy=policy
            )
            assert result.worlds_enumerated == 0
            records = result.pruning.stage_records
        assert result.degraded and result.degraded_reason == reason
        scoring = [r for r in records if r.level_name == "scoring"]
        assert scoring and scoring[-1].completed is False
        assert len(scorer.blocks) == (0 if reason == REASON_STAGE_BUDGET else 1)

    def test_clean_guarded_answer_equals_unguarded(self):
        from repro.datasets import (
            author_idf,
            author_string_idf,
            generate_citations,
            suggest_min_idf,
        )
        from repro.experiments.harness import train_scorer_for
        from repro.predicates import citation_levels
        from repro.uncertainty.query import topk_interval_query

        dataset = generate_citations(n_records=400, seed=6)
        idf = author_idf(dataset.store)
        levels = citation_levels(
            idf, suggest_min_idf(idf), anchor_idf=author_string_idf(dataset.store)
        )
        scorer = train_scorer_for(dataset, "citation", levels, seed=6)
        for r in (1, 3):
            plain = topk_count_query(dataset.store, 4, levels, scorer.fresh(), r=r)
            guarded = topk_count_query(
                dataset.store, 4, levels, scorer.fresh(), r=r,
                policy=ExecutionPolicy(),
            )
            assert not guarded.degraded
            assert guarded.pruning.counters.total_contained == 0
            assert [(a.entities, a.score, a.probability) for a in guarded.answers] == [
                (a.entities, a.score, a.probability) for a in plain.answers
            ]
        plain = topk_interval_query(dataset.store, 4, levels, scorer.fresh(), r=4)
        guarded = topk_interval_query(
            dataset.store, 4, levels, scorer.fresh(), r=4, policy=ExecutionPolicy()
        )
        assert not guarded.degraded
        assert guarded.entities == plain.entities

    def test_contained_answer_is_never_cached(self):
        names = ["ann lee", "an lee", "bob roy", "bob roi", "poison lee", "carl day"]
        engine = IncrementalTopK(key_implies_levels(), scorer=BlockScorer())
        for name in names:
            engine.add({"name": name}, 1.0)
        first = engine.query(2, kind="interval", r=4, policy=ExecutionPolicy())
        second = engine.query(2, kind="interval", r=4, policy=ExecutionPolicy())
        assert first is not second
        assert engine.snapshot().cache_size == 0
        assert engine.verification.counters.scorer_errors_contained > 0
        clean = IncrementalTopK(
            key_implies_levels(), scorer=BlockScorer(trigger="-never-")
        )
        for name in names:
            clean.add({"name": name}, 1.0)
        answer = clean.query(2, kind="interval", r=4, policy=ExecutionPolicy())
        assert clean.query(2, kind="interval", r=4, policy=ExecutionPolicy()) is answer
