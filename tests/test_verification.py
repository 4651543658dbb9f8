"""Tests for the shared verification layer (context, counters, caches).

The workload below has two heavy disjoint clusters (alpha/beta), two
lighter groups N-connected to them (gamma/delta), and two isolated
singletons — small enough to reason about every probe by hand:

* lower-bound estimation (K=2) certifies at m=2 with M=4 after probing
  the alpha and beta representatives;
* pruning probes the four at-risk groups; gamma and delta survive on
  their neighbor mass, the singletons are pruned.

Every candidate pair the prune stage needs was already decided by the
lower-bound walk (from the other endpoint), so a shared context answers
the whole prune stage from the verdict cache.
"""

import pytest

from repro.core.collapse import collapse
from repro.core.incremental import IncrementalTopK
from repro.core.lower_bound import estimate_lower_bound
from repro.core.prune import prune
from repro.core.pruned_dedup import pruned_dedup
from repro.core.records import GroupSet
from repro.core.verification import PipelineCounters, VerificationContext
from repro.predicates.base import FunctionPredicate, PredicateLevel
from repro.predicates.blocking import NeighborIndex
from repro.predicates.library import NgramOverlapPredicate
from tests.conftest import (
    exact_name_predicate,
    make_store,
    shared_word_predicate,
    vectorize_mode,
)


def two_cluster_store():
    return make_store(
        ["alpha one"] * 5
        + ["beta two"] * 4
        + ["gamma one"] * 3
        + ["delta two"] * 2
        + ["eps three", "zeta four"]
    )


def collapsed_groups(store):
    return collapse(GroupSet.singletons(store), exact_name_predicate())


def run_level(context, groups, necessary, k=2):
    estimate = estimate_lower_bound(groups, necessary, k, context=context)
    pruned = prune(groups, necessary, estimate.bound, context=context)
    return estimate, pruned


class TestSharedContextSavesWork:
    def test_strictly_fewer_evaluations_than_independent_stages(self):
        store = two_cluster_store()
        groups = collapsed_groups(store)
        necessary = shared_word_predicate()

        legacy = VerificationContext(caching=False)
        legacy_estimate, legacy_pruned = run_level(legacy, groups, necessary)

        shared = VerificationContext()
        estimate, pruned = run_level(shared, groups, necessary)

        # Identical pipeline outcome...
        assert (estimate.m, estimate.bound) == (
            legacy_estimate.m,
            legacy_estimate.bound,
        )
        assert pruned.kept_group_ids == legacy_pruned.kept_group_ids
        assert pruned.retained.weights() == legacy_pruned.retained.weights()

        # ...for strictly less verification work.
        assert (
            shared.counters.total_evaluations
            < legacy.counters.total_evaluations
        )
        assert shared.counters.index_builds == 1
        assert legacy.counters.index_builds == 2
        assert shared.counters.index_reuses == 1
        assert shared.counters.cache_hits > 0
        assert legacy.counters.cache_hits == 0

    def test_prune_answered_entirely_from_cache(self):
        # Every pair the prune stage probes was decided (from the other
        # endpoint) during the lower-bound walk: zero fresh evaluations.
        store = two_cluster_store()
        groups = collapsed_groups(store)
        necessary = shared_word_predicate()
        context = VerificationContext()
        estimate_lower_bound(groups, necessary, 2, context=context)
        after_lower_bound = context.counters.snapshot()
        prune(groups, necessary, 4.0, context=context)
        prune_work = context.counters.delta(after_lower_bound)
        assert prune_work.total_evaluations == 0
        assert prune_work.cache_hits > 0

    def test_verdict_cache_is_inspectable(self):
        store = two_cluster_store()
        groups = collapsed_groups(store)
        necessary = shared_word_predicate()
        context = VerificationContext()
        run_level(context, groups, necessary)
        assert context.cached_verdicts(necessary) == (
            context.counters.cache_misses
        )
        assert context.cached_verdicts(necessary) > 0


def _sharing_store():
    return make_store(
        ["ann smithson"] * 3
        + ["anne smithson"] * 2
        + ["bob jonesey"] * 2
        + ["bobby jonesey", "cara leeworth"]
    )


def _cached_and_bare_lists(context, necessary, groups):
    """Member lists from the context's index and from a bare index."""
    cached = context.neighbor_index(necessary, groups)
    bare = NeighborIndex(necessary, groups.representatives())
    return [
        (
            cached.neighbors(representative, exclude_position=position).tolist(),
            bare.neighbors(representative, exclude_position=position).tolist(),
        )
        for position, representative in enumerate(groups.representatives())
    ]


class TestCountModeSharing:
    """A batch engine shares verdicts by neighbor-set membership (not the
    per-pair dict — see NeighborIndex docs); scalar ``evaluate`` shares
    them through the dict."""

    def test_membership_sharing_matches_uncached_index(self):
        groups = collapsed_groups(_sharing_store())
        necessary = NgramOverlapPredicate("name", 0.4)
        context = VerificationContext()
        with vectorize_mode(True):
            lists = _cached_and_bare_lists(context, necessary, groups)
        for cached, bare in lists:
            assert cached == bare
        # Later probes answered earlier probes' pairs from their sets.
        assert context.counters.cache_hits > 0
        # ...and the per-pair dict stayed empty (the engine bypasses it).
        assert context.cached_verdicts(necessary) == 0

    def test_scalar_sharing_matches_uncached_index(self):
        groups = collapsed_groups(_sharing_store())
        necessary = NgramOverlapPredicate("name", 0.4)
        context = VerificationContext()
        with vectorize_mode(False):
            lists = _cached_and_bare_lists(context, necessary, groups)
        for cached, bare in lists:
            assert cached == bare
        # Later probes answered earlier probes' pairs from the dict.
        assert context.counters.cache_hits > 0
        assert context.cached_verdicts(necessary) == (
            context.counters.cache_misses
        )
        assert context.cached_verdicts(necessary) > 0

    def test_shared_and_full_probes_agree_pairwise(self):
        # Every (i, j) verdict must be identical whichever endpoint is
        # probed first — the symmetry the membership shortcut relies on.
        store = make_store(
            ["ann smithson", "anne smithson", "bob jonesey", "bobby jonesey"]
        )
        groups = collapsed_groups(store)
        necessary = NgramOverlapPredicate("name", 0.4)
        context = VerificationContext()
        with vectorize_mode(True):
            index = context.neighbor_index(necessary, groups)
            representatives = groups.representatives()
            lists = {
                i: set(index.neighbors(representatives[i], exclude_position=i))
                for i in range(len(representatives))
            }
        for i in lists:
            for j in lists:
                if i != j:
                    assert (j in lists[i]) == (i in lists[j])


class TestContextCorrectnessGuards:
    def test_asymmetric_predicate_bypasses_verdict_cache(self):
        store = two_cluster_store()
        groups = collapsed_groups(store)
        asym = FunctionPredicate(
            evaluate_fn=lambda a, b: bool(
                set(a["name"].split()) & set(b["name"].split())
            ),
            keys_fn=lambda r: r["name"].split(),
            name="asym",
            symmetric=False,
        )
        context = VerificationContext()
        index = context.neighbor_index(asym, groups)
        index.neighbors(groups.representatives()[2], exclude_position=2)
        assert context.counters.predicate_evaluations > 0
        assert context.counters.cache_misses == 0
        assert context.cached_verdicts(asym) == 0

    def test_index_rebuilt_when_group_set_changes(self):
        store = two_cluster_store()
        groups = collapsed_groups(store)
        necessary = shared_word_predicate()
        context = VerificationContext()
        first = context.neighbor_index(necessary, groups)
        again = context.neighbor_index(necessary, groups)
        assert again is first
        shrunk = context.neighbor_index(necessary, groups.subset([0, 1, 2]))
        assert shrunk is not first
        assert context.counters.index_builds == 2
        assert context.counters.index_reuses == 1

    def test_verdict_cache_limit_evicts_oldest_down_to_limit(self):
        store = two_cluster_store()
        groups = collapsed_groups(store)
        necessary = shared_word_predicate()
        context = VerificationContext(verdict_cache_limit=1)
        run_level(context, groups, necessary)
        assert context.cached_verdicts(necessary) > 1
        # The limit is enforced at the next index build for the predicate:
        # bounded FIFO eviction trims the *oldest* verdicts down to the
        # limit instead of flushing the whole cache mid-stream.
        context.neighbor_index(necessary, groups.subset([0, 1]))
        assert context.cached_verdicts(necessary) == 1


class TestCounters:
    def test_snapshot_and_delta(self):
        counters = PipelineCounters()
        counters.predicate_evaluations = 5
        counters.add_stage_time("prune", 1.0)
        snapshot = counters.snapshot()
        counters.predicate_evaluations += 3
        counters.add_stage_time("prune", 0.5)
        delta = counters.delta(snapshot)
        assert delta.predicate_evaluations == 3
        assert delta.total_evaluations == 3
        assert delta.stage_seconds == pytest.approx({"prune": 0.5})
        # The snapshot is an independent copy.
        assert snapshot.predicate_evaluations == 5
        assert snapshot.stage_seconds == {"prune": 1.0}

    def test_as_dict_shape(self):
        counters = PipelineCounters()
        counters.cache_hits = 7
        counters.add_stage_time("collapse", 0.25)
        flat = counters.as_dict()
        assert flat["cache_hits"] == 7
        assert flat["stage_seconds"] == {"collapse": 0.25}
        assert set(PipelineCounters._INT_FIELDS) <= set(flat)


class TestPipelineIntegration:
    def test_pruned_dedup_exposes_per_level_counters(self):
        store = two_cluster_store()
        levels = [
            PredicateLevel(exact_name_predicate(), shared_word_predicate())
        ]
        result = pruned_dedup(store, 2, levels)
        assert result.counters is not None
        level_counters = result.stats[0].counters
        assert level_counters is not None
        assert level_counters.index_builds == 1
        assert level_counters.index_reuses == 1
        assert level_counters.cache_hits > 0
        assert {"collapse", "lower_bound", "prune"} <= set(
            result.counters.stage_seconds
        )

    def test_external_context_accumulates_across_runs(self):
        store = two_cluster_store()
        levels = [
            PredicateLevel(exact_name_predicate(), shared_word_predicate())
        ]
        context = VerificationContext()
        first = pruned_dedup(store, 2, levels, context=context)
        evaluations_after_first = context.counters.total_evaluations
        assert evaluations_after_first > 0
        second = pruned_dedup(store, 2, levels, context=context)
        assert first.groups.weights() == second.groups.weights()
        # Same store, same predicate objects: the second run is answered
        # from the persistent verdict cache and neighbor memo.
        assert (
            context.counters.total_evaluations == evaluations_after_first
        )
        assert context.counters.index_builds == 1

    def test_incremental_stream_keeps_cache_across_queries(self):
        levels = [
            PredicateLevel(exact_name_predicate(), shared_word_predicate())
        ]
        stream = IncrementalTopK(levels)
        stream.add_store(two_cluster_store())
        first = stream.query(2)
        assert first.counters is not None
        builds_after_first = stream.verification.counters.index_builds
        second = stream.query(1)
        # A different K re-runs the pipeline but reuses the index and
        # every neighbor list computed by the first query.
        assert (
            stream.verification.counters.index_builds == builds_after_first
        )
        assert stream.verification.counters.neighbor_memo_hits > 0
        batch = pruned_dedup(stream.current_store(), 1, levels)
        assert second.groups.weights() == batch.groups.weights()


class TestStageTimingReentrancy:
    """Regression: re-entrant same-name stage() frames must count once.

    Nesting ``context.stage("x")`` inside another ``stage("x")`` frame
    (as the thresholded rank query's priming sweep does under "prune")
    used to add both frames' elapsed time — the inner interval was
    counted twice.  Only the outermost frame of a name may record.
    """

    def test_nested_same_name_counts_outer_frame_once(self):
        import time as time_module

        context = VerificationContext()
        with context.stage("prune"):
            with context.stage("prune"):
                time_module.sleep(0.02)
        recorded = context.counters.stage_seconds["prune"]
        # Double counting would record >= 2x the inner sleep.
        assert 0.02 <= recorded < 0.036

    def test_distinct_names_still_count_independently(self):
        context = VerificationContext()
        with context.stage("collapse"):
            with context.stage("prune"):
                pass
        assert set(context.counters.stage_seconds) == {"collapse", "prune"}

    def test_sequential_same_name_frames_accumulate(self):
        import time as time_module

        context = VerificationContext()
        for _ in range(2):
            with context.stage("prune"):
                time_module.sleep(0.01)
        assert context.counters.stage_seconds["prune"] >= 0.02

    def test_depth_bookkeeping_resets_after_exception(self):
        context = VerificationContext()
        with pytest.raises(RuntimeError):
            with context.stage("prune"):
                raise RuntimeError("boom")
        assert context._stage_depth == {}
        with context.stage("prune"):
            pass
        assert context.counters.stage_seconds["prune"] > 0


class TestContextObservabilityHelpers:
    def test_default_context_uses_null_observability(self):
        context = VerificationContext()
        assert context.tracer.enabled is False
        assert context.metrics.enabled is False
        with context.span("query") as span:
            span.set_attribute("k", 1)
        assert context.tracer.roots == []

    def test_span_measures_pipeline_counters_by_default(self):
        from repro.observability import Tracer

        store = two_cluster_store()
        context = VerificationContext(tracer=Tracer())
        groups = collapsed_groups(store)
        with context.span("lower_bound"):
            estimate_lower_bound(groups, shared_word_predicate(), 2,
                                 context=context)
        (root,) = context.tracer.roots
        delta = root.counters_delta
        assert delta is not None
        assert delta.predicate_evaluations > 0
        assert delta.as_dict()["predicate_evaluations"] == (
            context.counters.predicate_evaluations
        )

    def test_event_routes_to_tracer(self):
        from repro.observability import Tracer

        context = VerificationContext(tracer=Tracer())
        with context.span("query"):
            context.event("degraded", reason="deadline")
        (root,) = context.tracer.roots
        assert root.events[0].name == "degraded"

    def test_publish_pipeline_metrics_exports_totals(self):
        from repro.observability import MetricsRegistry

        context = VerificationContext(metrics=MetricsRegistry())
        before = context.counters.snapshot()
        context.counters.predicate_evaluations += 3
        context.counters.add_stage_time("prune", 0.5)
        context.publish_pipeline_metrics(context.counters.delta(before))
        assert context.metrics.value(
            "repro_pipeline_predicate_evaluations_total"
        ) == 3
        assert context.metrics.value(
            "repro_stage_seconds_total", stage="prune"
        ) == 0.5
