"""System-level properties of the observability layer.

These run real queries under a live :class:`Tracer` / registry and check
the structural contracts the exporters and the acceptance criteria rely
on:

* span trees are well-nested (every span closed, appears exactly once);
* children's wall times sum to at most their parent's;
* the root ``query`` span's counter delta equals the run's reported
  :class:`PipelineCounters`, and a full JSONL export replays back to the
  same totals (:func:`replay_counters`);
* deterministic-mode traces are byte-identical with and without a clean
  :class:`ExecutionPolicy` — the thresholded query's policy-only keying
  sweep is a transient span (kept in full traces, excluded from
  deterministic ones), never part of the logical span skeleton;
* running under the default :class:`NullTracer` / :class:`NullMetrics`
  yields bit-identical answers and counters to running fully traced —
  observability never perturbs the computation.
"""

import json

from repro.core.incremental import IncrementalTopK
from repro.core.rank_query import thresholded_rank_query, topk_rank_query
from repro.core.resilience import ExecutionPolicy
from repro.core.topk import topk_count_query
from repro.core.verification import VerificationContext
from repro.observability import (
    MetricsRegistry,
    Tracer,
    replay_counters,
    trace_lines,
)
from repro.experiments.harness import citation_pipeline

_PIPELINE = {}


def pipeline():
    if not _PIPELINE:
        _PIPELINE["p"] = citation_pipeline(
            n_records=400, seed=7, with_scorer=True
        )
    return _PIPELINE["p"]


def traced_count_query():
    p = pipeline()
    context = VerificationContext(tracer=Tracer(), metrics=MetricsRegistry())
    result = topk_count_query(p.store, 5, p.levels, p.scorer, context=context)
    return result, context


def all_spans(tracer: Tracer):
    return [span for root in tracer.roots for span in root.walk()]


class TestSpanTreeStructure:
    def test_single_query_root(self):
        _, context = traced_count_query()
        roots = context.tracer.roots
        assert [root.name for root in roots] == ["query"]
        assert context.tracer.current() is None  # everything closed

    def test_spans_well_nested(self):
        _, context = traced_count_query()
        seen_ids = set()
        for span in all_spans(context.tracer):
            assert id(span) not in seen_ids, "span appears twice in the tree"
            seen_ids.add(id(span))
        names = {span.name for span in all_spans(context.tracer)}
        assert {"query", "pruned_dedup", "level", "collapse"} <= names

    def test_child_wall_times_sum_to_at_most_parent(self):
        _, context = traced_count_query()
        for span in all_spans(context.tracer):
            child_sum = sum(child.wall_seconds for child in span.children)
            assert child_sum <= span.wall_seconds + 1e-6, (
                f"{span.name}: children {child_sum}s > parent "
                f"{span.wall_seconds}s"
            )


class TestCounterDeltas:
    def test_root_delta_equals_run_counters(self):
        _, context = traced_count_query()
        root = context.tracer.roots[0]
        assert root.counters_delta is not None
        assert root.counters_delta.as_dict() == context.counters.as_dict()

    def test_level_deltas_nest_inside_pipeline_delta(self):
        _, context = traced_count_query()
        root = context.tracer.roots[0]
        dedup = next(s for s in root.walk() if s.name == "pruned_dedup")
        dedup_evals = dedup.counters_delta.as_dict()["predicate_evaluations"]
        level_evals = sum(
            child.counters_delta.as_dict()["predicate_evaluations"]
            for child in dedup.children
            if child.name == "level"
        )
        assert level_evals <= dedup_evals

    def test_full_trace_replays_to_run_totals(self):
        _, context = traced_count_query()
        lines = list(trace_lines(context.tracer, mode="full"))
        assert replay_counters(lines) == context.counters.as_dict()

    def test_stream_trace_replays_to_query_counters(self):
        p = pipeline()
        tracer = Tracer()
        engine = IncrementalTopK(p.levels, tracer=tracer)
        for record in p.store:
            engine.add(record.fields, record.weight)
        first = engine.query(5)
        second = engine.query(3)
        lines = list(trace_lines(tracer, mode="full"))
        replayed = replay_counters(lines)
        combined = first.counters.as_dict()
        for key, value in second.counters.as_dict().items():
            if key == "stage_seconds":
                for stage, seconds in value.items():
                    combined["stage_seconds"][stage] = (
                        combined["stage_seconds"].get(stage, 0.0) + seconds
                    )
            else:
                combined[key] = combined.get(key, 0) + value
        assert replayed == combined


class TestDeterministicTraces:
    def test_threshold_trace_byte_identical_with_clean_policy(self):
        # Under a policy the thresholded query sweeps the necessary
        # predicate's keys before each level's prune, in a transient
        # span: full traces keep it, deterministic ones drop it.
        p = pipeline()
        tracers = {}
        for label, policy in (("plain", None), ("policy", ExecutionPolicy())):
            tracers[label] = Tracer()
            thresholded_rank_query(
                p.store,
                3.0,
                p.levels,
                context=VerificationContext(tracer=tracers[label]),
                policy=policy,
            )
        plain, guarded = (
            "\n".join(trace_lines(tracers[label], mode="deterministic"))
            for label in ("plain", "policy")
        )
        assert plain == guarded

        def transient_spans(tracer):
            records = map(json.loads, trace_lines(tracer, mode="full"))
            return [r["name"] for r in records if r["transient"]]

        assert transient_spans(tracers["plain"]) == []
        sweeps = transient_spans(tracers["policy"])
        assert sweeps and set(sweeps) == {"prune"}

    def test_deterministic_mode_repeatable(self):
        _, first = traced_count_query()
        _, second = traced_count_query()
        assert list(trace_lines(first.tracer, mode="deterministic")) == list(
            trace_lines(second.tracer, mode="deterministic")
        )

    def test_deterministic_mode_carries_no_timings(self):
        _, context = traced_count_query()
        for line in trace_lines(context.tracer, mode="deterministic"):
            record = json.loads(line)
            assert set(record) == {"id", "parent", "name", "attributes"}


class TestNullObservabilityBitIdentity:
    """The default Null path must not perturb answers or counters."""

    def comparable(self, result):
        return (
            [
                [(e.record_ids, e.weight) for e in answer.entities]
                for answer in result.answers
            ],
            [a.score for a in result.answers],
        )

    def counters_comparable(self, context):
        counts = context.counters.as_dict()
        counts["stage_seconds"] = sorted(counts["stage_seconds"])
        return counts

    def test_count_query_identical_with_and_without_tracing(self):
        p = pipeline()
        null_context = VerificationContext()
        plain = topk_count_query(
            p.store, 5, p.levels, p.scorer, context=null_context
        )
        traced, traced_context = traced_count_query()
        assert self.comparable(plain) == self.comparable(traced)
        assert self.counters_comparable(null_context) == (
            self.counters_comparable(traced_context)
        )

    def test_rank_and_threshold_identical_with_and_without_tracing(self):
        p = pipeline()
        traced_context = VerificationContext(
            tracer=Tracer(), metrics=MetricsRegistry()
        )
        plain_rank = topk_rank_query(p.store, 5, p.levels)
        traced_rank = topk_rank_query(
            p.store, 5, p.levels, context=traced_context
        )
        assert plain_rank.ranking == traced_rank.ranking

        plain_threshold = thresholded_rank_query(p.store, 8.0, p.levels)
        traced_threshold = thresholded_rank_query(
            p.store,
            8.0,
            p.levels,
            context=VerificationContext(
                tracer=Tracer(), metrics=MetricsRegistry()
            ),
        )
        assert plain_threshold.ranking == traced_threshold.ranking
        assert plain_threshold.certain == traced_threshold.certain

    def test_null_tracer_records_nothing(self):
        context = VerificationContext()
        p = pipeline()
        topk_count_query(p.store, 5, p.levels, p.scorer, context=context)
        assert context.tracer.roots == []
        assert context.tracer.enabled is False
        assert context.metrics.enabled is False
