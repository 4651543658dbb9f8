"""Unit tests for repro.observability: tracer, metrics, exporters."""

import ast
import io
import json
import pathlib
import re

import pytest

from repro.core.verification import PipelineCounters
from repro.observability import (
    LATENCY_BUCKETS,
    NULL_METRICS,
    NULL_TRACER,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetrics,
    NullTracer,
    Tracer,
    prometheus_text,
    render_explain,
    replay_counters,
    trace_lines,
    trace_to_jsonl,
)


class FakeCounters:
    """Duck-typed counter object: snapshot()/delta() over one integer."""

    def __init__(self):
        self.total = 0

    def snapshot(self):
        return self.total

    def delta(self, before):
        return FakeDelta(self.total - before)


class FakeDelta:
    def __init__(self, work):
        self.work = work

    def as_dict(self):
        return {"work": self.work, "stage_seconds": {}}


class FakeClock:
    """Deterministic clock advancing 1.0 per read."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


class TestTracer:
    def test_nested_spans_build_a_tree(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("query", kind="topk") as query:
            with tracer.span("level", level="l1"):
                with tracer.span("prune"):
                    pass
            with tracer.span("score"):
                pass
        assert [root.name for root in tracer.roots] == ["query"]
        assert [child.name for child in query.children] == ["level", "score"]
        assert query.children[0].children[0].name == "prune"
        assert query.attributes == {"kind": "topk"}
        assert tracer.current() is None

    def test_span_counters_delta(self):
        counters = FakeCounters()
        tracer = Tracer(clock=FakeClock())
        with tracer.span("work", counters=counters):
            counters.total += 7
        assert tracer.roots[0].counters_delta.work == 7

    def test_wall_seconds_from_injected_clock(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        outer = tracer.roots[0]
        # clock reads: outer start, inner start, inner end, outer end
        assert outer.children[0].wall_seconds == 1.0
        assert outer.wall_seconds == 3.0

    def test_span_closed_on_exception(self):
        tracer = Tracer(clock=FakeClock())
        with pytest.raises(RuntimeError):
            with tracer.span("query"):
                raise RuntimeError("boom")
        assert tracer.current() is None
        assert tracer.roots[0].wall_seconds > 0

    def test_events_attach_to_current_span_or_orphan(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("query"):
            tracer.event("degraded", reason="deadline")
        tracer.event("stray", x=1)
        assert tracer.roots[0].events[0].name == "degraded"
        assert tracer.roots[0].events[0].attributes == {"reason": "deadline"}
        assert [e.name for e in tracer.orphan_events] == ["stray"]

    def test_clear_raises_mid_trace(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("query"):
            with pytest.raises(RuntimeError, match="cannot clear"):
                tracer.clear()
        tracer.clear()
        assert tracer.roots == []


class TestNullTracer:
    def test_null_tracer_is_inert_and_allocation_free(self):
        tracer = NullTracer()
        first = tracer.span("query", k=3)
        second = tracer.span("level")
        assert first is second  # shared prebuilt context manager
        with first as span:
            span.set_attribute("k", 3)
            span.set_attributes(a=1)
            span.add_event("x")
        assert tracer.roots == []
        assert tracer.orphan_events == []
        tracer.event("anything")
        assert tracer.current() is None
        assert NULL_TRACER.enabled is False


class TestMetricsInstruments:
    def test_counter_monotone(self):
        counter = Counter()
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_set_and_inc(self):
        gauge = Gauge()
        gauge.set(4.0)
        gauge.inc(0.5)
        assert gauge.value == 4.5

    def test_histogram_buckets(self):
        hist = Histogram(buckets=(1.0, 10.0))
        for value in (0.5, 1.0, 5.0, 100.0):
            hist.observe(value)
        # inclusive upper bounds: 0.5 and 1.0 land in the first bucket
        assert hist.bucket_counts == [2, 1, 1]
        assert hist.count == 4
        assert hist.sum == pytest.approx(106.5)
        assert hist.mean == pytest.approx(106.5 / 4)
        as_dict = hist.as_dict()
        assert as_dict["buckets"]["+Inf"] == 1

    def test_histogram_rejects_bad_buckets(self):
        with pytest.raises(ValueError):
            Histogram(buckets=())
        with pytest.raises(ValueError):
            Histogram(buckets=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram(buckets=(1.0, 1.0))


class TestMetricsRegistry:
    def test_same_key_returns_same_instrument(self):
        registry = MetricsRegistry()
        a = registry.counter("repro_queries_total", kind="topk")
        b = registry.counter("repro_queries_total", kind="topk")
        c = registry.counter("repro_queries_total", kind="rank")
        assert a is b
        assert a is not c

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x_total")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("x_total")

    def test_series_sorted_and_value_accessor(self):
        registry = MetricsRegistry()
        registry.counter("b_total").inc(2)
        registry.counter("a_total", stage="prune").inc(5)
        names = [name for name, _, _ in registry.series()]
        assert names == ["a_total", "b_total"]
        assert registry.value("a_total", stage="prune") == 5
        assert registry.value("a_total") == 0.0  # unlabelled series absent
        assert registry.value("missing") == 0.0

    def test_as_dict_carries_labels_and_kind(self):
        registry = MetricsRegistry()
        registry.describe("a_total", "things counted")
        registry.counter("a_total", stage="prune").inc()
        snapshot = registry.as_dict()
        (entry,) = snapshot["a_total"]
        assert entry["kind"] == "counter"
        assert entry["labels"] == {"stage": "prune"}
        assert entry["value"] == 1.0
        assert registry.help_text("a_total") == "things counted"

    def test_null_metrics_inert(self):
        null = NullMetrics()
        null.counter("x", a="b").inc(5)
        null.gauge("y").set(3)
        null.histogram("z", buckets=LATENCY_BUCKETS).observe(1.0)
        null.describe("x", "help")
        assert null.series() == []
        assert null.as_dict() == {}
        assert null.value("x", a="b") == 0.0
        assert NULL_METRICS.enabled is False


def sample_tracer() -> Tracer:
    counters = FakeCounters()
    tracer = Tracer(clock=FakeClock())
    with tracer.span("query", counters=counters, kind="topk", k=3):
        with tracer.span("level", counters=counters, level="l1"):
            counters.total += 2
            with tracer.span("sweep", counters=counters, transient=True):
                counters.total += 2
        tracer.event("degraded", reason="deadline")
    return tracer


class TestTraceExport:
    def test_full_export_roundtrip(self):
        tracer = sample_tracer()
        out = io.StringIO()
        n = trace_to_jsonl(tracer, out, mode="full")
        lines = out.getvalue().splitlines()
        assert n == len(lines) == 3
        records = [json.loads(line) for line in lines]
        assert [r["name"] for r in records] == ["query", "level", "sweep"]
        assert records[0]["parent"] is None
        assert records[1]["parent"] == records[0]["id"]
        assert records[2]["parent"] == records[1]["id"]
        assert records[0]["counters"] == {"work": 4, "stage_seconds": {}}
        assert records[0]["events"] == [
            {"name": "degraded", "attributes": {"reason": "deadline"}}
        ]
        assert records[2]["transient"] is True

    def test_deterministic_export_drops_transients_and_timings(self):
        tracer = sample_tracer()
        records = [
            json.loads(line)
            for line in trace_lines(tracer, mode="deterministic")
        ]
        assert [r["name"] for r in records] == ["query", "level"]
        for record in records:
            assert set(record) == {"id", "parent", "name", "attributes"}

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown trace export mode"):
            list(trace_lines(sample_tracer(), mode="pretty"))

    def test_exports_are_stable_strings(self):
        tracer = sample_tracer()
        assert list(trace_lines(tracer, mode="full")) == list(
            trace_lines(tracer, mode="full")
        )

    def test_attribute_serialization_fallbacks(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span(
            "query", tags={"b", "a"}, pair=(1, 2), obj=FakeDelta(1)
        ):
            pass
        (line,) = trace_lines(tracer, mode="full")
        attributes = json.loads(line)["attributes"]
        assert attributes["tags"] == ["a", "b"]
        assert attributes["pair"] == [1, 2]
        assert attributes["obj"] == {"work": 1, "stage_seconds": {}}

    def test_replay_counters_sums_roots_only(self):
        tracer = sample_tracer()
        lines = list(trace_lines(tracer, mode="full"))
        # Root delta is 4; the level child (4) and sweep (2) are
        # sub-intervals and must not be double counted.
        assert replay_counters(lines) == {"work": 4, "stage_seconds": {}}

    def test_replay_counters_merges_stage_seconds(self):
        lines = [
            json.dumps(
                {
                    "parent": None,
                    "counters": {
                        "work": 1,
                        "stage_seconds": {"prune": 0.5},
                    },
                }
            ),
            json.dumps(
                {
                    "parent": None,
                    "counters": {
                        "work": 2,
                        "stage_seconds": {"prune": 0.25, "collapse": 1.0},
                    },
                }
            ),
        ]
        assert replay_counters(lines) == {
            "work": 3,
            "stage_seconds": {"prune": 0.75, "collapse": 1.0},
        }


class TestPrometheusExport:
    def test_counter_gauge_rendering(self):
        registry = MetricsRegistry()
        registry.describe("repro_queries_total", "Queries answered")
        registry.counter("repro_queries_total", kind="topk").inc(3)
        registry.gauge("repro_open_segments").set(2)
        text = prometheus_text(registry)
        assert "# HELP repro_queries_total Queries answered" in text
        assert "# TYPE repro_queries_total counter" in text
        assert 'repro_queries_total{kind="topk"} 3' in text
        assert "repro_open_segments 2" in text
        assert text.endswith("\n")

    def test_histogram_rendering_cumulative(self):
        registry = MetricsRegistry()
        hist = registry.histogram("repro_latency_seconds", buckets=(1.0, 2.0))
        for value in (0.5, 1.5, 5.0):
            hist.observe(value)
        text = prometheus_text(registry)
        assert 'repro_latency_seconds_bucket{le="1"} 1' in text
        assert 'repro_latency_seconds_bucket{le="2"} 2' in text
        assert 'repro_latency_seconds_bucket{le="+Inf"} 3' in text
        assert "repro_latency_seconds_sum 7" in text
        assert "repro_latency_seconds_count 3" in text

    def test_label_escaping(self):
        registry = MetricsRegistry()
        registry.counter("odd_total", reason='say "hi"\nplease\\now').inc()
        text = prometheus_text(registry)
        assert r'reason="say \"hi\"\nplease\\now"' in text

    def test_empty_registry_renders_empty(self):
        assert prometheus_text(MetricsRegistry()) == ""


class TestRenderExplain:
    def test_tree_shape_and_annotations(self):
        tracer = sample_tracer()
        text = render_explain(tracer, counter_keys=("work",))
        lines = text.splitlines()
        assert lines[0].startswith("query")
        assert "kind=topk" in lines[0]
        assert "[work=4]" in lines[0]
        assert any(line.lstrip().startswith("└─ level") for line in lines)
        assert any("! degraded reason=deadline" in line for line in lines)

    def test_orphan_events_rendered(self):
        tracer = Tracer(clock=FakeClock())
        tracer.event("stray", x=1)
        assert render_explain(tracer) == "! stray x=1\n"

    def test_empty_tracer_renders_empty(self):
        assert render_explain(Tracer(clock=FakeClock())) == ""


REPO = pathlib.Path(__file__).resolve().parent.parent
METRIC_NAME = re.compile(r"repro_[a-z0-9_]*[a-z0-9]")
PIPELINE_TEMPLATE = "repro_pipeline_<field>_total"


def _pipeline_names() -> set[str]:
    return {
        PIPELINE_TEMPLATE.replace("<field>", field)
        for field in PipelineCounters._INT_FIELDS
    }


def emitted_metric_names() -> set[str]:
    """Every ``repro_*`` metric name the source can emit: whole string
    literals, plus the one templated f-string expanded over its fields."""
    names: set[str] = set()
    for path in sorted((REPO / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text())
        templated = set()
        for node in ast.walk(tree):
            if not isinstance(node, ast.JoinedStr):
                continue
            parts = [
                part.value if isinstance(part, ast.Constant) else "<field>"
                for part in node.values
            ]
            template = "".join(parts)
            if template.startswith("repro_"):
                assert template == PIPELINE_TEMPLATE, (path, template)
                names |= _pipeline_names()
            templated.update(id(part) for part in node.values)
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and id(node) not in templated
                and METRIC_NAME.fullmatch(node.value)
            ):
                names.add(node.value)
    return names


def catalogued_metric_names() -> set[str]:
    """The names in docs/observability.md § Metric catalogue's table."""
    text = (REPO / "docs" / "observability.md").read_text()
    section = text.split("## Metric catalogue", 1)[1].split("\n## ", 1)[0]
    names: set[str] = set()
    for line in section.splitlines():
        if not line.startswith("| `repro_"):
            continue
        first_cell = line.split("|")[1]
        for name in re.findall(r"`([^`]+)`", first_cell):
            if name == PIPELINE_TEMPLATE:
                names |= _pipeline_names()
            else:
                names.add(name)
    return names


class TestMetricCatalogue:
    def test_catalogue_matches_emitted_names(self):
        emitted = emitted_metric_names()
        catalogued = catalogued_metric_names()
        assert emitted - catalogued == set(), "emitted but not catalogued"
        assert catalogued - emitted == set(), "catalogued but never emitted"
