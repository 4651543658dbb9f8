"""Command-line interface: Top-K count queries over a CSV of records.

Usage::

    python -m repro topk      --input mentions.csv --field name --k 5
    python -m repro rank      --input mentions.csv --field name --k 5
    python -m repro threshold --input mentions.csv --field name --min-weight 40
    python -m repro stream    --input mentions.csv --field name --k 5 \\
                              --state-dir state/ --checkpoint-every 1000
    python -m repro checkpoint --state-dir state/ --field name
    python -m repro restore    --state-dir state/ --field name
    python -m repro health     --state-dir state/ --field name
    python -m repro serve      --state-dir state/ --field name --port 8080

The CSV needs a header row.  ``--field`` names the entity-mention column;
``--weight-field`` (optional) names a numeric per-record weight.  The
generic predicate suite used is: sufficient = exact match of the field,
necessary = character-3-gram overlap above ``--ngram-threshold``; the
final pairwise criterion is a hand-weighted name similarity shifted by
``--score-bias``.  For domain-tuned predicates use the library API.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
from collections.abc import Sequence

from .core.health import HealthMonitor
from .core.incremental import EngineSnapshot, IncrementalTopK
from .core.persistence import WalCorruptionError, has_state
from .core.pruned_dedup import PrunedDedupResult
from .core.rank_query import thresholded_rank_query, topk_rank_query
from .core.records import RecordStore
from .core.resilience import ExecutionPolicy
from .core.topk import topk_count_query
from .uncertainty import topk_interval_query
from .core.verification import PipelineCounters, VerificationContext
from .observability import (
    MetricsRegistry,
    Tracer,
    prometheus_text,
    render_explain,
    trace_to_jsonl,
)
from .predicates.base import PredicateLevel
from .predicates.library import ExactFieldsPredicate, NgramOverlapPredicate
from .scoring.pairwise import CachedScorer, WeightedScorer
from .similarity.vectorize import JaroWinklerFeature, PairFeaturizer, SetFeature


def load_csv(
    path: str, field: str, weight_field: str | None
) -> RecordStore:
    """Load *path* into a RecordStore; validates the named columns.

    Malformed input raises :class:`ValueError` (``main`` turns it —
    and I/O errors — into a one-line ``error:`` message and exit 2
    instead of a traceback).
    """
    rows: list[dict[str, str]] = []
    weights: list[float] = []
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None or field not in reader.fieldnames:
            raise ValueError(
                f"column {field!r} not found in {path} "
                f"(columns: {reader.fieldnames})"
            )
        if weight_field is not None and weight_field not in reader.fieldnames:
            raise ValueError(
                f"weight column {weight_field!r} not found in {path}"
            )
        for row in reader:
            rows.append({k: (v or "") for k, v in row.items()})
            if weight_field is None:
                weights.append(1.0)
            else:
                try:
                    weight = float(row[weight_field])
                except ValueError:
                    raise ValueError(
                        f"non-numeric weight {row[weight_field]!r} "
                        f"(row {len(rows)} of {path})"
                    ) from None
                if not math.isfinite(weight):
                    # nan/inf weights silently poison every weight sum,
                    # bound, and comparison downstream — reject up front.
                    raise ValueError(
                        f"non-finite weight {row[weight_field]!r} "
                        f"(row {len(rows)} of {path}); weights must be "
                        f"finite numbers"
                    )
                weights.append(weight)
    if not rows:
        raise ValueError(f"{path} contains no data rows")
    return RecordStore.from_rows(rows, weights=weights)


def generic_levels(field: str, ngram_threshold: float) -> list[PredicateLevel]:
    """The CLI's generic (exact, n-gram-overlap) predicate level."""
    return [
        PredicateLevel(
            sufficient=ExactFieldsPredicate([field], name=f"exact-{field}"),
            necessary=NgramOverlapPredicate(
                field, ngram_threshold, name=f"ngram-{field}"
            ),
            name="cli-generic",
        )
    ]


def generic_scorer(field: str, bias: float) -> CachedScorer:
    """Hand-weighted similarity scorer over the query field: 3-gram
    Jaccard, word Jaccard and Jaro-Winkler, each scored in blocks."""
    featurizer = PairFeaturizer(
        [
            ("3gram_jaccard", SetFeature(field, "ngram")),
            ("word_jaccard", SetFeature(field, "word")),
            ("jaro_winkler", JaroWinklerFeature(field)),
        ]
    )
    return CachedScorer(
        WeightedScorer(featurizer, weights=[2.0, 2.0, 2.0], bias=bias)
    )


def _common_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", required=True, help="CSV file to query")
    parser.add_argument(
        "--field", required=True, help="entity-mention column name"
    )
    parser.add_argument(
        "--weight-field", default=None, help="numeric weight column (optional)"
    )
    parser.add_argument(
        "--ngram-threshold",
        type=float,
        default=0.6,
        help="necessary-predicate 3-gram overlap threshold (default 0.6)",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print verification-work counters (predicate evaluations, "
        "cache traffic, index builds, per-stage wall time) to stderr",
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget for the query; when it expires the best "
        "answer derivable so far is returned, marked DEGRADED on stderr",
    )
    parser.add_argument(
        "--on-predicate-error",
        choices=("degrade", "raise"),
        default=None,
        help="contain exceptions from predicate/scorer code with "
        "role-safe fallback verdicts ('degrade') or propagate them "
        "('raise'); implies resilient execution even without --deadline",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="write the query's span trace as JSON lines (one span per "
        "line, full mode: wall times, counter deltas, events)",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="write a Prometheus text-format metrics snapshot of the run",
    )
    parser.add_argument(
        "--explain",
        action="store_true",
        help="print a human-readable span tree of the query's execution "
        "(stages, wall times, pruning decisions) to stderr",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Top-K count queries over records with noisy duplicates",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    topk = commands.add_parser("topk", help="K largest entity groups")
    _common_arguments(topk)
    topk.add_argument("--k", type=int, default=10)
    topk.add_argument("--r", type=int, default=1, help="alternative answers")
    topk.add_argument(
        "--score-bias",
        type=float,
        default=-3.0,
        help="pairwise scorer bias (more negative = stricter matching)",
    )
    topk.add_argument(
        "--semantics",
        choices=("count", "interval"),
        default="count",
        help="answer semantics: 'count' returns point counts per entity, "
        "'interval' returns [lo, hi] count bounds and top-K membership "
        "probabilities aggregated over the --worlds best segmentations",
    )
    topk.add_argument(
        "--worlds",
        type=int,
        default=8,
        metavar="R",
        help="possible worlds (R-best segmentations) to aggregate for "
        "--semantics interval (default 8)",
    )
    topk.add_argument(
        "--min-probability",
        type=float,
        default=0.0,
        metavar="P",
        help="drop entities whose top-K membership probability is "
        "certifiably below P (interval semantics only; default 0)",
    )

    rank = commands.add_parser("rank", help="rank order of the K largest groups")
    _common_arguments(rank)
    rank.add_argument("--k", type=int, default=10)

    threshold = commands.add_parser(
        "threshold", help="all groups of total weight >= --min-weight"
    )
    _common_arguments(threshold)
    threshold.add_argument("--min-weight", type=float, required=True)

    stream = commands.add_parser(
        "stream",
        help="feed records into a (durable) incremental engine and query it",
    )
    _common_arguments(stream)
    stream.add_argument("--k", type=int, default=10)
    stream.add_argument(
        "--state-dir",
        default=None,
        help="durable state directory: inserts are WAL-journaled and the "
        "stream resumes from existing state on the next run (omit for a "
        "purely in-memory stream)",
    )
    stream.add_argument(
        "--checkpoint-every",
        type=int,
        default=0,
        metavar="N",
        help="snapshot the stream state after every N inserts and once "
        "at the end (0 = never; requires --state-dir)",
    )

    checkpoint = commands.add_parser(
        "checkpoint",
        help="snapshot a stream state directory and prune its WAL",
    )
    checkpoint.add_argument("--state-dir", required=True)
    checkpoint.add_argument(
        "--field", required=True, help="entity-mention column name"
    )
    checkpoint.add_argument(
        "--ngram-threshold",
        type=float,
        default=0.6,
        help="necessary-predicate 3-gram overlap threshold (default 0.6)",
    )

    restore = commands.add_parser(
        "restore",
        help="recover a stream state directory and report what was rebuilt",
    )
    restore.add_argument("--state-dir", required=True)
    restore.add_argument(
        "--field", required=True, help="entity-mention column name"
    )
    restore.add_argument(
        "--ngram-threshold",
        type=float,
        default=0.6,
        help="necessary-predicate 3-gram overlap threshold (default 0.6)",
    )

    health = commands.add_parser(
        "health",
        help="readiness/liveness report over breakers and durable state",
    )
    health.add_argument(
        "--state-dir",
        default=None,
        help="durable state directory to inspect (restores it read-only; "
        "requires --field)",
    )
    health.add_argument(
        "--field", default=None, help="entity-mention column name"
    )
    health.add_argument(
        "--ngram-threshold",
        type=float,
        default=0.6,
        help="necessary-predicate 3-gram overlap threshold (default 0.6)",
    )
    health.add_argument(
        "--audit",
        action="store_true",
        help="additionally run the full state audit (O(records))",
    )
    health.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="write the health gauges as a Prometheus text snapshot",
    )
    health.add_argument(
        "--json",
        action="store_true",
        help="emit the full HealthSnapshot as one JSON object instead "
        "of the line report (same exit code contract)",
    )

    serve = commands.add_parser(
        "serve",
        help="run the always-on HTTP query service over a (durable) "
        "incremental engine",
    )
    serve.add_argument(
        "--field", required=True, help="entity-mention column name"
    )
    serve.add_argument(
        "--ngram-threshold",
        type=float,
        default=0.6,
        help="necessary-predicate 3-gram overlap threshold (default 0.6)",
    )
    serve.add_argument(
        "--score-bias",
        type=float,
        default=-3.0,
        help="pairwise scorer bias for interval-semantics queries "
        "(more negative = stricter matching)",
    )
    serve.add_argument(
        "--input",
        default=None,
        help="optional CSV to seed the engine with before serving",
    )
    serve.add_argument(
        "--weight-field", default=None, help="numeric weight column of --input"
    )
    serve.add_argument(
        "--state-dir",
        default=None,
        help="durable state directory (WAL-journaled inserts, restored "
        "on start; omit for a purely in-memory service)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port (0 = ephemeral; the bound port is announced on "
        "stdout as 'serving on HOST:PORT')",
    )
    serve.add_argument(
        "--checkpoint-every",
        type=int,
        default=0,
        metavar="N",
        help="checkpoint after every N applied inserts (0 = only on "
        "drain; requires --state-dir)",
    )
    serve.add_argument(
        "--max-pending-queries",
        type=int,
        default=32,
        help="admission bound on queries in flight (beyond: 429)",
    )
    serve.add_argument(
        "--max-concurrent-queries",
        type=int,
        default=2,
        help="reader threads actually executing queries",
    )
    serve.add_argument(
        "--max-pending-inserts",
        type=int,
        default=256,
        help="admission bound on accepted-but-unapplied inserts",
    )
    serve.add_argument(
        "--default-deadline",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="deadline stamped on queries that do not carry one; an "
        "expiring query returns an explicitly degraded anytime answer",
    )
    serve.add_argument(
        "--drain-grace",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="budget for the SIGTERM drain sequence",
    )
    serve.add_argument(
        "--metrics",
        action="store_true",
        help="enable the Prometheus /metrics endpoint",
    )

    generate = commands.add_parser(
        "generate", help="write a synthetic labeled dataset to CSV"
    )
    generate.add_argument(
        "--kind",
        choices=("citations", "students", "addresses", "restaurants"),
        default="citations",
    )
    generate.add_argument("--n", type=int, default=2000, help="record count")
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--output", required=True, help="CSV path to write")
    return parser


def policy_from_args(args: argparse.Namespace) -> ExecutionPolicy | None:
    """Build the resilience policy requested on the command line.

    Returns None (fully unguarded execution, bit-identical to the
    pre-resilience pipeline) unless ``--deadline`` or
    ``--on-predicate-error`` was given.
    """
    if args.deadline is None and args.on_predicate_error is None:
        return None
    return ExecutionPolicy(
        deadline_seconds=args.deadline,
        on_error=args.on_predicate_error or "degrade",
    )


_EXPLAIN_COUNTER_KEYS = (
    "predicate_evaluations",
    "cache_hits",
    "index_builds",
)


def observability_from_args(
    args: argparse.Namespace,
) -> tuple[Tracer | None, MetricsRegistry | None]:
    """Build the tracer/registry the export flags ask for (None = off)."""
    want_trace = args.trace_out is not None or args.explain
    tracer = Tracer() if want_trace else None
    metrics = MetricsRegistry() if args.metrics_out is not None else None
    return tracer, metrics


def context_from_args(
    args: argparse.Namespace,
) -> tuple[VerificationContext | None, Tracer | None, MetricsRegistry | None]:
    """A context armed for the requested exports, or None when all off.

    A None context keeps the handlers on the query functions' default —
    the zero-overhead NullTracer/NullMetrics path.
    """
    tracer, metrics = observability_from_args(args)
    if tracer is None and metrics is None:
        return None, None, None
    return VerificationContext(tracer=tracer, metrics=metrics), tracer, metrics


def export_observability(
    args: argparse.Namespace,
    tracer: Tracer | None,
    metrics: MetricsRegistry | None,
) -> None:
    """Write --trace-out / --metrics-out files and the --explain tree."""
    if args.trace_out is not None and tracer is not None:
        with open(args.trace_out, "w") as handle:
            trace_to_jsonl(tracer, handle, mode="full")
    if args.metrics_out is not None and metrics is not None:
        with open(args.metrics_out, "w") as handle:
            handle.write(prometheus_text(metrics))
    if args.explain and tracer is not None:
        print(
            render_explain(tracer, counter_keys=_EXPLAIN_COUNTER_KEYS),
            file=sys.stderr,
            end="",
        )


def _warn_degraded(reason: str) -> None:
    print(
        f"warning: DEGRADED answer — execution policy exhausted "
        f"({reason}); showing the best answer derivable from the work "
        f"completed so far",
        file=sys.stderr,
    )


_COUNTER_COLUMNS = (
    ("evals", "predicate_evaluations"),
    ("hits", "cache_hits"),
    ("misses", "cache_misses"),
    ("builds", "index_builds"),
    ("reuses", "index_reuses"),
)


def _counter_line(label: str, counters: PipelineCounters) -> str:
    cells = "  ".join(
        f"{name}={getattr(counters, attr)}" for name, attr in _COUNTER_COLUMNS
    )
    return f"{label:<12} {cells}"


def print_stats(
    counters: PipelineCounters | None,
    pruning: PrunedDedupResult | None = None,
    file=None,
) -> None:
    """Write the verification-work report for ``--stats`` to *file*.

    One line per executed level (when per-level stats are available),
    a totals line, and the per-stage wall-time breakdown.
    """
    out = file if file is not None else sys.stderr
    if counters is None:
        print("verification stats: unavailable", file=out)
        return
    print("verification stats", file=out)
    if pruning is not None:
        for stats in pruning.stats:
            if stats.counters is not None:
                print(
                    "  " + _counter_line(stats.level_name, stats.counters),
                    file=out,
                )
    print("  " + _counter_line("total", counters), file=out)
    if counters.total_contained:
        print(
            f"  contained    errors={counters.predicate_errors_contained}  "
            f"keying={counters.keying_errors_contained}  "
            f"timeouts={counters.predicate_timeouts_contained}  "
            f"scorer={counters.scorer_errors_contained}  "
            f"quarantined={counters.records_quarantined}",
            file=out,
        )
    for stage, seconds in sorted(counters.stage_seconds.items()):
        print(f"  {stage:<12} {seconds:8.3f}s", file=out)


def _run_topk_interval(args: argparse.Namespace) -> int:
    """``topk --semantics interval``: count bounds over possible worlds."""
    store = load_csv(args.input, args.field, args.weight_field)
    levels = generic_levels(args.field, args.ngram_threshold)
    scorer = generic_scorer(args.field, args.score_bias)
    context, tracer, metrics = context_from_args(args)
    result = topk_interval_query(
        store,
        args.k,
        levels,
        scorer,
        r=args.worlds,
        min_probability=args.min_probability,
        label_field=args.field,
        context=context,
        policy=policy_from_args(args),
    )
    export_observability(args, tracer, metrics)
    if result.degraded:
        _warn_degraded(result.degraded_reason)
    print(
        f"# {result.worlds_enumerated} world(s) aggregated"
        + (" (exact)" if result.exact else "")
        + (" — intervals collapsed" if result.collapsed else "")
    )
    for entity in result.entities:
        print(
            f"[{entity.count_lo:10.2f}, {entity.count_hi:10.2f}]  "
            f"p={entity.membership_probability:.2f}  {entity.label}"
        )
    if args.stats:
        pruning = result.pruning
        print_stats(
            pruning.counters if pruning is not None else None, pruning
        )
    return 0


def run_topk(args: argparse.Namespace) -> int:
    if args.semantics == "interval":
        return _run_topk_interval(args)
    store = load_csv(args.input, args.field, args.weight_field)
    levels = generic_levels(args.field, args.ngram_threshold)
    scorer = generic_scorer(args.field, args.score_bias)
    context, tracer, metrics = context_from_args(args)
    result = topk_count_query(
        store,
        args.k,
        levels,
        scorer,
        r=args.r,
        label_field=args.field,
        context=context,
        policy=policy_from_args(args),
    )
    export_observability(args, tracer, metrics)
    if result.degraded:
        _warn_degraded(result.degraded_reason)
    for rank_index, answer in enumerate(result.answers, start=1):
        if len(result.answers) > 1:
            print(f"answer #{rank_index} (p={answer.probability:.2f})")
        for entity in answer.entities:
            print(f"{entity.weight:12.2f}  {entity.label}")
        if rank_index < len(result.answers):
            print()
    if args.stats:
        pruning = result.pruning
        print_stats(
            pruning.counters if pruning is not None else None, pruning
        )
    return 0


def run_rank(args: argparse.Namespace) -> int:
    store = load_csv(args.input, args.field, args.weight_field)
    levels = generic_levels(args.field, args.ngram_threshold)
    context, tracer, metrics = context_from_args(args)
    result = topk_rank_query(
        store,
        args.k,
        levels,
        context=context,
        policy=policy_from_args(args),
    )
    export_observability(args, tracer, metrics)
    if result.degraded:
        _warn_degraded(result.degraded_reason)
    for entry in result.ranking[: args.k]:
        marker = " " if entry.resolved else "?"
        label = store[entry.representative_id][args.field]
        print(
            f"{entry.weight:12.2f}  (u<={entry.upper_bound:12.2f}) {marker} "
            f"{label}"
        )
    if args.stats:
        print_stats(result.counters)
    return 0


def run_threshold(args: argparse.Namespace) -> int:
    store = load_csv(args.input, args.field, args.weight_field)
    levels = generic_levels(args.field, args.ngram_threshold)
    context, tracer, metrics = context_from_args(args)
    result = thresholded_rank_query(
        store,
        args.min_weight,
        levels,
        context=context,
        policy=policy_from_args(args),
    )
    export_observability(args, tracer, metrics)
    if result.degraded:
        _warn_degraded(result.degraded_reason)
    status = "certain" if result.certain else "may need exact evaluation"
    print(f"# groups with weight >= {args.min_weight} ({status})")
    for entry in result.ranking:
        label = store[entry.representative_id][args.field]
        print(f"{entry.weight:12.2f}  {label}")
    if args.stats:
        print_stats(result.counters)
    return 0


def _print_recovery(engine: IncrementalTopK) -> None:
    info = engine.last_recovery
    if info is None:
        return
    source = (
        f"checkpoint {info.checkpoint_path.name} "
        f"({info.checkpoint_entries} entries)"
        if info.checkpoint_path is not None
        else "empty state (no checkpoint)"
    )
    print(
        f"restored from {source}, replayed {info.entries_replayed} WAL "
        f"entries"
        + (
            f", absorbed {info.torn_tail_bytes}-byte torn tail"
            if info.torn_tail_bytes
            else ""
        )
        + (
            f", skipped {info.corrupt_checkpoints_skipped} corrupt "
            f"checkpoint(s)"
            if info.corrupt_checkpoints_skipped
            else ""
        ),
        file=sys.stderr,
    )


def _open_stream_engine(
    state_dir: str,
    field: str,
    ngram_threshold: float,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
    scorer: CachedScorer | None = None,
) -> IncrementalTopK:
    """Restore an engine from *state_dir*, or start a fresh durable one."""
    levels = generic_levels(field, ngram_threshold)
    if has_state(state_dir):
        engine = IncrementalTopK.restore(
            state_dir,
            levels,
            tracer=tracer,
            metrics=metrics,
            scorer=scorer,
        )
        _print_recovery(engine)
        return engine
    return IncrementalTopK(
        levels,
        durability=state_dir,
        tracer=tracer,
        metrics=metrics,
        scorer=scorer,
    )


def run_stream(args: argparse.Namespace) -> int:
    if args.checkpoint_every < 0:
        raise ValueError("--checkpoint-every must be >= 0")
    if args.checkpoint_every and args.state_dir is None:
        raise ValueError("--checkpoint-every requires --state-dir")
    tracer, metrics = observability_from_args(args)
    if args.state_dir is not None:
        engine = _open_stream_engine(
            args.state_dir,
            args.field,
            args.ngram_threshold,
            tracer=tracer,
            metrics=metrics,
        )
    else:
        engine = IncrementalTopK(
            generic_levels(args.field, args.ngram_threshold),
            tracer=tracer,
            metrics=metrics,
        )
    try:
        store = load_csv(args.input, args.field, args.weight_field)
        for position, record in enumerate(store, start=1):
            engine.add(record.fields, record.weight)
            if args.checkpoint_every and position % args.checkpoint_every == 0:
                engine.checkpoint()
        if args.checkpoint_every:
            engine.checkpoint()
        result = engine.query(args.k, policy=policy_from_args(args))
        if result.degraded:
            _warn_degraded(result.degraded_reason)
        store = result.groups.store
        for group in result.groups[: args.k]:
            label = store[group.representative_id][args.field]
            print(f"{group.weight:12.2f}  {label}")
        if engine.dead_letters:
            print(
                f"warning: {len(engine.dead_letters)} record(s) quarantined "
                f"({engine.dead_letters_dropped} older dropped)",
                file=sys.stderr,
            )
        if args.stats:
            print_stats(result.counters)
    finally:
        engine.close()
    export_observability(args, tracer, metrics)
    return 0


def run_checkpoint(args: argparse.Namespace) -> int:
    engine = _open_stream_engine(
        args.state_dir, args.field, args.ngram_threshold
    )
    try:
        path = engine.checkpoint()
        print(
            f"checkpoint {path.name}: {engine.entries_applied} entries, "
            f"{len(engine)} records, "
            f"{EngineSnapshot.freeze(engine).n_components} groups"
        )
    finally:
        engine.close()
    return 0


def run_restore(args: argparse.Namespace) -> int:
    engine = IncrementalTopK.restore(
        args.state_dir,
        generic_levels(args.field, args.ngram_threshold),
    )
    try:
        _print_recovery(engine)
        print(
            f"state ok: {engine.entries_applied} entries, {len(engine)} "
            f"records, {EngineSnapshot.freeze(engine).n_components} groups, "
            f"{len(engine.dead_letters)} dead letters "
            f"({engine.dead_letters_dropped} dropped); audit passed"
        )
    finally:
        engine.close()
    return 0


def run_health(args: argparse.Namespace) -> int:
    """The ``health`` verb: print every check, exit 0 only when ready.

    Exit codes: 0 = ready (degradations, if any, are itemized on
    stdout), 1 = not ready (state cannot be trusted).  Restoring the
    state directory already runs recovery's audit, so a directory that
    restores at all is structurally sound; ``--audit`` re-checks the
    live state explicitly.
    """
    engine = None
    if args.state_dir is not None:
        if args.field is None:
            raise ValueError("--state-dir requires --field")
        if not has_state(args.state_dir):
            raise ValueError(f"{args.state_dir} holds no stream state")
        engine = IncrementalTopK.restore(
            args.state_dir, generic_levels(args.field, args.ngram_threshold)
        )
    try:
        monitor = HealthMonitor(engine=engine, audit=args.audit)
        if args.metrics_out is not None:
            registry = MetricsRegistry()
            snapshot = monitor.publish(registry)
            with open(args.metrics_out, "w") as handle:
                handle.write(prometheus_text(registry))
        else:
            snapshot = monitor.snapshot()
        if args.json:
            print(json.dumps(snapshot.as_dict(), indent=2))
            return 0 if snapshot.ready else 1
        for check in snapshot.checks:
            marker = "ok  " if check.ok else "WARN"
            print(f"{marker}  {check.name}: {check.detail}")
        print(
            f"live={'yes' if snapshot.live else 'no'} "
            f"ready={'yes' if snapshot.ready else 'no'} "
            f"degraded={'yes' if snapshot.degraded else 'no'}"
        )
        return 0 if snapshot.ready else 1
    finally:
        if engine is not None:
            engine.close()


def _fault_plane_from_env():
    """Build the FaultPlane requested via ``$REPRO_FAULT_PLANE``.

    The variable holds a JSON object of :class:`FaultPlane` constructor
    arguments (``{"seed": 7, "wal_append_rate": 0.05}``).  This is the
    testing hook that lets a *subprocess* server run under seeded
    infrastructure faults — the in-process harness arms the plane
    directly.  Unknown keys raise a ``ValueError`` naming them, so
    ``serve`` exits 2 with one ``error:`` line.
    """
    spec = os.environ.get("REPRO_FAULT_PLANE")
    if not spec:
        return None
    from .testing.faultplane import FaultPlane

    payload = json.loads(spec)
    if not isinstance(payload, dict):
        raise ValueError("REPRO_FAULT_PLANE must be a JSON object")
    known = {f.name for f in dataclasses.fields(FaultPlane) if f.init}
    unknown = sorted(set(payload) - known)
    if unknown:
        raise ValueError(
            f"REPRO_FAULT_PLANE has unknown key(s): {', '.join(unknown)}"
        )
    return FaultPlane(**payload)


def run_serve(args: argparse.Namespace) -> int:
    """The ``serve`` verb: run the HTTP query service until drained.

    The bound address is announced on stdout (``serving on HOST:PORT``)
    as soon as the listener is up — before the engine finishes loading,
    during which readiness probes answer 503.  SIGTERM and SIGINT both
    trigger the graceful drain (stop admitting, apply the accepted
    insert queue, checkpoint, close the WAL); a POST /drain does the
    same remotely.  Exits 0 after a clean drain.
    """
    import asyncio
    import signal

    from .server import AdmissionConfig, HttpServer, QueryService, ServerConfig

    if args.checkpoint_every < 0:
        raise ValueError("--checkpoint-every must be >= 0")
    if args.checkpoint_every and args.state_dir is None:
        raise ValueError("--checkpoint-every requires --state-dir")
    metrics = MetricsRegistry() if args.metrics else None
    config = ServerConfig(
        host=args.host,
        port=args.port,
        label_field=args.field,
        admission=AdmissionConfig(
            max_pending_queries=args.max_pending_queries,
            max_concurrent_queries=args.max_concurrent_queries,
            max_pending_inserts=args.max_pending_inserts,
            default_deadline_seconds=args.default_deadline,
        ),
        checkpoint_every=args.checkpoint_every,
        checkpoint_on_drain=args.state_dir is not None,
        drain_grace_seconds=args.drain_grace,
    )

    def loader() -> IncrementalTopK:
        scorer = generic_scorer(args.field, args.score_bias)
        if args.state_dir is not None:
            engine = _open_stream_engine(
                args.state_dir,
                args.field,
                args.ngram_threshold,
                metrics=metrics,
                scorer=scorer,
            )
        else:
            engine = IncrementalTopK(
                generic_levels(args.field, args.ngram_threshold),
                metrics=metrics,
                scorer=scorer,
            )
        if args.input is not None:
            store = load_csv(args.input, args.field, args.weight_field)
            for record in store:
                engine.add(record.fields, record.weight)
        return engine

    async def serve() -> int:
        service = QueryService(loader=loader, config=config, metrics=metrics)
        server = HttpServer(service, metrics=metrics)
        await server.start()
        print(f"serving on {config.host}:{server.port}", flush=True)
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, stop.set)
        await service.start()
        stopper = asyncio.create_task(stop.wait())
        drained = asyncio.create_task(service.wait_drained())
        await asyncio.wait(
            {stopper, drained}, return_when=asyncio.FIRST_COMPLETED
        )
        report = await service.drain()
        await server.close()
        for task in (stopper, drained):
            task.cancel()
        print(f"drained: {json.dumps(report)}", file=sys.stderr)
        return 0

    plane = _fault_plane_from_env()
    if plane is not None:
        with plane.active(metrics=metrics):
            return asyncio.run(serve())
    return asyncio.run(serve())


def run_generate(args: argparse.Namespace) -> int:
    from .datasets import (
        generate_addresses,
        generate_citations,
        generate_restaurants,
        generate_students,
    )

    generators = {
        "citations": generate_citations,
        "students": generate_students,
        "addresses": generate_addresses,
        "restaurants": generate_restaurants,
    }
    dataset = generators[args.kind](n_records=args.n, seed=args.seed)
    field_names = list(dataset.store[0].fields)
    with open(args.output, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([*field_names, "weight", "gold_entity"])
        for record, label in zip(dataset.store, dataset.labels):
            writer.writerow(
                [*(record[f] for f in field_names), record.weight, label]
            )
    print(
        f"wrote {dataset.n_records} records over {dataset.n_entities} "
        f"entities to {args.output}"
    )
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "topk": run_topk,
        "rank": run_rank,
        "threshold": run_threshold,
        "stream": run_stream,
        "checkpoint": run_checkpoint,
        "restore": run_restore,
        "health": run_health,
        "serve": run_serve,
        "generate": run_generate,
    }
    try:
        return handlers[args.command](args)
    except WalCorruptionError as exc:
        # Mid-log WAL damage is recoverable by the operator (the
        # checkpoints are intact) but not by retrying the command —
        # a distinct exit code plus the one remediation that works.
        segment = exc.segment or "<unknown segment>"
        print(
            f"error: WAL corrupt at {segment}; restore from last "
            f"checkpoint with `python -m repro restore --state-dir ... "
            f"--field ...` after moving the damaged segment aside "
            f"(detail: {exc})",
            file=sys.stderr,
        )
        return 3
    except (ValueError, OSError) as exc:
        # Bad input or a damaged state directory is an operator problem,
        # not a bug — one line on stderr and exit 2, never a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # Ctrl-C mid-query: flush whatever already reached the streams
        # so partial output (answers on stdout, --stats on stderr) ends
        # at a clean line boundary, say why we stopped, and exit with
        # the conventional 128+SIGINT code instead of a traceback.
        try:
            sys.stdout.flush()
        except OSError:
            pass
        print("\ninterrupted", file=sys.stderr, flush=True)
        return 130


if __name__ == "__main__":
    sys.exit(main())
