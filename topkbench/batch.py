"""batch-citations: one-shot queries over static Section 6.1.1 corpora.

Per cycle, on one 5,000-record corpus: a Top-K count query (K=10, R=1),
a Top-K rank query (K=10) and a thresholded rank query whose T is the
weight of the corpus's 10th-heaviest oracle closure group.  Then, on one
of four 1,500-record corpora in rotation: an R=4 count query and an
interval query (K=5, R=8).  Every query gets a fresh
``VerificationContext`` and an empty P-score cache
(``CachedScorer.fresh``), as a CLI call does.
"""

from __future__ import annotations

import time

import checks
from common import citation_levels_for, ensure_src, scaled, sub_seed
from ops import Execution, Op, run_op, timer

ensure_src()

from repro.core.rank_query import (  # noqa: E402
    thresholded_rank_query,
    topk_rank_query,
)
from repro.core.topk import topk_count_query  # noqa: E402
from repro.core.verification import VerificationContext  # noqa: E402
from repro.datasets import generate_citations  # noqa: E402
from repro.experiments.harness import train_scorer_for  # noqa: E402
from repro.uncertainty.query import topk_interval_query  # noqa: E402

BIG_RECORDS = 5000
SMALL_RECORDS = 1500
N_SMALL = 4
BIG_K = 10
SMALL_K = 5
RBEST_R = 4
INTERVAL_R = 8


class Corpus:
    def __init__(self, dataset, levels=None, scorer=None, seed=0):
        self.dataset = dataset
        self.store = dataset.store
        self.levels = levels
        self.scorer = scorer
        self.seed = seed
        self.oracle: checks.Oracle | None = None


def prepare(seed, cycles, work_dir, scale=1.0, setup_only=False):
    """Generate every corpus; the small ones are fully prepared."""
    big_seed = sub_seed(seed, 0)
    big = generate_citations(scaled(BIG_RECORDS, scale), seed=big_seed)
    inputs = {"big": Corpus(big, seed=big_seed)}
    if setup_only:
        return inputs
    small = []
    for index in range(N_SMALL):
        small_seed = sub_seed(seed, 1 + index)
        dataset = generate_citations(
            scaled(SMALL_RECORDS, scale), seed=small_seed
        )
        levels = citation_levels_for(dataset.store)
        scorer = train_scorer_for(dataset, "citation", levels, seed=small_seed)
        corpus = Corpus(dataset, levels, scorer, small_seed)
        corpus.oracle = checks.Oracle(dataset.store, levels, scorer)
        small.append(corpus)
    inputs["small"] = small
    return inputs


def _context(tracer):
    return VerificationContext(tracer=tracer)


def execute(inputs, cycles: int, log=None, tracer=None) -> Execution:
    big = inputs["big"]
    out = Execution()
    with out.setup(log):
        started = time.perf_counter()
        with timer(log, "levels"):
            big.levels = citation_levels_for(big.store)
        with timer(log, "train"):
            big.scorer = train_scorer_for(
                big.dataset, "citation", big.levels, seed=big.seed
            )
        first = _topk(big, BIG_K, 1, tracer)
        out.setup_seconds = time.perf_counter() - started
    out.first = first
    if log is not None:
        log.adopt(tracer, 0, out.setup_span)
    out.first_answer = _answer_key(first)
    if cycles == 0:
        return out
    if big.oracle is None:
        big.oracle = checks.Oracle(big.store, big.levels, big.scorer)
    threshold = big.oracle.kth_weight(BIG_K)
    inputs["threshold"] = threshold
    for cycle in range(cycles):
        small = inputs["small"][cycle % N_SMALL]
        out.ops.append(run_op(
            "topk", log, tracer,
            lambda: _topk(big, BIG_K, 1, tracer), corpus=big,
        ))
        out.ops.append(run_op(
            "rank", log, tracer,
            lambda: topk_rank_query(
                big.store, BIG_K, big.levels, context=_context(tracer)
            ),
            corpus=big,
        ))
        out.ops.append(run_op(
            "threshold", log, tracer,
            lambda: thresholded_rank_query(
                big.store, threshold, big.levels, context=_context(tracer)
            ),
            corpus=big,
        ))
        out.ops.append(run_op(
            "rbest", log, tracer,
            lambda: _topk(small, SMALL_K, RBEST_R, tracer), corpus=small,
        ))
        out.ops.append(run_op(
            "interval", log, tracer,
            lambda: topk_interval_query(
                small.store, SMALL_K, small.levels, small.scorer.fresh(),
                r=INTERVAL_R, context=_context(tracer),
            ),
            corpus=small,
        ))
    return out


def _topk(corpus, k, r, tracer):
    return topk_count_query(
        corpus.store, k, corpus.levels, corpus.scorer.fresh(), r=r,
        context=_context(tracer),
    )


def _answer_key(result) -> list:
    return [
        [[sorted(members), weight] for members, weight, _ in answer]
        for answer in checks.answers_of(result)
    ]


def check(inputs, out: Execution) -> None:
    """Mark every op (and the set-up's first answer) with its problems."""
    big = inputs["big"]
    out.first_problems = _check_count(out.first, big, BIG_K, 1)
    threshold = inputs.get("threshold")
    for op in out.ops:
        if op.error is not None:
            continue
        corpus = op.extra["corpus"]
        result = op.result
        if op.cls == "topk":
            op.problems = _check_count(result, corpus, BIG_K, 1)
        elif op.cls == "rbest":
            op.problems = _check_count(result, corpus, SMALL_K, RBEST_R)
        elif op.cls == "rank":
            op.problems = _degraded(result) + checks.check_rank(
                checks.ranking_of(result),
                checks.groups_of(result.groups),
                corpus.oracle,
                BIG_K,
            )
        elif op.cls == "threshold":
            op.problems = _degraded(result) + checks.check_threshold(
                checks.groups_of(result.groups),
                result.certain,
                corpus.oracle,
                threshold,
            )
        else:
            op.problems = _degraded(result) + checks.check_interval(
                checks.intervals_of(result),
                checks.groups_of(result.pruning.groups),
                corpus.oracle,
                SMALL_K,
                INTERVAL_R,
                result.worlds_enumerated,
            )


def _degraded(result) -> list[str]:
    return [f"degraded: {result.degraded_reason}"] if result.degraded else []


def _check_count(result, corpus, k, r) -> list[str]:
    return _degraded(result) + checks.check_count(
        checks.answers_of(result),
        checks.groups_of(result.pruning.groups),
        corpus.oracle,
        k,
        r,
    )


def counts(op: Op) -> dict:
    """Per-op counts for the per-layer metrics."""
    result = op.result
    pruning = getattr(result, "pruning", None)
    out = {"counters": (pruning if pruning is not None else result).counters}
    if pruning is not None and pruning.stats:
        last = pruning.stats[-1]
        out["retained"] = (last.n_groups_after_prune, last.n_groups_after_collapse)
    if op.cls == "interval":
        out["worlds_enumerated"] = result.worlds_enumerated
        out["worlds_pruned"] = result.pruned_candidates
    return out
