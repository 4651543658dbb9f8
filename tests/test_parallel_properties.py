"""Seeded bit-identity sweep: parallel execution vs. the serial baseline.

The contract of :mod:`repro.core.parallel` is that the worker knob is
invisible in the answer — groups, weights, rankings, and certainty flags
must match the serial run bit-for-bit at every worker count, on clean
runs and on degraded chaos-armed runs alike.  This module checks that
contract across >= 10 seeds on both the citations and students
generators.

Chaos runs deliberately use error faults only (no stalls, no deadline):
wall-clock-dependent degradation is legitimately nondeterministic and
would make the bit-identity assertion meaningless.
"""

import functools

import pytest

from repro.core.parallel import fork_available, group_fingerprint
from repro.core.pruned_dedup import pruned_dedup
from repro.core.rank_query import thresholded_rank_query, topk_rank_query
from repro.core.resilience import ExecutionPolicy, guard_levels
from repro.core.verification import PipelineCounters
from repro.experiments import citation_pipeline, student_pipeline
from repro.predicates.blocking import NeighborIndex
from repro.testing import FaultPlan, chaos_levels
from tests.conftest import vectorize_mode

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="platform has no fork start method"
)

N_RECORDS = 200
K = 10
SEEDS = range(10)
WORKER_COUNTS = (2, 4)


@functools.lru_cache(maxsize=8)
def _pipeline(dataset: str, seed: int):
    if dataset == "citations":
        return citation_pipeline(
            n_records=N_RECORDS, seed=seed, with_scorer=False
        )
    return student_pipeline(n_records=N_RECORDS, seed=seed)


@pytest.mark.parametrize("dataset", ["citations", "students"])
@pytest.mark.parametrize("seed", SEEDS)
def test_pruned_dedup_bit_identical(dataset, seed):
    pipeline = _pipeline(dataset, seed)
    serial = pruned_dedup(pipeline.store, K, pipeline.levels, workers=1)
    baseline = group_fingerprint(serial.groups)
    for workers in WORKER_COUNTS:
        result = pruned_dedup(
            pipeline.store, K, pipeline.levels, workers=workers
        )
        assert group_fingerprint(result.groups) == baseline, (
            dataset,
            seed,
            workers,
        )
        assert result.groups.weights() == serial.groups.weights()
        assert result.counters.shards_degraded == 0


@pytest.mark.parametrize("dataset", ["citations", "students"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_rank_queries_bit_identical(dataset, seed):
    pipeline = _pipeline(dataset, seed)
    serial_rank = topk_rank_query(pipeline.store, K, pipeline.levels, workers=1)
    serial_threshold = thresholded_rank_query(
        pipeline.store, 5.0, pipeline.levels, workers=1
    )
    for workers in WORKER_COUNTS:
        rank = topk_rank_query(
            pipeline.store, K, pipeline.levels, workers=workers
        )
        assert rank.ranking == serial_rank.ranking, (dataset, seed, workers)
        assert rank.certain == serial_rank.certain
        assert group_fingerprint(rank.groups) == group_fingerprint(
            serial_rank.groups
        )
        threshold = thresholded_rank_query(
            pipeline.store, 5.0, pipeline.levels, workers=workers
        )
        assert threshold.ranking == serial_threshold.ranking
        assert threshold.certain == serial_threshold.certain


@pytest.mark.parametrize("dataset", ["citations", "students"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_degraded_chaos_runs_bit_identical(dataset, seed):
    # Error and keying faults are pure functions of (plan seed, record
    # ids), so they fire identically inside workers and in the serial
    # pipeline; the degraded answers must therefore match exactly too.
    pipeline = _pipeline(dataset, seed)
    plan = FaultPlan(seed=seed, error_rate=0.05, keying_error_rate=0.02)
    levels = chaos_levels(pipeline.levels, plan)
    policy = ExecutionPolicy(on_error="degrade")
    serial = pruned_dedup(
        pipeline.store, K, levels, policy=policy, workers=1
    )
    baseline = group_fingerprint(serial.groups)
    for workers in WORKER_COUNTS:
        result = pruned_dedup(
            pipeline.store, K, levels, policy=policy, workers=workers
        )
        assert group_fingerprint(result.groups) == baseline, (
            dataset,
            seed,
            workers,
        )
        assert result.degraded == serial.degraded


@pytest.mark.parametrize("dataset", ["citations", "students"])
@pytest.mark.parametrize("seed", SEEDS)
def test_scalar_vectorized_sharded_bit_identical(dataset, seed):
    # Three execution strategies for the same query: the scalar
    # reference path, the vectorized batch hot path, and the vectorized
    # path fanned out over shared-memory shards.  The answer must be
    # invisible to the choice at every worker count.
    pipeline = _pipeline(dataset, seed)
    with vectorize_mode(False):
        scalar = pruned_dedup(pipeline.store, K, pipeline.levels, workers=1)
    baseline = group_fingerprint(scalar.groups)
    with vectorize_mode(True):
        for workers in (1, *WORKER_COUNTS):
            result = pruned_dedup(
                pipeline.store, K, pipeline.levels, workers=workers
            )
            assert group_fingerprint(result.groups) == baseline, (
                dataset,
                seed,
                workers,
            )
            assert result.groups.weights() == scalar.groups.weights()
            assert result.counters.shards_degraded == 0


@pytest.mark.parametrize("dataset", ["citations", "students"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_rank_queries_scalar_vs_vectorized_sharded(dataset, seed):
    pipeline = _pipeline(dataset, seed)
    with vectorize_mode(False):
        scalar_rank = topk_rank_query(
            pipeline.store, K, pipeline.levels, workers=1
        )
        scalar_threshold = thresholded_rank_query(
            pipeline.store, 5.0, pipeline.levels, workers=1
        )
    with vectorize_mode(True):
        for workers in (1, *WORKER_COUNTS):
            rank = topk_rank_query(
                pipeline.store, K, pipeline.levels, workers=workers
            )
            assert rank.ranking == scalar_rank.ranking, (
                dataset, seed, workers,
            )
            assert rank.certain == scalar_rank.certain
            assert group_fingerprint(rank.groups) == group_fingerprint(
                scalar_rank.groups
            )
            threshold = thresholded_rank_query(
                pipeline.store, 5.0, pipeline.levels, workers=workers
            )
            assert threshold.ranking == scalar_threshold.ranking
            assert threshold.certain == scalar_threshold.certain


@pytest.mark.parametrize("dataset", ["citations", "students"])
@pytest.mark.parametrize("seed", SEEDS)
def test_guarded_vectorized_sharded_bit_identical(dataset, seed):
    # A clean policy-armed run keeps the vectorized kernels; the guarded
    # engine reaches the workers by fork inheritance instead of the
    # shared-memory export.  Neither may show in the answer.
    pipeline = _pipeline(dataset, seed)
    policy = ExecutionPolicy()
    with vectorize_mode(False):
        scalar = pruned_dedup(pipeline.store, K, pipeline.levels, workers=1)
        scalar_rank = topk_rank_query(
            pipeline.store, K, pipeline.levels, workers=1
        )
        scalar_threshold = thresholded_rank_query(
            pipeline.store, 5.0, pipeline.levels, workers=1
        )
    with vectorize_mode(True):
        guarded = guard_levels(
            pipeline.levels, policy.start(PipelineCounters())
        )
        assert all(
            NeighborIndex(level.necessary, list(pipeline.store)).batch_engine
            is not None
            for level in guarded
        )
        for workers in (1, *WORKER_COUNTS):
            result = pruned_dedup(
                pipeline.store, K, pipeline.levels, policy=policy,
                workers=workers,
            )
            assert not result.degraded
            assert group_fingerprint(result.groups) == group_fingerprint(
                scalar.groups
            ), (dataset, seed, workers)
            assert result.groups.weights() == scalar.groups.weights()
            assert result.counters.shards_degraded == 0
            assert result.counters.total_contained == 0
            rank = topk_rank_query(
                pipeline.store, K, pipeline.levels, policy=policy,
                workers=workers,
            )
            assert rank.ranking == scalar_rank.ranking
            assert rank.certain == scalar_rank.certain
            threshold = thresholded_rank_query(
                pipeline.store, 5.0, pipeline.levels, policy=policy,
                workers=workers,
            )
            assert threshold.ranking == scalar_threshold.ranking
            assert threshold.certain == scalar_threshold.certain


def test_chaos_wrapped_levels_stay_scalar_under_a_guard():
    # Chaos faults are per-pair draws, so chaos runs must keep the
    # scalar path even when a guard forwards the batch hooks.
    pipeline = _pipeline("citations", 0)
    levels = chaos_levels(pipeline.levels, FaultPlan(seed=0, error_rate=0.05))
    state = ExecutionPolicy().start(PipelineCounters())
    for level in guard_levels(levels, state):
        index = NeighborIndex(level.necessary, list(pipeline.store))
        assert index.batch_engine is None
