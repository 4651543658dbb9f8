"""Figure 6: running time of PrunedDedup vs the full-dedup baselines.

The paper plots wall-clock time against K for four methods on a 45k
citation subset: None (Cartesian), Canopy, Canopy+Collapse, and the full
pruning pipeline.  We measure the same four, additionally recording how
many final-predicate pair evaluations each performs (the quantity the
times are made of).

:func:`run_vectorize_speedup` (X10) times the pruning pipeline on the
two ways a pair is decided — plain ``evaluate`` (``REPRO_VECTORIZE=0``)
and the NumPy batch engine — and checks that both give the same groups.
"""

from __future__ import annotations

import contextlib
import os
import time

from ..baselines.full_dedup import (
    canopy_collapse_pipeline,
    canopy_pipeline,
    none_pipeline,
)
from ..core.pruned_dedup import pruned_dedup
from ..core.records import group_fingerprint
from ..core.topk import topk_count_query
from ..predicates.batch import VECTORIZE_ENV_VAR
from .harness import Pipeline, benchmark_scale, citation_pipeline

#: The K sweep of Figure 6.
PAPER_TIMING_K_VALUES = (1, 10, 100, 1000)


def run_timing_comparison(
    pipeline: Pipeline,
    k_values: tuple[int, ...] = PAPER_TIMING_K_VALUES,
    include_none: bool = False,
    none_cap: int = 3000,
) -> list[dict[str, object]]:
    """Time all methods for each K; return one row per (K, method).

    The Cartesian ``none`` baseline is quadratic, so it only runs when
    *include_none* is set and the store is at most *none_cap* records
    (the paper likewise ran it only on a subset).
    """
    if pipeline.scorer is None:
        raise ValueError("timing comparison needs a trained scorer")
    store = pipeline.store
    rows: list[dict[str, object]] = []

    def fresh_scorer():
        # Each measured run pays for its own P evaluations; a warm shared
        # cache would make whichever method runs first subsidize the rest.
        scorer = pipeline.scorer
        if hasattr(scorer, "fresh"):
            return scorer.fresh()
        return scorer

    for k in k_values:
        if k > len(store):
            continue
        if include_none and len(store) <= none_cap:
            t0 = time.perf_counter()
            outcome = none_pipeline(store, k, fresh_scorer())
            rows.append(
                _row(k, "none", time.perf_counter() - t0, outcome.n_pairs_scored)
            )

        t0 = time.perf_counter()
        outcome = canopy_pipeline(
            store, k, fresh_scorer(), pipeline.levels[-1].necessary
        )
        rows.append(
            _row(k, "canopy", time.perf_counter() - t0, outcome.n_pairs_scored)
        )

        t0 = time.perf_counter()
        outcome = canopy_collapse_pipeline(
            store,
            k,
            fresh_scorer(),
            pipeline.levels[-1].necessary,
            pipeline.levels[0].sufficient,
        )
        rows.append(
            _row(
                k,
                "canopy+collapse",
                time.perf_counter() - t0,
                outcome.n_pairs_scored,
            )
        )

        t0 = time.perf_counter()
        result = topk_count_query(
            store, k, pipeline.levels, fresh_scorer(), r=1
        )
        elapsed = time.perf_counter() - t0
        retained = (
            len(result.pruning.groups) if result.pruning is not None else 0
        )
        rows.append(_row(k, "pruned-dedup", elapsed, retained))
    return rows


def _row(k: int, method: str, seconds: float, pairs: int) -> dict[str, object]:
    return {"K": k, "method": method, "seconds": seconds, "work": pairs}


def run_pruning_only_timing(
    pipeline: Pipeline, k_values: tuple[int, ...] = PAPER_TIMING_K_VALUES
) -> list[dict[str, object]]:
    """Timing of the pruning pipeline alone (no scorer needed)."""
    rows = []
    for k in k_values:
        if k > len(pipeline.store):
            continue
        t0 = time.perf_counter()
        result = pruned_dedup(pipeline.store, k, pipeline.levels)
        rows.append(
            _row(
                k,
                "pruned-dedup(no-final)",
                time.perf_counter() - t0,
                len(result.groups),
            )
        )
    return rows


@contextlib.contextmanager
def _vectorize(enabled: bool):
    old = os.environ.get(VECTORIZE_ENV_VAR)
    os.environ[VECTORIZE_ENV_VAR] = "1" if enabled else "0"
    try:
        yield
    finally:
        if old is None:
            os.environ.pop(VECTORIZE_ENV_VAR, None)
        else:
            os.environ[VECTORIZE_ENV_VAR] = old


def run_vectorize_speedup(
    n_records: int | None = None,
    k: int = 10,
    seed: int = 0,
) -> list[dict[str, object]]:
    """X10: the pruning pipeline forced scalar, then vectorized.

    One row each on the fig2-scale citations workload.  The scalar row
    is the baseline of both rows' ``speedup`` and ``identical`` columns;
    ``identical`` compares :func:`group_fingerprint` of the groups.
    """
    n = n_records if n_records is not None else benchmark_scale()
    pipeline = citation_pipeline(n_records=n, seed=seed, with_scorer=False)
    rows: list[dict[str, object]] = []
    for mode, vectorized in (("scalar", False), ("vectorized", True)):
        with _vectorize(vectorized):
            start = time.perf_counter()
            result = pruned_dedup(pipeline.store, k, pipeline.levels)
            seconds = time.perf_counter() - start
        rows.append(
            {
                "n_records": n,
                "K": k,
                "mode": mode,
                "seconds": seconds,
                "fingerprint": group_fingerprint(result.groups),
            }
        )
    baseline_seconds = rows[0]["seconds"]
    baseline_fingerprint = rows[0]["fingerprint"]
    for row in rows:
        row["speedup"] = (
            baseline_seconds / row["seconds"] if row["seconds"] > 0 else 0.0
        )
        row["identical"] = row.pop("fingerprint") == baseline_fingerprint
    return rows


def timing_shape_checks(rows: list[dict[str, object]]) -> dict[str, bool]:
    """Figure 6's qualitative claims at small K.

    PrunedDedup beats Canopy+Collapse, which beats Canopy — both in time
    and in the amount of final-predicate work.
    """
    by_method: dict[str, dict[int, dict[str, object]]] = {}
    for row in rows:
        by_method.setdefault(str(row["method"]), {})[int(row["K"])] = row

    def seconds(method: str, k: int) -> float:
        return float(by_method[method][k]["seconds"])

    def work(method: str, k: int) -> float:
        return float(by_method[method][k]["work"])

    small_k = min(by_method["canopy"].keys())
    checks = {
        # Wall-clock comparisons carry ±20% tolerance (fixed costs and
        # scheduler noise dominate at small scales); the deterministic
        # "work" column is compared strictly.
        "pruned_beats_canopy_collapse": seconds("pruned-dedup", small_k)
        <= seconds("canopy+collapse", small_k) * 1.2,
        "pruned_does_far_less_work": work("pruned-dedup", small_k)
        <= work("canopy+collapse", small_k) / 5.0,
        "collapse_beats_canopy": seconds("canopy+collapse", small_k)
        <= seconds("canopy", small_k) * 1.2,
        "collapse_does_less_work": work("canopy+collapse", small_k)
        <= work("canopy", small_k),
    }
    if "none" in by_method:
        checks["canopy_beats_none"] = (
            seconds("canopy", small_k) <= seconds("none", small_k)
        )
        checks["canopy_does_less_work_than_none"] = (
            work("canopy", small_k) <= work("none", small_k)
        )
    return checks
