"""Figures 2-4: per-K pruning statistics tables.

For each K the paper reports, per predicate level: ``n`` (groups after
collapse, % of records), ``m`` (rank certifying K distinct groups),
``M`` (the weight lower bound) and ``n'`` (groups after pruning, % of
records).  :func:`run_pruning_table` regenerates those rows for any of
the three dataset pipelines.
"""

from __future__ import annotations

from ..core.pruned_dedup import pruned_dedup
from .harness import Pipeline

#: The K sweep of Figures 2-4.
PAPER_K_VALUES = (1, 5, 10, 50, 100, 500, 1000)


def run_pruning_table(
    pipeline: Pipeline,
    k_values: tuple[int, ...] = PAPER_K_VALUES,
) -> list[dict[str, object]]:
    """Return one row per (K, level): the Figures 2-4 statistics."""
    rows: list[dict[str, object]] = []
    for k in k_values:
        if k > len(pipeline.store):
            continue
        result = pruned_dedup(pipeline.store, k, pipeline.levels)
        for level_index, stats in enumerate(result.stats, start=1):
            rows.append(
                {
                    "K": k,
                    "iter": level_index,
                    "n_pct": stats.n_pct,
                    "m": stats.m,
                    "M": stats.bound,
                    "n_prime_pct": stats.n_prime_pct,
                    "groups_left": stats.n_groups_after_prune,
                    "certified": stats.certified,
                }
            )
    return rows


def shape_checks(rows: list[dict[str, object]]) -> dict[str, bool]:
    """The qualitative claims the paper's tables support.

    * pruning keeps a small fraction of the data at small K;
    * retained fraction grows with K;
    * the bound M shrinks as K grows;
    * m stays close to K at small K (the estimator is tight).
    """
    last_iter = max(int(r["iter"]) for r in rows)
    final = {int(r["K"]): r for r in rows if r["iter"] == last_iter}
    ks = sorted(final)
    small_k = ks[0]
    checks = {
        "small_k_prunes_hard": float(final[small_k]["n_prime_pct"]) < 10.0,
        "retained_grows_with_k": all(
            float(final[a]["n_prime_pct"]) <= float(final[b]["n_prime_pct"]) + 1.0
            for a, b in zip(ks, ks[1:])
        ),
        "bound_shrinks_with_k": all(
            float(final[a]["M"]) >= float(final[b]["M"])
            for a, b in zip(ks, ks[1:])
        ),
        "m_tight_at_small_k": all(
            int(final[k]["m"]) <= max(3 * k, k + 10)
            for k in ks
            if k <= 10 and final[k]["certified"]
        ),
    }
    return checks
