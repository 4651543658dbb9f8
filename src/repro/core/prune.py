"""Prune stage (Section 4.3): drop groups that cannot reach the answer.

For each group ``c_i`` an upper bound ``u_i`` on the weight of the
largest answer group it could belong to is computed; groups with
``u_i <= M`` are pruned.  The first pass bounds ``u_i`` by the group's own
weight plus the weights of all its N-neighbors; subsequent passes tighten
it by only counting neighbors whose own bound still exceeds M — the
paper's "two pass iterative version of this recursive definition"
(Section 6.2 reports the second pass roughly doubles pruning and a third
adds little; ``iterations`` exposes that ablation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..predicates.base import Predicate
from ..predicates.batch import vectorize_enabled
from ..predicates.blocking import NeighborIndex
from .records import GroupSet

if TYPE_CHECKING:
    from .verification import VerificationContext

#: Neighbor entries one ``np.bincount`` of the bound iteration covers at
#: most, bounding a pass's working arrays (about 30 B per entry) however
#: many neighbors the at-risk groups have.  1M entries is the largest
#: block that left the X14 count query's peak at 6k records unchanged
#: (docs/performance.md § Memory footprint).
ROW_SUM_ENTRIES = 1 << 20


@dataclass
class PruneResult:
    """Outcome of the prune stage.

    Attributes:
        retained: The surviving groups (renumbered, weight-ordered).
        kept_group_ids: Original group ids of the survivors.
        upper_bounds: Final ``u_i`` per original group id (``inf`` for
            groups at or above weight M, which are never at risk).
    """

    retained: GroupSet
    kept_group_ids: list[int]
    upper_bounds: list[float]


def prune(
    group_set: GroupSet,
    necessary: Predicate,
    bound: float,
    iterations: int = 2,
    compute_all_bounds: bool = False,
    context: "VerificationContext | None" = None,
) -> PruneResult:
    """Prune groups whose upper bound cannot exceed *bound* (= M).

    With ``bound <= 0`` nothing can be pruned and the input is returned
    unchanged (this happens when the lower-bound estimator could not
    certify K distinct groups).

    With *compute_all_bounds*, real upper bounds are computed even for
    groups already at weight >= M (they can never be pruned, so the count
    query skips them, but the Section 7 rank queries need every u_i).

    With a :class:`~repro.core.verification.VerificationContext`, the
    neighbor index built by the preceding lower-bound estimation over
    the same group set is reused instead of rebuilt, and pair verdicts
    it already computed are served from the shared cache.
    """
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    n = len(group_set)
    if n == 0 or (bound <= 0.0 and not compute_all_bounds):
        return PruneResult(
            retained=group_set,
            kept_group_ids=list(range(n)),
            upper_bounds=[math.inf] * n,
        )

    weights = group_set.weights()
    representatives = group_set.representatives()
    if context is not None:
        index = context.neighbor_index(necessary, group_set)
    else:
        index = NeighborIndex(necessary, representatives)

    # Groups already at weight >= M can never be pruned; their bound is
    # effectively infinite.  Neighbor lists are materialized only for the
    # at-risk groups (weight < M), keeping memory proportional to them —
    # unless the caller asked for every bound.
    if compute_all_bounds:
        at_risk = list(range(n))
    else:
        at_risk = [i for i in range(n) if weights[i] < bound]
    indptr, flat = index.neighbors_csr(at_risk)

    if vectorize_enabled():
        upper = _iterate_bounds_numpy(
            n, weights, at_risk, indptr, flat, bound, iterations
        )
    else:
        upper = _iterate_bounds_python(
            n, weights, at_risk, indptr, flat, bound, iterations
        )

    kept = [i for i in range(n) if upper[i] > bound or weights[i] >= bound]
    return PruneResult(
        retained=group_set.subset(kept),
        kept_group_ids=kept,
        upper_bounds=upper,
    )


def _iterate_bounds_python(
    n: int,
    weights: list[float],
    at_risk: list[int],
    indptr: np.ndarray,
    flat: np.ndarray,
    bound: float,
    iterations: int,
) -> list[float]:
    """Reference scalar bound iteration (``REPRO_VECTORIZE=0``); the
    neighbors of ``at_risk[r]`` are CSR row *r* of ``(indptr, flat)``."""
    bounds = indptr.tolist()
    neighbor_lists = {
        i: flat[bounds[r] : bounds[r + 1]].tolist()
        for r, i in enumerate(at_risk)
    }
    upper = [math.inf] * n
    for i in at_risk:
        upper[i] = weights[i] + sum(weights[j] for j in neighbor_lists[i])

    def live(j: int) -> bool:
        return upper[j] > bound or weights[j] >= bound

    for _ in range(iterations - 1):
        changed = False
        new_upper = list(upper)
        for i in at_risk:
            if weights[i] >= bound:
                continue  # already safe; tightening is pointless
            tightened = weights[i] + sum(
                weights[j] for j in neighbor_lists[i] if live(j)
            )
            if tightened < new_upper[i]:
                new_upper[i] = tightened
                changed = True
        upper = new_upper
        if not changed:
            break
    return upper


def _iterate_bounds_numpy(
    n: int,
    weights: list[float],
    at_risk: list[int],
    indptr: np.ndarray,
    flat: np.ndarray,
    bound: float,
    iterations: int,
) -> list[float]:
    """Vectorized bound iteration, bit-identical to the scalar one.

    The neighbor rows arrive as CSR, one row per at-risk group; each
    pass sums them with weighted ``np.bincount`` calls
    (:func:`_row_sums`).  bincount accumulates in input order, so every
    per-group float sum adds the same weights in the same left-to-right
    order as the Python loop — including the refinement passes, where
    dead neighbors are *filtered out* of the flat array (preserving the
    survivors' relative order) rather than zeroed, exactly mirroring the
    scalar ``if live(j)`` skip.
    """
    w = np.asarray(weights, dtype=np.float64)
    risk = np.asarray(at_risk, dtype=np.int64)
    upper = np.full(n, np.inf)
    if len(risk) == 0:
        return upper.tolist()
    upper[risk] = w[risk] + _row_sums(w, indptr, flat)
    # Scalar refinement skips groups already at weight >= bound.
    refinable = w[risk] < bound
    for _ in range(iterations - 1):
        live = (upper > bound) | (w >= bound)
        tightened = w[risk] + _row_sums(w, indptr, flat, live)
        update = refinable & (tightened < upper[risk])
        if not update.any():
            break
        upper[risk[update]] = tightened[update]
    return upper.tolist()


def _row_sums(
    w: np.ndarray,
    indptr: np.ndarray,
    flat: np.ndarray,
    live: np.ndarray | None = None,
) -> np.ndarray:
    """``w`` summed over each CSR row's neighbors (only the *live* ones
    when given), one weighted ``np.bincount`` per block of rows holding
    at most :data:`ROW_SUM_ENTRIES` entries; a row is never split, so
    its sum adds the same weights in the same order as one bincount
    over all rows would."""
    n_rows = len(indptr) - 1
    sums = np.empty(n_rows)
    first = 0
    while first < n_rows:
        stop = max(
            int(
                np.searchsorted(
                    indptr, indptr[first] + ROW_SUM_ENTRIES, side="right"
                )
            )
            - 1,
            first + 1,
        )
        neighbors = flat[indptr[first] : indptr[stop]]
        rows = np.repeat(
            np.arange(stop - first, dtype=np.int64),
            np.diff(indptr[first : stop + 1]),
        )
        if live is not None:
            keep = live[neighbors]
            rows, neighbors = rows[keep], neighbors[keep]
        sums[first:stop] = np.bincount(
            rows, weights=w[neighbors], minlength=stop - first
        )
        first = stop
    return sums
