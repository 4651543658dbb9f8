"""LP-relaxation correlation clustering (Charikar–Guruswami–Wirth [10]).

The paper uses this LP as its *exact* comparator: "When the above LP
returns integral answers, the solution is guaranteed to be exact."

    max   sum_{ij} P_ij x_ij          (constants dropped from Eq. in Sec 5.1)
    s.t.  x_ij + x_jk - x_ik <= 1     for all triples i, j, k
          0 <= x_ij <= 1

We keep one variable per *scored* pair; unscored pairs are fixed at
x = 0, i.e. treated as *hard non-links* (they were blocked out by a
necessary predicate, so they are known non-duplicates).  Note this is
slightly stronger than the ScoreMatrix default of "score 0, uncertain":
on sparse matrices the LP optimizes over partitions that never place an
unscored pair inside a group.  On fully-scored matrices (how the paper
ran it on its small Figure-7 datasets) the spaces coincide and an
integral solution is the exact Eq. 1 optimum.  Triangle constraints are
added lazily: solve, scan for violated triangles around each vertex, add
them, repeat.  On duplicate-detection instances the LP is
almost always integral at convergence; when it is not, a
threshold-closure rounding produces a partition and the result is marked
non-integral (no exactness certificate), matching how the paper filtered
its Figure-7 datasets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..graphs.union_find import UnionFind
from .correlation import ScoreMatrix

if TYPE_CHECKING:
    from scipy.sparse import csr_matrix

_INTEGRALITY_EPS = 1e-6
_VIOLATION_EPS = 1e-9


@dataclass
class LpResult:
    """Outcome of :func:`lp_cluster`.

    Attributes:
        partition: Groups of positions, largest first.
        objective: LP objective value (sum of P_ij x_ij).
        integral: True when every variable converged to 0/1 — the
            partition is then provably Eq. 1-optimal.
        n_constraints: Triangle constraints generated.
        n_rounds: Solve/separate rounds used.
    """

    partition: list[list[int]]
    objective: float
    integral: bool
    n_constraints: int
    n_rounds: int


def lp_cluster(
    scores: ScoreMatrix,
    max_rounds: int = 50,
    max_new_constraints_per_round: int = 50_000,
) -> LpResult:
    """Solve the correlation-clustering LP with lazy triangle constraints.

    scipy is imported here, not at module level: the LP is an offline
    comparator, and importing :mod:`repro` should not pay for scipy.
    """
    from scipy.optimize import linprog

    pairs = [(i, j) for i, j, _ in scores.scored_pairs()]
    pairs.sort()
    var_index = {pair: idx for idx, pair in enumerate(pairs)}
    n_vars = len(pairs)
    if n_vars == 0:
        return LpResult(
            partition=[[i] for i in range(scores.n)],
            objective=0.0,
            integral=True,
            n_constraints=0,
            n_rounds=0,
        )

    cost = np.array([-scores.get(i, j) for i, j in pairs])  # linprog minimizes
    bounds = [(0.0, 1.0)] * n_vars

    constraint_rows: list[tuple[list[int], list[float]]] = []
    seen_constraints: set[tuple[int, int, int]] = set()
    x = np.zeros(n_vars)
    rounds = 0

    for rounds in range(1, max_rounds + 1):
        if constraint_rows:
            a_ub = _build_matrix(constraint_rows, n_vars)
            b_ub = np.ones(len(constraint_rows))
            solution = linprog(
                cost, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs"
            )
        else:
            solution = linprog(cost, bounds=bounds, method="highs")
        if not solution.success:
            raise RuntimeError(f"LP solve failed: {solution.message}")
        x = solution.x

        new_constraints = _violated_triangles(
            scores, var_index, x, seen_constraints, max_new_constraints_per_round
        )
        if not new_constraints:
            break
        constraint_rows.extend(new_constraints)

    integral = bool(
        np.all((x < _INTEGRALITY_EPS) | (x > 1.0 - _INTEGRALITY_EPS))
    )
    partition = _round_to_partition(scores.n, pairs, x)
    if not integral:
        # Fractional solution: also try region-growing rounding in the
        # style of Charikar-Guruswami-Wirth and keep the better partition
        # under Eq. 1 (the paper notes [10] "proposes a number of
        # rounding schemes" for exactly this case).
        from .correlation import partition_score

        region = _region_growing_rounding(scores, var_index, x)
        if partition_score(region, scores) > partition_score(partition, scores):
            partition = region
    return LpResult(
        partition=partition,
        objective=float(-cost @ x),
        integral=integral,
        n_constraints=len(constraint_rows),
        n_rounds=rounds,
    )


def _build_matrix(
    rows: list[tuple[list[int], list[float]]], n_vars: int
) -> csr_matrix:
    from scipy.sparse import csr_matrix

    data: list[float] = []
    row_idx: list[int] = []
    col_idx: list[int] = []
    for r, (cols, coefs) in enumerate(rows):
        for c, coef in zip(cols, coefs):
            row_idx.append(r)
            col_idx.append(c)
            data.append(coef)
    return csr_matrix((data, (row_idx, col_idx)), shape=(len(rows), n_vars))


def _violated_triangles(
    scores: ScoreMatrix,
    var_index: dict[tuple[int, int], int],
    x: np.ndarray,
    seen: set[tuple[int, int, int]],
    limit: int,
) -> list[tuple[list[int], list[float]]]:
    """Find triangle inequalities violated by the current solution.

    For each vertex j and each pair of its scored neighbors (i, k), the
    constraint ``x_ij + x_jk - x_ik <= 1`` must hold; when (i, k) carries
    no variable it is fixed at 0, giving ``x_ij + x_jk <= 1``.
    """

    def value(a: int, b: int) -> float:
        idx = var_index.get((a, b) if a < b else (b, a))
        return float(x[idx]) if idx is not None else 0.0

    new_rows: list[tuple[list[int], list[float]]] = []
    for j in range(scores.n):
        neighbors = sorted(scores.scored_neighbors(j))
        for a_pos, i in enumerate(neighbors):
            x_ij = value(i, j)
            if x_ij <= _VIOLATION_EPS:
                continue
            for k in neighbors[a_pos + 1 :]:
                x_jk = value(j, k)
                if x_ij + x_jk <= 1.0 + _VIOLATION_EPS:
                    continue
                x_ik = value(i, k)
                if x_ij + x_jk - x_ik <= 1.0 + _VIOLATION_EPS:
                    continue
                key = (i, j, k)
                if key in seen:
                    continue
                seen.add(key)
                cols = [var_index[(min(i, j), max(i, j))],
                        var_index[(min(j, k), max(j, k))]]
                coefs = [1.0, 1.0]
                ik_idx = var_index.get((i, k))
                if ik_idx is not None:
                    cols.append(ik_idx)
                    coefs.append(-1.0)
                new_rows.append((cols, coefs))
                if len(new_rows) >= limit:
                    return new_rows
    return new_rows


def _round_to_partition(
    n: int, pairs: list[tuple[int, int]], x: np.ndarray
) -> list[list[int]]:
    """Closure of pairs with x >= 1/2 (exact when the LP is integral)."""
    uf = UnionFind(n)
    for (i, j), value in zip(pairs, x):
        if value >= 0.5:
            uf.union(i, j)
    return uf.components()


def _region_growing_rounding(
    scores: ScoreMatrix,
    var_index: dict[tuple[int, int], int],
    x: np.ndarray,
) -> list[list[int]]:
    """Charikar-Guruswami-Wirth-style ball rounding of a fractional LP.

    ``d_ij = 1 - x_ij`` is (by the triangle constraints) a semi-metric.
    Repeatedly pick the unclustered vertex with the largest fractional
    attachment as pivot, sweep candidate radii below 1/2 (the distinct
    distances around the pivot), and cut the ball whose local Eq. 1
    agreement is best.  Deterministic — the constructive counterpart of
    the randomized-radius analysis.
    """

    def distance(a: int, b: int) -> float:
        idx = var_index.get((a, b) if a < b else (b, a))
        return 1.0 - float(x[idx]) if idx is not None else 1.0

    unclustered = set(range(scores.n))
    partition: list[list[int]] = []
    while unclustered:
        pivot = max(
            unclustered,
            key=lambda v: (
                sum(
                    1.0 - distance(v, u)
                    for u in scores.scored_neighbors(v)
                    if u in unclustered
                ),
                -v,
            ),
        )
        neighbors = [
            (distance(pivot, u), u)
            for u in scores.scored_neighbors(pivot)
            if u in unclustered and distance(pivot, u) < 0.5
        ]
        neighbors.sort()
        best_ball = [pivot]
        best_score = _local_agreement(scores, [pivot], unclustered)
        ball = [pivot]
        for _, u in neighbors:
            ball = ball + [u]
            score = _local_agreement(scores, ball, unclustered)
            if score > best_score:
                best_score = score
                best_ball = list(ball)
        partition.append(sorted(best_ball))
        unclustered -= set(best_ball)
    partition.sort(key=len, reverse=True)
    return partition


def _local_agreement(
    scores: ScoreMatrix, ball: list[int], unclustered: set[int]
) -> float:
    """Eq. 1 agreement of cutting *ball* out of the unclustered set."""
    members = set(ball)
    total = 0.0
    for v in ball:
        for u in scores.scored_neighbors(v):
            if u not in unclustered:
                continue
            score = scores.get(v, u)
            if u in members:
                if score > 0 and u > v:
                    total += score
            elif score < 0:
                total -= score
    return total
