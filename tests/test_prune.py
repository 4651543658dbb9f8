"""Unit tests for the prune stage (Section 4.3)."""

import importlib
import math
import random

import numpy as np
import pytest

from repro.core.prune import prune
from repro.core.records import GroupSet
from tests.conftest import make_store, shared_word_predicate


def weighted_groups(names_weights):
    names = [n for n, _ in names_weights]
    weights = [w for _, w in names_weights]
    return GroupSet.singletons(make_store(names, weights=weights))


# ``repro.core`` re-exports the ``prune`` function under the module's name.
prune_module = importlib.import_module("repro.core.prune")


class TestPrune:
    def test_isolated_small_groups_pruned(self):
        gs = weighted_groups([("big a", 100.0), ("tiny b", 1.0), ("tiny c", 1.0)])
        result = prune(gs, shared_word_predicate(), bound=50.0)
        assert len(result.retained) == 1
        assert result.retained[0].weight == 100.0

    def test_heavy_groups_never_pruned(self):
        gs = weighted_groups([("a", 60.0), ("b", 55.0)])
        result = prune(gs, shared_word_predicate(), bound=50.0)
        assert len(result.retained) == 2
        assert all(math.isinf(u) for u in result.upper_bounds)

    def test_neighbor_of_heavy_group_survives(self):
        # 'x small' joins 'x big' under N: u = 1 + 100 > 50.
        gs = weighted_groups([("x big", 100.0), ("x small", 1.0), ("z c", 1.0)])
        result = prune(gs, shared_word_predicate(), bound=50.0)
        names = {gs.store[g.representative_id]["name"] for g in result.retained}
        assert names == {"x big", "x small"}

    def test_chain_survives_when_combined_weight_exceeds_bound(self):
        # Three mutually-joinable groups of 20 can reach 60 > 50.
        gs = weighted_groups([("x a", 20.0), ("x b", 20.0), ("x c", 20.0)])
        result = prune(gs, shared_word_predicate(), bound=50.0)
        assert len(result.retained) == 3

    def test_second_iteration_tightens(self):
        # y-mid (10) has neighbors y-small (5): pass 1 gives mid u=15,
        # small u=15.  With bound 12 both survive pass 1; no, compute:
        # pass 1: u_small = 5 + 10 = 15 > 12, u_mid = 10 + 5 = 15 > 12.
        # They can only reach 15 together; with bound 16 both are pruned
        # in pass 1 already.  Build an asymmetric case instead: small
        # chains to mid, mid to big.
        gs = weighted_groups(
            [("a big", 100.0), ("a b mid", 10.0), ("b small", 5.0)]
        )
        # Pass 1: u_small = 5 + 10 = 15; u_mid = 10 + 105 = 115.
        # Bound 20: pass 1 prunes small (15 <= 20), keeps mid.
        one_pass = prune(gs, shared_word_predicate(), bound=20.0, iterations=1)
        assert len(one_pass.retained) == 2

        # Bound 16 with two passes: pass 1 keeps small (15 < 16? no --
        # 15 <= 16 prunes).  Use bound 14: pass 1 keeps small (15 > 14);
        # pass 2 cannot tighten small (mid's u stays above bound).
        # Verify instead that iterating never *adds* groups back.
        for bound in (5.0, 14.0, 20.0, 60.0):
            p1 = prune(gs, shared_word_predicate(), bound=bound, iterations=1)
            p2 = prune(gs, shared_word_predicate(), bound=bound, iterations=2)
            assert len(p2.retained) <= len(p1.retained)

    def test_recursive_tightening_prunes_dead_chain(self):
        # small(3) - mid(4) - small2(3), all tiny: pass 1 u_mid = 10,
        # u_small = 7.  Bound 8: pass 1 prunes smalls (7 <= 8), keeps mid
        # (10 > 8); pass 2 recomputes mid against only live neighbors:
        # u_mid = 4 <= 8 -> pruned.
        gs = weighted_groups([("x a", 3.0), ("x y b", 4.0), ("y c", 3.0)])
        one = prune(gs, shared_word_predicate(), bound=8.0, iterations=1)
        two = prune(gs, shared_word_predicate(), bound=8.0, iterations=2)
        assert len(one.retained) == 1
        assert len(two.retained) == 0

    def test_zero_bound_is_noop(self):
        gs = weighted_groups([("a", 1.0), ("b", 1.0)])
        result = prune(gs, shared_word_predicate(), bound=0.0)
        assert len(result.retained) == 2

    def test_invalid_iterations(self):
        gs = weighted_groups([("a", 1.0)])
        with pytest.raises(ValueError):
            prune(gs, shared_word_predicate(), bound=1.0, iterations=0)

    def test_kept_ids_consistent(self):
        gs = weighted_groups([("big a", 100.0), ("tiny b", 1.0)])
        result = prune(gs, shared_word_predicate(), bound=50.0)
        assert result.kept_group_ids == [0]
        assert result.upper_bounds[1] <= 50.0

    def test_weight_equal_to_bound_kept(self):
        # "any group with size(ci) >= M cannot be pruned" (Section 4.3).
        gs = weighted_groups([("big a", 100.0), ("tiny b", 10.0)])
        result = prune(gs, shared_word_predicate(), bound=10.0)
        assert len(result.retained) == 2

    def test_upper_bound_equal_to_bound_pruned(self):
        # u_i == M must be pruned (paper: prune when u_i <= M).
        # tiny(4) + its only neighbor mid(6) gives u = 10 == M.
        gs = weighted_groups([("big a", 100.0), ("x tiny", 4.0), ("x mid", 6.0)])
        result = prune(gs, shared_word_predicate(), bound=10.0)
        names = {gs.store[g.representative_id]["name"] for g in result.retained}
        assert names == {"big a"}


@pytest.mark.parametrize("block", [1, 7, None], ids=["1", "7", "default"])
def test_numpy_bounds_equal_scalar_bounds_in_blocks(block, monkeypatch):
    """Summed a block of rows per bincount, every bound still equals the
    scalar loop's bit for bit: weights of mixed magnitude make the
    floating-point sums depend on the order they are added in."""
    if block is not None:
        monkeypatch.setattr(prune_module, "ROW_SUM_ENTRIES", block)
    rng = random.Random(5)
    n = 60
    weights = [rng.choice([1e-3, 0.1, 1.0, 3.0, 1e4]) * rng.random() for _ in range(n)]
    at_risk = sorted(rng.sample(range(n), 45))
    rows = [sorted(rng.sample(range(n), rng.randint(0, 12))) for _ in at_risk]
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(row) for row in rows], out=indptr[1:])
    flat = np.array([j for row in rows for j in row], dtype=np.int32)
    bound = sorted(weights)[n // 2] * 4
    for iterations in (1, 2, 3):
        args = (n, weights, at_risk, indptr, flat, bound, iterations)
        assert prune_module._iterate_bounds_numpy(*args) == (
            prune_module._iterate_bounds_python(*args)
        )

