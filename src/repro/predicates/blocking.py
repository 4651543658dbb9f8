"""Inverted-index blocking: evaluate predicates without O(n^2) pair scans.

Three operations power the whole pipeline:

* :func:`build_key_index` — key → ids posting lists for a predicate;
* :func:`closure` — union-find transitive closure of all pairs satisfying
  a (sufficient) predicate, verifying pairs only inside shared-key blocks;
* :class:`NeighborIndex` — for a fixed set of groups, answer "which groups
  can satisfy N with this one?", the primitive behind both the
  lower-bound estimator and the prune stage.

Oversized blocks (a key shared by a large fraction of all records — e.g.
a stop-gram) are handled by capping pairwise verification per block and
falling back to sorted-neighborhood verification within the block, which
preserves sub-quadratic behaviour at a small recall cost that only makes
the sufficient-collapse *less* aggressive (never incorrect).
"""

from __future__ import annotations

import time
from collections import defaultdict
from collections.abc import Callable, Hashable, Iterator, Sequence

import numpy as np

from ..core.records import Record
from ..graphs.union_find import UnionFind
from .base import Predicate
from .batch import (
    BatchNeighborEngine,
    NeighborRows,
    distinct_sorted,
    stack_rows,
    take_rows,
    vectorize_enabled,
)

#: Minimum block size for batch (vectorized) closure verification;
#: smaller blocks stay scalar — kernel setup would dominate.
_BATCH_BLOCK_MIN = 8


def build_key_index(
    predicate: Predicate, records: Sequence[Record]
) -> dict[Hashable, list[int]]:
    """Return key → list of positions (into *records*) for *predicate*."""
    index: dict[Hashable, list[int]] = defaultdict(list)
    for position, record in enumerate(records):
        for key in set(predicate.blocking_keys(record)):
            index[key].append(position)
    return dict(index)


def closure(
    predicate: Predicate,
    records: Sequence[Record],
    max_block_pairs: int = 2_000_000,
    vectorize: bool | None = None,
) -> UnionFind:
    """Return the union-find closure of pairs satisfying *predicate*.

    Within each key block, pairs are verified with ``predicate.evaluate``
    unless ``predicate.key_implies_match`` (then the whole block is
    unioned directly).  Pairs already connected are skipped, so repeated
    keys cost nothing extra.

    Predicates exposing a batch verifier have their larger blocks
    (>= ``_BATCH_BLOCK_MIN`` members) verified one whole row per NumPy
    call; the block union is identical because the batch verdicts equal
    the scalar ones bit-for-bit.  *vectorize* overrides the
    ``REPRO_VECTORIZE`` switch.

    Blocks whose pair count exceeds *max_block_pairs* are verified in
    sorted-neighborhood mode (adjacent-pair chains after sorting by a
    cheap canonical string), bounding worst-case work.
    """
    uf = UnionFind(len(records))
    index = build_key_index(predicate, records)
    verifier = None
    if (
        not predicate.key_implies_match
        and predicate.supports_batch
        and vectorize_enabled(vectorize)
        and any(len(p) >= _BATCH_BLOCK_MIN for p in index.values())
    ):
        verifier = predicate.batch_verifier(records)
    for positions in index.values():
        if len(positions) < 2:
            continue
        if predicate.key_implies_match:
            first = positions[0]
            for other in positions[1:]:
                uf.union(first, other)
            continue
        n_pairs = len(positions) * (len(positions) - 1) // 2
        if n_pairs > max_block_pairs:
            _verify_sorted_neighborhood(predicate, records, positions, uf)
        elif verifier is not None and len(positions) >= _BATCH_BLOCK_MIN:
            _verify_block_batch(verifier, positions, uf)
        else:
            _verify_all_pairs(predicate, records, positions, uf)
    return uf


def _verify_block_batch(verifier, positions: list[int], uf: UnionFind) -> None:
    """Union all matching pairs of one block, one row per kernel call.

    Unlike :func:`_verify_all_pairs` this does not skip already-connected
    pairs — a redundant union is a no-op on the partition, and the batch
    verdict for the whole remainder row costs less than per-pair
    connectivity checks would.
    """
    block = np.asarray(positions, dtype=np.int64)
    for i in range(len(block) - 1):
        rest = block[i + 1 :]
        verdicts = verifier.verify_member_block(int(block[i]), rest)
        for pos_b in rest[verdicts]:
            uf.union(int(block[i]), int(pos_b))


def _verify_all_pairs(
    predicate: Predicate,
    records: Sequence[Record],
    positions: list[int],
    uf: UnionFind,
) -> None:
    for i, pos_a in enumerate(positions):
        record_a = records[pos_a]
        for pos_b in positions[i + 1 :]:
            if uf.connected(pos_a, pos_b):
                continue
            if predicate.evaluate(record_a, records[pos_b]):
                uf.union(pos_a, pos_b)


def _verify_sorted_neighborhood(
    predicate: Predicate,
    records: Sequence[Record],
    positions: list[int],
    uf: UnionFind,
    window: int = 8,
) -> None:
    """Fallback for huge blocks: verify only nearby pairs after sorting."""
    def sort_key(pos: int) -> str:
        # Sort the stringified values: raw field values are not
        # guaranteed mutually comparable (mixed int/str stores).
        record = records[pos]
        return "|".join(sorted(str(v) for v in record.fields.values()))

    ordered = sorted(positions, key=sort_key)
    for i, pos_a in enumerate(ordered):
        record_a = records[pos_a]
        for pos_b in ordered[i + 1 : i + 1 + window]:
            if uf.connected(pos_a, pos_b):
                continue
            if predicate.evaluate(record_a, records[pos_b]):
                uf.union(pos_a, pos_b)


def candidate_pair_arrays(
    predicate: Predicate,
    records: Sequence[Record],
    verify: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Every position pair sharing a key (N-verified when *verify*), as
    ``(left, right)`` int64 arrays in ascending ``(i, j)`` order, i < j.

    The pairs are the upper triangle of the member neighbour rows of a
    :class:`NeighborIndex` over *records*
    (:meth:`NeighborIndex.neighbors_csr`): the vectorized batch
    engine's symmetric sweep, which verifies each pair once, whenever
    the predicate offers one.  Otherwise each record's candidates above
    it are verified with ``evaluate``, so each pair is decided once
    there too.  A verified pair ``(i, j)`` is decided as
    ``predicate.evaluate(records[i], records[j])``.  The result holds 16
    bytes per pair.
    """
    n = len(records)
    index = NeighborIndex(predicate, records)
    if verify and index.batch_engine is not None:
        indptr, right = index.neighbors_csr(range(n))
        left = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
        upper = right > left
        return left[upper], right[upper].astype(np.int64)
    verify = verify and not predicate.key_implies_match
    left: list[int] = []
    right: list[int] = []
    for position, record in enumerate(records):
        above = sorted(
            other
            for other in index.candidate_positions(record)
            if other > position
            and (not verify or predicate.evaluate(record, records[other]))
        )
        left.extend([position] * len(above))
        right.extend(above)
    return np.array(left, dtype=np.int64), np.array(right, dtype=np.int64)


def candidate_pairs(
    predicate: Predicate,
    records: Sequence[Record],
    verify: bool = True,
) -> Iterator[tuple[int, int]]:
    """Yield each position pair sharing a key (optionally N-verified) once,
    in ascending ``(i, j)`` order with i < j.

    This is the canopy-style pair enumeration used by the baseline
    pipelines and by the final stage of Algorithm 2 ("apply criteria P on
    pairs in D_{L+1} for which N_L is true"); see
    :func:`candidate_pair_arrays` for how the pairs are found.
    """
    left, right = candidate_pair_arrays(predicate, records, verify)
    return zip(left.tolist(), right.tolist())


class _DiscardCounters:
    """Null counter sink (duck-typed PipelineCounters) for bare indexes.

    The field set is derived from
    :class:`repro.core.verification.PipelineCounters` at construction
    time (a lazy import — ``core.verification`` imports this module, so
    a top-level import would cycle).  A hardcoded copy drifted once
    already: the containment counters added to ``PipelineCounters``
    were missing here, and a bare index over a guarded predicate raised
    ``AttributeError`` on the first contained fault.
    """

    def __init__(self):
        from ..core.verification import PipelineCounters

        for field in PipelineCounters._INT_FIELDS:
            setattr(self, field, 0)


class NeighborIndex:
    """Answer "which members of this set can match *probe* under N?".

    Built once over a fixed sequence of records (group representatives);
    queries return candidate positions that share a blocking key with the
    probe, optionally verified with the predicate.  Probes can be records
    outside the indexed set or members of it (the member itself is then
    excluded from its own neighbor list).  Every answer is a read-only
    int32 array of positions, ascending.

    Args:
        predicate: The (necessary) predicate to verify candidates with.
        records: The indexed records (group representatives).
        counters: Optional counter sink (see
            :class:`repro.core.verification.PipelineCounters`); work is
            counted into a discard sink when omitted.
        verdicts: Optional shared pair-verdict cache keyed by
            ``(record_id, record_id)`` with the smaller id first.  Only
            sound for symmetric predicates; supplied by
            :class:`~repro.core.verification.VerificationContext` and
            consulted by scalar ``evaluate`` verification (the batch
            engine shares verdicts by lookup in the rows of members
            already probed instead — cheaper than per-pair dict
            traffic).
        memoize: Keep each member's verified row, in one growing CSR
            (:class:`~repro.predicates.batch.NeighborRows`), and answer
            repeated member queries from it.  A member query is a probe
            that *is* the indexed record at ``exclude_position`` (or
            equals it); any other probe — an external record, even one
            sharing a member's ``record_id`` — is computed afresh.
        latency_observe: Optional callable fed sampled per-pair
            verification latencies in seconds (1 in
            ``LATENCY_SAMPLE_EVERY`` scalar ``evaluate`` calls; the
            batch engine's blocks are not sampled — its per-pair cost
            is below clock resolution).
            Supplied by ``VerificationContext`` when metrics are
            enabled; kept as a plain callable so this layer stays free
            of core/observability imports.
        candidate_observe: Optional callable fed the size of each
            *computed* (non-memoized) verified neighbor list.
    """

    #: Pairwise verifications between latency samples (power of two so
    #: the modulo stays cheap).
    LATENCY_SAMPLE_EVERY = 64

    def __init__(
        self,
        predicate: Predicate,
        records: Sequence[Record],
        counters=None,
        verdicts: dict[tuple[int, int], bool] | None = None,
        memoize: bool = False,
        latency_observe: Callable[[float], None] | None = None,
        candidate_observe: Callable[[float], None] | None = None,
        vectorize: bool | None = None,
    ):
        self._predicate = predicate
        self._records = records
        self._counters = counters if counters is not None else _DiscardCounters()
        self._verdicts = verdicts
        self._latency_observe = latency_observe
        self._candidate_observe = candidate_observe
        self._verify_calls = 0
        self._counters.index_builds += 1
        self._index = build_key_index(predicate, records)
        # Batch engine: whole-candidate-block verification in NumPy.
        # Resilience guards forward the hooks with per-block containment;
        # chaos wrappers and custom predicates don't expose them, so
        # their pairs are decided by plain `evaluate`.
        self._engine: BatchNeighborEngine | None = None
        if (
            not predicate.key_implies_match
            and predicate.supports_batch
            and vectorize_enabled(vectorize)
        ):
            self._engine = BatchNeighborEngine.build(
                predicate, records, self._index
            )
        self._rows = NeighborRows(len(records)) if memoize else None
        # For a symmetric predicate, a filled row decides every pair
        # with its member: the engine's sweep looks pairs up in the
        # rows, where a per-pair verdict dict would cost more than the
        # block decision it replaces.  A guard is not symmetric, so its
        # rows (fallback verdicts included) are never shared.
        self._known = (
            self._rows
            if self._engine is not None
            and getattr(predicate, "symmetric", True)
            else None
        )

    @property
    def batch_engine(self) -> BatchNeighborEngine | None:
        """The vectorized engine, or None when queries run scalar."""
        return self._engine

    def candidate_positions(self, probe: Record) -> set[int]:
        """Return positions sharing at least one key with *probe*."""
        result: set[int] = set()
        for key in set(self._predicate.blocking_keys(probe)):
            result.update(self._index.get(key, ()))
        return result

    def neighbors(self, probe: Record, exclude_position: int = -1) -> np.ndarray:
        """Return verified neighbor positions of *probe* under N."""
        counters = self._counters
        counters.neighbor_queries += 1
        rows = self._rows
        if not self._is_member_probe(probe, exclude_position):
            found = None
            if self._engine is not None:
                probe_keys = set(self._predicate.blocking_keys(probe))
                found = self._engine.probe_neighbors(
                    probe, probe_keys, exclude_position, counters
                )
            if found is None:
                found = self._neighbors_by_pairs(probe, exclude_position)
            if self._candidate_observe is not None:
                self._candidate_observe(len(found))
            return _read_only(found)
        if rows is not None and rows.probed[exclude_position]:
            counters.neighbor_memo_hits += 1
            return rows.row(exclude_position)
        position = np.array([exclude_position], dtype=np.int64)
        if self._known is not None and self._known.filled:
            # Pairs against already-probed members are looked up in
            # their rows.
            found = self._engine.member_neighbors_csr(
                position, counters, known=self._known
            )[1]
        elif self._engine is not None:
            found = self._engine.member_neighbors(exclude_position, counters)
        else:
            found = self._neighbors_by_pairs(probe, exclude_position)
        if self._candidate_observe is not None:
            self._candidate_observe(len(found))
        if rows is None:
            return _read_only(found)
        rows.add(position, np.array([0, len(found)], dtype=np.int64), found)
        return rows.row(exclude_position)

    def _is_member_probe(self, probe: Record, exclude_position: int) -> bool:
        """True when *probe* IS the indexed record at *exclude_position*
        (identity first, equality as the fallback for reconstructed but
        value-identical records) — not merely a record sharing its id."""
        if not 0 <= exclude_position < len(self._records):
            return False
        member = self._records[exclude_position]
        return member is probe or member == probe

    def neighbors_csr(
        self, positions: Sequence[int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Verified neighbor rows of many indexed members as ``(indptr,
        flat)`` (int64, int32), one row per entry of *positions*.

        Equivalent to ``self.neighbors(records[p], exclude_position=p)``
        for each ``p`` — memo and counters included — but member probes
        skip the probe-side key recomputation and, with a symmetric
        batch engine, run its symmetric sweep: a chunk of probes per
        NumPy pass, each in-batch pair verified once.  A guarded
        predicate's engine sweeps too when its inner predicate is
        symmetric (see :class:`~repro.core.resilience.GuardedPredicate`);
        the guard itself stays asymmetric, so no pair-verdict cache or
        shared row ever holds its verdicts.
        """
        positions = np.asarray(positions, dtype=np.int64)
        counters = self._counters
        counters.neighbor_queries += len(positions)
        distinct = distinct_sorted(positions)
        rows = self._rows
        if rows is None:
            return take_rows(
                distinct, *self._compute_rows(distinct), positions
            )
        pending = distinct[~rows.probed[distinct]]
        counters.neighbor_memo_hits += len(positions) - len(pending)
        if len(pending):
            indptr, flat = self._compute_rows(pending)
            rows.add(pending, indptr, flat)
            if np.array_equal(positions, pending):
                # Every row was just computed, in the asked order.
                return indptr, flat
        return rows.gather(positions)

    def _compute_rows(
        self, positions: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Rows of the distinct members *positions* (ascending), with
        nothing read from or written to the memo except through the
        sweep's *known* lookups."""
        if self._engine is not None:
            indptr, flat = self._engine.member_neighbors_csr(
                positions, self._counters, known=self._known
            )
        else:
            # One probe at a time: scalar `evaluate` shares verdicts
            # through the pair-verdict cache as it goes.
            indptr, flat = stack_rows(
                [
                    self._neighbors_by_pairs(self._records[p], p)
                    for p in positions.tolist()
                ]
            )
        if self._candidate_observe is not None:
            for length in np.diff(indptr).tolist():
                self._candidate_observe(length)
        return indptr, flat

    def _neighbors_by_pairs(
        self, probe: Record, exclude_position: int
    ) -> np.ndarray:
        """Pairwise ``evaluate`` verification, consulting the shared
        verdict cache per candidate pair."""
        candidates = self.candidate_positions(probe)
        candidates.discard(exclude_position)
        if self._predicate.key_implies_match:
            return np.array(sorted(candidates), dtype=np.int32)
        counters = self._counters
        verdicts = self._verdicts
        out = []
        probe_id = probe.record_id
        for position in candidates:
            if verdicts is not None:
                other_id = self._records[position].record_id
                pair = (
                    (probe_id, other_id)
                    if probe_id < other_id
                    else (other_id, probe_id)
                )
                verdict = verdicts.get(pair)
                if verdict is None:
                    verdict = self._verify_pair(probe, position)
                    verdicts[pair] = verdict
                    counters.cache_misses += 1
                else:
                    counters.cache_hits += 1
            else:
                verdict = self._verify_pair(probe, position)
            if verdict:
                out.append(position)
        out.sort()
        return np.array(out, dtype=np.int32)

    def _verify_pair(self, probe: Record, position: int) -> bool:
        self._counters.predicate_evaluations += 1
        other = self._records[position]
        if self._latency_observe is not None:
            self._verify_calls += 1
            if self._verify_calls % self.LATENCY_SAMPLE_EVERY == 1:
                start = time.perf_counter()
                verdict = self._predicate.evaluate(probe, other)
                self._latency_observe(time.perf_counter() - start)
                return verdict
        return self._predicate.evaluate(probe, other)


def _read_only(row: np.ndarray) -> np.ndarray:
    """*row* as an int32 array callers cannot write through."""
    row = row.astype(np.int32, copy=False)
    row.flags.writeable = False
    return row
