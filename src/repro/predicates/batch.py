"""Vectorized batch predicate verification over pre-encoded arrays.

The scalar pipeline decides one candidate pair per Python call.  This
module decides one *candidate block* per NumPy call, on integer arrays
encoded once at index-build time:

* :class:`SetSimilarityBatch` — a pairwise verifier for the library's
  set-similarity predicate shapes (overlap coefficient, shared-word
  count, Jaccard, common initials, the address S1 conjunction), with an
  optional exact-match *gate* (dictionary-encoded field tuples) and
  initials as uint64 bitmasks;
* :class:`OverlapCountRule` — count filtering: the predicate decided
  from shared-blocking-key counts (``shared / min(keys) >= t`` plus the
  initials post-check) for :class:`~repro.predicates.library.NgramOverlapPredicate`;
* :class:`BatchNeighborEngine` — member/probe neighbor computation
  over CSR postings: gather the probe's posting rows, count shared
  keys per candidate with one ``np.unique``, verify the whole
  candidate block with the rule or verifier.  Its symmetric sweep
  does the same for a chunk of member probes at once, keyed by
  ``(probe, candidate)`` pair;
* :class:`NeighborRows` — verified member rows as one growing int32
  CSR, the memo a :class:`~repro.predicates.blocking.NeighborIndex`
  keeps and the sweep reads pairs from.

Every kernel replicates the scalar semantics bit-for-bit (see
:mod:`repro.similarity.encoding` for the float contract); the
differential-oracle, storage and uncertainty property suites assert the
equality end-to-end on every dataset family.

Predicates opt in via :meth:`~repro.predicates.base.Predicate.batch_verifier`
/ :meth:`~repro.predicates.base.Predicate.batch_count_rule`.  The
resilience guard (:class:`~repro.core.resilience.GuardedPredicate`)
forwards both hooks with every block call wrapped in its containment —
ticks, deadline, per-block timeout and role-safe fallback verdicts — so
policy-armed queries keep the kernels, the symmetric sweep included:
a guarded decider contains each sweep chunk's one decision call as one
block (``contain_chunk``), and a chunk that fell back shares nothing
(see :meth:`BatchNeighborEngine._sweep`).  Chaos wrappers do not forward
them: their per-pair fault draws need the scalar path.  The
``REPRO_VECTORIZE`` environment variable (``0``/``false``/``off`` to
disable) forces the scalar path — plain ``evaluate`` per pair —
globally: the reference the equivalence tests compare against.

Rules and verifiers share one probe protocol: ``member_state(position)``
for indexed members and ``encode_probe(record)`` for external probes,
each returning an opaque probe state (None from ``encode_probe`` means
"cannot encode", and the caller falls back to ``evaluate``).
"""

from __future__ import annotations

import os
from collections.abc import Callable, Hashable, Sequence

import numpy as np

from ..core.records import Record
from ..similarity.encoding import (
    EncodedSetCorpus,
    TokenDictionary,
    bitmask_encode,
    bitmask_probe,
    gather_rows,
    gather_spans,
    intersection_counts,
    jaccard_block,
    overlap_block,
    pair_common_tokens,
    pair_intersection_counts,
)
from ..similarity.vectorize import PAIR_CHUNK

#: Posting entries one chunk of :meth:`BatchNeighborEngine`'s symmetric
#: sweep gathers at most (a probe whose own entries exceed it is a chunk
#: alone).  The sweep's working arrays, about ten of them, grow with
#: this: 1M-entry chunks raised the batch-citations set-up's peak RSS
#: from 122 to 141 MB, while 4k-256k entries left it flat.  Smaller
#: chunks cost more NumPy calls: a full sweep of 5,000 citation records
#: (5.4M gathered entries) takes 0.28 s at 65,536 and 0.36 s at 8,192
#: on 2 vCPUs.
SWEEP_ENTRY_BUDGET = 65_536

#: The chunk budget of a guarded engine's sweep (one whose decider
#: contains each chunk's call).  A chunk that falls back is decided
#: again probe by probe, so a smaller chunk bounds the work one fault
#: discards, and the deadline is checked between chunks.  Served
#: queries run guarded, on a small working set that the chunk's arrays
#: would otherwise set the peak of: against the parent commit, the
#: serve-citations peak RSS rose by 3.7 MB at 65,536 entries, by 0.4 MB
#: at 16,384 and by 0.1 MB, within run-to-run noise, at 8,192
#: (docs/performance.md § Why a budget).
GUARDED_SWEEP_ENTRY_BUDGET = 8_192

#: Environment variable disabling the vectorized path (set to ``0``,
#: ``false`` or ``off``); anything else — including unset — enables it.
VECTORIZE_ENV_VAR = "REPRO_VECTORIZE"


def vectorize_enabled(explicit: bool | None = None) -> bool:
    """Resolve the vectorization switch.

    An explicit True/False wins; ``None`` consults ``REPRO_VECTORIZE``
    (default: enabled).
    """
    if explicit is not None:
        return explicit
    raw = os.environ.get(VECTORIZE_ENV_VAR, "").strip().lower()
    return raw not in ("0", "false", "off", "no")


#: Verifier rules understood by :class:`SetSimilarityBatch`.
_RULES = ("overlap_ge", "inter_ge", "jaccard_ge", "initials_any", "address_s1")


class SetSimilarityBatch:
    """Verify one probe record against a block of candidates at once.

    A verifier instance is bound to one record sequence (the index's
    records); features are encoded once at construction:

    * ``gate_ids`` — dictionary id of an exact-match key (tuple of
      normalized fields, initials key, ...); candidates whose gate
      differs from the probe's fail immediately;
    * ``masks`` — uint64 bitmask of a small set (name initials); the
      "share at least one" check is a single ``&``;
    * token CSR corpora — the set(s) the similarity rule runs on.

    ``rule`` selects the decision applied after the gate/mask checks:

    ========== =================================================
    rule        accept condition
    ========== =================================================
    overlap_ge  ``overlap_coefficient(a, b) >= threshold``
    inter_ge    ``|a ∩ b| >= min_common``
    jaccard_ge  ``jaccard(a, b) >= threshold``
    initials_any  gate/mask checks only (no token sets)
    address_s1  ``overlap(name) > name_threshold`` and
                ``overlap(addr) >= address_threshold``
    ========== =================================================
    """

    def __init__(
        self,
        rule: str,
        params: dict[str, float],
        gate_ids: np.ndarray | None = None,
        masks: np.ndarray | None = None,
        corpus1: EncodedSetCorpus | None = None,
        corpus2: EncodedSetCorpus | None = None,
        gate_map: dict[Hashable, int] | None = None,
        bit_of_token: dict[Hashable, int] | None = None,
        features: dict[str, Callable[[Record], object]] | None = None,
    ) -> None:
        if rule not in _RULES:
            raise ValueError(f"unknown batch rule {rule!r}")
        self.rule = rule
        self.params = params
        self.gate_ids = gate_ids
        self.masks = masks
        self._indptr1 = corpus1.indptr if corpus1 is not None else None
        self._ids1 = corpus1.token_ids if corpus1 is not None else None
        self._indptr2 = corpus2.indptr if corpus2 is not None else None
        self._ids2 = corpus2.token_ids if corpus2 is not None else None
        self._scratch1 = (
            np.zeros(corpus1.vocabulary_size, dtype=bool)
            if corpus1 is not None
            else None
        )
        self._scratch2 = (
            np.zeros(corpus2.vocabulary_size, dtype=bool)
            if corpus2 is not None
            else None
        )
        # Probe-encoding state (external probes).
        self._gate_map = gate_map
        self._bit_of_token = bit_of_token
        self._dict1 = corpus1.dictionary if corpus1 is not None else None
        self._dict2 = corpus2.dictionary if corpus2 is not None else None
        self._features = features or {}

    # -- construction ------------------------------------------------------

    @classmethod
    def build(
        cls,
        records: Sequence[Record],
        rule: str,
        params: dict[str, float],
        gate_key: Callable[[Record], Hashable] | None = None,
        initials: Callable[[Record], frozenset] | None = None,
        tokens1: Callable[[Record], frozenset] | None = None,
        tokens2: Callable[[Record], frozenset] | None = None,
    ) -> "SetSimilarityBatch | None":
        """Encode *records* under the feature extractors; None when the
        shape cannot be vectorized (initials vocabulary over 64 bits)."""
        gate_ids = None
        gate_map = None
        if gate_key is not None:
            gate_dict = TokenDictionary()
            gate_ids = np.fromiter(
                (gate_dict.add(gate_key(record)) for record in records),
                dtype=np.int32,
                count=len(records),
            )
            gate_map = dict(gate_dict._ids)  # noqa: SLF001 - same module family
        masks = None
        bit_of_token = None
        if initials is not None:
            encoded = bitmask_encode([initials(record) for record in records])
            if encoded is None:
                return None
            masks, bit_of_token = encoded
        corpus1 = (
            EncodedSetCorpus.from_sets([tokens1(r) for r in records])
            if tokens1 is not None
            else None
        )
        corpus2 = (
            EncodedSetCorpus.from_sets([tokens2(r) for r in records])
            if tokens2 is not None
            else None
        )
        return cls(
            rule,
            params,
            gate_ids=gate_ids,
            masks=masks,
            corpus1=corpus1,
            corpus2=corpus2,
            gate_map=gate_map,
            bit_of_token=bit_of_token,
            features={
                "gate_key": gate_key,
                "initials": initials,
                "tokens1": tokens1,
                "tokens2": tokens2,
            },
        )

    # -- probe encoding ----------------------------------------------------

    def encode_probe(self, record: Record):
        """Encode an external probe."""
        features = self._features
        gate = None
        if self.gate_ids is not None:
            # -2 is "gate unseen in the index": matches no candidate.
            gate = self._gate_map.get(features["gate_key"](record), -2)
        mask = None
        if self.masks is not None:
            mask = np.uint64(
                bitmask_probe(features["initials"](record), self._bit_of_token)
            )
        ids1 = size1 = None
        if self._indptr1 is not None:
            token_set = features["tokens1"](record)
            ids1 = self._dict1.lookup_ids(token_set)
            size1 = len(token_set)
        ids2 = size2 = None
        if self._indptr2 is not None:
            token_set = features["tokens2"](record)
            ids2 = self._dict2.lookup_ids(token_set)
            size2 = len(token_set)
        return (gate, mask, ids1, size1, ids2, size2)

    def member_state(self, position: int):
        """Probe state for the indexed record at *position* (pure array
        reads)."""
        gate = (
            int(self.gate_ids[position]) if self.gate_ids is not None else None
        )
        mask = self.masks[position] if self.masks is not None else None
        ids1 = size1 = None
        if self._indptr1 is not None:
            start, stop = self._indptr1[position], self._indptr1[position + 1]
            ids1 = self._ids1[start:stop]
            size1 = int(stop - start)
        ids2 = size2 = None
        if self._indptr2 is not None:
            start, stop = self._indptr2[position], self._indptr2[position + 1]
            ids2 = self._ids2[start:stop]
            size2 = int(stop - start)
        return (gate, mask, ids1, size1, ids2, size2)

    # -- verification ------------------------------------------------------

    def verify_member_block(
        self, position: int, candidates: np.ndarray
    ) -> np.ndarray:
        """Verdicts of (member at *position*, candidate) for each row."""
        return self.verify_block(self.member_state(position), candidates)

    def verify_block(self, probe_state, candidates: np.ndarray) -> np.ndarray:
        """Boolean verdict per candidate row for an encoded probe."""
        gate, mask, ids1, size1, ids2, size2 = probe_state
        ok = np.ones(len(candidates), dtype=bool)
        if self.gate_ids is not None:
            ok &= self.gate_ids[candidates] == gate
        if self.masks is not None:
            ok &= (self.masks[candidates] & mask) != np.uint64(0)

        def overlaps(indptr, token_ids, scratch, probe_ids, size):
            inter = intersection_counts(
                probe_ids, indptr, token_ids, candidates, scratch
            )
            sizes = indptr[candidates + np.int64(1)] - indptr[candidates]
            return inter, size, sizes

        return self._apply_rule(
            ok,
            lambda: overlaps(
                self._indptr1, self._ids1, self._scratch1, ids1, size1
            ),
            lambda: overlaps(
                self._indptr2, self._ids2, self._scratch2, ids2, size2
            ),
        )

    def verify_pairs(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """Verdict per member pair ``(left[e], right[e])`` — the rule of
        :meth:`verify_block` on per-pair sizes, so each verdict equals
        ``verify_member_block(left[e], right[e:e + 1])``."""
        ok = np.ones(len(left), dtype=bool)
        if self.gate_ids is not None:
            ok &= self.gate_ids[left] == self.gate_ids[right]
        if self.masks is not None:
            ok &= (self.masks[left] & self.masks[right]) != np.uint64(0)
        return self._apply_rule(
            ok,
            lambda: _pair_overlaps(self._indptr1, self._ids1, left, right),
            lambda: _pair_overlaps(self._indptr2, self._ids2, left, right),
        )

    def _apply_rule(self, ok: np.ndarray, overlaps1, overlaps2) -> np.ndarray:
        """*ok* (the gate and mask checks) and the rule's condition.

        ``overlaps1()`` / ``overlaps2()`` return ``(|a ∩ b|, |a|, |b|)``
        on the first / second token corpus, each size one probe's or
        one per row; they run only when the rule reads that corpus.
        """
        rule = self.rule
        if rule == "initials_any":
            return ok
        inter, size_a, size_b = overlaps1()
        if rule == "overlap_ge":
            ok &= overlap_block(inter, size_a, size_b) >= self.params["threshold"]
        elif rule == "inter_ge":
            ok &= inter >= self.params["min_common"]
        elif rule == "jaccard_ge":
            ok &= jaccard_block(inter, size_a, size_b) >= self.params["threshold"]
        else:  # address_s1
            ok &= (
                overlap_block(inter, size_a, size_b)
                > self.params["name_threshold"]
            )
            inter, size_a, size_b = overlaps2()
            ok &= (
                overlap_block(inter, size_a, size_b)
                >= self.params["address_threshold"]
            )
        return ok



def _pair_overlaps(
    indptr: np.ndarray,
    token_ids: np.ndarray,
    left: np.ndarray,
    right: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(|left ∩ right|, |left|, |right|)`` per pair of CSR rows.

    Intersections run :data:`PAIR_CHUNK` pairs at a time, so the
    gathered token rows stay small however many pairs there are."""
    inter = np.empty(len(left), dtype=np.int64)
    for start in range(0, len(left), PAIR_CHUNK):
        rows = slice(start, start + PAIR_CHUNK)
        pair, _ = pair_common_tokens(indptr, token_ids, left[rows], right[rows])
        inter[rows] = pair_intersection_counts(pair, len(inter[rows]))
    sizes_left = indptr[left + np.int64(1)] - indptr[left]
    sizes_right = indptr[right + np.int64(1)] - indptr[right]
    return inter, sizes_left, sizes_right


class OverlapCountRule:
    """Count filtering: accept a candidate block from shared-key counts
    (``shared / min(n_a, n_b) >= threshold``) plus an optional bitmask
    post-check, for predicates whose shared-blocking-key count *is* the
    intersection size (``NgramOverlapPredicate``, whose ``evaluate`` is
    the reference each verdict equals)."""

    def __init__(
        self,
        threshold: float,
        masks: np.ndarray | None = None,
        bit_of_token: dict[Hashable, int] | None = None,
        post_probe: Callable[[Record], frozenset] | None = None,
    ) -> None:
        self.threshold = threshold
        self.masks = masks
        self._bit_of_token = bit_of_token
        self._post_probe = post_probe

    def probe_mask(self, record: Record) -> np.uint64 | None:
        """Bitmask of an external probe's post-check set (None when the
        rule has no post-check)."""
        if self.masks is None:
            return None
        return np.uint64(
            bitmask_probe(self._post_probe(record), self._bit_of_token)
        )

    def encode_probe(self, record: Record):
        """Probe state ``(mask,)`` of an external probe."""
        return (self.probe_mask(record),)

    def member_state(self, position):
        """Probe state ``(mask,)`` of the indexed record at *position*;
        an array of positions gives one mask per entry, the per-pair
        probe masks of the engine's symmetric sweep."""
        return (self.masks[position] if self.masks is not None else None,)

    def accepts(
        self,
        shared: np.ndarray,
        n_probe_keys,
        candidate_key_counts: np.ndarray,
        probe_mask,
        candidates: np.ndarray,
    ) -> np.ndarray:
        """Verdict per candidate from shared-key counts.

        *n_probe_keys* and *probe_mask* are one probe's, or arrays
        parallel to *candidates* when each row is a different probe's
        pair.  Candidates share at least one key by construction, so
        both key counts are >= 1 and the division is always defined;
        ``int64 / int64`` true division reproduces the scalar
        ``overlap_coefficient`` quotient bit-for-bit.
        """
        ok = (
            shared / np.minimum(n_probe_keys, candidate_key_counts)
            >= self.threshold
        )
        if self.masks is not None:
            ok &= (self.masks[candidates] & probe_mask) != np.uint64(0)
        return ok


def distinct_sorted(values: np.ndarray) -> np.ndarray:
    """The distinct *values* ascending, by one sort.

    Plain ``np.unique`` would do, but in NumPy >= 2.3 it asks
    ``np.ma.is_masked`` and so imports :mod:`numpy.ma` on its first
    call, which would land in a process's first query.
    """
    ordered = np.sort(values)
    first = np.empty(len(ordered), dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return ordered[first]


def _offsets(lengths) -> np.ndarray:
    """CSR ``indptr`` (int64) of rows with these *lengths*."""
    indptr = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    return indptr


def stack_rows(rows: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """*rows* as one CSR ``(indptr, flat)``, flat int32."""
    flat = np.concatenate([np.empty(0, dtype=np.int32), *rows])
    return _offsets([len(row) for row in rows]), flat.astype(np.int32, copy=False)


def take_rows(
    order: np.ndarray, indptr: np.ndarray, flat: np.ndarray, positions: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """CSR rows of the distinct ascending *order*, re-indexed to one row
    per entry of *positions* (each an entry of *order*; any order,
    repeats allowed)."""
    if np.array_equal(positions, order):
        return indptr, flat
    flat, lengths = gather_rows(indptr, flat, np.searchsorted(order, positions))
    return _offsets(lengths), flat


class NeighborRows:
    """Verified neighbor rows of indexed members, as one growing CSR.

    Row *p* holds *p*'s neighbor positions ascending, as int32, in
    ``indices[start[p]:stop[p]]``; ``probed[p]`` says the row is filled.
    Each row is filled once and never changes; rows sit in the order
    they were filled, so a row can be read, and a pair ``(p, q)``
    looked up in it (:meth:`contains`), but rows are not in position
    order.  The index buffer grows by half its size when full (to at
    least 4,096 entries), so the store costs at most 6 B per entry, plus
    17 B per indexed member and the 16 KB floor.
    """

    def __init__(self, n_records: int) -> None:
        self.probed = np.zeros(n_records, dtype=bool)
        self.start = np.zeros(n_records, dtype=np.int64)
        self.stop = np.zeros(n_records, dtype=np.int64)
        self.filled = 0
        self._size = 0
        self._grow(0)

    def _grow(self, capacity: int) -> None:
        """Move the index buffer to one of *capacity* entries, keeping a
        read-only view of it for :meth:`row`."""
        grown = np.empty(capacity, dtype=np.int32)
        if self._size:
            grown[: self._size] = self._indices[: self._size]
        self._indices = grown
        self._view = grown.view()
        self._view.flags.writeable = False

    @property
    def nbytes(self) -> int:
        """Bytes the store holds: index buffer plus per-member arrays."""
        return (
            self._indices.nbytes
            + self.probed.nbytes
            + self.start.nbytes
            + self.stop.nbytes
        )

    def row(self, position: int) -> np.ndarray:
        """The filled row of *position*, a read-only int32 view."""
        return self._view[self.start[position] : self.stop[position]]

    def add(
        self, positions: np.ndarray, indptr: np.ndarray, flat: np.ndarray
    ) -> None:
        """Fill the rows of *positions* (unfilled, distinct) with the
        CSR rows ``flat[indptr[i]:indptr[i + 1]]``."""
        size = self._size
        need = size + len(flat)
        if need > len(self._indices):
            self._grow(max(need, len(self._indices) * 3 // 2, 4096))
        self._indices[size:need] = flat
        self.start[positions] = indptr[:-1] + size
        self.stop[positions] = indptr[1:] + size
        self.probed[positions] = True
        self.filled += len(positions)
        self._size = need

    def gather(self, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The filled rows of *positions* as ``(indptr, flat)``."""
        starts = self.start[positions]
        flat, lengths = gather_spans(
            self._indices, starts, self.stop[positions] - starts
        )
        return _offsets(lengths), flat

    def contains(self, rows: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Whether ``values[e]`` is in the filled row ``rows[e]``, per
        entry: a bisection run in every row at once."""
        lo = self.start[rows]
        stop = self.stop[rows]
        hi = stop.copy()
        data = self._indices
        last = max(len(data) - 1, 0)
        for _ in range(int((hi - lo).max(initial=0)).bit_length()):
            mid = (lo + hi) >> 1
            below = (lo < hi) & (data[np.minimum(mid, last)] < values)
            lo = np.where(below, mid + 1, lo)
            hi = np.where(below, hi, mid)
        found = lo < stop
        found[found] = data[lo[found]] == values[found]
        return found


class BatchNeighborEngine:
    """Vectorized neighbor computation over inverted-index postings.

    Holds the index's structure as four flat arrays — a record → key-id
    CSR and a key-id → positions CSR — plus either a count rule or a
    pairwise verifier.  One member query is then: gather the probe's
    posting rows, ``np.unique`` for (candidates, shared counts), verify
    the block, done — no per-candidate Python.  Many member queries at
    once (:meth:`member_neighbors_csr`) run the same steps over a chunk
    of probes per NumPy call, each symmetric pair verified once — under
    a guard too, which contains each chunk's call as one block.

    Built by :meth:`build`, which keeps the key-id map for external
    probes.
    """

    def __init__(
        self,
        n_records: int,
        key_indptr: np.ndarray,
        key_ids: np.ndarray,
        post_indptr: np.ndarray,
        post_positions: np.ndarray,
        key_id_of: dict[Hashable, int],
        count_rule: OverlapCountRule | None = None,
        verifier: SetSimilarityBatch | None = None,
        symmetric: bool = True,
    ) -> None:
        self.n_records = n_records
        self.key_indptr = key_indptr
        self.key_ids = key_ids
        self.post_indptr = post_indptr
        self.post_positions = post_positions
        self.count_rule = count_rule
        self.verifier = verifier
        self._key_id_of = key_id_of
        self.symmetric = symmetric
        # A guarded decider's hook containing one sweep chunk's call.
        self._contain_chunk = getattr(self._rule, "contain_chunk", None)
        self._key_counts = np.diff(key_indptr)
        # Posting entries a member probe gathers (the summed posting
        # lengths of its keys), which cut the symmetric sweep's chunks.
        entries = np.zeros(len(key_ids) + 1, dtype=np.int64)
        np.cumsum(np.diff(post_indptr)[key_ids], out=entries[1:])
        self._probe_entries = entries[key_indptr[1:]] - entries[key_indptr[:-1]]

    @property
    def count_mode(self) -> bool:
        return self.count_rule is not None

    @property
    def _rule(self):
        """The block decider: the count rule, else the verifier."""
        return self.count_rule if self.count_rule is not None else self.verifier

    @classmethod
    def build(
        cls,
        predicate,
        records: Sequence[Record],
        key_index: dict[Hashable, list[int]],
    ) -> "BatchNeighborEngine | None":
        """Build from a predicate's posting lists; None when the
        predicate offers no batch capability (``evaluate`` decides).

        The count rule wins whenever the predicate offers one.

        The engine sweeps when its decisions are symmetric: the
        predicate's ``symmetric``, unless the rule or verifier states
        its own.  A guard's blocks do (their inner predicate's), while
        the guard itself stays asymmetric so that no cache across calls
        ever holds one of its verdicts.
        """
        verifier = None
        count_rule = predicate.batch_count_rule(records)
        if count_rule is None:
            verifier = predicate.batch_verifier(records)
            if verifier is None:
                return None
        decider = count_rule if count_rule is not None else verifier

        n = len(records)
        keys = list(key_index)
        key_id_of = {key: key_id for key_id, key in enumerate(keys)}
        lengths = np.fromiter(
            (len(key_index[key]) for key in keys),
            dtype=np.int64,
            count=len(keys),
        )
        post_indptr = np.zeros(len(keys) + 1, dtype=np.int64)
        np.cumsum(lengths, out=post_indptr[1:])
        total = int(post_indptr[-1])
        post_positions = np.fromiter(
            (
                position
                for key in keys
                for position in key_index[key]
            ),
            dtype=np.int32,
            count=total,
        )
        # Invert postings into the record → key-ids CSR: a stable sort
        # by position keeps each record's key ids ascending.
        entry_key = np.repeat(
            np.arange(len(keys), dtype=np.int32), lengths
        )
        order = np.argsort(post_positions, kind="stable")
        key_ids = entry_key[order]
        key_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(post_positions, minlength=n), out=key_indptr[1:]
        )
        return cls(
            n,
            key_indptr,
            key_ids,
            post_indptr,
            post_positions,
            count_rule=count_rule,
            verifier=verifier,
            key_id_of=key_id_of,
            symmetric=getattr(
                decider, "symmetric", getattr(predicate, "symmetric", True)
            ),
        )

    # -- queries -----------------------------------------------------------

    def _candidates(
        self, probe_key_ids: np.ndarray, exclude: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """(candidates, shared-key counts), candidates ascending and
        *exclude* removed — the postings walk as one gather + unique."""
        if len(probe_key_ids) == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        flat, _ = gather_rows(
            self.post_indptr,
            self.post_positions,
            probe_key_ids.astype(np.int64, copy=False),
        )
        candidates, shared = np.unique(flat, return_counts=True)
        if 0 <= exclude <= self.n_records:
            keep = candidates != exclude
            if not keep.all():
                candidates = candidates[keep]
                shared = shared[keep]
        return candidates.astype(np.int64, copy=False), shared

    def _verify(
        self,
        candidates: np.ndarray,
        shared: np.ndarray,
        n_probe_keys: int,
        probe_state,
        counters,
    ) -> np.ndarray:
        if len(candidates) == 0:
            return candidates
        counters.predicate_evaluations += len(candidates)
        if self.count_rule is not None:
            ok = self.count_rule.accepts(
                shared,
                n_probe_keys,
                self._key_counts[candidates],
                probe_state[0],
                candidates,
            )
        else:
            ok = self.verifier.verify_block(probe_state, candidates)
        return candidates[ok]

    def member_neighbors(self, position: int, counters) -> np.ndarray:
        """Verified neighbors of the indexed member at *position*
        (``exclude_position=position`` semantics), ascending int64."""
        return self._member_neighbors(position, counters)[1]

    def _member_neighbors(
        self, position: int, counters
    ) -> tuple[np.ndarray, np.ndarray]:
        """(candidates, verified neighbors) of the member at
        *position*, decided in one block."""
        probe_key_ids = self.key_ids[
            self.key_indptr[position] : self.key_indptr[position + 1]
        ]
        candidates, shared = self._candidates(probe_key_ids, position)
        return candidates, self._verify(
            candidates,
            shared,
            len(probe_key_ids),
            self._rule.member_state(position),
            counters,
        )

    def probe_neighbors(
        self,
        probe: Record,
        probe_keys: set,
        exclude: int,
        counters,
    ) -> np.ndarray | None:
        """Verified neighbors of an external *probe*; None when this
        engine cannot encode it (caller falls back to
        ``evaluate``)."""
        probe_state = self._rule.encode_probe(probe)
        if probe_state is None:
            return None
        key_id_of = self._key_id_of
        probe_key_ids = np.fromiter(
            (
                key_id
                for key_id in (key_id_of.get(key) for key in probe_keys)
                if key_id is not None
            ),
            dtype=np.int64,
        )
        candidates, shared = self._candidates(probe_key_ids, exclude)
        # n_probe counts *all* probe keys, unknown ones included — they
        # cannot intersect but they do enter min(n_a, n_b).
        return self._verify(
            candidates, shared, len(probe_keys), probe_state, counters
        )

    def member_neighbors_csr(
        self,
        positions: Sequence[int],
        counters,
        known: NeighborRows | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Neighbor lists of many members as (indptr, flat int32), one
        row per entry of *positions* — the compact CSR shape, with no
        Python list per row.  Results are identical to per-member
        queries; in-batch pairs of a symmetric engine are verified once,
        and pairs against *known* rows are read from them (see
        :meth:`_sweep`).

        The sharing is only sound for symmetric decisions; an
        asymmetric engine probes each member on its own, through
        :meth:`member_neighbors`, and ignores *known*.
        """
        rows = np.asarray(positions, dtype=np.int64)
        if self.symmetric:
            order, indptr, flat = self._sweep(rows, counters, known)
        else:
            order = distinct_sorted(rows)
            indptr, flat = stack_rows(
                [self.member_neighbors(p, counters) for p in order.tolist()]
            )
        return take_rows(order, indptr, flat, rows)

    def _sweep(
        self,
        positions: Sequence[int],
        counters,
        known: NeighborRows | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The symmetric sweep: ``(order, indptr, flat)``, the distinct
        *positions* ascending and their neighbor lists as CSR rows
        (ascending, int32).

        Member probes run in chunks of at most
        :data:`SWEEP_ENTRY_BUDGET` gathered posting entries
        (:data:`GUARDED_SWEEP_ENTRY_BUDGET` under a guard).  Per chunk:
        gather the probes' key rows and those keys' posting rows, drop
        each probe's own position and every batch member below it —
        that pair is decided from its lower end, and the verdict flows
        back as a reverse edge — count shared keys per ``(probe,
        candidate)`` with one sort, and decide every pair in one rule
        or verifier call.  *known* holds already-answered members' rows
        (a :class:`~repro.predicates.blocking.NeighborIndex`'s memo); a
        pair against a filled row is decided by a lookup in that sorted
        row instead.  Both
        shortcuts count as ``cache_hits``, as a
        verdict-cache hit would; a skipped lower pair is counted as the
        in-batch upper pair it equals, because key sharing is symmetric.

        A guarded decider contains each chunk's decision call as one
        block (``contain_chunk``) and reports a block that fell back.
        Such a chunk shares nothing: its verdicts are discarded, its
        probes leave the batch (later chunks then decide their pairs
        with them from the far side), and each probe is decided again
        on its own, exactly as :meth:`member_neighbors` does
        (:meth:`_decide_alone`).  A fallback verdict thus only ever
        reaches the list of the probe whose own block fell back.  (A
        guarded index never passes its memo, so *known* is then None.)
        """
        n = self.n_records
        order = distinct_sorted(np.asarray(positions, dtype=np.int64))
        in_batch = np.zeros(n, dtype=bool)
        in_batch[order] = True
        known_mask = None
        if known is not None and known.filled:
            known_mask = known.probed.copy()
            # A batch member is probed here, so its pairs are decided by
            # the sweep alone, never also through *known*.
            known_mask[order] = False
        # Edges as ``row * n + neighbor`` codes: verified pairs, their
        # reverse edges into batch members, and `known` recoveries.
        edges: list[np.ndarray] = [np.empty(0, dtype=np.int64)]
        alone: list[np.ndarray] = []
        for chunk in self._sweep_chunks(order):
            probes, candidates, shared = self._chunk_pairs(chunk, in_batch)
            if known_mask is not None:
                known_here = known_mask[candidates]
                if known_here.any():
                    counters.cache_hits += int(np.count_nonzero(known_here))
                    rows = candidates[known_here]
                    values = probes[known_here]
                    hit = known.contains(rows, values)
                    edges.append(values[hit] * n + rows[hit])
                    keep = ~known_here
                    probes = probes[keep]
                    candidates = candidates[keep]
                    shared = shared[keep]
            ok = self._decide_pairs(probes, candidates, shared, counters)
            if ok is None:
                in_batch[chunk] = False
                alone.append(self._decide_alone(chunk, in_batch, counters))
                continue
            upper = in_batch[candidates]
            counters.cache_hits += int(np.count_nonzero(upper))
            edges.append(probes[ok] * n + candidates[ok])
            back = ok & upper
            edges.append(candidates[back] * n + probes[back])
        codes = np.concatenate(edges)
        del edges
        if alone:
            # Rows decided alone are their probes' own lists: drop the
            # reverse edges earlier chunks sent them.
            codes = np.concatenate([codes[in_batch[codes // n]], *alone])
        codes.sort()
        indptr = np.empty(len(order) + 1, dtype=np.int64)
        indptr[:-1] = np.searchsorted(codes, order * n)
        indptr[-1] = len(codes)
        codes %= n
        return order, indptr, codes.astype(np.int32)

    def _decide_alone(
        self, chunk: np.ndarray, in_batch: np.ndarray, counters
    ) -> np.ndarray:
        """Edge codes of the probes of a chunk whose shared decision
        fell back, each probe decided on its own in one block, as
        :meth:`member_neighbors` does.

        *in_batch* no longer holds the chunk.  Each pair an earlier
        chunk decided with one of these probes was counted as a cache
        hit there; the probe now decides it again, so the hit is taken
        back.
        """
        n = self.n_records
        codes = [np.empty(0, dtype=np.int64)]
        for probe in chunk.tolist():
            candidates, found = self._member_neighbors(probe, counters)
            counters.cache_hits -= int(
                np.count_nonzero(in_batch[candidates[candidates < probe]])
            )
            codes.append(probe * n + found)
        return np.concatenate(codes)

    def _sweep_chunks(self, order: np.ndarray):
        """Slices of *order* gathering at most
        :data:`SWEEP_ENTRY_BUDGET` posting entries each, or
        :data:`GUARDED_SWEEP_ENTRY_BUDGET` under a guard (at least one
        probe per slice)."""
        budget = (
            SWEEP_ENTRY_BUDGET
            if self._contain_chunk is None
            else GUARDED_SWEEP_ENTRY_BUDGET
        )
        reach = np.cumsum(self._probe_entries[order])
        start = 0
        while start < len(order):
            limit = budget + (reach[start - 1] if start else 0)
            stop = max(int(np.searchsorted(reach, limit, side="right")), start + 1)
            yield order[start:stop]
            start = stop

    def _chunk_pairs(
        self, chunk: np.ndarray, in_batch: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(probes, candidates, shared)`` of one sweep chunk, sorted by
        ``(probe, candidate)``: every candidate sharing a key with a
        probe, except the probe itself and batch members below it."""
        key_ids, key_lengths = gather_rows(self.key_indptr, self.key_ids, chunk)
        candidates, post_lengths = gather_rows(
            self.post_indptr, self.post_positions, key_ids.astype(np.int64)
        )
        probes = np.repeat(np.repeat(chunk, key_lengths), post_lengths)
        keep = (candidates > probes) | ~in_batch[candidates]
        n = np.int64(self.n_records)
        codes = probes[keep]
        codes *= n
        codes += candidates[keep]
        codes.sort()
        # A run of equal codes is one pair; its length, the keys shared.
        first = np.empty(len(codes) + 1, dtype=bool)
        first[0] = first[-1] = True
        np.not_equal(codes[1:], codes[:-1], out=first[1:-1])
        bounds = np.flatnonzero(first)
        probes, candidates = np.divmod(codes[bounds[:-1]], n)
        return probes, candidates, np.diff(bounds)

    def _decide_pairs(
        self,
        probes: np.ndarray,
        candidates: np.ndarray,
        shared: np.ndarray,
        counters,
    ) -> np.ndarray | None:
        """Verdict per member pair ``(probes[e], candidates[e])`` with
        ``shared[e]`` common keys, in one rule or verifier call; None
        when a guarded decider contained that call and it fell back."""
        counters.predicate_evaluations += len(candidates)
        if self.count_rule is not None:
            def decide(rule):
                return rule.accepts(
                    shared,
                    self._key_counts[probes],
                    self._key_counts[candidates],
                    rule.member_state(probes)[0],
                    candidates,
                )

        else:
            def decide(verifier):
                return verifier.verify_pairs(probes, candidates)

        if self._contain_chunk is None:
            return decide(self._rule)
        return self._contain_chunk(len(candidates), decide)
