"""Vectorized batch predicate verification over pre-encoded arrays.

The scalar pipeline decides one candidate pair per Python call.  This
module decides one *candidate block* per NumPy call, on integer arrays
encoded once at index-build time:

* :class:`SetSimilarityBatch` — a pairwise verifier for the library's
  set-similarity predicate shapes (overlap coefficient, shared-word
  count, Jaccard, common initials, the address S1 conjunction), with an
  optional exact-match *gate* (dictionary-encoded field tuples) and
  initials as uint64 bitmasks;
* :class:`OverlapCountRule` — the vectorized form of the
  count-filtering fast path (``shared / min(keys) >= t`` plus the
  initials post-check) for :class:`~repro.predicates.library.NgramOverlapPredicate`;
* :class:`BatchNeighborEngine` — member/probe neighbor computation
  over CSR postings: gather the probe's posting rows, count shared
  keys per candidate with one ``np.unique``, verify the whole
  candidate block with the rule or verifier.

Every kernel replicates the scalar semantics bit-for-bit (see
:mod:`repro.similarity.encoding` for the float contract); the
differential-oracle and parallel property suites assert the equality
end-to-end on every dataset family.

Predicates opt in via :meth:`~repro.predicates.base.Predicate.batch_verifier`
/ :meth:`~repro.predicates.base.Predicate.batch_count_rule`.  The
resilience guard (:class:`~repro.core.resilience.GuardedPredicate`)
forwards both hooks with every block call wrapped in its containment —
ticks, deadline, per-block timeout and role-safe fallback verdicts — so
policy-armed queries keep the kernels.  Chaos wrappers do not forward
them: their per-pair fault draws need the scalar path.  The
``REPRO_VECTORIZE`` environment variable (``0``/``false``/``off`` to
disable) forces the scalar path globally — the lever the equivalence
tests use.

Rules and verifiers share one probe protocol: ``member_state(position)``
for indexed members and ``encode_probe(record)`` for external probes,
each returning an opaque probe state (None from ``encode_probe`` means
"cannot encode", and the caller falls back to the scalar strategy).

Engines are built from plain arrays and parameter dicts
(:meth:`BatchNeighborEngine.export_state`), so the parallel layer can
ship them to workers through ``multiprocessing.shared_memory`` instead
of pickling records.  Guarded engines never travel that way: their
containment state lives in parent objects, which reach workers by fork
inheritance instead.
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
    intersection_counts,
    jaccard_block,
    overlap_block,
)

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
        vocab1: int = 0,
        vocab2: int = 0,
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
        self._vocab1 = (
            corpus1.vocabulary_size if corpus1 is not None else vocab1
        )
        self._vocab2 = (
            corpus2.vocabulary_size if corpus2 is not None else vocab2
        )
        self._scratch1 = (
            np.zeros(self._vocab1, dtype=bool) if self._indptr1 is not None else None
        )
        self._scratch2 = (
            np.zeros(self._vocab2, dtype=bool) if self._indptr2 is not None else None
        )
        # Parent-only probe-encoding state; absent on worker rebuilds
        # (workers verify member probes, which need only the arrays).
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
        """Encode an external probe, or None when this instance cannot
        (worker rebuilds drop the dictionaries; callers fall back to
        the scalar strategy)."""
        features = self._features
        if not features:
            return None
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
        reads — this is the path worker rebuilds use)."""
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
        rule = self.rule
        if rule == "initials_any":
            return ok
        inter1 = intersection_counts(
            ids1, self._indptr1, self._ids1, candidates, self._scratch1
        )
        sizes1 = (
            self._indptr1[candidates + np.int64(1)] - self._indptr1[candidates]
        )
        if rule == "overlap_ge":
            ok &= (
                overlap_block(inter1, size1, sizes1)
                >= self.params["threshold"]
            )
        elif rule == "inter_ge":
            ok &= inter1 >= self.params["min_common"]
        elif rule == "jaccard_ge":
            ok &= (
                jaccard_block(inter1, size1, sizes1)
                >= self.params["threshold"]
            )
        else:  # address_s1
            ok &= (
                overlap_block(inter1, size1, sizes1)
                > self.params["name_threshold"]
            )
            inter2 = intersection_counts(
                ids2, self._indptr2, self._ids2, candidates, self._scratch2
            )
            sizes2 = (
                self._indptr2[candidates + np.int64(1)]
                - self._indptr2[candidates]
            )
            ok &= (
                overlap_block(inter2, size2, sizes2)
                >= self.params["address_threshold"]
            )
        return ok

    # -- worker transport --------------------------------------------------

    def export_state(self) -> tuple[dict[str, np.ndarray], dict]:
        """(arrays, params) sufficient to rebuild a member-only verifier."""
        arrays: dict[str, np.ndarray] = {}
        if self.gate_ids is not None:
            arrays["verifier_gate_ids"] = self.gate_ids
        if self.masks is not None:
            arrays["verifier_masks"] = self.masks
        if self._indptr1 is not None:
            arrays["verifier_indptr1"] = self._indptr1
            arrays["verifier_ids1"] = self._ids1
        if self._indptr2 is not None:
            arrays["verifier_indptr2"] = self._indptr2
            arrays["verifier_ids2"] = self._ids2
        params = {
            "rule": self.rule,
            "params": dict(self.params),
            "vocab1": self._vocab1,
            "vocab2": self._vocab2,
        }
        return arrays, params

    @classmethod
    def from_state(
        cls, arrays: dict[str, np.ndarray], params: dict
    ) -> "SetSimilarityBatch":
        """Rebuild from exported arrays (member-probe verification only)."""
        verifier = cls.__new__(cls)
        verifier.rule = params["rule"]
        verifier.params = params["params"]
        verifier.gate_ids = arrays.get("verifier_gate_ids")
        verifier.masks = arrays.get("verifier_masks")
        verifier._indptr1 = arrays.get("verifier_indptr1")
        verifier._ids1 = arrays.get("verifier_ids1")
        verifier._indptr2 = arrays.get("verifier_indptr2")
        verifier._ids2 = arrays.get("verifier_ids2")
        verifier._vocab1 = params["vocab1"]
        verifier._vocab2 = params["vocab2"]
        verifier._scratch1 = (
            np.zeros(verifier._vocab1, dtype=bool)
            if verifier._indptr1 is not None
            else None
        )
        verifier._scratch2 = (
            np.zeros(verifier._vocab2, dtype=bool)
            if verifier._indptr2 is not None
            else None
        )
        verifier._gate_map = None
        verifier._bit_of_token = None
        verifier._dict1 = None
        verifier._dict2 = None
        verifier._features = {}
        return verifier


class OverlapCountRule:
    """Vectorized count-filtering accept: the batch form of
    :meth:`~repro.predicates.base.Predicate.count_accepts` plus the
    bitmask post-check, for predicates whose shared-blocking-key count
    *is* the intersection size (``NgramOverlapPredicate``)."""

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
        rule has no post-check or cannot encode probes)."""
        if self.masks is None:
            return None
        if self._post_probe is None or self._bit_of_token is None:
            raise ValueError("rule rebuilt without probe-encoding state")
        return np.uint64(
            bitmask_probe(self._post_probe(record), self._bit_of_token)
        )

    def encode_probe(self, record: Record):
        """Probe state ``(mask,)`` of an external probe, or None when
        this instance cannot encode it (worker rebuilds drop the
        post-check encoding)."""
        if self.masks is not None and self._post_probe is None:
            return None
        return (self.probe_mask(record),)

    def member_state(self, position: int):
        """Probe state ``(mask,)`` of the indexed record at *position*."""
        return (self.masks[position] if self.masks is not None else None,)

    def accepts(
        self,
        shared: np.ndarray,
        n_probe_keys: int,
        candidate_key_counts: np.ndarray,
        probe_mask: np.uint64 | None,
        candidates: np.ndarray,
    ) -> np.ndarray:
        """Verdict per candidate from shared-key counts.

        Candidates share at least one key by construction, so both key
        counts are >= 1 and the division is always defined; ``int64 /
        int64`` true division reproduces the scalar ``shared /
        min(n_a, n_b)`` bit-for-bit.
        """
        ok = (
            shared / np.minimum(n_probe_keys, candidate_key_counts)
            >= self.threshold
        )
        if self.masks is not None:
            ok &= (self.masks[candidates] & probe_mask) != np.uint64(0)
        return ok

    def export_state(self) -> tuple[dict[str, np.ndarray], dict]:
        arrays: dict[str, np.ndarray] = {}
        if self.masks is not None:
            arrays["rule_masks"] = self.masks
        return arrays, {"threshold": self.threshold}

    @classmethod
    def from_state(
        cls, arrays: dict[str, np.ndarray], params: dict
    ) -> "OverlapCountRule":
        return cls(params["threshold"], masks=arrays.get("rule_masks"))


class BatchNeighborEngine:
    """Vectorized neighbor computation over inverted-index postings.

    Holds the index's structure as four flat arrays — a record → key-id
    CSR and a key-id → positions CSR — plus either a count rule or a
    pairwise verifier.  One member query is then: gather the probe's
    posting rows, ``np.unique`` for (candidates, shared counts), verify
    the block, done — no per-candidate Python.

    Built by :meth:`build` in the parent (which keeps the key-id map
    for external probes) or rebuilt worker-side from
    :meth:`export_state` arrays (member probes only — exactly what the
    parallel neighbors stage needs).
    """

    def __init__(
        self,
        n_records: int,
        key_indptr: np.ndarray,
        key_ids: np.ndarray,
        post_indptr: np.ndarray,
        post_positions: np.ndarray,
        count_rule: OverlapCountRule | None = None,
        verifier: SetSimilarityBatch | None = None,
        key_id_of: dict[Hashable, int] | None = None,
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
        predicate offers no batch capability (scalar fallback).

        The count rule wins whenever the predicate offers one — keyed
        on the hook, not on ``count_verifiable``, so a wrapper that
        forwards the hook without the scalar count path still gets it.
        """
        verifier = None
        count_rule = predicate.batch_count_rule(records)
        if count_rule is None:
            verifier = predicate.batch_verifier(records)
            if verifier is None:
                return None

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
            symmetric=getattr(predicate, "symmetric", True),
        )

    # -- queries -----------------------------------------------------------

    def _candidates(
        self, probe_key_ids: np.ndarray, exclude: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """(candidates, shared-key counts), candidates ascending and
        *exclude* removed — the postings walk of the scalar path as one
        gather + unique."""
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
    ) -> list[int]:
        if len(candidates) == 0:
            return []
        if self.count_rule is not None:
            counters.predicate_evaluations += len(candidates)
            candidate_key_counts = (
                self.key_indptr[candidates + np.int64(1)]
                - self.key_indptr[candidates]
            )
            ok = self.count_rule.accepts(
                shared,
                n_probe_keys,
                candidate_key_counts,
                probe_state[0],
                candidates,
            )
        else:
            counters.signature_evaluations += len(candidates)
            ok = self.verifier.verify_block(probe_state, candidates)
        return candidates[ok].tolist()

    def member_neighbors(self, position: int, counters) -> list[int]:
        """Verified neighbor list of the indexed member at *position*
        (``exclude_position=position`` semantics), ascending."""
        probe_key_ids = self.key_ids[
            self.key_indptr[position] : self.key_indptr[position + 1]
        ]
        candidates, shared = self._candidates(probe_key_ids, position)
        return self._verify(
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
    ) -> list[int] | None:
        """Verified neighbors of an external *probe*; None when this
        engine cannot encode it (caller falls back to the scalar
        strategy)."""
        if self._key_id_of is None:
            return None
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

    def member_neighbors_block(
        self,
        positions: Sequence[int],
        counters,
        known: dict[int, set[int]] | None = None,
    ) -> dict[int, list[int]]:
        """Neighbor lists for many members, each symmetric pair verified
        once.

        Probing members in ascending position order, a candidate that is
        itself in the batch and *below* the probe is skipped — its own
        (earlier) probe already decided the pair, and the verdict flows
        back as a reverse edge after the sweep.  *known* maps
        already-answered member positions to their neighbor sets (the
        index's ``_probed`` store); pairs against those are decided by
        set membership.  Both shortcuts count as ``cache_hits``,
        mirroring the scalar count path's probed-membership sharing.
        The sharing is only sound for symmetric predicates; asymmetric
        engines fall back to independent per-member probes.
        """
        order = sorted({int(position) for position in positions})
        if not self.symmetric:
            return {p: self.member_neighbors(p, counters) for p in order}
        in_batch = np.zeros(self.n_records, dtype=bool)
        in_batch[order] = True
        batch_member = in_batch.tolist()  # per-item reads, Python speed
        known_mask = None
        if known:
            known_mask = np.zeros(self.n_records, dtype=bool)
            known_mask[
                np.fromiter(known.keys(), dtype=np.int64, count=len(known))
            ] = True
            # A batch member is probed here, so its pairs are decided by
            # the sweep alone, never also through *known*.
            known_mask[order] = False
        verified: dict[int, list[int]] = {}
        # Verdicts recovered without verification: reverse edges from
        # earlier in-batch probes plus membership in `known` sets.
        recovered: dict[int, list[int]] = {p: [] for p in order}
        for p in order:
            probe_key_ids = self.key_ids[
                self.key_indptr[p] : self.key_indptr[p + 1]
            ]
            candidates, shared = self._candidates(probe_key_ids, p)
            accepted: list[int] = []
            if len(candidates):
                skip = in_batch[candidates] & (candidates < p)
                if known_mask is not None:
                    known_here = known_mask[candidates]
                    skip |= known_here
                    if known_here.any():
                        for c in candidates[known_here].tolist():
                            if p in known[c]:
                                recovered[p].append(c)
                hits = int(skip.sum())
                if hits:
                    counters.cache_hits += hits
                keep = ~skip
                accepted = self._verify(
                    candidates[keep],
                    shared[keep],
                    len(probe_key_ids),
                    self._rule.member_state(p),
                    counters,
                )
                for q in accepted:
                    if q > p and batch_member[q]:
                        recovered[q].append(p)
            verified[p] = accepted
        # A recovered neighbour was skipped by p's own verification (a
        # batch member below p, or a known member), so the two lists are
        # disjoint.
        return {
            p: sorted(recovered[p] + verified[p]) if recovered[p] else verified[p]
            for p in order
        }

    def member_neighbors_csr(
        self, positions: Sequence[int], counters
    ) -> tuple[np.ndarray, np.ndarray]:
        """Neighbor lists of many members as (indptr, flat int32) — the
        compact shape worker shards ship back to the parent.

        Uses the symmetric block sweep, so in-shard pairs are verified
        once; results are identical to per-member queries."""
        lists = self.member_neighbors_block(positions, counters)
        indptr = np.zeros(len(positions) + 1, dtype=np.int64)
        chunks: list[list[int]] = []
        for row, position in enumerate(positions):
            neighbors = lists[int(position)]
            chunks.append(neighbors)
            indptr[row + 1] = indptr[row] + len(neighbors)
        flat = (
            np.array(
                [neighbor for chunk in chunks for neighbor in chunk],
                dtype=np.int32,
            )
            if chunks
            else np.empty(0, dtype=np.int32)
        )
        return indptr, flat

    # -- worker transport --------------------------------------------------

    def export_state(self) -> tuple[dict[str, np.ndarray], dict]:
        """(arrays, params) for a member-only worker rebuild."""
        arrays = {
            "key_indptr": self.key_indptr,
            "key_ids": self.key_ids,
            "post_indptr": self.post_indptr,
            "post_positions": self.post_positions,
        }
        params: dict = {
            "n_records": self.n_records,
            "symmetric": self.symmetric,
        }
        if self.count_rule is not None:
            rule_arrays, rule_params = self.count_rule.export_state()
            arrays.update(rule_arrays)
            params["count_rule"] = rule_params
        else:
            verifier_arrays, verifier_params = self.verifier.export_state()
            arrays.update(verifier_arrays)
            params["verifier"] = verifier_params
        return arrays, params

    @classmethod
    def from_state(
        cls, arrays: dict[str, np.ndarray], params: dict
    ) -> "BatchNeighborEngine":
        count_rule = None
        verifier = None
        if "count_rule" in params:
            count_rule = OverlapCountRule.from_state(
                arrays, params["count_rule"]
            )
        else:
            verifier = SetSimilarityBatch.from_state(
                arrays, params["verifier"]
            )
        return cls(
            params["n_records"],
            arrays["key_indptr"],
            arrays["key_ids"],
            arrays["post_indptr"],
            arrays["post_positions"],
            count_rule=count_rule,
            verifier=verifier,
            symmetric=params.get("symmetric", True),
        )


def save_engine_state(engine: BatchNeighborEngine, path) -> None:
    """Persist an engine's :meth:`~BatchNeighborEngine.export_state`
    into one checksummed array container (:mod:`repro.storage.layout`).

    The same transport shape the parallel layer ships over shared
    memory, just durable: arrays in the body, the params dict in the
    header (floats survive the JSON round-trip exactly — Python's float
    repr is shortest-exact).
    """
    from ..storage.layout import write_arrays

    arrays, params = engine.export_state()
    write_arrays(
        path, arrays, {"kind": "batch-neighbor-engine", "params": params}
    )


def load_engine_state(path) -> BatchNeighborEngine:
    """Rebuild a member-probe engine with its arrays memory-mapped.

    ``np.memmap`` is an ``ndarray`` subclass, so every kernel —
    ``gather_rows``, ``intersection_counts``, the block rules — gathers
    rows straight from the mapped file; nothing is copied until a page
    is touched, and verdicts are bit-identical to the resident engine.
    """
    from ..storage.layout import ArrayFileError, MappedArrays

    mapped = MappedArrays(path)
    if mapped.meta.get("kind") != "batch-neighbor-engine":
        raise ArrayFileError(
            f"{path} is not a serialized neighbor engine "
            f"(kind={mapped.meta.get('kind')!r})"
        )
    return BatchNeighborEngine.from_state(
        dict(mapped.arrays), mapped.meta["params"]
    )
