"""Integer token encoding and batch set-intersection kernels.

The scalar predicate path decides one candidate pair per Python call —
a set intersection, a division, a compare.  At benchmark scale that
per-pair interpreter dispatch *is* the pipeline's cost profile (the
count-filtering postings walk alone dominates Figure-6 timings).  This
module is the substrate of the vectorized alternative:

* :class:`TokenDictionary` maps arbitrary hashable tokens (words,
  n-grams, key tuples) to dense ``int32`` ids at ingest time;
* :class:`EncodedSetCorpus` stores one token set per record in CSR form
  (``indptr``/``token_ids``), so a whole corpus of sets is two flat
  NumPy arrays;
* the kernel functions below compute intersection sizes between one
  probe set and a *block* of candidate rows (:func:`intersection_counts`),
  or between the two rows of each pair in a block of pairs
  (:func:`pair_common_tokens`), in O(total gathered tokens) NumPy work —
  no per-pair Python.

Bit-identity contract: the block measures (:func:`overlap_block`,
:func:`jaccard_block`) replicate :mod:`repro.similarity.measures`
exactly, including the both-empty → 1.0 / one-empty → 0.0 conventions
and IEEE-754 division (``int64/int64`` under NumPy true division is the
same correctly-rounded float64 a Python ``/`` produces), so a
vectorized verdict or feature can never differ from the scalar one.
"""

from __future__ import annotations

from collections.abc import Collection, Hashable, Iterable, Sequence
from itertools import chain

import numpy as np


class TokenDictionary:
    """Dense ``token -> int32 id`` assignment, first-seen order.

    Ids are assigned on first :meth:`add`; :meth:`lookup_ids` never
    assigns, returning only the ids of already-known tokens (a probe
    token absent from the dictionary cannot intersect any encoded set,
    so dropping it from the *intersection* is exact — callers track the
    probe's full set size separately wherever sizes matter).
    """

    __slots__ = ("_ids",)

    def __init__(self) -> None:
        self._ids: dict[Hashable, int] = {}

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, token: Hashable) -> bool:
        return token in self._ids

    def add(self, token: Hashable) -> int:
        """Return the id of *token*, assigning the next free id if new."""
        ids = self._ids
        return ids.setdefault(token, len(ids))

    def tokens(self) -> list[Hashable]:
        """Every known token, in id order (``tokens()[i]`` has id i)."""
        return list(self._ids)

    def encode(self, tokens: Iterable[Hashable]) -> np.ndarray:
        """Encode *tokens* (adding new ones) as an int32 id array."""
        ids = self._ids
        assign = ids.setdefault
        # ``len(ids)`` is read before the insert: a new token gets the
        # next free id, as in :meth:`add`.
        return np.fromiter(
            (assign(token, len(ids)) for token in tokens), dtype=np.int32
        )

    def lookup_ids(self, tokens: Iterable[Hashable]) -> np.ndarray:
        """Return ids of the *known* tokens only (no assignment)."""
        ids = self._ids
        return np.fromiter(
            (
                token_id
                for token_id in (ids.get(token) for token in tokens)
                if token_id is not None
            ),
            dtype=np.int32,
        )


class EncodedSetCorpus:
    """A corpus of token sets in CSR form over one :class:`TokenDictionary`.

    ``token_ids[indptr[i]:indptr[i + 1]]`` are the ids of record *i*'s
    set; row length equals the exact set size (sets, so no repeats).
    """

    __slots__ = ("dictionary", "indptr", "token_ids")

    def __init__(
        self,
        dictionary: TokenDictionary,
        indptr: np.ndarray,
        token_ids: np.ndarray,
    ) -> None:
        self.dictionary = dictionary
        self.indptr = indptr
        self.token_ids = token_ids

    @classmethod
    def from_sets(
        cls,
        sets: Sequence[Collection[Hashable]],
        dictionary: TokenDictionary | None = None,
    ) -> "EncodedSetCorpus":
        """Encode *sets* row by row, growing *dictionary* as needed."""
        dictionary = dictionary if dictionary is not None else TokenDictionary()
        lengths = np.fromiter(
            (len(token_set) for token_set in sets), dtype=np.int64, count=len(sets)
        )
        indptr = np.zeros(len(sets) + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        token_ids = dictionary.encode(chain.from_iterable(sets))
        return cls(dictionary, indptr, token_ids)

    def __len__(self) -> int:
        return len(self.indptr) - 1

    @property
    def vocabulary_size(self) -> int:
        return len(self.dictionary)

    def row(self, position: int) -> np.ndarray:
        """The token-id array of record *position* (a view)."""
        return self.token_ids[self.indptr[position] : self.indptr[position + 1]]

    def sizes(self) -> np.ndarray:
        """Exact set size per record (int64 array)."""
        return np.diff(self.indptr)


def gather_rows(
    indptr: np.ndarray, data: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate CSR rows *rows* without a Python loop.

    Returns ``(flat, lengths)`` where ``flat`` is the concatenation of
    ``data[indptr[r]:indptr[r+1]]`` for each row in order and
    ``lengths`` the per-row element counts.
    """
    starts = indptr[rows]
    return gather_spans(data, starts, indptr[rows + np.int64(1)] - starts)


def gather_spans(
    data: np.ndarray, starts: np.ndarray, lengths: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate ``data[starts[i]:starts[i] + lengths[i]]`` for each *i*
    in order, as :func:`gather_rows` does for CSR rows; returns
    ``(flat, lengths)``."""
    shift = np.cumsum(lengths)
    shift -= lengths
    np.subtract(starts, shift, out=shift)
    index = np.repeat(shift, lengths)
    index += np.arange(len(index), dtype=np.int64)
    return data[index], lengths


def intersection_counts(
    probe_ids: np.ndarray,
    indptr: np.ndarray,
    token_ids: np.ndarray,
    rows: np.ndarray,
    scratch: np.ndarray,
) -> np.ndarray:
    """``|probe ∩ row|`` for each CSR row in *rows*, as int64.

    *scratch* is a reusable bool array of at least vocabulary size; it
    is restored to all-False before returning (only the probe's own
    entries are touched, so reuse across calls is O(|probe|), not
    O(vocab)).
    """
    if len(rows) == 0:
        return np.zeros(0, dtype=np.int64)
    scratch[probe_ids] = True
    flat, lengths = gather_rows(indptr, token_ids, rows)
    if len(flat) == 0:
        counts = np.zeros(len(rows), dtype=np.int64)
    else:
        segments = np.repeat(
            np.arange(len(rows), dtype=np.int64), lengths
        )
        # bincount accumulates strictly in input order — the same
        # left-to-right order a Python loop over the row would use.
        counts = np.bincount(
            segments[scratch[flat]], minlength=len(rows)
        ).astype(np.int64, copy=False)
    scratch[probe_ids] = False
    return counts


def pair_common_tokens(
    indptr: np.ndarray,
    token_ids: np.ndarray,
    left: np.ndarray,
    right: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Every token the CSR rows of a pair share, for a block of pairs.

    Returns ``(pair, token)``: entry *e* says row ``left[pair[e]]`` and
    row ``right[pair[e]]`` both hold ``token[e]``.  Entries are sorted
    by ``(pair, token)``.  Rows are sets, so a ``(pair, token)`` key
    occurs once per side and a shared token is exactly a key seen
    twice; one sort of both sides' keys finds them all.
    """
    flat_left, lengths_left = gather_rows(indptr, token_ids, left)
    flat_right, lengths_right = gather_rows(indptr, token_ids, right)
    if len(flat_left) == 0 or len(flat_right) == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    pair_ids = np.arange(len(left), dtype=np.int64)
    width = np.int64(max(flat_left.max(), flat_right.max()) + 1)
    keys = np.concatenate(
        (
            np.repeat(pair_ids, lengths_left) * width + flat_left,
            np.repeat(pair_ids, lengths_right) * width + flat_right,
        )
    )
    keys.sort()
    shared = keys[1:][keys[1:] == keys[:-1]]
    return shared // width, shared % width


def pair_intersection_counts(pair: np.ndarray, n_pairs: int) -> np.ndarray:
    """``|left row ∩ right row|`` per pair from :func:`pair_common_tokens`."""
    return np.bincount(pair, minlength=n_pairs).astype(np.int64, copy=False)


def overlap_block(inter: np.ndarray, size_a, sizes: np.ndarray) -> np.ndarray:
    """Vectorized :func:`repro.similarity.measures.overlap_coefficient`.

    ``|a ∩ b| / min(|a|, |b|)`` with both-empty → 1.0 and one-empty →
    0.0, bit-identical to the scalar measure per element.  *size_a* is
    one probe's size or an array of sizes parallel to *sizes*.
    """
    out = np.zeros(len(sizes), dtype=np.float64)
    empty_a = np.asarray(size_a) == 0
    empty_b = sizes == 0
    out[empty_a & empty_b] = 1.0
    np.divide(
        inter, np.minimum(size_a, sizes), out=out, where=~(empty_a | empty_b)
    )
    return out


def jaccard_block(inter: np.ndarray, size_a, sizes: np.ndarray) -> np.ndarray:
    """Vectorized :func:`repro.similarity.measures.jaccard`.

    ``|a ∩ b| / |a ∪ b|`` with both-empty → 1.0 and one-empty → 0.0;
    *size_a* is a scalar or an array, as in :func:`overlap_block`.
    """
    out = np.zeros(len(sizes), dtype=np.float64)
    empty_a = np.asarray(size_a) == 0
    empty_b = sizes == 0
    out[empty_a & empty_b] = 1.0
    np.divide(
        inter, size_a + sizes - inter, out=out, where=~(empty_a | empty_b)
    )
    return out


def bitmask_encode(
    sets: Sequence[Iterable[Hashable]],
) -> tuple[np.ndarray, dict[Hashable, int]] | None:
    """Encode small-vocabulary sets as uint64 bitmasks.

    Returns ``(masks, bit_of_token)`` — one mask per input set — or
    None when the combined vocabulary exceeds 64 distinct tokens (the
    caller must fall back to a scalar set check).  ``a & b != 0`` on
    masks is then exactly ``bool(set_a & set_b)``.
    """
    bit_of_token: dict[Hashable, int] = {}
    mask_values: list[int] = []
    for token_set in sets:
        mask = 0
        for token in token_set:
            bit = bit_of_token.get(token)
            if bit is None:
                bit = len(bit_of_token)
                if bit >= 64:
                    return None
                bit_of_token[token] = bit
            mask |= 1 << bit
        mask_values.append(mask)
    return np.array(mask_values, dtype=np.uint64), bit_of_token


def bitmask_probe(
    token_set: Iterable[Hashable], bit_of_token: dict[Hashable, int]
) -> int:
    """Mask of a probe set under an existing bit assignment.

    Tokens without an assigned bit appear in *no* encoded set, so
    omitting them from the mask preserves the intersection test
    exactly.
    """
    mask = 0
    for token in token_set:
        bit = bit_of_token.get(token)
        if bit is not None:
            mask |= 1 << bit
    return mask
