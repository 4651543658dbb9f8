"""The engine checkpoint sidecar: full stream state as mapped arrays.

A checkpoint splits the engine state in two: the ``.ckpt`` file keeps
the small JSON parts (header, dead letters, and a reference frame
naming this sidecar), while the bulk — records, union-find closure,
per-group weights, and the blocking-key index — lives in a
``columnar-<entries>.col`` array container next to it.  Restoring maps
the container, verifies every array's CRC32, validates the closure with
array kernels and decodes the records and the key index in bulk; no WAL
replay beyond the checkpoint's tail.

This module owns the sidecar schema and the vectorised validation
(root resolution by pointer jumping, weight sums by ``np.bincount`` —
which accumulates strictly in input order, matching the scalar loops
bit for bit).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .columnar import RecordColumns
from .layout import ArrayFileError, MappedArrays
from .postings import KeyEncodingError, postings_from_arrays, postings_to_arrays


def resolve_roots(parent: np.ndarray) -> np.ndarray:
    """Resolve every element's union-find root by pointer jumping.

    Raises :class:`ArrayFileError` on an out-of-range parent or a cycle
    (a parent chain that fails to terminate), mirroring what the scalar
    ``_walk_root`` audit detects one record at a time.
    """
    parent = np.asarray(parent, dtype=np.int64)
    n = len(parent)
    if n == 0:
        return parent.copy()
    if int(parent.min()) < 0 or int(parent.max()) >= n:
        raise ArrayFileError("union-find parent points out of range")
    current = parent.copy()
    # Path lengths at most n; squaring jumps converge in ceil(log2 n)
    # passes.  Even-length cycles also converge (each member ends up its
    # own fixed point), so convergence alone is not proof of validity —
    # a genuine root must be a self-parent in the ORIGINAL array.
    for _ in range(max(2, n.bit_length()) + 1):
        jumped = current[current]
        if np.array_equal(jumped, current):
            if not np.array_equal(parent[current], current):
                break
            return current
        current = jumped
    raise ArrayFileError("union-find parent chain does not terminate (cycle)")


class EngineStateColumns:
    """Decoded view of one engine sidecar (arrays stay mapped)."""

    def __init__(self, mapped: MappedArrays):
        self.meta = mapped.meta
        arrays = mapped.arrays
        try:
            self.records = RecordColumns.from_arrays(arrays)
            self.uf_parent = arrays["uf.parent"]
            self.uf_size = arrays["uf.size"]
            self.group_roots = arrays["groups.roots"]
            self.group_weights = arrays["groups.weights"]
        except KeyError as exc:
            raise ArrayFileError(
                f"engine sidecar is missing array {exc.args[0]!r}"
            ) from None
        self.n_components = int(self.meta.get("n_components", -1))
        self.has_postings = bool(self.meta.get("has_postings", False))
        self._arrays = arrays

    def key_members(self):
        """The blocking-key index, or None when it was not persisted."""
        if not self.has_postings:
            return None
        return postings_from_arrays(self._arrays)

    def validate(self) -> None:
        """Cross-check the closure invariants with array kernels.

        Mirrors the scalar ``_install_checkpoint`` validation: parent
        chains terminate in range, component count matches, component
        sizes match member counts, and the persisted per-group weights
        equal the member-weight sums (same 1e-9 relative tolerance).
        """
        n = self.records.n
        if len(self.uf_parent) != n or len(self.uf_size) != n:
            raise ArrayFileError(
                f"union-find covers {len(self.uf_parent)} elements but the "
                f"store holds {n} records"
            )
        roots = resolve_roots(self.uf_parent)
        if n == 0:
            if len(self.group_roots):
                raise ArrayFileError("groups persisted for an empty store")
            return
        counts = np.bincount(roots, minlength=n)
        root_ids = np.nonzero(counts)[0]
        if self.n_components >= 0 and len(root_ids) != self.n_components:
            raise ArrayFileError(
                f"n_components says {self.n_components} but "
                f"{len(root_ids)} roots are reachable"
            )
        sizes = np.asarray(self.uf_size, dtype=np.int64)
        if not np.array_equal(counts[root_ids], sizes[root_ids]):
            raise ArrayFileError(
                "component sizes disagree with reachable member counts"
            )
        sums = np.bincount(roots, weights=self.records.weights, minlength=n)
        persisted_roots = np.asarray(self.group_roots, dtype=np.int64)
        if not np.array_equal(persisted_roots, root_ids):
            raise ArrayFileError(
                "persisted group roots disagree with the union-find closure"
            )
        persisted = np.asarray(self.group_weights, dtype=np.float64)
        recomputed = sums[root_ids]
        close = np.isclose(persisted, recomputed, rtol=1e-9, atol=0.0)
        if not bool(np.all(close)):
            raise ArrayFileError(
                "checkpointed group weights do not sum to member weights"
            )
        if not bool(np.all(np.isfinite(persisted))):
            raise ArrayFileError("a persisted group weight is non-finite")


def build_sidecar_arrays(
    records,
    parent: list[int],
    size: list[int],
    n_components: int,
    key_members,
) -> tuple[dict[str, np.ndarray], dict]:
    """Assemble the sidecar arrays for the current engine state.

    *records* is the engine's records in id order.  Returns
    ``(arrays, meta)``; when some blocking key is outside the codec's
    domain the postings are omitted and ``meta["has_postings"]`` is
    False (restore falls back to re-deriving the index).

    Raises :class:`ValueError` naming the first record whose fields are
    not string-to-string valid UTF-8: new inserts are validated before
    they are journaled, but state replayed from an older WAL or
    checkpoint may hold such a record.
    """
    try:
        columns = RecordColumns.from_records(records)
    except (AttributeError, TypeError, ValueError) as exc:
        raise ValueError(
            f"{_first_invalid_record(records)} cannot be encoded: {exc}"
        ) from exc
    parent_arr = np.asarray(parent, dtype=np.int64)
    roots = resolve_roots(parent_arr) if len(parent_arr) else parent_arr
    n = len(parent_arr)
    if n:
        weight_sums = np.bincount(roots, weights=columns.weights, minlength=n)
        counts = np.bincount(roots, minlength=n)
        root_ids = np.nonzero(counts)[0]
        group_roots = root_ids.astype(np.int64)
        group_weights = weight_sums[root_ids].astype(np.float64)
    else:
        group_roots = np.zeros(0, dtype=np.int64)
        group_weights = np.zeros(0, dtype=np.float64)
    arrays = dict(columns.to_arrays())
    arrays["uf.parent"] = parent_arr
    arrays["uf.size"] = np.asarray(size, dtype=np.int64)
    arrays["groups.roots"] = group_roots
    arrays["groups.weights"] = group_weights
    has_postings = True
    try:
        arrays.update(postings_to_arrays(key_members))
    except KeyEncodingError:
        has_postings = False
    meta = {
        "kind": "engine-state",
        "n_records": int(columns.n),
        "n_components": int(n_components),
        "has_postings": has_postings,
    }
    return arrays, meta


def _first_invalid_record(records) -> str:
    from ..core.incremental import validate_fields

    for record in records:
        try:
            validate_fields(record.fields)
        except ValueError as exc:
            return f"record {record.record_id} ({exc})"
    return "a record"


def open_sidecar(path: str | Path) -> EngineStateColumns:
    """Map the sidecar at *path*, verifying every array's checksum."""
    return EngineStateColumns(MappedArrays(path, verify=True))
