"""Columnar record storage: CSR field columns over string dictionaries.

A :class:`RecordColumns` is the immutable columnar image of a record
sequence — the record part of an engine checkpoint sidecar.  Layout per
record: a CSR slice of ``(field_id, value_id)`` pairs (field order
preserved exactly as inserted, so a round-tripped
:class:`~repro.core.records.Record` equals the original, including the
missing-field-vs-empty-string distinction) plus a float64 weight.
Field names and field values are dictionary-encoded into
:class:`~repro.storage.strings.StringPool`\\ s, so repeated values cost
one posting, not one copy — and :meth:`RecordColumns.to_records`
decodes each pool entry once, so restored records share one ``str``
per distinct value.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..core.records import Record
from .strings import StringPool

_PREFIX = "records."


class RecordColumns:
    """Immutable columnar image of ``records[0..n)``."""

    __slots__ = (
        "field_names",
        "values",
        "field_indptr",
        "field_ids",
        "value_ids",
        "weights",
        "n",
    )

    def __init__(
        self,
        field_names: StringPool,
        values: StringPool,
        field_indptr: np.ndarray,
        field_ids: np.ndarray,
        value_ids: np.ndarray,
        weights: np.ndarray,
    ):
        self.field_names = field_names
        self.values = values
        self.field_indptr = np.asarray(field_indptr, dtype=np.int64)
        self.field_ids = np.asarray(field_ids, dtype=np.int32)
        self.value_ids = np.asarray(value_ids, dtype=np.int32)
        self.weights = np.asarray(weights, dtype=np.float64)
        self.n = len(self.weights)
        if len(self.field_indptr) != self.n + 1:
            raise ValueError(
                f"field_indptr has {len(self.field_indptr)} entries for "
                f"{self.n} records"
            )

    @classmethod
    def from_records(cls, records: Sequence[Record]) -> "RecordColumns":
        """Columnarise *records* (must be in id order, ids dense from 0)."""
        name_ids: dict[str, int] = {}
        value_ids: dict[str, int] = {}
        indptr = np.zeros(len(records) + 1, dtype=np.int64)
        flat_fields: list[int] = []
        flat_values: list[int] = []
        weights = np.zeros(len(records), dtype=np.float64)
        for i, record in enumerate(records):
            for name, value in record.fields.items():
                fid = name_ids.setdefault(name, len(name_ids))
                vid = value_ids.setdefault(value, len(value_ids))
                flat_fields.append(fid)
                flat_values.append(vid)
            indptr[i + 1] = len(flat_fields)
            weights[i] = record.weight
        return cls(
            field_names=StringPool.build(name_ids),
            values=StringPool.build(value_ids),
            field_indptr=indptr,
            field_ids=np.asarray(flat_fields, dtype=np.int32),
            value_ids=np.asarray(flat_values, dtype=np.int32),
            weights=weights,
        )

    def to_records(self) -> list[Record]:
        """Decode every record in one pass (field order preserved).

        Each pool entry is decoded once; one gather per column then
        lays the decoded strings out in CSR order, so every record
        shares the pool's ``str`` objects.  ``tolist`` keeps every
        float64 weight bit, ``-0.0`` included.
        """
        names = _gather(self.field_names.decode_all(), self.field_ids)
        values = _gather(self.values.decode_all(), self.value_ids)
        indptr = self.field_indptr.tolist()
        return [
            Record(
                record_id=record_id,
                fields=dict(
                    zip(
                        names[indptr[record_id] : indptr[record_id + 1]],
                        values[indptr[record_id] : indptr[record_id + 1]],
                    )
                ),
                weight=weight,
            )
            for record_id, weight in enumerate(self.weights.tolist())
        ]

    def to_arrays(self) -> dict[str, np.ndarray]:
        arrays = {
            f"{_PREFIX}field_indptr": self.field_indptr,
            f"{_PREFIX}field_ids": self.field_ids,
            f"{_PREFIX}value_ids": self.value_ids,
            f"{_PREFIX}weights": self.weights,
        }
        arrays.update(self.field_names.to_arrays(f"{_PREFIX}names."))
        arrays.update(self.values.to_arrays(f"{_PREFIX}values."))
        return arrays

    @classmethod
    def from_arrays(cls, arrays) -> "RecordColumns":
        return cls(
            field_names=StringPool.from_arrays(arrays, f"{_PREFIX}names."),
            values=StringPool.from_arrays(arrays, f"{_PREFIX}values."),
            field_indptr=arrays[f"{_PREFIX}field_indptr"],
            field_ids=arrays[f"{_PREFIX}field_ids"],
            value_ids=arrays[f"{_PREFIX}value_ids"],
            weights=arrays[f"{_PREFIX}weights"],
        )


def _gather(pool: list[str], ids: np.ndarray) -> list[str]:
    """``[pool[i] for i in ids]`` as one object-array gather."""
    table = np.empty(len(pool), dtype=object)
    table[:] = pool
    return table[ids].tolist()
