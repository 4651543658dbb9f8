"""Unit tests for the checkpoint storage layer (:mod:`repro.storage`).

Covers the physical array container (round-trip, corruption detection),
string pools, columnar records (field-order and missing-vs-empty
fidelity through the bulk decode), the postings key codec, the engine
sidecar's vectorised validation, and the snapshot answer-cache bounds.
"""

import math

import numpy as np
import pytest

from repro.core.records import Record
from repro.storage import (
    ArrayFileError,
    KeyEncodingError,
    MappedArrays,
    RecordColumns,
    StringPool,
    build_sidecar_arrays,
    decode_key,
    encode_key,
    postings_from_arrays,
    postings_to_arrays,
    resolve_roots,
    write_arrays,
)
from repro.storage.engine_state import EngineStateColumns
from repro.storage.layout import read_header_meta


# -- layout -----------------------------------------------------------


def _sample_arrays():
    return {
        "a": np.arange(10, dtype=np.int64),
        "b": np.asarray([1.5, -0.0, float("inf")], dtype=np.float64),
        "c": np.zeros(0, dtype=np.int32),
        "d": np.frombuffer(b"hello", dtype=np.uint8),
    }


class TestArrayLayout:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "x.col"
        write_arrays(path, _sample_arrays(), {"kind": "test", "n": 3})
        mapped = MappedArrays(path, verify=True)
        assert mapped.meta["kind"] == "test"
        for name, original in _sample_arrays().items():
            got = mapped.array(name)
            assert got.dtype == original.dtype
            assert np.array_equal(got, original, equal_nan=True)
        assert "a" in mapped and "nope" not in mapped
        assert read_header_meta(path)["n"] == 3

    def test_mapped_arrays_are_read_only(self, tmp_path):
        path = tmp_path / "x.col"
        write_arrays(path, _sample_arrays(), {})
        mapped = MappedArrays(path)
        with pytest.raises((ValueError, RuntimeError)):
            mapped.array("a")[0] = 99

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "x.col"
        write_arrays(path, _sample_arrays(), {})
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(ArrayFileError, match="magic"):
            MappedArrays(path)

    def test_corrupt_header_rejected(self, tmp_path):
        path = tmp_path / "x.col"
        write_arrays(path, _sample_arrays(), {})
        raw = bytearray(path.read_bytes())
        raw[20] ^= 0xFF  # inside the header JSON
        path.write_bytes(bytes(raw))
        with pytest.raises(ArrayFileError):
            MappedArrays(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "x.col"
        write_arrays(path, _sample_arrays(), {})
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 8])
        with pytest.raises(ArrayFileError):
            MappedArrays(path)

    def test_body_corruption_caught_by_verify(self, tmp_path):
        path = tmp_path / "x.col"
        write_arrays(path, _sample_arrays(), {})
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF  # last payload byte
        path.write_bytes(bytes(raw))
        MappedArrays(path)  # lazy open does not checksum the body
        with pytest.raises(ArrayFileError, match="checksum"):
            MappedArrays(path, verify=True)

    def test_unsupported_dtype_rejected(self, tmp_path):
        with pytest.raises(ArrayFileError, match="dtype"):
            write_arrays(
                tmp_path / "x.col",
                {"bad": np.asarray(["a"], dtype=object)},
                {},
            )


# -- string pools -----------------------------------------------------


class TestStringPool:
    def test_roundtrip_and_index(self):
        strings = ["", "hello", "héllo wörld", "", "a" * 1000]
        pool = StringPool.build(strings)
        assert list(pool) == strings
        assert pool.decode_all() == strings
        assert [pool[i] for i in range(len(pool))] == strings
        assert pool.index()["hello"] == 1

    def test_array_roundtrip(self, tmp_path):
        strings = ["x", "", "日本語"]
        pool = StringPool.build(strings)
        path = tmp_path / "s.col"
        write_arrays(path, dict(pool.to_arrays("s.")), {})
        back = StringPool.from_arrays(MappedArrays(path).arrays, "s.")
        assert list(back) == strings


# -- columnar records -------------------------------------------------


def _records():
    return [
        Record(record_id=0, fields={"name": "ann", "city": "x"}, weight=1.0),
        Record(record_id=1, fields={"city": "", "name": "bob"}, weight=-0.0),
        Record(record_id=2, fields={}, weight=2.5),
        Record(record_id=3, fields={"name": "ann"}, weight=0.125),
    ]


class TestRecordColumns:
    def test_roundtrip_preserves_everything(self, tmp_path):
        records = _records()
        columns = RecordColumns.from_records(records)
        path = tmp_path / "r.col"
        write_arrays(path, columns.to_arrays())
        back = RecordColumns.from_arrays(MappedArrays(path).arrays)
        decoded = back.to_records()
        assert len(decoded) == len(records)
        assert RecordColumns.from_records([]).to_records() == []
        for original, got in zip(records, decoded):
            assert got == original
            # field insertion order and missing-vs-empty both survive
            assert list(got.fields) == list(original.fields)
            assert math.copysign(1.0, got.weight) == math.copysign(
                1.0, original.weight
            )

    def test_missing_field_reads_empty_via_record(self):
        columns = RecordColumns.from_records(_records())
        rec = columns.to_records()[2]
        assert rec["name"] == ""  # Record contract for absent fields
        assert "name" not in rec.fields

    def test_bulk_decode_shares_one_string_per_pool_entry(self):
        columns = RecordColumns.from_records(_records())
        decoded = columns.to_records()
        # "ann" is one pool entry: both records hold the same object,
        # and so do the field names.
        assert decoded[0].fields["name"] is decoded[3].fields["name"]
        name_keys = [
            key for record in decoded for key in record.fields if key == "name"
        ]
        assert all(key is name_keys[0] for key in name_keys)


# -- postings codec ---------------------------------------------------


class TestPostingsCodec:
    @pytest.mark.parametrize(
        "key",
        [
            None,
            True,
            False,
            0,
            -(10**30),
            3.5,
            -0.0,
            "",
            "héllo",
            (),
            ("a", 1, (2.0, None), ("deep", (True,))),
        ],
    )
    def test_key_roundtrip(self, key):
        assert decode_key(encode_key(key)) == key

    def test_negative_zero_key_distinct_bits(self):
        decoded = decode_key(encode_key(-0.0))
        assert math.copysign(1.0, decoded) == -1.0

    def test_unencodable_key(self):
        with pytest.raises(KeyEncodingError):
            encode_key(frozenset({1}))
        with pytest.raises(KeyEncodingError):
            postings_to_arrays({frozenset({1}): [0]})

    def test_index_roundtrip_preserves_order(self):
        index = {
            ("b", 1): [3, 1, 2],
            "a": [0],
            2.5: [],
            None: [5, 4],
        }
        back = postings_from_arrays(postings_to_arrays(index))
        assert list(back) == list(index)
        for key in index:
            assert back[key] == index[key]
        assert back["unseen"] == []  # defaultdict semantics preserved


# -- engine sidecar ---------------------------------------------------


class TestEngineState:
    def test_resolve_roots_matches_scalar(self):
        parent = np.asarray([0, 0, 1, 3, 3, 4], dtype=np.int64)
        assert resolve_roots(parent).tolist() == [0, 0, 0, 3, 3, 3]

    def test_resolve_roots_rejects_out_of_range_and_cycles(self):
        with pytest.raises(ArrayFileError, match="range"):
            resolve_roots(np.asarray([0, 9], dtype=np.int64))
        with pytest.raises(ArrayFileError, match="cycle"):
            resolve_roots(np.asarray([1, 0], dtype=np.int64))

    def _state(self):
        records = _records()
        parent = [0, 0, 2, 0]
        size = [3, 1, 1, 1]
        key_members = {"ann": [0, 1, 3], ("t", 2): [2]}
        return records, parent, size, 2, key_members

    def test_build_validate_roundtrip(self, tmp_path):
        records, parent, size, n_components, key_members = self._state()
        arrays, meta = build_sidecar_arrays(
            records, parent, size, n_components, key_members
        )
        assert meta["has_postings"]
        path = tmp_path / "e.col"
        write_arrays(path, arrays, meta)
        columns = EngineStateColumns(MappedArrays(path))
        columns.validate()
        assert columns.key_members() == key_members
        assert columns.records.to_records() == records

    def test_unencodable_key_degrades_postings(self, tmp_path):
        records, parent, size, n_components, _ = self._state()
        arrays, meta = build_sidecar_arrays(
            records, parent, size, n_components, {object(): [0]}
        )
        assert not meta["has_postings"]
        path = tmp_path / "e.col"
        write_arrays(path, arrays, meta)
        assert EngineStateColumns(MappedArrays(path)).key_members() is None

    def test_validate_rejects_tampered_weights(self, tmp_path):
        records, parent, size, n_components, key_members = self._state()
        arrays, meta = build_sidecar_arrays(
            records, parent, size, n_components, key_members
        )
        arrays = dict(arrays)
        arrays["groups.weights"] = arrays["groups.weights"] + 1.0
        path = tmp_path / "e.col"
        write_arrays(path, arrays, meta)
        with pytest.raises(ArrayFileError, match="weights"):
            EngineStateColumns(MappedArrays(path)).validate()

    def test_validate_rejects_wrong_component_count(self, tmp_path):
        records, parent, size, _, key_members = self._state()
        arrays, meta = build_sidecar_arrays(
            records, parent, size, 7, key_members
        )
        path = tmp_path / "e.col"
        write_arrays(path, arrays, meta)
        with pytest.raises(ArrayFileError, match="n_components"):
            EngineStateColumns(MappedArrays(path)).validate()


# -- snapshot answer-cache bounds (serving-path bugfixes) -------------


class TestSnapshotCacheBounds:
    def _engine(self):
        from repro.core import IncrementalTopK
        from repro.predicates.base import PredicateLevel

        from .conftest import exact_name_predicate, shared_word_predicate

        engine = IncrementalTopK(
            [PredicateLevel(exact_name_predicate(), shared_word_predicate())]
        )
        for i in range(8):
            engine.add({"name": f"name {i % 3}"}, float(i + 1))
        return engine

    def test_cache_is_fifo_bounded(self):
        from repro.server import EngineSnapshot

        snapshot = EngineSnapshot.freeze(self._engine(), cache_limit=3)
        for k in range(1, 6):
            snapshot.query_topk(k)
        assert snapshot.cache_size == 3
        assert snapshot.cache_evictions == 2
        # the newest keys survived; re-querying an evicted key recomputes
        baseline = snapshot.query_topk(1)
        assert snapshot.cache_evictions == 3
        assert baseline.groups.weights() == (
            EngineSnapshot.freeze(self._engine()).query_topk(1).groups.weights()
        )

    def test_eviction_metric_published(self):
        from repro.observability import MetricsRegistry
        from repro.server import EngineSnapshot

        metrics = MetricsRegistry()
        snapshot = EngineSnapshot.freeze(
            self._engine(), cache_limit=1, metrics=metrics
        )
        snapshot.query_topk(1)
        snapshot.query_topk(2)
        snapshot.query_topk(3)
        rendered = metrics.counter(
            "repro_snapshot_cache_evictions_total"
        ).value
        assert rendered == 2.0
        assert snapshot.cache_evictions == 2

    def test_cache_limit_validation(self):
        from repro.server import EngineSnapshot

        with pytest.raises(ValueError, match="cache_limit"):
            EngineSnapshot.freeze(self._engine(), cache_limit=0)

    def test_threshold_cache_key_is_canonical(self):
        from repro.server import EngineSnapshot

        snapshot = EngineSnapshot.freeze(self._engine())
        a = snapshot.query_threshold(4.0)
        b = snapshot.query_threshold(4.0)
        assert b is a  # same canonical key → cached object returned
        assert snapshot.cache_size == 1
        # a rejected threshold (engine requires > 0) caches nothing
        with pytest.raises(ValueError):
            snapshot.query_threshold(0.0)
        assert snapshot.cache_size == 1

    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), float("-inf")]
    )
    def test_threshold_rejects_non_finite(self, bad):
        from repro.server import EngineSnapshot

        snapshot = EngineSnapshot.freeze(self._engine())
        with pytest.raises(ValueError, match="finite"):
            snapshot.query_threshold(bad)
        assert snapshot.cache_size == 0  # no dead entry cached
