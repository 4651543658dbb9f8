"""Unit tests for the columnar storage layer (:mod:`repro.storage`).

Covers the physical array container (round-trip, corruption detection),
string pools, columnar records (field-order and missing-vs-empty
fidelity), the postings key codec, the engine sidecar's vectorised
validation, the hybrid record container, and the mapped serving paths
built on top (TF-IDF index, dataset files, batch neighbor engines,
snapshot answer-cache bounds).
"""

import math

import numpy as np
import pytest

from repro.core.records import Record
from repro.storage import (
    ArrayFileError,
    HybridRecordList,
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
from repro.storage.columnar import FrozenRecordView
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
        columns.save(path)
        back = RecordColumns.open(path)
        for i, original in enumerate(records):
            got = back.record(i)
            assert got == original
            # field insertion order and missing-vs-empty both survive
            assert list(got.fields) == list(original.fields)
            assert math.copysign(1.0, got.weight) == math.copysign(
                1.0, original.weight
            )

    def test_missing_field_reads_empty_via_record(self):
        columns = RecordColumns.from_records(_records())
        rec = columns.record(2)
        assert rec["name"] == ""  # Record contract for absent fields
        assert "name" not in rec.fields


class TestHybridRecordList:
    def test_list_surface(self):
        base = RecordColumns.from_records(_records())
        hybrid = HybridRecordList(base)
        assert len(hybrid) == 4
        hybrid.append(
            Record(record_id=4, fields={"name": "eve"}, weight=1.0)
        )
        assert len(hybrid) == 5
        assert hybrid[0] == _records()[0]
        assert hybrid[-1].fields["name"] == "eve"
        assert [r.record_id for r in hybrid] == list(range(5))
        assert hybrid[1:3] == [_records()[1], _records()[2]]
        with pytest.raises(IndexError):
            hybrid[5]

    def test_freeze_is_immutable_view(self):
        hybrid = HybridRecordList(RecordColumns.from_records(_records()))
        frozen = hybrid.freeze()
        hybrid.append(
            Record(record_id=4, fields={"name": "eve"}, weight=1.0)
        )
        assert len(frozen) == 4 and len(hybrid) == 5
        assert frozen[3] == _records()[3]
        assert tuple(frozen[i] for i in range(4)) == frozen[0:4]

    def test_swap_base_requires_full_coverage(self):
        hybrid = HybridRecordList()
        hybrid.append(Record(record_id=0, fields={"a": "b"}, weight=1.0))
        with pytest.raises(ValueError, match="holds"):
            hybrid.swap_base(RecordColumns.from_records(_records()))
        compacted = RecordColumns.from_records(list(hybrid))
        hybrid.swap_base(compacted)
        assert hybrid.base is compacted and len(hybrid) == 1

    def test_weights_array_matches_records(self):
        hybrid = HybridRecordList(RecordColumns.from_records(_records()))
        hybrid.append(Record(record_id=4, fields={}, weight=7.0))
        assert hybrid.weights_array().tolist() == [
            r.weight for r in hybrid
        ]


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
        arrays, meta, has_postings = build_sidecar_arrays(
            records, parent, size, n_components, key_members
        )
        assert has_postings
        path = tmp_path / "e.col"
        write_arrays(path, arrays, meta)
        columns = EngineStateColumns(MappedArrays(path))
        columns.validate()
        assert columns.key_members() == key_members
        assert [columns.records.record(i) for i in range(4)] == records

    def test_unencodable_key_degrades_postings(self, tmp_path):
        records, parent, size, n_components, _ = self._state()
        arrays, meta, has_postings = build_sidecar_arrays(
            records, parent, size, n_components, {object(): [0]}
        )
        assert not has_postings
        path = tmp_path / "e.col"
        write_arrays(path, arrays, meta)
        assert EngineStateColumns(MappedArrays(path)).key_members() is None

    def test_validate_rejects_tampered_weights(self, tmp_path):
        records, parent, size, n_components, key_members = self._state()
        arrays, meta, _ = build_sidecar_arrays(
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
        arrays, meta, _ = build_sidecar_arrays(
            records, parent, size, 7, key_members
        )
        path = tmp_path / "e.col"
        write_arrays(path, arrays, meta)
        with pytest.raises(ArrayFileError, match="n_components"):
            EngineStateColumns(MappedArrays(path)).validate()


# -- mapped TF-IDF serving --------------------------------------------


class TestMappedTfIdf:
    def test_bit_identical_candidates(self, tmp_path):
        import random

        from repro.similarity import (
            IdfTable,
            TfIdfIndex,
            load_tfidf_index,
            save_tfidf_index,
        )

        rng = random.Random(7)
        vocab = [f"w{i}" for i in range(40)] + ["common"]
        docs = [
            [rng.choice(vocab) for _ in range(rng.randint(1, 10))] + ["common"]
            for _ in range(60)
        ]
        index = TfIdfIndex(IdfTable(docs))
        for i, doc in enumerate(docs):
            index.add(i * 2, doc)  # non-contiguous doc ids
        path = tmp_path / "tfidf.col"
        save_tfidf_index(index, path)
        mapped = load_tfidf_index(path)
        assert len(mapped) == len(index)
        assert mapped.n_posting_entries == index.n_posting_entries
        assert mapped.vector(0) == index.vector(0)
        assert mapped.cosine(0, 2) == index.cosine(0, 2)
        for probe in docs[:10] + [["unseen"], []]:
            for threshold in (0.0, 0.25, 0.7):
                assert mapped.candidates_above(
                    probe, threshold
                ) == index.candidates_above(probe, threshold)
        assert mapped.idf.idf("common") == index._idf.idf("common")
        assert mapped.idf.idf("unseen") == index._idf.idf("unseen")

    def test_wrong_kind_rejected(self, tmp_path):
        from repro.similarity import load_tfidf_index

        path = tmp_path / "x.col"
        write_arrays(path, _sample_arrays(), {"kind": "other"})
        with pytest.raises(ArrayFileError, match="kind"):
            load_tfidf_index(path)


# -- columnar datasets ------------------------------------------------


class TestColumnarDataset:
    def test_roundtrip_exact(self, tmp_path):
        from repro.datasets import (
            load_dataset_columnar,
            save_dataset_columnar,
        )
        from repro.datasets.students import generate_students

        dataset = generate_students(n_records=80, seed=5)
        path = tmp_path / "students.col"
        save_dataset_columnar(dataset, str(path))
        back = load_dataset_columnar(str(path))
        assert back.labels == dataset.labels
        assert len(back.store) == len(dataset.store)
        for restored, original in zip(back.store, dataset.store):
            assert restored == original
        assert back.store.total_weight() == dataset.store.total_weight()

    def test_wrong_kind_rejected(self, tmp_path):
        from repro.datasets import load_dataset_columnar

        path = tmp_path / "x.col"
        write_arrays(path, _sample_arrays(), {"kind": "other"})
        with pytest.raises(ArrayFileError, match="kind"):
            load_dataset_columnar(str(path))


# -- mapped neighbor engines ------------------------------------------


class _Sink:
    predicate_evaluations = 0
    cache_hits = 0


class TestMappedNeighborEngine:
    def test_member_verdicts_identical(self, tmp_path):
        import random

        from repro.core.records import RecordStore
        from repro.predicates.batch import (
            BatchNeighborEngine,
            load_engine_state,
            save_engine_state,
        )
        from repro.predicates.blocking import build_key_index
        from repro.predicates.library import NgramOverlapPredicate

        rng = random.Random(13)
        rows = [
            {"author": " ".join(rng.choice("abcdefgh") for _ in range(4))}
            for _ in range(50)
        ]
        store = RecordStore.from_rows(rows)
        records = list(store)
        predicate = NgramOverlapPredicate(field="author", threshold=0.5)
        engine = BatchNeighborEngine.build(
            predicate, records, build_key_index(predicate, records)
        )
        path = tmp_path / "engine.col"
        save_engine_state(engine, path)
        mapped = load_engine_state(path)
        for position in range(len(records)):
            assert mapped.member_neighbors(position, _Sink()).tolist() == (
                engine.member_neighbors(position, _Sink()).tolist()
            )
        indptr_a, flat_a = engine.member_neighbors_csr(range(0, 50, 3), _Sink())
        indptr_b, flat_b = mapped.member_neighbors_csr(range(0, 50, 3), _Sink())
        assert indptr_a.tolist() == indptr_b.tolist()
        assert flat_a.tolist() == flat_b.tolist()


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


class TestFrozenViewInSnapshots:
    def test_columnar_engine_snapshot_answers_match(self):
        from repro.core import IncrementalTopK
        from repro.core.records import group_fingerprint
        from repro.predicates.base import PredicateLevel
        from repro.server import EngineSnapshot

        from .conftest import exact_name_predicate, shared_word_predicate

        def levels():
            return [
                PredicateLevel(
                    exact_name_predicate(), shared_word_predicate()
                )
            ]

        memory = IncrementalTopK(levels())
        columnar = IncrementalTopK(levels(), store="columnar")
        for i in range(10):
            fields = {"name": f"name {i % 4}"}
            memory.add(fields, float(i + 1))
            columnar.add(fields, float(i + 1))
        snap_memory = EngineSnapshot.freeze(memory)
        snap_columnar = EngineSnapshot.freeze(columnar)
        assert isinstance(
            snap_columnar._state.records, FrozenRecordView
        )
        assert snap_columnar.consistency_problems() == []
        for k in (1, 3, 5):
            assert group_fingerprint(
                snap_columnar.query_topk(k).groups
            ) == group_fingerprint(snap_memory.query_topk(k).groups)
        assert (
            snap_columnar.query_rank(3).ranking
            == snap_memory.query_rank(3).ranking
        )
        assert (
            snap_columnar.query_threshold(4.0).ranking
            == snap_memory.query_threshold(4.0).ranking
        )
