"""Unit tests for repro.core.records."""

import pytest

from repro.core.collapse import collapse
from repro.core.records import (
    Group,
    GroupSet,
    Record,
    RecordStore,
    group_fingerprint,
    merge_groups,
)
from tests.conftest import make_store, shared_word_predicate


class TestRecord:
    def test_field_access(self):
        r = Record(record_id=0, fields={"name": "ann"}, weight=2.0)
        assert r["name"] == "ann"
        assert r["missing"] == ""
        assert r.get("missing", "x") == "x"

    def test_default_weight(self):
        assert Record(record_id=0, fields={}).weight == 1.0


class TestRecordStore:
    def test_from_rows_assigns_ids(self):
        store = make_store(["a", "b"])
        assert len(store) == 2
        assert store[1].record_id == 1

    def test_weights(self):
        store = make_store(["a", "b"], weights=[2.0, 3.0])
        assert store.total_weight() == 5.0

    def test_weight_length_mismatch(self):
        with pytest.raises(ValueError):
            RecordStore.from_rows([{"name": "a"}], weights=[1.0, 2.0])

    def test_id_position_invariant_enforced(self):
        with pytest.raises(ValueError):
            RecordStore([Record(record_id=5, fields={})])

    def test_field_values(self):
        store = make_store(["x", "y"])
        assert store.field_values("name") == ["x", "y"]

    def test_iteration(self):
        store = make_store(["x", "y"])
        assert [r["name"] for r in store] == ["x", "y"]


class TestGroup:
    def test_singleton(self):
        store = make_store(["a"], weights=[4.0])
        g = Group.singleton(0, store[0])
        assert g.size == 1
        assert g.weight == 4.0
        assert g.representative_id == 0


class TestGroupSet:
    def test_sorted_by_weight_desc(self):
        store = make_store(["a", "b", "c"], weights=[1.0, 5.0, 3.0])
        gs = GroupSet.singletons(store)
        assert gs.weights() == [5.0, 3.0, 1.0]
        assert [g.group_id for g in gs] == [0, 1, 2]

    def test_representatives(self):
        store = make_store(["a", "b"], weights=[1.0, 2.0])
        gs = GroupSet.singletons(store)
        assert gs.representative(0)["name"] == "b"

    def test_subset_renumbers(self):
        store = make_store(["a", "b", "c"], weights=[3.0, 2.0, 1.0])
        gs = GroupSet.singletons(store)
        sub = gs.subset([0, 2])
        assert len(sub) == 2
        assert sub.weights() == [3.0, 1.0]
        assert [g.group_id for g in sub] == [0, 1]

    def test_subset_deep_copies_members(self):
        store = make_store(["a", "b"])
        gs = GroupSet.singletons(store)
        sub = gs.subset([0])
        sub[0].member_ids.append(99)
        assert gs[0].member_ids != sub[0].member_ids

    def test_covered_record_ids(self):
        store = make_store(["a", "b", "c"])
        gs = GroupSet.singletons(store)
        assert sorted(gs.covered_record_ids()) == [0, 1, 2]


class TestMergeGroups:
    def test_merges_weight_and_members(self):
        store = make_store(["a", "b", "c"], weights=[1.0, 2.0, 3.0])
        gs = GroupSet.singletons(store)
        merged = merge_groups(store, [gs[0], gs[2]])
        assert merged.weight == 4.0
        assert sorted(merged.member_ids) == [0, 2]

    def test_representative_from_heaviest(self):
        store = make_store(["light", "heavy"], weights=[1.0, 9.0])
        gs = GroupSet.singletons(store)
        merged = merge_groups(store, [gs[1], gs[0]])
        assert store[merged.representative_id]["name"] == "heavy"

    def test_empty_merge_rejected(self):
        store = make_store(["a"])
        with pytest.raises(ValueError):
            merge_groups(store, [])


class TestGroupFingerprint:
    def test_order_insensitive(self):
        store = make_store(["a", "a", "b"])
        gs = collapse(GroupSet.singletons(store), shared_word_predicate())
        reversed_gs = GroupSet(store=gs.store, groups=list(gs)[::-1])
        assert group_fingerprint(gs) == group_fingerprint(reversed_gs)

    def test_weight_sensitive(self):
        light = collapse(
            GroupSet.singletons(make_store(["a", "b"])),
            shared_word_predicate(),
        )
        heavy = collapse(
            GroupSet.singletons(make_store(["a", "b"], weights=[2.0, 1.0])),
            shared_word_predicate(),
        )
        assert group_fingerprint(light) != group_fingerprint(heavy)
