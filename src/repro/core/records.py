"""Record and group data model.

A :class:`Record` is one noisy mention (a row of the source table) with
named string fields and a numeric *weight* — the aggregation unit for the
Top-K count query (the citation ``count`` field, a student's paper score,
an address' asset worth; 1.0 when the query counts plain mentions).

A :class:`Group` is a set of records already established to be duplicates
of one another (e.g. by the transitive closure of a sufficient predicate).
Its *weight* is the sum of member weights and its *representative* is the
record that stands in for the group in later predicate evaluations —
Section 4.1 proves any member works; we elect a centroid-like one.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Record:
    """One noisy mention of an entity.

    Attributes:
        record_id: Unique integer id within its :class:`RecordStore`.
        fields: Field name → raw string value.
        weight: Contribution of this mention to its group's count.
    """

    record_id: int
    fields: Mapping[str, str]
    weight: float = 1.0

    def __getitem__(self, field_name: str) -> str:
        """Return the value of *field_name* ('' if the field is absent)."""
        return self.fields.get(field_name, "")

    def get(self, field_name: str, default: str = "") -> str:
        """Return the value of *field_name*, or *default* if absent."""
        return self.fields.get(field_name, default)


class RecordStore:
    """An immutable, indexable collection of records.

    Record ids are positions: ``store[i].record_id == i``.  The store is
    the single source of truth the rest of the pipeline refers to by id,
    so collapsed groups and pruned subsets stay cheap (lists of ints).
    """

    def __init__(self, records: Iterable[Record]):
        self._records = list(records)
        for position, record in enumerate(self._records):
            if record.record_id != position:
                raise ValueError(
                    f"record at position {position} has id {record.record_id}; "
                    "RecordStore requires record_id == position"
                )

    @classmethod
    def from_rows(
        cls,
        rows: Iterable[Mapping[str, str]],
        weights: Iterable[float] | None = None,
    ) -> "RecordStore":
        """Build a store from dict-like rows, assigning sequential ids."""
        rows = list(rows)
        if weights is None:
            weight_list = [1.0] * len(rows)
        else:
            weight_list = [float(w) for w in weights]
            if len(weight_list) != len(rows):
                raise ValueError(
                    f"{len(rows)} rows but {len(weight_list)} weights"
                )
        return cls(
            Record(record_id=i, fields=dict(row), weight=w)
            for i, (row, w) in enumerate(zip(rows, weight_list))
        )

    @classmethod
    def backed_by(cls, records) -> "RecordStore":
        """Wrap a position-indexed sequence without copying it.

        For lazily-materialising columnar views
        (:class:`repro.storage.FrozenRecordView`), whose construction
        already guarantees ``records[i].record_id == i``: skipping the
        eager copy keeps mapped records unmaterialised until touched.
        The caller vouches for the id invariant.
        """
        store = cls.__new__(cls)
        store._records = records
        return store

    def __len__(self) -> int:
        return len(self._records)

    def __getitem__(self, record_id: int) -> Record:
        return self._records[record_id]

    def __iter__(self) -> Iterator[Record]:
        return iter(self._records)

    def field_values(self, field_name: str) -> list[str]:
        """Return the value of *field_name* for every record, in id order."""
        return [record[field_name] for record in self._records]

    def total_weight(self) -> float:
        """Return the sum of all record weights."""
        return sum(record.weight for record in self._records)


@dataclass
class Group:
    """A set of records known to be mutual duplicates.

    Attributes:
        group_id: Stable id of the group within one pipeline stage.
        member_ids: Ids of the member records.
        representative_id: Record elected to represent the group in
            predicate evaluations (Section 4.1 allows any member).
        weight: Sum of member weights — the group's count.
    """

    group_id: int
    member_ids: list[int]
    representative_id: int
    weight: float

    @property
    def size(self) -> int:
        """Number of member records (unweighted)."""
        return len(self.member_ids)

    @classmethod
    def singleton(cls, group_id: int, record: Record) -> "Group":
        """Return a group holding just *record*."""
        return cls(
            group_id=group_id,
            member_ids=[record.record_id],
            representative_id=record.record_id,
            weight=record.weight,
        )


@dataclass
class GroupSet:
    """Groups over a store, ordered by non-increasing weight.

    This is the unit flowing between the collapse, lower-bound and prune
    stages of :mod:`repro.core.pruned_dedup`.
    """

    store: RecordStore
    groups: list[Group] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.groups = sorted(self.groups, key=lambda g: -g.weight)
        for position, group in enumerate(self.groups):
            group.group_id = position

    def __len__(self) -> int:
        return len(self.groups)

    def __iter__(self) -> Iterator[Group]:
        return iter(self.groups)

    def __getitem__(self, group_id: int) -> Group:
        return self.groups[group_id]

    def representative(self, group_id: int) -> Record:
        """Return the representative record of group *group_id*."""
        return self.store[self.groups[group_id].representative_id]

    def representatives(self) -> list[Record]:
        """Return representatives for all groups, in group order."""
        return [self.store[g.representative_id] for g in self.groups]

    def weights(self) -> list[float]:
        """Return group weights in group order (non-increasing)."""
        return [g.weight for g in self.groups]

    def covered_record_ids(self) -> list[int]:
        """Return ids of all records covered by any group."""
        ids: list[int] = []
        for group in self.groups:
            ids.extend(group.member_ids)
        return ids

    def subset(self, group_ids: Sequence[int]) -> "GroupSet":
        """Return a new GroupSet restricted to *group_ids* (renumbered)."""
        kept = [self.groups[i] for i in group_ids]
        copies = [
            Group(
                group_id=pos,
                member_ids=list(g.member_ids),
                representative_id=g.representative_id,
                weight=g.weight,
            )
            for pos, g in enumerate(kept)
        ]
        return GroupSet(store=self.store, groups=copies)

    @classmethod
    def singletons(cls, store: RecordStore) -> "GroupSet":
        """Return the trivial grouping: one group per record."""
        groups = [Group.singleton(i, record) for i, record in enumerate(store)]
        return cls(store=store, groups=groups)


def group_fingerprint(group_set: GroupSet) -> tuple:
    """Canonical, order-insensitive identity of a group partition.

    Two group sets with equal fingerprints have identical members,
    weights (bit-exact floats), and elected representatives — the
    equality the bit-identity checks compare (scalar vs vectorized
    paths, memory vs columnar stores, restored vs replayed engines).
    """
    return tuple(
        sorted(
            (
                group.weight,
                tuple(sorted(group.member_ids)),
                group.representative_id,
            )
            for group in group_set
        )
    )


def merge_groups(store: RecordStore, groups: Iterable[Group]) -> Group:
    """Merge *groups* into one, electing a new representative.

    The representative is the member record (among the old
    representatives) with the largest total weight behind it — a cheap
    centroid-ness proxy in the spirit of [36]: the variant that already
    stands for the most mentions is the least noisy choice.
    """
    groups = list(groups)
    if not groups:
        raise ValueError("cannot merge zero groups")
    member_ids: list[int] = []
    weight = 0.0
    best = groups[0]
    for group in groups:
        member_ids.extend(group.member_ids)
        weight += group.weight
        if group.weight > best.weight:
            best = group
    return Group(
        group_id=-1,
        member_ids=member_ids,
        representative_id=best.representative_id,
        weight=weight,
    )
