"""Snapshot-isolated read path: immutable engine generations for readers.

The query service runs one writer task and many concurrent readers.
The writer owns the mutable :class:`~repro.core.incremental.IncrementalTopK`
and, after each applied batch, freezes it with
:meth:`EngineSnapshot.freeze` — records tuple plus copied closure
membership, nothing shared-mutable with the live engine.  The
:class:`SnapshotPublisher` then swaps a single generation pointer: a
reader grabs ``publisher.current`` exactly once per request and answers
entirely from that object, so a long query can never observe a torn
in-flight add or a mixed-generation index, no matter how many inserts
land while it runs.

:class:`EngineSnapshot` lives beside the engine in
:mod:`repro.core.incremental` — ``IncrementalTopK.query`` answers
through the same class and its bounded answer cache — and is
re-exported here.
"""

from __future__ import annotations

from ..core.incremental import EngineSnapshot

__all__ = ["EngineSnapshot", "SnapshotPublisher"]


class SnapshotPublisher:
    """The atomic generation pointer readers dereference once per request.

    ``publish`` swaps one attribute (atomic under the GIL, and in the
    service called only from the event loop); ``current`` hands back
    whole snapshots — there is no window in which a reader can see half
    of one generation and half of another.  Epochs count publications
    (distinct from the engine generation, which counts inserts).
    """

    def __init__(self) -> None:
        self._current: EngineSnapshot | None = None
        self._epoch = 0

    @property
    def current(self) -> EngineSnapshot | None:
        """The newest published snapshot (None before the first)."""
        return self._current

    @property
    def epoch(self) -> int:
        """Number of publications so far."""
        return self._epoch

    def publish(self, snapshot: EngineSnapshot) -> int:
        """Make *snapshot* the current generation; returns its epoch.

        In-flight readers keep the snapshot they already dereferenced;
        the old generation is garbage-collected once the last of them
        finishes.
        """
        self._epoch += 1
        self._current = snapshot
        return self._epoch
