"""Write an engine checkpoint in the inline-JSON layout.

Before every checkpoint carried a ``columnar-<entries>.col`` array
sidecar, an engine with the in-memory store wrote its whole state as
inline JSON sections: the records, the union-find closure, the
per-group weights and the dead letters.  Restore still reads that
layout, so state directories written then keep restoring; this helper
writes it from a live engine, so tests and the X14 cold-start
benchmark can produce such a directory on demand; :func:`checkpoint_as`
writes either layout by name.
"""

from __future__ import annotations

from collections import defaultdict
from pathlib import Path

from ..core.incremental import IncrementalTopK
from ..core.persistence import PersistenceError


def checkpoint_as(
    engine: IncrementalTopK, layout: str, *, prune: bool = True
) -> Path:
    """Checkpoint *engine* in *layout*: ``"sidecar"``, the array sidecar
    :meth:`IncrementalTopK.checkpoint` writes, or ``"json"``, the
    inline-JSON layout :func:`write_json_checkpoint` writes."""
    if layout == "json":
        return write_json_checkpoint(engine, prune=prune)
    if layout == "sidecar":
        return engine.checkpoint(prune=prune)
    raise ValueError(f"layout must be 'json' or 'sidecar', got {layout!r}")


def write_json_checkpoint(engine: IncrementalTopK, *, prune: bool = True) -> Path:
    """Checkpoint *engine* (which must be durable) as inline JSON.

    Returns the checkpoint's path.  Like
    :meth:`~repro.core.incremental.IncrementalTopK.checkpoint`, subsumed
    WAL segments and checkpoints are pruned unless *prune* is False.
    """
    durable = engine._durable
    if durable is None:
        raise PersistenceError("write_json_checkpoint() needs a durable engine")
    parent, size, n_components = engine._uf.state()
    group_weights: dict[int, float] = defaultdict(float)
    for record in engine._records:
        group_weights[engine._uf.find(record.record_id)] += record.weight
    header = {
        "engine_version": engine.version,
        "entries_applied": engine.entries_applied,
        "n_records": len(engine),
    }
    sections = {
        "records": [
            {"fields": dict(r.fields), "weight": r.weight}
            for r in engine._records
        ],
        "union_find": {
            "parent": parent,
            "size": size,
            "n_components": n_components,
        },
        "groups": sorted(group_weights.items()),
        "dead_letters": engine._dead_letter_section(),
    }
    path = durable.write_checkpoint(header, sections)
    if prune:
        durable.prune()
    return path
