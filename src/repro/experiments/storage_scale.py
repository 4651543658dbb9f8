"""X14: cold start from an engine checkpoint, sidecar vs inline JSON.

Every :meth:`~repro.core.incremental.IncrementalTopK.checkpoint` writes
its bulk state into a ``columnar-<entries>.col`` array sidecar, which a
restore maps and decodes in bulk.  The baseline is the same corpus
checkpointed in the inline-JSON layout that predates the sidecar
(written by :func:`repro.testing.write_json_checkpoint`), which restore
still reads: every record parsed from JSON and the blocking-key index
re-derived by keying every record again.

Each cold start runs in a **fresh subprocess** so peak RSS measures
exactly one restore: interpreter + import + ``IncrementalTopK.restore``
+ ``audit`` (*ready*), then ``current_store()`` (the record store the
first query starts from).  It runs no query: predicate verification
costs the same from either layout and would swamp the restore-path
difference the benchmark exists to measure.  For the sidecar it also
reports ``crc_s``, the share of *ready* spent verifying the sidecar's
body checksums.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

from ..core.incremental import IncrementalTopK
from ..core.persistence import DurabilityPolicy, DurableStateStore
from ..predicates.base import PredicateLevel
from ..predicates.library import ExactFieldsPredicate, NgramOverlapPredicate

#: Checkpoint layouts compared: the engine's own (array sidecar) and the
#: inline-JSON baseline.
LAYOUTS = ("json", "sidecar")


def bench_levels() -> list[PredicateLevel]:
    """One level, importable from the cold-start subprocess."""
    return [
        PredicateLevel(
            ExactFieldsPredicate(["name"]),
            NgramOverlapPredicate(field="name", threshold=0.6),
        )
    ]


def synthetic_events(n_records: int, seed: int = 0):
    """Seeded mention stream: ~3 mentions per entity, weighted."""
    import random

    rng = random.Random(seed)
    n_entities = max(1, n_records // 3)
    for _ in range(n_records):
        entity = rng.randrange(n_entities)
        suffix = rng.choice(["", " jr", " sr", " iii"])
        yield (
            {"name": f"entity {entity}{suffix}", "city": f"c{entity % 97}"},
            float(rng.randrange(1, 5)),
        )


def build_state_dir(
    work_dir: str | Path, n_records: int, *, seed: int = 0, layout: str
) -> Path:
    """Feed the synthetic stream into a durable engine and checkpoint it
    in *layout* (``"sidecar"`` or ``"json"``).

    Returns the state directory; after the final checkpoint the WAL is
    fully subsumed, so a restore replays zero entries — cold start
    measures checkpoint loading alone.
    """
    if layout not in LAYOUTS:
        raise ValueError(f"layout must be one of {LAYOUTS}, got {layout!r}")
    state_dir = Path(work_dir) / f"state-{layout}"
    policy = DurabilityPolicy(state_dir, fsync=False, keep_checkpoints=1)
    engine = IncrementalTopK(bench_levels(), durability=policy)
    for fields, weight in synthetic_events(n_records, seed):
        engine.add(fields, weight)
    from ..testing.checkpoints import checkpoint_as

    checkpoint_as(engine, layout)
    engine.close()
    return state_dir


def _peak_rss_kb() -> int:
    """This process's peak resident set in kB (VmHWM; see below)."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import resource  # non-Linux fallback (macOS resets ru_maxrss at exec)

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _cold_start_main() -> None:
    """Subprocess entry: restore to *ready*, then build the record store.

    Ready means the engine can serve: state restored, closure audited.
    ``store_s`` adds ``current_store()``, the record store every query
    starts from.

    Peak RSS comes from ``/proc/self/status`` ``VmHWM``, which resets
    at exec; ``ru_maxrss`` does NOT reset across exec on Linux, so a
    forked child would inherit the launching process's high-water mark
    and both layouts would report the parent's peak.
    """
    state_dir = sys.argv[1]
    started = time.perf_counter()
    engine = IncrementalTopK.restore(state_dir, bench_levels())
    problems = engine.audit()
    ready_s = time.perf_counter() - started
    store = engine.current_store()
    store_s = time.perf_counter() - started
    maxrss_kb = _peak_rss_kb()
    info = engine.last_recovery
    _parent, _size, n_components = engine._uf.state()
    sidecar = None
    if info.checkpoint_path is not None:
        _header, sections = DurableStateStore.read_checkpoint(
            info.checkpoint_path
        )
        sidecar = sections.get("columnar")
    print(
        json.dumps(
            {
                "ready_s": ready_s,
                "store_s": store_s,
                "crc_s": (
                    _crc_pass_s(Path(state_dir) / sidecar["file"])
                    if sidecar
                    else None
                ),
                "maxrss_kb": maxrss_kb,
                "entries": engine.entries_applied,
                "entries_replayed": info.entries_replayed,
                "checkpoint_entries": info.checkpoint_entries,
                "audit_problems": len(problems),
                "n_components": n_components,
                "total_weight": store.total_weight(),
            }
        )
    )
    engine.close()


def _crc_pass_s(sidecar: Path) -> float:
    """What the restore's body-checksum pass costs on *sidecar*: a
    verifying open minus a plain one, both from a warm page cache, best
    of three."""
    from ..storage.layout import MappedArrays

    def best(verify: bool) -> float:
        times = []
        for _ in range(3):
            started = time.perf_counter()
            MappedArrays(sidecar, verify=verify)
            times.append(time.perf_counter() - started)
        return min(times)

    return max(0.0, best(True) - best(False))


def measure_cold_start(state_dir: str | Path) -> dict:
    """Cold-start *state_dir* in a fresh interpreter; return its stats."""
    env = dict(os.environ)
    src_root = str(Path(__file__).resolve().parents[2])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_root, env.get("PYTHONPATH", "")) if p
    )
    completed = subprocess.run(
        [
            sys.executable,
            "-c",
            "from repro.experiments.storage_scale import _cold_start_main; "
            "_cold_start_main()",
            str(state_dir),
        ],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def run_storage_scale(
    work_dir: str | Path, n_records: int, *, seed: int = 0
) -> dict:
    """Checkpoint *n_records* in each layout and cold-start each.

    Returns ``{"n_records": ..., "results": {layout: stats}}`` where the
    stats are the subprocess measurements plus the ingest/checkpoint
    time and the checkpoint's size on disk.
    """
    results: dict[str, dict] = {}
    for layout in LAYOUTS:
        ingest_started = time.perf_counter()
        state_dir = build_state_dir(
            work_dir, n_records, seed=seed, layout=layout
        )
        ingest_s = time.perf_counter() - ingest_started
        stats = measure_cold_start(state_dir)
        stats["ingest_s"] = ingest_s
        stats["checkpoint_bytes"] = sum(
            p.stat().st_size
            for p in Path(state_dir).iterdir()
            if p.name.startswith(("checkpoint-", "columnar-"))
        )
        results[layout] = stats
    baseline, sidecar = results["json"], results["sidecar"]
    # Both cold starts restored identical state, whatever the timings.
    for key in ("entries", "checkpoint_entries", "n_components", "total_weight"):
        if baseline[key] != sidecar[key]:
            raise AssertionError(
                f"cold-started state diverged on {key}: "
                f"{baseline[key]!r} != {sidecar[key]!r}"
            )
    return {"n_records": n_records, "results": results}


def storage_report_rows(report: dict) -> list[dict]:
    rows = []
    for layout, stats in report["results"].items():
        rows.append(
            {
                "checkpoint": layout,
                "records": report["n_records"],
                "ready_s": round(stats["ready_s"], 3),
                "store_s": round(stats["store_s"], 3),
                "crc_ms": (
                    "-"
                    if stats["crc_s"] is None
                    else round(stats["crc_s"] * 1000, 1)
                ),
                "peak_rss_mb": round(stats["maxrss_kb"] / 1024, 1),
                "ckpt_mb": round(stats["checkpoint_bytes"] / 2**20, 1),
                "replayed": stats["entries_replayed"],
                "ingest_s": round(stats["ingest_s"], 1),
            }
        )
    return rows
