"""X12: clean-path overhead of the fault plane and hardened fault sites.

PR 7 threaded :func:`~repro.core.retry.fire_fault` calls through every
hardened fault site — WAL appends and fsyncs, checkpoint writes — and
wrapped the storage hot path in :class:`~repro.core.retry.RetryPolicy`.
The promise mirrors X11's for observability: with no hook installed a
fault site costs one module-global read and a ``None`` check, and a
FaultPlane armed with all-zero rates costs one early-returning method
call per site — the robustness machinery is effectively free until a
fault actually fires.

This driver times a durable-stream workload (journal every citation
record into a WAL-backed engine, then answer the top-K count query)
three ways — unhooked (the production default), armed with a zero-rate
:class:`~repro.testing.faultplane.FaultPlane`, and armed with metrics
attached — best of *repeats* runs per mode, and verifies the answers
are bit-identical in every mode and that the zero-rate plane injected
nothing.  The modes run interleaved inside each repeat, in reversed
order on every other repeat: a host's speed can drift over a run by
more than the 5% budget, and timing each mode as one block would charge
that drift to whichever mode ran at the slow end.
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

from ..core.incremental import IncrementalTopK
from ..core.persistence import DurabilityPolicy
from ..core.records import group_fingerprint
from ..observability import MetricsRegistry
from ..testing.faultplane import FaultPlane
from .harness import benchmark_scale, citation_pipeline

#: Maximum tolerated slowdown of an armed zero-rate run over the
#: unhooked path.
OVERHEAD_LIMIT = 0.05


def _stream_once(store, levels, k: int, root: Path):
    """Journal every record into a fresh durable engine, then query."""
    policy = DurabilityPolicy(state_dir=root / "state")
    engine = IncrementalTopK(levels, durability=policy)
    try:
        for record in store:
            engine.add(record.fields, record.weight)
        result = engine.query(k)
        return group_fingerprint(result.groups), engine.entries_applied
    finally:
        engine.close()


def run_fault_plane_overhead(
    n_records: int | None = None,
    k: int = 10,
    seed: int = 0,
    repeats: int = 5,
) -> list[dict[str, object]]:
    """Time the durable-stream workload under each fault-plane mode.

    Returns one row per mode with best-of-*repeats* seconds, overhead
    relative to the unhooked baseline, the number of faults the plane
    injected (must stay 0 at zero rates), and whether the mode's
    answers match the unhooked run's exactly.
    """
    n = n_records if n_records is not None else benchmark_scale()
    pipeline = citation_pipeline(n_records=n, seed=seed, with_scorer=False)
    store, levels = pipeline.store, pipeline.levels

    def unhooked(root: Path):
        return _stream_once(store, levels, k, root), 0

    def armed(root: Path, metrics=None):
        plane = FaultPlane(seed=seed)  # every rate zero
        with plane.active(metrics=metrics):
            payload = _stream_once(store, levels, k, root)
        return payload, plane.total_injected

    modes = (
        ("unhooked (default)", unhooked),
        ("armed (zero rates)", armed),
        ("armed+metrics", lambda root: armed(root, metrics=MetricsRegistry())),
    )
    best = {mode: (float("inf"), None) for mode, _ in modes}
    for repeat in range(repeats):
        for mode, run in modes if repeat % 2 == 0 else modes[::-1]:
            with tempfile.TemporaryDirectory() as tmp:
                start = time.perf_counter()
                payload = run(Path(tmp))
                seconds = time.perf_counter() - start
            if seconds < best[mode][0]:
                best[mode] = (seconds, payload)

    base_seconds, (base_answer, _) = best["unhooked (default)"]
    rows: list[dict[str, object]] = []
    for mode, _ in modes:
        seconds, (answer, injected) = best[mode]
        rows.append(
            {
                "n_records": n,
                "K": k,
                "mode": mode,
                "seconds": seconds,
                "overhead_pct": 100.0 * (seconds / base_seconds - 1.0)
                if base_seconds > 0
                else 0.0,
                "faults_injected": injected,
                "identical": answer == base_answer,
            }
        )
    return rows


def fault_plane_overhead_checks(
    rows: list[dict[str, object]],
) -> dict[str, bool]:
    """Validate the X12 sweep: answers untouched, arming within budget.

    The < 5% bound binds the zero-rate armed mode; the metrics-attached
    mode is informational (it additionally pays the registry's counter
    path, already bounded by X11).
    """
    armed = next(row for row in rows if row["mode"] == "armed (zero rates)")
    return {
        "answers_identical_in_all_modes": all(
            row["identical"] for row in rows
        ),
        "zero_rate_plane_injected_nothing": all(
            row["faults_injected"] == 0 for row in rows
        ),
        "armed_overhead_below_limit": (
            armed["overhead_pct"] <= 100.0 * OVERHEAD_LIMIT
        ),
    }
