"""X13: overload/soak harness for the always-on query service.

Drives seeded mixed traffic (inserts + all three query verbs) against a
real loopback :class:`~repro.server.http.HttpServer` in deliberate
overload — each burst offers several times the service's configured
capacity — with an optional :class:`~repro.testing.faultplane.FaultPlane`
armed for the middle of the run.  The service's SLO contract is then
checked mechanically:

* **every request resolves** — success, explicitly degraded, or shed
  with 429 (plus 503 during decline): no hangs, no silent drops, no
  stray statuses;
* **sheds are counted** — the admission controller's shed counters
  equal the 429s the clients actually saw;
* **queues stay bounded** — peak admitted work never exceeds the
  configured limits;
* **drain is durable** — after a graceful drain, restoring the state
  directory yields an engine whose top-K answer is bit-identical to a
  clean sequential replay of the seed records plus every acknowledged
  insert (a 200 on /insert is a durability promise).

``run_serving_load`` returns a report dict consumed by
:func:`serving_slo_checks` and the X13 benchmark's results table;
``REPRO_BENCH_LARGE=1`` scales the soak variant up in the benchmark.
"""

from __future__ import annotations

import asyncio
import contextlib
import random
from pathlib import Path

from ..core.incremental import IncrementalTopK
from ..core.persistence import DurabilityPolicy
from ..core.records import group_fingerprint
from ..server import (
    AdmissionConfig,
    HttpServer,
    QueryService,
    ServerConfig,
    ServiceClient,
)
from .harness import citation_pipeline

#: Statuses the SLO contract allows a request to resolve with.
ALLOWED_STATUSES = frozenset({200, 429, 503})


def _insert_spec(rng: random.Random, store) -> dict:
    """A seeded insert payload: a perturbed copy of a real record."""
    source = store[rng.randrange(len(store))]
    fields = dict(source.fields)
    if rng.random() < 0.3:
        # Typo noise keeps the dedup predicates honestly exercised.
        key = "title" if "title" in fields else next(iter(fields))
        fields[key] = fields[key] + "x"
    return {
        "verb": "insert",
        "fields": fields,
        "weight": round(rng.uniform(0.5, 3.0), 3),
    }


def _query_spec(rng: random.Random, k: int, deadline: float) -> dict:
    kind = rng.choice(("topk", "topk", "rank", "threshold"))
    spec = {"verb": kind, "kind": kind, "deadline_seconds": deadline}
    if kind == "threshold":
        spec["min_weight"] = round(rng.uniform(1.0, 10.0), 2)
    else:
        spec["k"] = k
    return spec


def build_schedule(
    rng: random.Random,
    store,
    n_requests: int,
    insert_fraction: float,
    k: int,
    deadline: float,
) -> list[dict]:
    """The full seeded request mix, in launch order."""
    return [
        _insert_spec(rng, store)
        if rng.random() < insert_fraction
        else _query_spec(rng, k, deadline)
        for _ in range(n_requests)
    ]


async def _drive(
    root: Path,
    store,
    levels,
    schedule: list[dict],
    burst_size: int,
    config: ServerConfig,
    fault_plane,
    k: int,
) -> dict:
    """Serve, fire the schedule in overload bursts, drain; one report."""
    engine = IncrementalTopK(
        levels, durability=DurabilityPolicy(state_dir=root / "state")
    )
    for record in store:
        engine.add(record.fields, record.weight)
    service = QueryService(engine, config=config)
    server = HttpServer(service)
    await server.start()
    await service.start()
    port = server.port

    outcomes: list[dict] = []
    acked: list[tuple[int, dict, float]] = []

    async def one(spec: dict) -> None:
        async with ServiceClient("127.0.0.1", port, timeout=60.0) as client:
            if spec["verb"] == "insert":
                status, body = await client.insert(
                    spec["fields"], spec["weight"]
                )
                if status == 200 and not body.get("quarantined"):
                    acked.append(
                        (body["record_id"], spec["fields"], spec["weight"])
                    )
            else:
                payload = {
                    key: value
                    for key, value in spec.items()
                    if key != "verb"
                }
                status, body = await client.query(**payload)
            outcomes.append(
                {
                    "verb": spec["verb"],
                    "status": status,
                    "outcome": body.get("outcome", ""),
                }
            )

    bursts = [
        schedule[start : start + burst_size]
        for start in range(0, len(schedule), burst_size)
    ]
    # Arm the fault plane for the middle third of the run (the whole
    # run when there are too few bursts for a strict middle).
    fault_from = len(bursts) // 3
    fault_to = max(fault_from + 1, (2 * len(bursts)) // 3)
    with contextlib.ExitStack() as stack:
        for index, burst in enumerate(bursts):
            if fault_plane is not None and index == fault_from:
                stack.enter_context(fault_plane.active())
            if fault_plane is not None and index == fault_to:
                stack.close()
            await asyncio.gather(*(one(spec) for spec in burst))

    async with ServiceClient("127.0.0.1", port, timeout=60.0) as client:
        _, drain_report = await client.drain()
    await server.close()

    # Restart from the drained state directory: the recovered answer
    # must be bit-identical to a clean sequential replay of everything
    # that was acknowledged.
    restored = IncrementalTopK.restore(root / "state", levels)
    try:
        fingerprint_restored = group_fingerprint(restored.query(k).groups)
        entries_restored = restored.entries_applied
        dead_letters_restored = len(restored.dead_letters)
    finally:
        restored.close()

    replay = IncrementalTopK(levels)
    for record in store:
        replay.add(record.fields, record.weight)
    for _, fields, weight in sorted(acked, key=lambda item: item[0]):
        replay.add(fields, weight)
    fingerprint_replay = group_fingerprint(replay.query(k).groups)

    by_status: dict[int, int] = {}
    for row in outcomes:
        by_status[row["status"]] = by_status.get(row["status"], 0) + 1
    stats = service.stats.as_dict()
    admission = service.admission.stats.as_dict()
    return {
        "n_requests": len(schedule),
        "n_resolved": len(outcomes),
        "by_status": by_status,
        "by_outcome": _outcome_counts(outcomes),
        "acked_inserts": len(acked),
        "faults_injected": (
            fault_plane.total_injected if fault_plane is not None else 0
        ),
        "drain_report": drain_report,
        "service_stats": stats,
        "admission": admission,
        "dead_letters": dead_letters_restored,
        "entries_restored": entries_restored,
        "fingerprint_restored": fingerprint_restored,
        "fingerprint_replay": fingerprint_replay,
        "peak_pending": admission["peak_pending"],
        "config": {
            "max_pending_queries": config.admission.max_pending_queries,
            "max_pending_inserts": config.admission.max_pending_inserts,
            "burst_size": burst_size,
        },
    }


def _outcome_counts(outcomes: list[dict]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for row in outcomes:
        key = row["outcome"] or f"http-{row['status']}"
        counts[key] = counts.get(key, 0) + 1
    return counts


def run_serving_load(
    root: str | Path,
    n_seed_records: int = 120,
    n_requests: int = 160,
    insert_fraction: float = 0.4,
    overload_factor: int = 4,
    k: int = 5,
    deadline_seconds: float = 5.0,
    seed: int = 0,
    fault_plane=None,
    max_pending_queries: int = 4,
    max_pending_inserts: int = 32,
    checkpoint_every: int = 0,
) -> dict:
    """Run the X13 overload scenario; see the module docstring.

    Each burst launches ``overload_factor * (max_pending_queries +
    max_pending_inserts)`` concurrent requests — offered load is a
    multiple of everything the admission controller will accept, so
    load shedding *must* engage (and is then checked to be loud).
    """
    root = Path(root)
    pipeline = citation_pipeline(
        n_records=n_seed_records, seed=seed, with_scorer=False
    )
    rng = random.Random(seed * 7919 + 17)
    schedule = build_schedule(
        rng,
        pipeline.store,
        n_requests,
        insert_fraction,
        k,
        deadline_seconds,
    )
    burst_size = overload_factor * (max_pending_queries + max_pending_inserts)
    config = ServerConfig(
        label_field="title",
        admission=AdmissionConfig(
            max_pending_queries=max_pending_queries,
            max_concurrent_queries=2,
            max_pending_inserts=max_pending_inserts,
            default_deadline_seconds=deadline_seconds,
            retry_after_seconds=0.05,
        ),
        checkpoint_every=checkpoint_every,
        drain_grace_seconds=60.0,
        max_insert_batch=16,
    )
    report = asyncio.run(
        _drive(
            root,
            pipeline.store,
            pipeline.levels,
            schedule,
            burst_size,
            config,
            fault_plane,
            k,
        )
    )
    report["overload_factor"] = overload_factor
    return report


def serving_slo_checks(report: dict) -> dict[str, bool]:
    """The X13 SLO contract over one :func:`run_serving_load` report."""
    by_status = report["by_status"]
    shed_counted = sum(
        report["admission"]["shed"].values()
    )
    return {
        "every_request_resolved": (
            report["n_resolved"] == report["n_requests"]
        ),
        "only_contracted_statuses": set(by_status) <= ALLOWED_STATUSES,
        "sheds_are_counted_not_silent": (
            by_status.get(429, 0) == shed_counted
        ),
        "overload_actually_shed": by_status.get(429, 0) > 0,
        "queues_stayed_bounded": (
            report["peak_pending"]["query"]
            <= report["config"]["max_pending_queries"]
            and report["peak_pending"]["insert"]
            <= report["config"]["max_pending_inserts"]
        ),
        "drain_abandoned_nothing": (
            report["drain_report"].get("abandoned_inserts") == 0
            and report["drain_report"].get("abandoned_queries") == 0
        ),
        "restart_bit_identical_to_replay": (
            report["fingerprint_restored"] == report["fingerprint_replay"]
        ),
    }


def serving_report_rows(report: dict) -> list[dict[str, object]]:
    """Flatten one report into rows for the benchmark results table."""
    checks = serving_slo_checks(report)
    return [
        {
            "requests": report["n_requests"],
            "overload": f'{report["overload_factor"]}x',
            "ok": report["by_outcome"].get("ok", 0)
            + report["by_outcome"].get("quarantined", 0),
            "degraded": report["by_outcome"].get("degraded", 0),
            "shed_429": report["by_status"].get(429, 0),
            "unavailable_503": report["by_status"].get(503, 0),
            "faults": report["faults_injected"],
            "acked_inserts": report["acked_inserts"],
            "slo_ok": all(checks.values()),
        }
    ]
