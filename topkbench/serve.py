"""serve-citations: the query service over HTTP on loopback.

An in-process ``QueryService`` plus ``HttpServer`` over a durable
citation engine (memory store, WAL fsync off) that the service's
``loader`` restores from a prepared 3,000-record state directory.  One
closed-loop ``ServiceClient`` holds one keep-alive connection.  Per
cycle: 20 ``POST /insert`` of held-out records (30% typo-perturbed as
X13 does), one ``POST /query`` topk K=10 at the new generation, and the
same query again at that generation, as a polling dashboard sends it.
"""

from __future__ import annotations

import asyncio
import random
import shutil
import time
from pathlib import Path

import checks
from common import citation_levels_for, ensure_src, scaled, sub_seed
from ops import Execution, Op, run_op_async, timer

ensure_src()

from repro.core.incremental import IncrementalTopK  # noqa: E402
from repro.core.persistence import DurabilityPolicy  # noqa: E402
from repro.core.records import RecordStore  # noqa: E402
from repro.datasets import generate_citations  # noqa: E402
from repro.server import (  # noqa: E402
    HttpServer,
    QueryService,
    ServerConfig,
    ServiceClient,
)

BASE_RECORDS = 3000
#: The prepared checkpoint covers this prefix; the rest is WAL tail,
#: replayed by every restore.
CHECKPOINT_AT = 2500
INSERTS_PER_CYCLE = 20
#: Records generated past the base, the pool the inserts come from; a
#: fixed size keeps the base corpus independent of the run length.
HELD_OUT = 1000
K = 10
TYPO_RATE = 0.3
CONFIG = ServerConfig(label_field="author", checkpoint_on_drain=False)
GROUP_KEYS = ("weight", "size", "representative_id")


def prepare(seed, cycles, work_dir, scale=1.0, setup_only=False):
    """Base corpus, its state directory, and the held-out inserts."""
    n_base = scaled(BASE_RECORDS, scale)
    n_held = INSERTS_PER_CYCLE * cycles
    if n_held > HELD_OUT:
        raise ValueError(f"{cycles} cycles need more than {HELD_OUT} inserts")
    dataset = generate_citations(n_base + HELD_OUT, seed=sub_seed(seed, 0))
    records = list(dataset.store)
    base = RecordStore.from_rows(
        [r.fields for r in records[:n_base]],
        [r.weight for r in records[:n_base]],
    )
    rng = random.Random(sub_seed(seed, 1))
    held = []
    for record in records[n_base:n_base + n_held]:
        fields = dict(record.fields)
        if rng.random() < TYPO_RATE:
            fields["title"] = fields["title"] + "x"
        held.append((fields, record.weight))
    state = Path(work_dir) / "serve-base"
    if not state.exists():
        engine = IncrementalTopK(
            citation_levels_for(base),
            durability=DurabilityPolicy(state, fsync=False),
        )
        checkpoint_at = scaled(CHECKPOINT_AT, scale)
        for record in base:
            if record.record_id == checkpoint_at:
                engine.checkpoint()
            engine.add(record.fields, record.weight)
        engine.close()
    return {
        "base": base, "held": held, "base_state": state,
        "work_dir": Path(work_dir),
    }


def state_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.iterdir() if p.is_file())


def counts_of(result) -> dict:
    """Per-op counts from the ``PrunedDedupResult`` of a snapshot query."""
    last = result.stats[-1]
    return {
        "counters": result.counters,
        "retained": (last.n_groups_after_prune, last.n_groups_after_collapse),
    }


def execute(inputs, cycles: int, log=None, tracer=None) -> Execution:
    state = inputs["work_dir"] / f"serve-state-{time.monotonic_ns()}"
    shutil.copytree(inputs["base_state"], state)
    out = Execution()
    try:
        asyncio.run(_drive(inputs, state, cycles, log, out))
    finally:
        shutil.rmtree(state, ignore_errors=True)
    return out


def _served(body: dict) -> list[dict]:
    return [{key: g[key] for key in GROUP_KEYS} for g in body["groups"]]


def _response_problems(status: int, body: dict) -> list[str]:
    if status != 200 or body.get("outcome") != "ok":
        return [f"HTTP {status} outcome {body.get('outcome')!r}: "
                f"{body.get('error', '')}"]
    return []


async def _drive(inputs, state: Path, cycles: int, log, out: Execution):
    service = server = client = None
    try:
        with out.setup(log):
            started = time.perf_counter()
            with timer(log, "levels"):
                levels = citation_levels_for(inputs["base"])
            service = QueryService(
                loader=lambda: IncrementalTopK.restore(
                    DurabilityPolicy(state, fsync=False), levels
                ),
                config=CONFIG,
            )
            server = HttpServer(service)
            await server.start()
            await service.start()
            client = ServiceClient("127.0.0.1", server.port, timeout=120.0)
            status, body = await client.query(kind="topk", k=K)
            out.setup_seconds = time.perf_counter() - started
        inputs["levels"] = levels
        out.first_problems = _response_problems(status, body)
        out.first = body
        out.first_answer = _served(body) if status == 200 else None
        if log is not None:
            _trace_query(log, out.setup_span, body)
        out.extra["entries_replayed"] = (
            service.engine.last_recovery.entries_replayed
        )
        if cycles == 0:
            return
        stats_before = (
            service.stats.inserts_applied, service.stats.snapshots_published
        )
        bytes_before = state_bytes(state)
        held = iter(inputs["held"])
        previous = None
        for _ in range(cycles):
            for _ in range(INSERTS_PER_CYCLE):
                fields, weight = next(held)
                op = await run_op_async(
                    "http.insert", log, lambda: client.insert(fields, weight),
                    fields=fields, weight=weight,
                )
                out.ops.append(op)
            for cls in ("http.topk", "http.repeat"):
                op = await run_op_async(
                    cls, log, lambda: client.query(kind="topk", k=K)
                )
                if log is not None and op.error is None:
                    result = _trace_query(log, op.span, op.result[1])
                    if result is not None:
                        op.extra["counts"] = counts_of(result)
                        if cls == "http.repeat":
                            op.extra["recomputed"] = result is not previous
                        previous = result
                out.ops.append(op)
        out.extra["batch"] = (
            service.stats.inserts_applied - stats_before[0],
            service.stats.snapshots_published - stats_before[1],
        )
        n_inserts = INSERTS_PER_CYCLE * cycles
        out.extra["bytes_per_insert"] = (
            state_bytes(state) - bytes_before
        ) / n_inserts
    finally:
        if client is not None:
            await client.close()
        if service is not None:
            await service.drain()
        if server is not None:
            await server.close()


def _trace_query(log, op_span: int, body: dict):
    """Complete a query op's spans; return what ``query_topk`` returned.

    ``EngineSnapshot.query_topk`` opens no tracer spans, so its stage
    times come from the result's ``PipelineCounters.stage_seconds``,
    laid end to end under the ``exec`` timer.  The service reports
    ``elapsed_seconds`` from admission to the serialized answer; the
    synthetic ``service`` span ends where ``exec`` ends, so its self
    time is that elapsed time minus the query execution, and the op
    root keeps the HTTP round trip's own share.
    """
    execs = [
        s for s in log.spans if s["parent"] == op_span and s["name"] == "exec"
    ]
    elapsed = body.get("elapsed_seconds")
    if len(execs) != 1 or elapsed is None:
        return None
    exec_span = execs[0]
    result = log.results[exec_span["id"]]
    cursor = exec_span["start"]
    for stage, seconds in result.counters.stage_seconds.items():
        log.synthetic(stage, exec_span["id"], cursor, seconds)
        cursor += seconds
    exec_span["parent"] = log.synthetic(
        "service", op_span, exec_span["end"] - elapsed, elapsed
    )
    return result


def check(inputs, out: Execution) -> None:
    """Served answers against a policy-free reference engine replaying
    the same base and every acknowledged insert."""
    reference = IncrementalTopK(inputs["levels"])
    for record in inputs["base"]:
        reference.add(record.fields, record.weight)

    def compare(body) -> list[str]:
        target = body["entries_applied"]
        if target < reference.entries_applied:
            return [f"served entries {target} went backwards"]
        while reference.entries_applied < target and pending:
            fields, weight = pending.pop(0)
            reference.add(fields, weight)
        if reference.entries_applied != target:
            return [f"served entries {target} beyond acknowledged inserts"]
        expected = checks.top_groups(reference.query(K).groups, K)
        return checks.check_served(_served(body), expected)

    pending: list[tuple[dict, float]] = []
    if not out.first_problems:
        out.first_problems = compare(out.first)
    for op in out.ops:
        if op.error is not None:
            continue
        status, body = op.result
        op.problems = _response_problems(status, body)
        if op.problems:
            continue
        if op.cls == "http.insert":
            if body.get("quarantined"):
                op.problems = ["insert quarantined"]
                continue
            pending.append((op.extra["fields"], op.extra["weight"]))
        else:
            op.problems = compare(body)
    reference.close()


def counts(op: Op) -> dict:
    return op.extra.get("counts", {})
