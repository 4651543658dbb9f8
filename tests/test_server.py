"""Tests for the always-on query service (repro.server).

Covers the admission controller's shed/release accounting, the
transport-agnostic :class:`QueryService` request path (outcomes,
deadline degradation, writer-crash supervision, graceful drain), the
hand-rolled HTTP layer end to end on an ephemeral port, the ``serve``
CLI verb as a real subprocess under SIGTERM (with the fault plane armed
through ``$REPRO_FAULT_PLANE``), ``health --json``, and the idempotent
close regression for both the engine and the durable store.
"""

from __future__ import annotations

import asyncio
import json
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request

import pytest

from repro.cli import main as cli_main
from repro.core import DurabilityPolicy, IncrementalTopK, group_fingerprint
from repro.core.persistence import DurableStateStore
from repro.core.retry import RetryPolicy
from repro.observability import MetricsRegistry
from repro.predicates.base import FunctionPredicate, PredicateLevel
from repro.server import (
    CLASS_INSERT,
    CLASS_QUERY,
    AdmissionConfig,
    AdmissionController,
    HttpServer,
    QueryService,
    ServerConfig,
    ServiceClient,
    SHED_COST,
    SHED_QUEUE_FULL,
    STATE_READY,
    STATE_STOPPED,
    estimate_query_cost,
)

from .conftest import exact_name_predicate, shared_word_predicate


def name_levels(verify_delay: float = 0.0) -> list[PredicateLevel]:
    """(exact name, shared word) level; *verify_delay* slows each
    necessary-predicate evaluation to make deadlines bite on demand."""
    necessary = shared_word_predicate()
    if verify_delay:

        def slow(a, b):
            time.sleep(verify_delay)
            return bool(set(a["name"].split()) & set(b["name"].split()))

        necessary = FunctionPredicate(
            evaluate_fn=slow,
            keys_fn=lambda r: r["name"].split(),
            name="slow-shared-word",
        )
    return [PredicateLevel(exact_name_predicate(), necessary)]


def seeded_engine(names_weights, levels=None) -> IncrementalTopK:
    engine = IncrementalTopK(levels if levels is not None else name_levels())
    for name, weight in names_weights:
        engine.add({"name": name}, weight)
    return engine


SEED_ROWS = [
    ("ann smith", 1.0),
    ("ann smith", 2.0),
    ("bob jones", 5.0),
    ("cara lee", 3.0),
]


def make_service(**overrides) -> QueryService:
    engine = overrides.pop("engine", None) or seeded_engine(SEED_ROWS)
    config = overrides.pop("config", None) or ServerConfig(
        label_field="name", **overrides
    )
    return QueryService(engine, config=config)


def run_async(coroutine):
    return asyncio.run(coroutine)


# -- admission controller ---------------------------------------------


def test_admission_admit_release_accounting():
    controller = AdmissionController(AdmissionConfig(max_pending_queries=2))
    assert controller.try_admit(CLASS_QUERY).admitted
    assert controller.try_admit(CLASS_QUERY).admitted
    decision = controller.try_admit(CLASS_QUERY)
    assert not decision.admitted
    assert decision.reason == SHED_QUEUE_FULL
    assert decision.retry_after_seconds > 0
    controller.release(CLASS_QUERY)
    assert controller.try_admit(CLASS_QUERY).admitted
    assert controller.stats.admitted[CLASS_QUERY] == 3
    assert controller.stats.shed == {f"{CLASS_QUERY}.{SHED_QUEUE_FULL}": 1}
    assert controller.stats.peak_pending[CLASS_QUERY] == 2


def test_admission_classes_are_independent():
    controller = AdmissionController(
        AdmissionConfig(max_pending_queries=1, max_pending_inserts=2)
    )
    assert controller.try_admit(CLASS_QUERY).admitted
    assert not controller.try_admit(CLASS_QUERY).admitted
    # A saturated query queue must not shed inserts, and vice versa.
    assert controller.try_admit(CLASS_INSERT).admitted
    assert controller.try_admit(CLASS_INSERT).admitted
    assert not controller.try_admit(CLASS_INSERT).admitted


def test_admission_cost_shedding():
    config = AdmissionConfig(max_query_cost=5.0, cost_unit_records=100)
    controller = AdmissionController(config)
    cheap = estimate_query_cost("topk", 100, config)
    expensive = estimate_query_cost("rank", 2_000, config)
    assert cheap <= 5.0 < expensive
    assert controller.try_admit(CLASS_QUERY, cheap).admitted
    decision = controller.try_admit(CLASS_QUERY, expensive)
    assert not decision.admitted and decision.reason == SHED_COST
    # Cost never applies to inserts.
    assert controller.try_admit(CLASS_INSERT, expensive).admitted


def test_admission_release_without_admit_raises():
    controller = AdmissionController(AdmissionConfig())
    with pytest.raises(RuntimeError):
        controller.release(CLASS_QUERY)


def test_admission_depth_gauge_and_shed_counter():
    metrics = MetricsRegistry()
    controller = AdmissionController(
        AdmissionConfig(max_pending_queries=1), metrics
    )
    controller.try_admit(CLASS_QUERY)
    assert (
        metrics.value("repro_admission_queue_depth", queue=CLASS_QUERY) == 1.0
    )
    controller.try_admit(CLASS_QUERY)
    assert (
        metrics.value(
            "repro_requests_shed_total",
            queue=CLASS_QUERY,
            reason=SHED_QUEUE_FULL,
        )
        == 1.0
    )
    controller.release(CLASS_QUERY)
    assert (
        metrics.value("repro_admission_queue_depth", queue=CLASS_QUERY) == 0.0
    )


def test_clamp_deadline():
    config = AdmissionConfig(
        default_deadline_seconds=7.0, max_deadline_seconds=20.0
    )
    assert config.clamp_deadline(None) == 7.0
    assert config.clamp_deadline(3.0) == 3.0
    assert config.clamp_deadline(500.0) == 20.0
    assert config.clamp_deadline(0.0) == 0.001


def test_admission_config_validation():
    with pytest.raises(ValueError):
        AdmissionConfig(max_pending_queries=0)
    with pytest.raises(ValueError):
        AdmissionConfig(max_query_cost=0.0)
    with pytest.raises(ValueError):
        AdmissionConfig(default_deadline_seconds=-1.0)


# -- service request path ---------------------------------------------


def test_query_verbs_and_outcomes():
    async def scenario():
        service = make_service()
        await service.start()
        try:
            status, body = await service.handle_query({"kind": "topk", "k": 2})
            assert status == 200 and body["outcome"] == "ok"
            assert [g["label"] for g in body["groups"]] == [
                "bob jones",
                "ann smith",
            ]
            status, body = await service.handle_query({"kind": "rank", "k": 2})
            assert status == 200 and len(body["ranking"]) == 2
            status, body = await service.handle_query(
                {"kind": "threshold", "min_weight": 3.0}
            )
            assert status == 200 and body["certain"] is True
            assert service.stats.requests == {
                "topk.ok": 1,
                "rank.ok": 1,
                "threshold.ok": 1,
            }
        finally:
            await service.drain()

    run_async(scenario())


def test_invalid_requests_are_400():
    async def scenario():
        service = make_service()
        await service.start()
        try:
            for payload in (
                {"kind": "nope"},
                {"kind": "topk", "k": 0},
                {"kind": "topk", "k": "five"},
                {"kind": "threshold"},
                {"kind": "topk", "deadline_seconds": -2},
            ):
                status, body = await service.handle_query(payload)
                assert status == 400, payload
                assert body["outcome"] == "invalid"
            status, body = await service.handle_insert({"fields": "nope"})
            assert status == 400
            status, body = await service.handle_insert(
                {"fields": {"name": "x"}, "weight": "inf"}
            )
            assert status == 400
        finally:
            await service.drain()

    run_async(scenario())


def test_rejected_insert_is_400_and_journals_nothing(tmp_path):
    # The handler and IncrementalTopK.add share one validator: a field
    # value that is not a string or not valid UTF-8 (a lone surrogate is
    # legal JSON; either would break every later checkpoint) or a NaN
    # weight (it would fail every later restore) is refused before
    # admission, with nothing journaled.
    async def scenario():
        engine = IncrementalTopK(
            name_levels(), durability=DurabilityPolicy(tmp_path, fsync=False)
        )
        for name, weight in SEED_ROWS:
            engine.add({"name": name}, weight)
        service = make_service(engine=engine)
        await service.start()
        try:
            for payload in (
                {"fields": {"name": "ann smith", "year": 2009}},
                json.loads('{"fields": {"name": "\\ud800"}}'),
                {"fields": {"name": "ann smith"}, "weight": "nan"},
            ):
                status, body = await service.handle_insert(payload)
                assert status == 400, payload
                assert body["outcome"] == "invalid"
            assert service.engine.entries_applied == len(SEED_ROWS)
            status, body = await service.handle_insert(
                {"fields": {"name": "ann smith"}, "weight": 4.0}
            )
            assert status == 200
        finally:
            report = await service.drain()
        assert report["checkpointed"]

    run_async(scenario())
    restored = IncrementalTopK.restore(tmp_path, name_levels())
    assert restored.entries_applied == len(SEED_ROWS) + 1
    assert restored.last_recovery.entries_replayed == 0
    restored.close()


def test_insert_advances_reader_generation():
    async def scenario():
        service = make_service()
        await service.start()
        try:
            before = service.publisher.current.generation
            status, body = await service.handle_insert(
                {"fields": {"name": "ann smith"}, "weight": 10.0}
            )
            assert status == 200 and body["outcome"] == "ok"
            assert body["record_id"] == len(SEED_ROWS)
            assert service.publisher.current.generation > before
            status, body = await service.handle_query({"kind": "topk", "k": 1})
            assert body["groups"][0]["label"] == "ann smith"
            assert body["groups"][0]["weight"] == pytest.approx(13.0)
        finally:
            await service.drain()

    run_async(scenario())


def test_quarantined_insert_resolves_explicitly():
    def poison_keys(record):
        if record["name"] == "POISON":
            raise ValueError("poisoned record")
        return record["name"].split()

    predicate = FunctionPredicate(
        evaluate_fn=lambda a, b: a["name"] == b["name"],
        keys_fn=poison_keys,
        name="poisonable",
        key_implies_match=True,
    )
    engine = IncrementalTopK([PredicateLevel(predicate, predicate)])
    engine.add({"name": "fine"}, 1.0)

    async def scenario():
        service = QueryService(
            engine, config=ServerConfig(label_field="name")
        )
        await service.start()
        try:
            # Keying raises on the marker: the engine quarantines the
            # record, and the insert resolves explicitly — not silently.
            status, body = await service.handle_insert(
                {"fields": {"name": "POISON"}}
            )
            assert status == 200
            assert body["quarantined"] is True
            assert body["outcome"] == "quarantined"
        finally:
            await service.drain()

    run_async(scenario())


def test_query_shed_when_queue_full():
    async def scenario():
        service = make_service(
            config=ServerConfig(
                label_field="name",
                admission=AdmissionConfig(max_pending_queries=1),
            )
        )
        await service.start()
        try:
            # Occupy the only query slot from the outside, then ask.
            assert service.admission.try_admit(CLASS_QUERY).admitted
            status, body = await service.handle_query({"kind": "topk"})
            assert status == 429
            assert body["reason"] == SHED_QUEUE_FULL
            assert body["retry_after_seconds"] > 0
            assert service.stats.requests == {"topk.shed": 1}
            service.admission.release(CLASS_QUERY)
            status, _ = await service.handle_query({"kind": "topk"})
            assert status == 200
        finally:
            await service.drain()

    run_async(scenario())


def test_deadline_expiry_returns_explicit_degraded_answer():
    async def scenario():
        # ~40 cross-pair verifications at 25ms each >> the 1ms budget.
        engine = seeded_engine(
            [(f"dup name{i}", 1.0) for i in range(10)],
            levels=name_levels(verify_delay=0.025),
        )
        service = QueryService(
            engine, config=ServerConfig(label_field="name")
        )
        await service.start()
        try:
            status, body = await service.handle_query(
                {"kind": "rank", "k": 3, "deadline_seconds": 0.001}
            )
            assert status == 200
            assert body["outcome"] == "degraded"
            assert body["degraded"] is True
            assert body["degraded_reason"]
            assert service.stats.requests == {"rank.degraded": 1}
        finally:
            await service.drain()

    run_async(scenario())


def test_writer_crash_is_supervised_and_recovers():
    async def scenario():
        service = make_service(
            config=ServerConfig(
                label_field="name",
                writer_retry=RetryPolicy(
                    max_attempts=3,
                    base_delay_seconds=0.01,
                    max_delay_seconds=0.02,
                ),
            )
        )
        await service.start()
        try:
            real_add = service.engine.add

            def broken_add(fields, weight=1.0):
                raise RuntimeError("injected writer fault")

            service.engine.add = broken_add
            status, body = await service.handle_insert(
                {"fields": {"name": "x y"}}
            )
            assert status == 500
            assert "injected writer fault" in body["error"]
            # Readers keep serving from the last good snapshot.
            status, _ = await service.handle_query({"kind": "topk"})
            assert status == 200
            # Heal the writer; the supervisor's restarted task applies.
            service.engine.add = real_add
            await asyncio.sleep(0.05)
            status, body = await service.handle_insert(
                {"fields": {"name": "ann smith"}}
            )
            assert status == 200 and body["outcome"] == "ok"
            assert service.stats.writer_restarts >= 1
            assert service.writer_available
        finally:
            await service.drain()

    run_async(scenario())


def test_writer_down_after_consecutive_failures():
    async def scenario():
        service = make_service(
            config=ServerConfig(
                label_field="name",
                writer_retry=RetryPolicy(
                    max_attempts=2,
                    base_delay_seconds=0.005,
                    max_delay_seconds=0.01,
                ),
            )
        )
        await service.start()
        try:
            service.engine.add = lambda *a, **k: (_ for _ in ()).throw(
                RuntimeError("still down")
            )
            failures = 0
            for _ in range(2):
                status, _ = await service.handle_insert(
                    {"fields": {"name": "x"}}
                )
                assert status == 500
                failures += 1
                await asyncio.sleep(0.03)
            assert not service.writer_available
            status, body = await service.handle_insert(
                {"fields": {"name": "x"}}
            )
            assert status == 503
            assert body["outcome"] == "unavailable"
            # Queries are unaffected by a dead writer.
            status, _ = await service.handle_query({"kind": "topk"})
            assert status == 200
            health = {c.name: c for c in service.health_checks()}
            assert not health["server.writer"].ok
        finally:
            await service.drain()

    run_async(scenario())


def test_drain_applies_accepted_inserts_then_stops():
    async def scenario():
        service = make_service()
        await service.start()
        inserts = [
            asyncio.create_task(
                service.handle_insert({"fields": {"name": f"n{i}"}})
            )
            for i in range(8)
        ]
        report = await service.drain()
        assert service.state == STATE_STOPPED
        assert report["abandoned_inserts"] == 0
        statuses = [status for status, _ in await asyncio.gather(*inserts)]
        # Every accepted insert resolved (200) or was refused up front
        # (503 once draining) — none hang, none vanish.
        assert set(statuses) <= {200, 503}
        assert service.stats.inserts_applied == statuses.count(200)
        # After drain everything is refused explicitly.
        status, body = await service.handle_query({"kind": "topk"})
        assert status == 503 and body["outcome"] == "unavailable"
        status, _ = await service.handle_insert({"fields": {"name": "z"}})
        assert status == 503
        # Idempotent: a second drain returns the same report.
        assert await service.drain() == report

    run_async(scenario())


def test_readiness_gates_on_state_and_durability(tmp_path):
    async def scenario():
        levels = name_levels()
        engine = IncrementalTopK(
            levels, durability=DurabilityPolicy(state_dir=tmp_path / "state")
        )
        engine.add({"name": "a b"}, 1.0)
        service = QueryService(engine, config=ServerConfig(label_field="name"))
        ready, body = service.readiness()
        assert not ready and "state=starting" in body["problems"]
        await service.start()
        try:
            ready, body = service.readiness()
            assert ready and body["problems"] == []
            # Journaling suspended (the ENOSPC latch) clears readiness:
            # accepting writes that cannot be made durable is a silent-
            # loss risk, exactly what the probe must surface.
            engine._durable._suspend("injected ENOSPC")
            ready, body = service.readiness()
            assert not ready
            assert any("durability" in p for p in body["problems"])
        finally:
            await service.drain()

    run_async(scenario())


# -- HTTP layer -------------------------------------------------------


def test_http_end_to_end():
    async def scenario():
        metrics = MetricsRegistry()
        engine = seeded_engine(SEED_ROWS)
        service = QueryService(
            engine,
            config=ServerConfig(label_field="name"),
            metrics=metrics,
        )
        server = HttpServer(service, metrics=metrics)
        await server.start()
        await service.start()
        async with ServiceClient("127.0.0.1", server.port) as client:
            status, body = await client.get("/healthz")
            assert status == 200 and body["live"] is True
            status, body = await client.get("/readyz")
            assert status == 200 and body["ready"] is True
            status, body = await client.get("/health")
            assert status == 200
            assert {c["name"] for c in body["checks"]} >= {
                "server.state",
                "server.writer",
            }
            status, body = await client.query(kind="topk", k=2)
            assert status == 200 and len(body["groups"]) == 2
            status, body = await client.insert({"name": "new guy"}, 2.5)
            assert status == 200 and body["record_id"] == len(SEED_ROWS)
            status, body = await client.get("/stats")
            assert status == 200
            assert body["requests"]["insert.ok"] == 1
            assert body["state"] == STATE_READY
            status, _, raw = await client.request("GET", "/metrics")
            assert status == 200
            assert "repro_requests_total" in raw["text"]
            assert "repro_health_ready" in raw["text"]
            status, body = await client.get("/nope")
            assert status == 404
            status, _, body = await client.request("PUT", "/query")
            assert status == 405
            status, body = await client.drain()
            assert status == 200 and body["drained"] is True
            status, body = await client.get("/readyz")
            assert status == 503
        await server.close()

    run_async(scenario())


def test_http_bad_json_and_oversized_body():
    async def scenario():
        service = make_service()
        server = HttpServer(service)
        await server.start()
        await service.start()
        try:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(
                b"POST /query HTTP/1.1\r\nContent-Length: 9\r\n\r\nnot json!"
            )
            await writer.drain()
            line = await reader.readline()
            assert b"400" in line
            writer.close()

            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(
                b"POST /insert HTTP/1.1\r\nContent-Length: 2097152\r\n\r\n"
            )
            await writer.drain()
            line = await reader.readline()
            assert b"413" in line
            writer.close()
        finally:
            await service.drain()
            await server.close()

    run_async(scenario())


def test_http_shed_carries_retry_after_header():
    async def scenario():
        service = make_service(
            config=ServerConfig(
                label_field="name",
                admission=AdmissionConfig(
                    max_pending_queries=1, retry_after_seconds=0.25
                ),
            )
        )
        server = HttpServer(service)
        await server.start()
        await service.start()
        try:
            service.admission.try_admit(CLASS_QUERY)
            async with ServiceClient("127.0.0.1", server.port) as client:
                status, headers, body = await client.request(
                    "POST", "/query", {"kind": "topk"}
                )
            assert status == 429
            assert float(headers["retry-after"]) == pytest.approx(0.25)
            assert body["reason"] == SHED_QUEUE_FULL
            service.admission.release(CLASS_QUERY)
        finally:
            await service.drain()
            await server.close()

    run_async(scenario())


# -- subprocess lifecycle (the serve verb) ----------------------------


def _http_json(url: str, payload: dict | None = None, timeout: float = 10.0):
    if payload is None:
        request = urllib.request.Request(url)
    else:
        request = urllib.request.Request(
            url,
            data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"},
        )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read() or b"{}")
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read() or b"{}")


@pytest.mark.timeout(120)
def test_serve_subprocess_sigterm_drain_and_audit_clean_restart(tmp_path):
    csv_path = tmp_path / "seed.csv"
    csv_path.write_text(
        "name\n" + "\n".join(["ann smith", "ann smith", "bob jones"]) + "\n"
    )
    state_dir = tmp_path / "state"
    env = dict(
        __import__("os").environ,
        # The testing hook: seeded transient WAL faults inside the
        # subprocess — retried by the storage layer, invisible to
        # clients, and the drain must still checkpoint cleanly.
        REPRO_FAULT_PLANE=json.dumps(
            {"seed": 11, "wal_append_rate": 0.05}
        ),
    )
    env.setdefault("PYTHONPATH", "src")
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--field",
            "name",
            "--input",
            str(csv_path),
            "--state-dir",
            str(state_dir),
            "--port",
            "0",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        announce = process.stdout.readline().strip()
        assert announce.startswith("serving on ")
        port = int(announce.rsplit(":", 1)[1])
        base = f"http://127.0.0.1:{port}"
        deadline = time.time() + 60
        status = None
        while time.time() < deadline:
            try:
                status, _ = _http_json(base + "/readyz")
            except OSError:
                status = None
            if status == 200:
                break
            time.sleep(0.1)
        assert status == 200, "server never became ready"
        status, body = _http_json(
            base + "/query", {"kind": "topk", "k": 2}
        )
        assert status == 200 and body["outcome"] in ("ok", "degraded")
        status, body = _http_json(
            base + "/insert", {"fields": {"name": "cara lee"}, "weight": 2.0}
        )
        assert status == 200 and body["quarantined"] is False
        process.send_signal(signal.SIGTERM)
        _, stderr = process.communicate(timeout=60)
        assert process.returncode == 0, stderr
        assert "drained" in stderr
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate(timeout=30)
    # The drained directory restores bit-identically and audit-clean.
    engine = IncrementalTopK.restore(state_dir, name_levels())
    try:
        assert engine.entries_applied == 4
        assert engine.audit(strict=False) == []
        replay = seeded_engine(
            [("ann smith", 1.0), ("ann smith", 1.0), ("bob jones", 1.0),
             ("cara lee", 2.0)]
        )
        assert group_fingerprint(engine.query(3).groups) == group_fingerprint(
            replay.query(3).groups
        )
    finally:
        engine.close()


# -- CLI health --json ------------------------------------------------


def test_cli_health_json(tmp_path, capsys):
    state_dir = tmp_path / "state"
    engine = IncrementalTopK(
        [
            PredicateLevel(
                exact_name_predicate(), shared_word_predicate()
            )
        ],
        durability=DurabilityPolicy(state_dir=state_dir),
    )
    engine.add({"name": "a b"}, 1.0)
    engine.close()
    code = cli_main(
        [
            "health",
            "--state-dir",
            str(state_dir),
            "--field",
            "name",
            "--audit",
            "--json",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["live"] is True and payload["ready"] is True
    names = {check["name"] for check in payload["checks"]}
    assert "durability.journaling" in names
    assert "state.audit" in names


# -- idempotent close regressions -------------------------------------


def test_engine_close_is_idempotent(tmp_path):
    engine = IncrementalTopK(
        name_levels(), durability=DurabilityPolicy(state_dir=tmp_path / "s")
    )
    engine.add({"name": "a"}, 1.0)
    engine.close()
    engine.close()  # second close must be a no-op, not an error
    # And a non-durable engine tolerates close() too.
    plain = IncrementalTopK(name_levels())
    plain.close()
    plain.close()


def test_durable_store_close_is_idempotent(tmp_path):
    store = DurableStateStore(DurabilityPolicy(state_dir=tmp_path / "s"))
    store.open_fresh()
    store.append({"fields": {"name": "a"}, "weight": 1.0})
    store.close()
    store.close()
    # Close after the handle was externally wedged is still safe.
    other = DurableStateStore(DurabilityPolicy(state_dir=tmp_path / "t"))
    other.open_fresh()
    other.append({"fields": {"name": "b"}, "weight": 1.0})
    other._segment_handle.close()
    other.close()
    other.close()


# -- interval answer semantics ----------------------------------------


def interval_engine(verify_delay: float = 0.0) -> IncrementalTopK:
    """A scorer-equipped engine over noisy duplicate names."""
    from repro.cli import generic_scorer

    engine = IncrementalTopK(
        name_levels(verify_delay=verify_delay),
        scorer=generic_scorer("name", -3.0),
    )
    for name, weight in [
        ("ann smith", 1.0),
        ("ann  smith", 2.0),
        ("ann smyth", 1.0),
        ("bob jones", 5.0),
        ("bob jonez", 1.0),
        ("cara lee", 3.0),
    ]:
        engine.add({"name": name}, weight)
    return engine


def test_interval_query_round_trip():
    async def scenario():
        service = QueryService(
            interval_engine(), config=ServerConfig(label_field="name")
        )
        await service.start()
        try:
            status, body = await service.handle_query(
                {"kind": "interval", "k": 2, "worlds": 8}
            )
            assert status == 200 and body["outcome"] == "ok"
            assert body["kind"] == "interval"
            assert body["worlds_enumerated"] >= 1
            assert body["entities"]
            for entity in body["entities"]:
                assert entity["count_lo"] <= entity["count_hi"]
                assert (
                    entity["count_lo"]
                    <= entity["expected_count"] + 1e-9
                )
                assert entity["expected_count"] <= entity["count_hi"] + 1e-9
                assert 0.0 <= entity["membership_probability"] <= 1.0 + 1e-9
                assert entity["label"]
            assert service.stats.requests == {"interval.ok": 1}
        finally:
            await service.drain()

    run_async(scenario())


def test_every_served_verb_is_counted():
    async def scenario():
        metrics = MetricsRegistry()
        service = QueryService(
            interval_engine(),
            config=ServerConfig(label_field="name"),
            metrics=metrics,
        )
        await service.start()
        try:
            neighbor_queries = "repro_pipeline_neighbor_queries_total"
            before = metrics.value(neighbor_queries)
            status, _ = await service.handle_query({"kind": "topk", "k": 2})
            assert status == 200
            assert metrics.value(neighbor_queries) > before
            for payload in (
                {"kind": "rank", "k": 2},
                {"kind": "threshold", "min_weight": 3.0},
                {"kind": "interval", "k": 2, "worlds": 4},
            ):
                status, _ = await service.handle_query(payload)
                assert status == 200
            # Served top-K answers count under the engine's "stream".
            for kind in ("stream", "rank", "threshold", "interval"):
                assert metrics.value("repro_queries_total", kind=kind) == 1.0
        finally:
            await service.drain()

    run_async(scenario())


def test_interval_query_without_scorer_is_400():
    async def scenario():
        service = make_service()  # seeded_engine carries no scorer
        await service.start()
        try:
            status, body = await service.handle_query(
                {"kind": "interval", "k": 2}
            )
            assert status == 400
            assert body["outcome"] == "invalid"
            assert "scorer" in body["error"]
        finally:
            await service.drain()

    run_async(scenario())


def test_interval_invalid_params_are_400():
    async def scenario():
        service = QueryService(
            interval_engine(), config=ServerConfig(label_field="name")
        )
        await service.start()
        try:
            for payload in (
                {"kind": "interval", "k": 2, "worlds": 0},
                {"kind": "interval", "k": 2, "worlds": True},
                {"kind": "interval", "k": 2, "worlds": "many"},
                {"kind": "interval", "k": 2, "min_probability": 1.5},
                {"kind": "interval", "k": 2, "min_probability": "nan"},
            ):
                status, body = await service.handle_query(payload)
                assert status == 400, payload
                assert body["outcome"] == "invalid"
        finally:
            await service.drain()

    run_async(scenario())


def test_interval_cost_scales_with_worlds_and_sheds():
    config = AdmissionConfig()
    base = estimate_query_cost("interval", 1_000, config, worlds=1)
    # Heavier than a plain count (the world-scoring stage), and monotone
    # in the requested world count.
    assert base > estimate_query_cost("topk", 1_000, config)
    assert estimate_query_cost("interval", 1_000, config, worlds=64) > base

    async def scenario():
        service = QueryService(
            interval_engine(), config=ServerConfig(label_field="name")
        )
        await service.start()
        try:
            status, body = await service.handle_query(
                {"kind": "interval", "k": 2, "worlds": 10**6}
            )
            assert status == 429
            assert body["reason"] == SHED_COST
            assert service.stats.requests == {"interval.shed": 1}
            # A sane world count on the same service is still served.
            status, _ = await service.handle_query(
                {"kind": "interval", "k": 2, "worlds": 8}
            )
            assert status == 200
        finally:
            await service.drain()

    run_async(scenario())


def test_interval_deadline_expiry_returns_widest_known_interval():
    async def scenario():
        # Slow verifications blow the 1ms budget during pruning: the
        # answer must still arrive — flagged degraded, intervals spanning
        # from each group's certified weight up to the retained total.
        service = QueryService(
            interval_engine(verify_delay=0.025),
            config=ServerConfig(label_field="name"),
        )
        await service.start()
        try:
            status, body = await service.handle_query(
                {"kind": "interval", "k": 2, "deadline_seconds": 0.001}
            )
            assert status == 200
            assert body["outcome"] == "degraded"
            assert body["degraded"] is True
            assert body["degraded_reason"]
            assert body["worlds_enumerated"] == 0
            assert body["entities"]
            highest = max(e["count_hi"] for e in body["entities"])
            for entity in body["entities"]:
                assert entity["count_lo"] <= entity["count_hi"]
                # Every interval is capped by the same retained total.
                assert entity["count_hi"] == pytest.approx(highest)
                assert entity["membership_probability"] == 0.0
            assert service.stats.requests == {"interval.degraded": 1}
        finally:
            await service.drain()

    run_async(scenario())


def test_interval_over_http():
    async def scenario():
        service = QueryService(
            interval_engine(), config=ServerConfig(label_field="name")
        )
        server = HttpServer(service)
        await server.start()
        await service.start()
        try:
            async with ServiceClient("127.0.0.1", server.port) as client:
                status, _, body = await client.request(
                    "POST", "/query",
                    {"kind": "interval", "k": 2, "worlds": 8},
                )
            assert status == 200
            assert body["kind"] == "interval"
            assert body["entities"]
        finally:
            await service.drain()
            await server.close()

    run_async(scenario())
