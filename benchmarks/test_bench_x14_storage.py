"""X14: cold start from a sidecar checkpoint vs inline JSON (docs/storage.md).

Three tiers of the same measurement
(:func:`repro.experiments.run_storage_scale` — checkpoint one corpus in
both layouts, cold-start each in a fresh subprocess, timing restore +
audit (*ready*) and ``current_store()``):

* **Smoke** (``REPRO_BENCH_SMOKE=1``, CI crash-suite job): 2k records;
  asserts only the contract shape — zero WAL replay, clean audit,
  identical restored state — since timing at this size is noise.
* **Default** (always runs): 10k records; same contract at a size
  where restore cost is measurable but timing still too noisy to rank.
* **Large** (``REPRO_BENCH_LARGE=1``): 100k and 1M records; asserts
  the headline claim — the sidecar's time to ready, time to
  ``current_store()`` *and* peak RSS all strictly below the
  inline-JSON baseline's.
"""

import os

import pytest

from repro.experiments import (
    format_table,
    run_storage_scale,
    storage_report_rows,
)


def _assert_contract(report):
    for layout, stats in report["results"].items():
        assert stats["entries_replayed"] == 0, (layout, stats)
        assert stats["audit_problems"] == 0, (layout, stats)
        assert stats["entries"] == report["n_records"]


@pytest.mark.skipif(
    os.environ.get("REPRO_BENCH_SMOKE", "") != "1",
    reason="bench-smoke guard; enable with REPRO_BENCH_SMOKE=1",
)
@pytest.mark.timeout(600)
def test_x14_smoke_cold_start_contract(record_table, tmp_path):
    report = run_storage_scale(tmp_path, 2_000, seed=14)
    record_table(
        format_table(
            storage_report_rows(report),
            title="X14 — cold start, smoke tier (2k records)",
        )
    )
    _assert_contract(report)


@pytest.mark.timeout(1200)
def test_x14_cold_start_10k(benchmark, record_table, tmp_path):
    report = benchmark.pedantic(
        lambda: run_storage_scale(tmp_path, 10_000, seed=14),
        rounds=1,
        iterations=1,
    )
    record_table(
        format_table(
            storage_report_rows(report),
            title="X14 — cold start, 10k records",
        )
    )
    _assert_contract(report)
    # Both artifacts exist and hold the full corpus; no size assertion —
    # the sidecar also persists the blocking-key index (which the JSON
    # checkpoint omits and rebuilds on restore), so relative size is a
    # design trade, not a contract.
    for stats in report["results"].values():
        assert stats["checkpoint_bytes"] > 0


@pytest.mark.skipif(
    os.environ.get("REPRO_BENCH_LARGE", "") != "1",
    reason="100k/1M cold starts; enable with REPRO_BENCH_LARGE=1",
)
@pytest.mark.timeout(3600)
@pytest.mark.parametrize("n_records", [100_000, 1_000_000])
def test_x14_large_sidecar_beats_json(record_table, tmp_path, n_records):
    report = run_storage_scale(tmp_path, n_records, seed=14)
    record_table(
        format_table(
            storage_report_rows(report),
            title=f"X14 — cold start, {n_records:,} records "
            "(REPRO_BENCH_LARGE run)",
        )
    )
    _assert_contract(report)
    sidecar, baseline = report["results"]["sidecar"], report["results"]["json"]
    for key in ("ready_s", "store_s"):
        assert sidecar[key] < baseline[key], (
            f"sidecar cold start slower than inline JSON on {key}: "
            f"{sidecar[key]:.3f}s vs {baseline[key]:.3f}s"
        )
    assert sidecar["maxrss_kb"] < baseline["maxrss_kb"], (
        "sidecar cold start peaked above inline JSON: "
        f"{sidecar['maxrss_kb']}kB vs {baseline['maxrss_kb']}kB"
    )
