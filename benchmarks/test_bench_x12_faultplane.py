"""X12: fault-plane clean-path overhead (docs/robustness.md).

Times the durable-stream workload (journal every citation record, then
answer the top-K count query) with no fault hook, with a zero-rate
FaultPlane armed, and with the plane armed plus metrics attached, the
three modes interleaved in each of five repeats (order reversed every
other repeat), best of five each.  The zero-rate armed mode must stay
within 5% of the unhooked path, the plane must inject nothing, and
answers must be bit-identical in every mode — the robustness machinery
is free until a fault actually fires.
"""

from repro.experiments import (
    fault_plane_overhead_checks,
    format_table,
    run_fault_plane_overhead,
)


def test_x12_fault_plane_overhead(benchmark, record_table):
    rows = benchmark.pedantic(
        lambda: run_fault_plane_overhead(),
        rounds=1,
        iterations=1,
    )
    record_table(
        format_table(rows, title="X12 — fault-plane overhead (citations)")
    )
    checks = fault_plane_overhead_checks(rows)
    assert all(checks.values()), (checks, rows)
