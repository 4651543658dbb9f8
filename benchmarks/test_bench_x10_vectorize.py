"""X10: vectorized batch path vs scalar reference (docs/performance.md).

Runs the fig2-scale citations pruning query twice — forced-scalar
(``REPRO_VECTORIZE=0``, plain ``evaluate`` per pair) and vectorized —
recording wall-clock seconds, the vectorized run's speedup, and whether
its group partition is bit-identical to the scalar one (it must always
be).  The batch kernels must not lose to the scalar path on any
hardware, so the speedup floor binds everywhere.

This is also the first step of CI's bench-smoke job, run at
``REPRO_SCALE=1500``.
"""

from repro.experiments import format_table, run_vectorize_speedup


def test_x10_vectorized_speedup(benchmark, record_table):
    rows = benchmark.pedantic(run_vectorize_speedup, rounds=1, iterations=1)
    record_table(
        format_table(rows, title="X10 — scalar vs vectorized (citations)")
    )
    assert all(row["identical"] for row in rows), rows
    vectorized = next(row for row in rows if row["mode"] == "vectorized")
    assert vectorized["speedup"] >= 1.0, rows
