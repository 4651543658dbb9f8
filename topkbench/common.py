"""Shared plumbing: paths, the seeded plan, inputs, statistics, probes.

Every input a run uses is a function of ``(workload, seed)`` and the
run length; nothing reads the clock to decide how much work to do.
"""

from __future__ import annotations

import math
import os
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout (listed in the root .gitignore).
WORK_ROOT = ROOT / ".topkbench_work"
#: Where traced runs write their spans and per-layer numbers.
TRACE_ROOT = ROOT / ".topkbench_traces"

WORKLOADS = ("batch-citations", "serve-citations")

#: Seconds one plan cycle took on the reference host (2 vCPUs) when
#: the benchmark was defined.  A run executes ``round(seconds / cycle)``
#: cycles: the work is fixed by the plan, never cut short by a clock, so
#: a slower host or commit takes longer instead of doing less.
NOMINAL_CYCLE_SECONDS = {
    "batch-citations": 5.0,
    "serve-citations": 2.8,
}


def ensure_src() -> None:
    """Put the checkout's ``src`` first on ``sys.path``."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def source_present() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def hash_seed(seed: int) -> str:
    """PYTHONHASHSEED for every interpreter of a run with *seed*."""
    return str(seed % 4_294_967_296)


def child_env(seed: int) -> dict[str, str]:
    """Environment for an interpreter the benchmark starts."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed(seed)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    # The benchmark measures the serial engine on a 2-vCPU host.
    env["REPRO_WORKERS"] = "1"
    return env


def cycles_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_CYCLE_SECONDS[workload]))


def scaled(n: int, scale: float) -> int:
    """A corpus size at *scale* (1.0 in every measured run)."""
    return max(50, round(n * scale))


def sub_seed(seed: int, stream: int) -> int:
    """Independent generator seed number *stream* of a run's *seed*."""
    return seed * 101 + stream


# -- statistics ------------------------------------------------------------


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated *q* quantile (0 <= q <= 1) of *values*."""
    if not values:
        raise ValueError("quantile of no values")
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: list[float]) -> float:
    return quantile(values, 0.5)


def rel_close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


# -- process probes ----------------------------------------------------------


def peak_rss_mb() -> float:
    """This process's peak resident set (VmHWM) in MiB."""
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def host_probe(repeats: int = 5) -> float:
    """Median seconds of a fixed pure-Python loop.

    A diagnostic printed beside each run so a reader can tell a slow
    host from a slow commit.  It never enters a metric.
    """
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        samples.append(time.perf_counter() - started)
    return median(samples)


# -- citation inputs (batch and serve) ---------------------------------------


def citation_levels_for(store):
    """IDF tables plus the Section 6.1.1 predicate levels over *store*."""
    from repro.datasets import author_idf, author_string_idf, suggest_min_idf
    from repro.predicates import citation_levels

    idf = author_idf(store)
    return citation_levels(
        idf, suggest_min_idf(idf), anchor_idf=author_string_idf(store)
    )
