"""Run one benchmark workload and print its metrics as one JSON line.

    python3 topkbench/run.py --workload batch-citations --seed 0 \\
        --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
same plan untraced and then traced, prints the per-layer metrics, and
writes the spans to ``.topkbench_traces/<workload>/seed-<n>.json``.
Progress and diagnostics go to stderr; the last stdout line is the
result.  See ``topkbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

from common import (
    BENCH_DIR,
    TRACE_ROOT,
    WORK_ROOT,
    WORKLOADS,
    child_env,
    cycles_for,
    ensure_src,
    hash_seed,
    host_probe,
    median,
    peak_rss_mb,
    quantile,
    source_present,
)

#: Fresh interpreters whose set-up times give ``setup_s`` (the median);
#: half run before the timed loop and half after it, so the median spans
#: more of the host's slow swings than back-to-back probes would.
SETUP_PROBES = 4
PROBE_TIMEOUT_SECONDS = 150

MODULES = {
    "batch-citations": "batch",
    "serve-citations": "serve",
}


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Toy-scale corpora for the self-test; measured runs use 1.0.
    parser.add_argument("--scale", type=float, default=1.0,
                        help=argparse.SUPPRESS)
    return parser.parse_args()


def log(message: str) -> None:
    print(f"[topkbench] {message}", file=sys.stderr, flush=True)


def setup_probes(args, work_dir, count) -> list[dict]:
    """Set up *count* times, each in a fresh interpreter."""
    probes = []
    for _ in range(count):
        completed = subprocess.run(
            [
                sys.executable, str(BENCH_DIR / "probe.py"),
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--scale", str(args.scale),
                "--work-dir", str(work_dir),
            ],
            env=child_env(args.seed),
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_SECONDS,
            check=False,
        )
        if completed.returncode != 0:
            raise RuntimeError(
                f"set-up probe failed ({completed.returncode}):\n"
                f"{completed.stderr}"
            )
        probes.append(json.loads(completed.stdout.strip().splitlines()[-1]))
    return probes


def failures(out) -> int:
    return sum(1 for op in out.ops if op.failed) + bool(out.first_problems)


def report_latencies(out, label: str) -> None:
    for cls in sorted({op.cls for op in out.ops}):
        samples = [op.seconds for op in out.ops if op.cls == cls]
        log(
            f"{label} {cls}: n={len(samples)} min {min(samples):.4f} "
            f"p25 {quantile(samples, 0.25):.4f} p50 {median(samples):.4f} s"
        )
    log(f"{label} set-up {out.setup_seconds:.3f} s")


def report_problems(out, label: str) -> None:
    for op in out.ops:
        if op.problems:
            log(f"{label} {op.cls} failed its check: {op.problems[:3]}")
    if out.first_problems:
        log(f"{label} first answer failed its check: {out.first_problems[:3]}")


def untraced(args, module, inputs, cycles, work_dir) -> dict:
    import report

    probes = setup_probes(args, work_dir, SETUP_PROBES // 2)
    out = module.execute(inputs, cycles)
    rss = peak_rss_mb()
    probes += setup_probes(args, work_dir, SETUP_PROBES - SETUP_PROBES // 2)
    setup_seconds = [probe["setup_s"] for probe in probes]
    log(f"setup probes: {', '.join(f'{s:.3f}' for s in setup_seconds)} s")
    report_latencies(out, "untraced")
    module.check(inputs, out)
    report_problems(out, "untraced")
    expected = json.loads(json.dumps(out.first_answer))
    probe_failures = 0
    for probe in probes:
        if probe["problems"] or probe["answer"] != expected:
            probe_failures += 1
            log("a set-up probe's first answer differs from the run's")
    metrics = report.end_to_end(setup_seconds, rss)
    return {
        "correct": failures(out) + probe_failures == 0,
        "attempted": len(out.ops) + 1 + len(probes),
        "failed": failures(out) + probe_failures,
        "metrics": metrics,
    }


def traced(args, module, inputs, cycles) -> dict:
    import report
    from instrument import instrumented
    from tracing import SpanLog, StartTracer

    baseline = module.execute(inputs, cycles)
    report_latencies(baseline, "untraced pass")
    module.check(inputs, baseline)
    report_problems(baseline, "untraced pass")
    span_log = SpanLog()
    tracer = StartTracer()
    with instrumented(span_log):
        out = module.execute(inputs, cycles, span_log, tracer)
    module.check(inputs, out)
    report_problems(out, "traced pass")
    metrics, breakdown = report.per_layer(module, baseline, out, span_log)
    trace_dir = TRACE_ROOT / args.workload
    trace_dir.mkdir(parents=True, exist_ok=True)
    with open(trace_dir / f"seed-{args.seed}.json", "w") as handle:
        json.dump(
            {
                "workload": args.workload,
                "seed": args.seed,
                "seconds": args.seconds,
                "metrics": metrics,
                "classes": breakdown,
                "spans": span_log.spans,
            },
            handle,
        )
    for cls, row in breakdown.items():
        top = ", ".join(
            f"{layer} {seconds:.4f}"
            for layer, seconds in list(row["layers"].items())[:4]
        )
        log(f"{cls}: n={row['n']} wall {row['wall']:.4f} s; {top}")
    failed = failures(baseline) + failures(out)
    return {
        "correct": failed == 0,
        "attempted": len(baseline.ops) + len(out.ops) + 2,
        "failed": failed,
        "metrics": metrics,
    }


def main() -> int:
    args = parse_args()
    if not source_present():
        print(
            "topkbench: no src/repro beside topkbench/; run from a checkout "
            "of the repository",
            file=sys.stderr,
        )
        return 2
    env = child_env(args.seed)
    if (
        os.environ.get("PYTHONHASHSEED") != hash_seed(args.seed)
        or os.environ.get("REPRO_WORKERS") != "1"
    ):
        # Set and dict order must be a function of the seed: restart
        # this interpreter with the seed's hash seed pinned.
        sys.stdout.flush()
        os.execve(
            sys.executable,
            [sys.executable, os.path.abspath(__file__), *sys.argv[1:]],
            env,
        )
    ensure_src()
    module = importlib.import_module(MODULES[args.workload])
    cycles = cycles_for(args.workload, args.seconds)
    WORK_ROOT.mkdir(parents=True, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    started = time.perf_counter()
    try:
        log(f"host probe {host_probe():.4f} s (diagnostic only)")
        inputs = module.prepare(args.seed, cycles, work_dir, args.scale)
        log(f"prepared {cycles} cycles in {time.perf_counter() - started:.1f} s")
        if args.trace:
            result = traced(args, module, inputs, cycles)
        else:
            result = untraced(args, module, inputs, cycles, work_dir)
        log(f"host probe {host_probe():.4f} s (diagnostic only)")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    log(f"run took {time.perf_counter() - started:.1f} s")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
