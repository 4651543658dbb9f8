"""Per-layer diff of traced runs from two commits.

    python3 topkbench/diff.py BASE_DIR NEW_DIR

Each directory holds what traced runs wrote under
``.topkbench_traces`` (``<workload>/seed-<n>.json``).  For every
workload in both, prints each per-layer metric's median over the seeds
side by side, and flags a count that differs on any seed both ran: a
count must repeat exactly, so a differing count means the change moved
work, not noise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from common import median
from report import PER_LAYER, is_count


def load(directory: Path) -> dict[str, dict[int, dict]]:
    """workload -> seed -> per-layer metric values."""
    runs: dict[str, dict[int, dict]] = {}
    for path in sorted(directory.glob("*/seed-*.json")):
        trace = json.loads(path.read_text())
        runs.setdefault(trace["workload"], {})[trace["seed"]] = {
            name: entry["value"] for name, entry in trace["metrics"].items()
        }
    return runs


def diff(base: dict, new: dict) -> list[str]:
    lines = []
    for workload in sorted(set(base) & set(new)):
        seeds = sorted(set(base[workload]) & set(new[workload]))
        lines.append(
            f"== {workload}: {len(base[workload])} base runs, "
            f"{len(new[workload])} new runs, {len(seeds)} shared seeds"
        )
        lines.append(f"{'metric':28} {'base':>14} {'new':>14} {'change':>9}")
        for name, unit, _ in PER_LAYER:
            old_values = [run[name] for run in base[workload].values()]
            new_values = [run[name] for run in new[workload].values()]
            if not old_values or not new_values:
                continue
            old, now = median(old_values), median(new_values)
            change = f"{(now - old) / old:+.1%}" if old else "-"
            flag = ""
            if is_count(name) and any(
                base[workload][s][name] != new[workload][s][name]
                for s in seeds
            ):
                flag = "  COUNT DIFFERS"
            lines.append(
                f"{name:28} {old:14.6g} {now:14.6g} {change:>9} {unit}{flag}"
            )
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args()
    base, new = load(args.base), load(args.new)
    if not set(base) & set(new):
        print("no workload traced in both directories", file=sys.stderr)
        return 2
    print("\n".join(diff(base, new)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
