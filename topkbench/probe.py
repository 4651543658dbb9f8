"""One cold set-up in a fresh interpreter (started by ``run.py``).

Builds the workload's inputs untimed, then times from the first
``repro`` call of the set-up to the first answer, and prints
``{"setup_s": ..., "answer": ..., "problems": [...]}``.
"""

from __future__ import annotations

import argparse
import importlib
import json
from pathlib import Path

from common import cycles_for, ensure_src
from run import MODULES


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--work-dir", required=True)
    args = parser.parse_args()
    ensure_src()
    module = importlib.import_module(MODULES[args.workload])
    cycles = cycles_for(args.workload, args.seconds)
    inputs = module.prepare(
        args.seed, cycles, Path(args.work_dir), args.scale, setup_only=True
    )
    out = module.execute(inputs, 0)
    print(
        json.dumps(
            {
                "setup_s": out.setup_seconds,
                "answer": out.first_answer,
                "problems": out.first_problems,
            }
        )
    )


if __name__ == "__main__":
    main()
