#!/usr/bin/env python3
"""gripwatch benchmark: the online detector and the offline study.

Usage (from the repository root):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: detect_c10, detect_live, study_tables (see perfbench/README.md).
With --trace 0 the end-to-end metrics are measured with no instrumentation;
with --trace 1 the workload also runs once with timing wrappers on every
layer's entry points and the per-layer metrics are reported instead.

Every metric is printed as "name value unit", then the last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}. The exit
code is 1 when a reference check fails, 2 when the source tree is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

WORK_DIR = Path(".perfbench_work")


def git_revision() -> str:
    """Commit of the checkout, read from .git without running git."""
    head = Path(".git/HEAD")
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = Path(".git") / ref[5:]
    return target.read_text().strip() if target.is_file() else ref


def environment() -> dict:
    import numpy

    return {
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["detect_c10", "detect_live", "study_tables"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not Path("src/gripwatch/__init__.py").is_file():
        print("error: run from the repository root; src/gripwatch not found", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path("src").resolve()))
    sys.setswitchinterval(0.0005)  # let the live writer thread wake on time

    import detect_bench
    import study_bench

    workloads = {
        "detect_c10": detect_bench.detect_c10,
        "detect_live": detect_bench.detect_live,
        "study_tables": study_bench.study_tables,
    }
    print("env:", json.dumps(environment()), flush=True)
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    WORK_DIR.mkdir()
    try:
        outcome = workloads[args.workload](args.seed, args.seconds, bool(args.trace), WORK_DIR.resolve())
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)

    for line in outcome.info:
        print(line)
    for problem in outcome.problems:
        print("CHECK FAILED:", problem)
    if args.trace:
        metrics = outcome.per_layer
        if outcome.absent:
            print("absent (entry point gone):", ", ".join(outcome.absent))
    else:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in outcome.end_to_end.items()}
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    print(
        json.dumps(
            {
                "correct": outcome.correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
