#!/usr/bin/env python
"""Smoke run of the study benchmark (``perfbench/run.py``).

Usage::

    python scripts/perf_smoke.py

Runs each benchmark workload (``warm``, ``cold``) once for one second
with the layer breakdown on, as
``perfbench/run.py --workload W --seed 1 --seconds 1 --trace 1`` does,
and fails unless the run reports ``correct: true`` and no failed
operations.  That catches answer drift between set-up and operations,
and a renamed callable that ``perfbench/layers.py`` hooks (a traced run
with a missing hook is incorrect).  The timings are printed, not gated:
one second on a CI host measures nothing.  ``make perf-smoke`` wires
this into CI.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOADS = ("warm", "cold")


def run_workload(main, workload: str) -> dict:
    """One benchmark run; its result line, or a failed stand-in."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([
            "--workload", workload, "--seed", "1", "--seconds", "1",
            "--trace", "1",
        ])
    lines = out.getvalue().strip().splitlines()
    if code != 0 or not lines:
        return {"correct": False, "exit": code}
    return json.loads(lines[-1])


def main() -> int:
    sys.path.insert(0, str(PERFBENCH))
    from run import main as perfbench_main

    failed = []
    for workload in WORKLOADS:
        result = run_workload(perfbench_main, workload)
        layers = {
            name: round(metric["value"], 3)
            for name, metric in sorted(result.get("metrics", {}).items())
            if not name.startswith("setup_")
        }
        print(f"{workload}: {json.dumps(layers)}")
        if not (
            result.get("correct")
            and result.get("attempted", 0) > 0
            and result.get("failed") == 0
        ):
            print(
                f"FAIL: {workload}: correct={result.get('correct')} "
                f"attempted={result.get('attempted')} "
                f"failed={result.get('failed')}",
                file=sys.stderr,
            )
            failed.append(workload)
    if failed:
        return 1
    print(f"OK: {', '.join(WORKLOADS)} correct with no failed operations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
