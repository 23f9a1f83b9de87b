#!/usr/bin/env python
"""End-to-end smoke test of the continuous-profiling pipeline.

Usage::

    python scripts/profile_smoke.py [out_dir]

Exercises the whole profiling story in one bounded run:

* ``repro run --workers 4 --profile`` on the medium preset, cold and
  warm against one cache — the cold trace-event export must carry at
  least two distinct pid tracks with worker ``stage:*`` spans (the
  cross-process span stitching, visible), both speedscope exports must
  validate and decode, and ``repro obs diff`` between the two ledger
  records must report **zero unexplained drift** (``profile.*`` deltas
  classify as *timing*, cache deltas as *cache*);
* the cold run's report folds into a fresh ledger record via
  ``scripts/bench_to_ledger.py --profile-report``, and
  ``repro obs check`` gates the resulting
  ``profile.self_s{func=_total,stage=...}`` gauges against the
  committed envelope in ``benchmarks/budgets_profile.json`` — and must
  fail against an impossible one (the gate actually gates);
* ``repro obs profile`` renders the cold profile, rewritten as
  ``profile.json``.

Artifacts (speedscope profiles, reports, trace events, ledger) land in
``out_dir`` (default ``build/profile-smoke``) so CI can upload them.
``make profile-smoke`` wires this into CI.
"""

import json
import os
import sys

import bench_to_ledger

from repro.cli import main as cli_main
from repro.obs import (
    load_speedscope,
    load_trace_events,
    validate_speedscope,
    write_speedscope,
)
from repro.obs.ledger import ledger_path
from repro.obs.persist import atomic_write_json

#: the committed self-time envelope this smoke run must satisfy
BUDGETS = os.path.join("benchmarks", "budgets_profile.json")

def main() -> int:
    out_dir = sys.argv[1] if len(sys.argv) > 1 else "build/profile-smoke"
    os.makedirs(out_dir, exist_ok=True)
    cache = os.path.join(out_dir, "cache")

    # -- profiled engine runs: cold fill, then warm replay ---------------
    for label in ("cold", "warm"):
        status = cli_main([
            "--preset", "medium", "run",
            "--workers", "4",
            "--cache-dir", cache,
            "--profile", os.path.join(out_dir, f"profile-{label}.json"),
            "--profile-report", os.path.join(out_dir, f"report-{label}.json"),
            "--trace-events", os.path.join(out_dir, f"events-{label}.json"),
        ])
        if status != 0:
            print(f"FAIL: {label} CLI run exited {status}", file=sys.stderr)
            return 1

    # The cold trace must carry the stitched worker tracks: stage spans
    # recorded under at least two distinct worker pids.
    events = load_trace_events(
        os.path.join(out_dir, "events-cold.json")
    )["traceEvents"]
    worker_pids = {
        event["pid"]
        for event in events
        if event.get("ph") == "X"
        and str(event.get("name", "")).startswith("stage:")
        and event["pid"] != 1
    }
    if len(worker_pids) < 2:
        print(
            f"FAIL: expected worker stage spans on >= 2 distinct pid "
            f"tracks, saw {sorted(worker_pids)}",
            file=sys.stderr,
        )
        return 1

    # Both speedscope exports must decode; warm must replay cold.
    profiles = {
        label: load_speedscope(os.path.join(out_dir, f"profile-{label}.json"))
        for label in ("cold", "warm")
    }
    if profiles["warm"] != profiles["cold"]:
        print(
            "FAIL: warm run did not replay the cold run's profile",
            file=sys.stderr,
        )
        return 1

    # Zero unexplained drift between the profiled cold and warm runs:
    # profile.* gauges classify as timing, cache deltas as cache.
    status = cli_main([
        "obs", "--cache-dir", cache,
        "diff", "latest~1", "latest",
        "--out", os.path.join(out_dir, "diff.json"),
    ])
    if status != 0:
        print(
            f"FAIL: profiled cold/warm diff reported drift (exit {status})",
            file=sys.stderr,
        )
        return 1

    # The decoded cold profile, exported again, must still validate.
    profile_path = os.path.join(out_dir, "profile.json")
    write_speedscope(profiles["cold"], profile_path, name="repro profile smoke")
    with open(profile_path, "r", encoding="utf-8") as handle:
        validate_speedscope(json.load(handle))

    # -- ledger fold + budget gate ---------------------------------------
    report_path = os.path.join(out_dir, "report-cold.json")
    ledger = ledger_path(cache)
    status = bench_to_ledger.main([ledger, "--profile-report", report_path])
    if status != 0:
        print(f"FAIL: bench_to_ledger exited {status}", file=sys.stderr)
        return 1

    status = cli_main(
        ["obs", "--cache-dir", cache, "check", "--budgets", BUDGETS]
    )
    if status != 0:
        print(
            f"FAIL: self times left the {BUDGETS} envelope (exit {status})",
            file=sys.stderr,
        )
        return 1

    # The gate must actually gate: an impossible ceiling has to fail.
    impossible = os.path.join(out_dir, "budgets-impossible.json")
    atomic_write_json(
        {
            "schema": "repro.obs/budgets/v1",
            "metrics": {
                "profile.self_s{func=_total,stage=panel}": {
                    "min": 1e12,
                },
            },
        },
        impossible,
    )
    status = cli_main(
        ["obs", "--cache-dir", cache, "check", "--budgets", impossible]
    )
    if status != 1:
        print(
            f"FAIL: impossible self-time floor not flagged (exit {status})",
            file=sys.stderr,
        )
        return 1

    # -- the terminal renderer -------------------------------------------
    status = cli_main(["obs", "profile", profile_path, "--top", "5"])
    if status != 0:
        print(f"FAIL: repro obs profile exited {status}", file=sys.stderr)
        return 1

    cold = profiles["cold"]
    print(
        f"OK: profiled cold/warm medium runs with zero unexplained drift; "
        f"worker spans on {len(worker_pids)} pid tracks; cold profile "
        f"({len(cold)} stacks, {cold.seconds:.1f}s sampled); budgets gate "
        f"exercised; artifacts in {out_dir}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
