#!/usr/bin/env python
"""End-to-end smoke test of the run ledger and regression diffing.

Usage::

    python scripts/diff_smoke.py [out_dir]

Runs ``repro run --trace-events`` twice (via the CLI entry point, so
the real flag path is exercised) against one cache directory, then
checks the ledger pipeline end to end:

* both runs appended ledger records and ``repro obs diff`` between them
  reports **zero unexplained drift** — the cold/warm cache deltas must
  all classify as *cache*;
* both exported trace-event files validate (monotonic integer
  timestamps, complete "X" events) — the files Perfetto loads — and
  the cold export carries worker ``stage:*`` spans on at least two
  distinct pid tracks (the cross-process span stitching, visible);
* ``repro obs check`` passes against budgets derived from the run and
  fails (exit 1) against an impossible envelope.

Artifacts (ledger, diff JSON, trace events, budgets) land in
``out_dir`` (default ``build/diff-smoke``) so CI can upload them.
``make diff-smoke`` wires this into CI.
"""

import json
import os
import sys

from repro.cli import main as cli_main
from repro.errors import ObservabilityError
from repro.obs import diff_records, load_ledger, load_trace_events
from repro.obs.ledger import ledger_path
from repro.obs.persist import atomic_write_json


def _budgets_from(record: dict, slack: float = 10.0) -> dict:
    """A budgets document the given run record satisfies by construction."""
    counters = sorted(
        key for key, entry in record["metrics"].items()
        if entry["kind"] == "counter"
    )
    if not counters:
        raise ObservabilityError("run record carries no counters to budget")
    exact = counters[0]
    value = record["metrics"][exact]["value"]
    total_wall = sum(stage["wall_s"] for stage in record["stages"])
    return {
        "schema": "repro.obs/budgets/v1",
        "metrics": {exact: {"min": value, "max": value}},
        "stage_wall_s": {
            stage["stage"]: {"max": stage["wall_s"] * slack + 60.0}
            for stage in record["stages"]
        },
        "total_wall_s": {"max": total_wall * slack + 600.0},
    }


def main() -> int:
    out_dir = sys.argv[1] if len(sys.argv) > 1 else "build/diff-smoke"
    os.makedirs(out_dir, exist_ok=True)
    cache = os.path.join(out_dir, "cache")

    for label in ("cold", "warm"):
        status = cli_main([
            "--preset", "small", "run",
            "--workers", "2",
            "--cache-dir", cache,
            "--trace-events", os.path.join(out_dir, f"events-{label}.json"),
        ])
        if status != 0:
            print(f"FAIL: {label} CLI run exited {status}", file=sys.stderr)
            return 1

    records = load_ledger(ledger_path(cache))
    if len(records) != 2:
        print(f"FAIL: expected 2 ledger records, got {len(records)}",
              file=sys.stderr)
        return 1

    # The CLI diff must agree: exit 0 and write the diff JSON artifact.
    diff_json = os.path.join(out_dir, "diff.json")
    status = cli_main([
        "obs", "--cache-dir", cache,
        "diff", "latest~1", "latest", "--out", diff_json,
    ])
    if status != 0:
        print(f"FAIL: repro obs diff exited {status}", file=sys.stderr)
        return 1

    diff = diff_records(records[0], records[1])
    unexplained = diff.unexplained()
    if unexplained:
        keys = sorted(delta.key for delta in unexplained)
        print(f"FAIL: unexplained drift between identical runs: {keys}",
              file=sys.stderr)
        return 1
    if diff.config_changed:
        print("FAIL: identical configs reported as changed", file=sys.stderr)
        return 1
    counts = diff.counts()
    if not counts.get("cache"):
        print("FAIL: cold vs warm run produced no cache deltas",
              file=sys.stderr)
        return 1

    # Both trace exports must validate — load_trace_events re-checks the
    # monotonic-timestamp / complete-event invariants Perfetto relies on.
    events = {}
    for label in ("cold", "warm"):
        payload = load_trace_events(os.path.join(out_dir, f"events-{label}.json"))
        events[label] = payload["traceEvents"]
        if not events[label]:
            print(f"FAIL: {label} trace export is empty", file=sys.stderr)
            return 1

    # The cold trace must carry the stitched worker tracks: stage spans
    # recorded under at least two distinct worker pids.
    worker_pids = {
        event["pid"]
        for event in events["cold"]
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

    # Budget gate: derived envelopes pass, an impossible one fails.
    budgets_path = os.path.join(out_dir, "budgets.json")
    atomic_write_json(_budgets_from(records[1]), budgets_path)
    status = cli_main(
        ["obs", "--cache-dir", cache, "check", "--budgets", budgets_path]
    )
    if status != 0:
        print(f"FAIL: derived budgets violated (exit {status})",
              file=sys.stderr)
        return 1
    impossible = os.path.join(out_dir, "budgets-impossible.json")
    atomic_write_json(
        {"schema": "repro.obs/budgets/v1", "total_wall_s": {"max": 0.0}},
        impossible,
    )
    status = cli_main(
        ["obs", "--cache-dir", cache, "check", "--budgets", impossible]
    )
    if status != 1:
        print(f"FAIL: impossible budget not flagged (exit {status})",
              file=sys.stderr)
        return 1

    with open(diff_json, "r", encoding="utf-8") as handle:
        written = json.load(handle)
    print(
        "OK: 2 ledger records, diff classified "
        f"{sum(counts.values())} deltas ({counts}) with zero unexplained "
        f"drift; trace exports valid ({len(events['cold'])}/"
        f"{len(events['warm'])} events, worker spans on {len(worker_pids)} "
        f"pid tracks); budgets gate exercised; diff JSON schema "
        f"{written['schema']!r} written to {diff_json}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
