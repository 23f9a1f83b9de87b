#!/usr/bin/env python
"""Fold a pytest-benchmark report into the run ledger.

Usage::

    python scripts/bench_to_ledger.py build/bench.json .repro-cache/ledger.jsonl

Reads the JSON report ``make bench`` writes (``--benchmark-json``) and
appends one ``kind="bench"`` ledger record whose metrics are gauges
keyed ``bench.time_s{benchmark=<name>,stat=<stat>}`` — one per
benchmark per summary statistic.  Performance history then lives in the
same auditable journal as the engine runs, and ``repro obs diff``
classifies any ``bench.*`` delta as *timing* (never drift), while
``repro obs check`` can put budget envelopes on the statistics.

With ``--lint-report build/dataflow-report.json`` the wall times of the
reprolint run (the ``time_s`` and per-family ``family_time_s`` keys the
linter writes alongside its dataflow analysis) are folded into the same
record as ``lint.time_s{family=total}`` and
``lint.time_s{family=<prefix>}`` gauges, so linter performance — per
rule family — is tracked and budget-gated in the ledger too.

With ``--serve-report build/serve-load.json`` each endpoint's
throughput from a ``scripts/serve_load.py`` run (schema
``repro.serve/load/v1``) is folded in as a
``serve.requests_per_s{endpoint=...}`` gauge — study-service
performance history lands in the same journal.

The positional pytest-benchmark report may be omitted when at least one
``--*-report`` source is given; the appended record is then a bench
record with only the side-channel gauges.
"""

import argparse
import json
import sys

from repro.errors import ObservabilityError
from repro.obs import LEDGER_SCHEMA, append_record
from repro.obs.metrics import metric_key
from repro.obs.names import (
    BENCH_TIME,
    LINT_TIME,
    SERVE_REQUESTS_PER_S,
)

#: the pytest-benchmark summary statistics folded into the ledger
STATS = ("min", "median", "mean", "max")


def lint_time_from(report: dict) -> float:
    """The linter wall time recorded in a reprolint dataflow report
    (``--dataflow-json``; key ``time_s``)."""
    time_s = report.get("time_s")
    if not isinstance(time_s, (int, float)) or isinstance(time_s, bool):
        raise ObservabilityError(
            "lint report carries no numeric 'time_s' field"
        )
    return float(time_s)


def lint_gauges_from(report: dict) -> dict:
    """Total + per-family linter wall-time gauges from a reprolint
    report (``--dataflow-json`` / ``--concurrency-json``).

    Reports predating per-family timing (no ``family_time_s``) fold
    only the total; a malformed per-family entry is an error.
    """
    gauges = {
        metric_key(LINT_TIME, {"family": "total"}): {
            "kind": "gauge", "value": lint_time_from(report),
        },
    }
    families = report.get("family_time_s", {})
    if not isinstance(families, dict):
        raise ObservabilityError(
            "lint report 'family_time_s' must be a mapping"
        )
    for family, seconds in sorted(families.items()):
        if not isinstance(seconds, (int, float)) or isinstance(
            seconds, bool
        ):
            raise ObservabilityError(
                f"lint report family {family!r} carries no numeric "
                "wall time"
            )
        key = metric_key(LINT_TIME, {"family": family})
        gauges[key] = {"kind": "gauge", "value": float(seconds)}
    return gauges


def serve_gauges_from(report: dict) -> dict:
    """Per-endpoint throughput gauges from a serve load report
    (``scripts/serve_load.py``, schema ``repro.serve/load/v1``)."""
    if report.get("schema") != "repro.serve/load/v1":
        raise ObservabilityError(
            f"serve report carries schema {report.get('schema')!r} "
            "(expected 'repro.serve/load/v1')"
        )
    endpoints = report.get("endpoints")
    if not isinstance(endpoints, dict) or not endpoints:
        raise ObservabilityError("serve report carries no 'endpoints'")
    gauges = {}
    for endpoint, stats in sorted(endpoints.items()):
        value = stats.get("requests_per_s") if isinstance(stats, dict) else None
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ObservabilityError(
                f"serve report endpoint {endpoint!r} carries no numeric "
                "'requests_per_s'"
            )
        key = metric_key(SERVE_REQUESTS_PER_S, {"endpoint": endpoint})
        gauges[key] = {"kind": "gauge", "value": float(value)}
    return gauges


def bench_record(report) -> dict:
    """A ``kind="bench"`` ledger record from a pytest-benchmark report.

    ``report=None`` (benchmark report omitted) yields an empty bench
    record for the side-channel gauges to land in.  Identity fields
    (``seq``/``run_id``) are stamped at append time by
    :func:`repro.obs.ledger.append_record`.
    """
    if report is None:
        return {
            "schema": LEDGER_SCHEMA,
            "kind": "bench",
            "metrics": {},
            "n_benchmarks": 0,
        }
    benchmarks = report.get("benchmarks")
    if not isinstance(benchmarks, list) or not benchmarks:
        raise ObservabilityError(
            "benchmark report carries no 'benchmarks' entries"
        )
    metrics = {}
    for entry in benchmarks:
        name = entry.get("name")
        stats = entry.get("stats")
        if not isinstance(name, str) or not isinstance(stats, dict):
            raise ObservabilityError(
                f"malformed benchmark entry: {entry!r:.120}"
            )
        for stat in STATS:
            if stat not in stats:
                raise ObservabilityError(
                    f"benchmark {name!r} is missing stat {stat!r}"
                )
            key = metric_key(BENCH_TIME, {"benchmark": name, "stat": stat})
            metrics[key] = {"kind": "gauge", "value": float(stats[stat])}
    return {
        "schema": LEDGER_SCHEMA,
        "kind": "bench",
        "metrics": metrics,
        "n_benchmarks": len(benchmarks),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "report", nargs="?", default=None,
        help="pytest-benchmark JSON report (omit when only folding "
             "--*-report sources)",
    )
    parser.add_argument("ledger", help="ledger file to append to")
    parser.add_argument(
        "--lint-report",
        metavar="PATH",
        help=(
            "reprolint dataflow report (--dataflow-json) whose time_s is "
            "folded in as a lint.time_s gauge"
        ),
    )
    parser.add_argument(
        "--serve-report",
        metavar="PATH",
        help=(
            "serve load report (scripts/serve_load.py) whose per-endpoint "
            "throughput is folded in as serve.requests_per_s gauges"
        ),
    )
    args = parser.parse_args(argv)
    if args.report is None and not (args.lint_report or args.serve_report):
        parser.error(
            "nothing to fold: give a benchmark report or at least one "
            "--*-report source"
        )

    def read_json(path: str) -> dict:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)

    try:
        report = read_json(args.report) if args.report else None
        lint = read_json(args.lint_report) if args.lint_report else None
        serve = read_json(args.serve_report) if args.serve_report else None
    except OSError as exc:
        print(f"bench_to_ledger: cannot read report: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(
            f"bench_to_ledger: report is not valid JSON: {exc}",
            file=sys.stderr,
        )
        return 1

    try:
        record = bench_record(report)
        if lint is not None:
            record["metrics"].update(lint_gauges_from(lint))
        if serve is not None:
            record["metrics"].update(serve_gauges_from(serve))
        record = append_record(args.ledger, record)
    except ObservabilityError as exc:
        print(f"bench_to_ledger: {exc}", file=sys.stderr)
        return 1

    print(
        f"ledger: appended bench record {record['run_id']} "
        f"(seq {record['seq']}, {record['n_benchmarks']} benchmarks, "
        f"{len(record['metrics'])} metrics)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
