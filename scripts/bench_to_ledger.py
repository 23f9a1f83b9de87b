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

With ``--serve-report build/serve-load.json`` each endpoint's
throughput from a ``scripts/serve_load.py`` run (schema
``repro.serve/load/v1``) is folded in as a
``serve.requests_per_s{endpoint=...}`` gauge — study-service
performance history lands in the same journal.

The positional pytest-benchmark report may be omitted when
``--serve-report`` is given; the appended record is then a bench
record with only the throughput gauges.
"""

import argparse
import json
import sys

from repro.errors import ObservabilityError
from repro.obs import LEDGER_SCHEMA, append_record
from repro.obs.metrics import metric_key
from repro.obs.names import BENCH_TIME, SERVE_REQUESTS_PER_S

#: the pytest-benchmark summary statistics folded into the ledger
STATS = ("min", "median", "mean", "max")


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
    record for the serve throughput gauges to land in.  Identity fields
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
             "--serve-report)",
    )
    parser.add_argument("ledger", help="ledger file to append to")
    parser.add_argument(
        "--serve-report",
        metavar="PATH",
        help=(
            "serve load report (scripts/serve_load.py) whose per-endpoint "
            "throughput is folded in as serve.requests_per_s gauges"
        ),
    )
    args = parser.parse_args(argv)
    if args.report is None and not args.serve_report:
        parser.error(
            "nothing to fold: give a benchmark report or --serve-report"
        )

    def read_json(path: str) -> dict:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)

    try:
        report = read_json(args.report) if args.report else None
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
