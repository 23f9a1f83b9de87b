"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``report``
    Run the full pipeline through the engine and print every
    regenerated table and figure plus the paper-vs-measured block.
``table N`` / ``figure N``
    Regenerate one artifact (e.g. ``table 5``, ``figure 7``).
``summary``
    Print the headline paper-vs-measured metrics as JSON.
``world``
    Build the world and print its population statistics (runs no stage).
``export``
    Run the pipeline and export its products (request log JSONL,
    tracker-IP inventory JSON, continent sankey CSV) into a directory.
``run``
    Execute the pipeline through the :mod:`repro.runtime` engine —
    sharded across ``--workers`` processes, replayed from ``--cache-dir``
    when warm — and print headline numbers plus per-stage wall-time and
    cache-hit counters.  With ``--trace out.json`` the run records a
    full span tree, writes the provenance manifest to ``out.json`` and
    prints a text flamegraph of where the time went; with
    ``--trace-events out.json`` it exports the same span tree as
    Chrome trace-event JSON (load it in Perfetto / ``chrome://tracing``)
    — on ``--workers N`` runs the trace carries the workers' stitched
    span trees as real process tracks.
``obs``
    Inspect the run ledger (``<cache_dir>/ledger.jsonl``) that every
    cached engine run appends to: ``list`` / ``show`` the records,
    ``diff`` two of them with every metric delta classified as
    config-driven, code-driven or unexplained drift, and get/set the
    ``baseline`` selector.  See ``docs/ledger.md``.

Every command accepts ``--preset small|medium|paper`` and ``--seed N``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Callable, Dict, Optional, Sequence

from repro import Study, World, WorldConfig, build_world
from repro.analysis import figures as F
from repro.analysis import tables as T
from repro.analysis.report import (
    experiment_summary,
    full_report,
    paper_vs_measured,
)
from repro.errors import ReproError

_TABLES: Dict[int, Callable] = {
    1: T.table1, 2: T.table2, 3: T.table3, 4: T.table4, 5: T.table5,
    6: T.table6, 7: T.table7, 8: T.table8, 9: T.table9,
}
_FIGURES: Dict[int, Callable] = {
    2: F.figure2, 3: F.figure3, 4: F.figure4, 5: F.figure5, 6: F.figure6,
    7: F.figure7, 8: F.figure8, 9: F.figure9, 10: F.figure10,
    11: F.figure11, 12: F.figure12,
}

_PRESETS = {
    "small": WorldConfig.small,
    "medium": WorldConfig.medium,
    "paper": WorldConfig.paper_scale,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Tracing Cross Border Web Tracking' "
        "(IMC 2018).",
    )
    parser.add_argument(
        "--preset", choices=sorted(_PRESETS), default="small",
        help="world size preset (default: small)",
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="world seed override"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("report", help="print every table and figure")
    commands.add_parser("summary", help="paper-vs-measured metrics as JSON")
    commands.add_parser("world", help="print world population statistics")

    table_command = commands.add_parser("table", help="regenerate one table")
    table_command.add_argument("number", type=int, choices=sorted(_TABLES))

    figure_command = commands.add_parser(
        "figure", help="regenerate one figure"
    )
    figure_command.add_argument("number", type=int, choices=sorted(_FIGURES))

    export_command = commands.add_parser(
        "export", help="export pipeline products to a directory"
    )
    export_command.add_argument("directory", type=pathlib.Path)

    run_command = commands.add_parser(
        "run", help="execute the pipeline through the runtime engine"
    )
    run_command.add_argument(
        "--workers", type=int, default=1,
        help="process workers for shard fan-out (default: 1, inline)",
    )
    run_command.add_argument(
        "--cache-dir", type=pathlib.Path, default=None,
        help="artifact cache directory (default: no cache)",
    )
    run_command.add_argument(
        "--json", action="store_true",
        help="emit headline numbers and metrics as JSON",
    )
    run_command.add_argument(
        "--metrics-out", type=pathlib.Path, default=None,
        help="also write the per-stage metrics to this JSON file",
    )
    run_command.add_argument(
        "--trace", type=pathlib.Path, default=None, metavar="OUT",
        help="record spans and write the provenance manifest to OUT",
    )
    run_command.add_argument(
        "--trace-events", type=pathlib.Path, default=None, metavar="OUT",
        help="record spans and export them as Chrome trace-event JSON "
        "(Perfetto / chrome://tracing loadable) to OUT",
    )

    obs_command = commands.add_parser(
        "obs", help="inspect the run ledger: list/show/diff/baseline"
    )
    obs_command.add_argument(
        "--cache-dir", type=pathlib.Path, default=pathlib.Path(".repro-cache"),
        help="cache directory whose ledger.jsonl to read "
        "(default: .repro-cache)",
    )
    obs_command.add_argument(
        "--ledger", type=pathlib.Path, default=None,
        help="explicit ledger file (overrides --cache-dir)",
    )
    obs_subcommands = obs_command.add_subparsers(
        dest="obs_command", required=True
    )
    obs_subcommands.add_parser("list", help="one line per ledger record")
    obs_show = obs_subcommands.add_parser(
        "show", help="print one record as JSON"
    )
    obs_show.add_argument("selector", nargs="?", default="latest")
    obs_diff = obs_subcommands.add_parser(
        "diff", help="classify every metric delta between two records "
        "(exit 1 on unexplained drift)",
    )
    obs_diff.add_argument("run_a", help="selector for the left-hand run")
    obs_diff.add_argument(
        "run_b", nargs="?", default="latest",
        help="selector for the right-hand run (default: latest)",
    )
    obs_diff.add_argument(
        "--json", action="store_true", help="emit the diff as JSON"
    )
    obs_diff.add_argument(
        "--out", type=pathlib.Path, default=None,
        help="also write the JSON diff report to this file",
    )
    obs_baseline = obs_subcommands.add_parser(
        "baseline", help="show or set the baseline selector's target"
    )
    obs_baseline.add_argument(
        "selector", nargs="?", default=None,
        help="record to mark as baseline (omit to show the current one)",
    )
    return parser


def _make_config(args: argparse.Namespace) -> WorldConfig:
    factory = _PRESETS[args.preset]
    return factory(seed=args.seed) if args.seed is not None else factory()


def _make_study(args: argparse.Namespace) -> Study:
    """The view of one inline, uncached engine run of the chosen world."""
    from repro.runtime import run_study

    return run_study(_make_config(args)).study()


def _command_run(args: argparse.Namespace) -> str:
    from repro.io import run_metrics_to_json
    from repro.obs.export import write_trace_events
    from repro.obs.manifest import write_manifest
    from repro.obs.trace import Tracer
    from repro.runtime import run_study

    cache_dir = str(args.cache_dir) if args.cache_dir is not None else None
    traced = args.trace is not None or args.trace_events is not None
    tracer = Tracer() if traced else None
    run = run_study(
        _make_config(args),
        workers=args.workers,
        cache_dir=cache_dir,
        tracer=tracer,
    )
    if args.trace is not None:
        write_manifest(run.manifest, args.trace)
    if args.trace_events is not None:
        write_trace_events(tracer.spans, args.trace_events)
    if args.metrics_out is not None:
        # Run totals come from the registry fold (RunResult.cache_hits /
        # cache_misses) — the CLI never sums per-stage rows itself.
        run_metrics_to_json(
            run.metrics_rows(),
            args.metrics_out,
            workers=args.workers,
            preset=args.preset,
            cache_hits=run.cache_hits,
            cache_misses=run.cache_misses,
        )
    if args.json:
        return json.dumps(
            {
                "table2": run.table2_counts(),
                "eu28_destination_regions": run.eu28_destination_regions(),
                "sensitive": run.sensitive_summary(),
                "metrics": run.metrics_rows(),
                "cache_hits": run.cache_hits,
                "cache_misses": run.cache_misses,
            },
            indent=1,
            sort_keys=True,
        )
    lines = [run.metrics_report(), ""]
    totals = run.table2_counts()["total"]
    lines.append(
        f"tracking requests: {totals['total_requests']:,} "
        f"across {totals['fqdns']} FQDNs"
    )
    shares = run.eu28_destination_regions()
    confined = shares.get("EU 28", 0.0)
    lines.append(f"EU28-confined tracking flows: {confined:.1f}%")
    if traced:
        lines.extend(["", run.trace_report()])
    if args.trace is not None:
        lines.append(f"\nmanifest written to {args.trace}")
    if args.trace_events is not None:
        lines.append(f"trace events written to {args.trace_events}")
    if run.ledger_record is not None:
        lines.append(
            f"ledger: appended run {run.ledger_record['run_id']} "
            f"(seq {run.ledger_record['seq']})"
        )
    return "\n".join(lines)


def _obs_ledger_path(args: argparse.Namespace) -> str:
    from repro.obs.ledger import ledger_path

    if args.ledger is not None:
        return str(args.ledger)
    return ledger_path(str(args.cache_dir))


def _obs_list(records) -> str:
    lines = [
        f"{'seq':>4} {'run_id':<16} {'kind':<5} {'digest':<12} "
        f"{'workers':>7} {'wall':>9}"
    ]
    for record in records:
        digest = record.get("config", {}).get("digest", "")[:12]
        wall = sum(
            float(stage.get("wall_s", 0.0))
            for stage in record.get("stages", ())
        )
        lines.append(
            f"{record['seq']:>4} {record['run_id']:<16} "
            f"{record['kind']:<5} {digest:<12} "
            f"{record.get('workers', '-'):>7} {wall:>8.3f}s"
        )
    return "\n".join(lines)


def _command_obs(args: argparse.Namespace) -> int:
    """The ``repro obs`` family; returns the process exit code."""
    from repro.errors import ObservabilityError
    from repro.obs.diff import diff_records, render_diff_text
    from repro.obs.ledger import (
        load_ledger,
        read_baseline,
        select_record,
        write_baseline,
    )
    from repro.obs.persist import atomic_write_json

    path = _obs_ledger_path(args)
    try:
        records = load_ledger(path)
        baseline_id = read_baseline(path)
        if args.obs_command == "list":
            print(_obs_list(records))
        elif args.obs_command == "show":
            record = select_record(records, args.selector, baseline_id)
            print(json.dumps(record, indent=1, sort_keys=True))
        elif args.obs_command == "diff":
            record_a = select_record(records, args.run_a, baseline_id)
            record_b = select_record(records, args.run_b, baseline_id)
            diff = diff_records(record_a, record_b)
            if args.out is not None:
                atomic_write_json(diff.to_dict(), args.out)
            if args.json:
                print(json.dumps(diff.to_dict(), indent=1, sort_keys=True))
            else:
                print(render_diff_text(diff))
            return 1 if diff.unexplained() else 0
        elif args.obs_command == "baseline":
            if args.selector is None:
                if baseline_id is None:
                    print(
                        "baseline: unset "
                        "(the selector falls back to the first record)"
                    )
                else:
                    print(f"baseline: {baseline_id}")
            else:
                record = select_record(records, args.selector, baseline_id)
                write_baseline(path, record["run_id"])
                print(f"baseline set to {record['run_id']}")
    except ObservabilityError as exc:
        # Degrade gracefully — a missing ledger, an unresolvable
        # selector or a corrupt line is a diagnosable message on
        # stderr, never a traceback.
        print(f"repro obs: {exc}", file=sys.stderr)
        return 1
    return 0


def _command_world(world: World) -> str:
    lines = [
        f"seed:            {world.config.seed}",
        f"organizations:   {len(world.organizations)}",
        f"servers:         {len(world.fleet.servers())}",
        f"tracking FQDNs:  {len(world.fleet.tracking_fqdns())}",
        f"publishers:      {len(world.publishers)}",
        f"panel users:     {len(world.users)}",
        f"probes:          {len(world.probes)}",
        f"cloud providers: {len(world.clouds)}",
        f"ISPs:            {', '.join(isp.name for isp in world.isps)}",
    ]
    return "\n".join(lines)


def _command_export(study: Study, directory: pathlib.Path) -> str:
    from repro.io import (
        inventory_to_json,
        requests_to_jsonl,
        sankey_to_csv,
        summary_to_json,
    )

    directory.mkdir(parents=True, exist_ok=True)
    n_requests = requests_to_jsonl(
        study.visit_log.requests, directory / "requests.jsonl"
    )
    inventory_to_json(study.inventory, directory / "tracker_ips.json")
    n_edges = sankey_to_csv(
        study.products["confinement"]["regions"],
        directory / "continent_sankey.csv",
    )
    summary_to_json(experiment_summary(study), directory / "summary.json")
    return (
        f"wrote {n_requests} requests, {len(study.inventory)} tracker IPs, "
        f"{n_edges} sankey edges and the summary to {directory}/"
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "obs":
            return _command_obs(args)
        if args.command == "run":
            print(_command_run(args))
            return 0
        if args.command == "world":
            print(_command_world(build_world(_make_config(args))))
            return 0
        study = _make_study(args)
        if args.command == "report":
            print(full_report(study))
        elif args.command == "summary":
            print(
                json.dumps(experiment_summary(study), indent=1, sort_keys=True)
            )
            print("\n" + paper_vs_measured(study), file=sys.stderr)
        elif args.command == "table":
            print(_TABLES[args.number](study)["text"])
        elif args.command == "figure":
            print(_FIGURES[args.number](study)["text"])
        elif args.command == "export":
            print(_command_export(study, args.directory))
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
