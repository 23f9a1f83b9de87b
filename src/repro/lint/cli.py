"""Command-line entry point: ``python -m repro.lint [paths]``.

Exit status: 0 when every finding is baselined (or none exist), 1 when
new findings are reported, 2 on usage errors (unknown rule selector,
malformed baseline).
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path
from typing import List, Optional, Sequence

from repro.errors import LintError
from repro.lint import baseline as baseline_mod
from repro.lint.framework import all_rules, run_lint, select_rules
from repro.lint.reporters import render_json, render_text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "reprolint: AST-based invariant checks for determinism "
            "(D-rules), error discipline (E-rules), layering (A-rules), "
            "caching (C-rules), shard purity (P-rules), observability "
            "(O-rules), seed lineage (S-rules), resource discipline "
            "(I-rules) and concurrency context (T-rules)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--baseline",
        default=baseline_mod.DEFAULT_BASELINE_NAME,
        help=(
            "baseline file of grandfathered findings "
            f"(default: {baseline_mod.DEFAULT_BASELINE_NAME}; missing file "
            "= empty baseline)"
        ),
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore the baseline file and report every finding",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="write current findings to the baseline file and exit 0",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help=(
            "rewrite the baseline from current findings: keep entries "
            "still observed, drop stale ones; new findings are NOT "
            "absorbed (use --write-baseline for that)"
        ),
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help=(
            "fan per-file rule passes out over N worker processes "
            "(0 = CPU count; default: serial)"
        ),
    )
    parser.add_argument(
        "--select",
        default="",
        help="comma-separated rule codes or family prefixes (e.g. D,E201)",
    )
    parser.add_argument(
        "--graph-json",
        metavar="OUT",
        help=(
            "also write the whole-program import/call graph as JSON to "
            "OUT ('-' for stdout)"
        ),
    )
    parser.add_argument(
        "--concurrency-json",
        metavar="OUT",
        help=(
            "also write the concurrency-context report (per-function "
            "execution contexts, T-rule findings with witness chains) "
            "as JSON to OUT ('-' for stdout)"
        ),
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list registered rules and exit",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.code}  {rule.name:28s} {rule.description}")
        return 0

    selectors = [token for token in args.select.split(",") if token.strip()]
    rules = select_rules(selectors) if selectors else all_rules()
    if selectors and not rules:
        shown = ",".join(selectors)
        print(f"error: no rules match selector {shown!r}", file=sys.stderr)
        return 2

    paths: List[Path] = []
    for raw in args.paths:
        path = Path(raw)
        if not path.exists():
            print(f"error: path does not exist: {raw}", file=sys.stderr)
            return 2
        paths.append(path)

    if args.update_baseline and (args.no_baseline or args.write_baseline):
        print(
            "error: --update-baseline conflicts with "
            "--no-baseline/--write-baseline",
            file=sys.stderr,
        )
        return 2

    result = run_lint(paths, rules=rules, jobs=args.jobs)
    baseline_path = Path(args.baseline)

    if args.graph_json and result.project is not None:
        graph = result.project.program_model().graph_json()
        _emit(args.graph_json, graph)

    if args.concurrency_json and result.project is not None:
        from repro.lint.concurrency import concurrency_for

        report = concurrency_for(result.project).report_json()
        report["time_s"] = round(result.wall_s, 6)
        _emit(args.concurrency_json, report)

    if args.write_baseline:
        baseline_mod.write_baseline(baseline_path, result.findings)
        print(
            f"wrote {len(result.findings)} finding(s) to {baseline_path}",
        )
        return 0

    try:
        baseline = (
            Counter() if args.no_baseline else baseline_mod.load_baseline(baseline_path)
        )
    except LintError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    new, grandfathered, stale = baseline_mod.partition(result.findings, baseline)

    if args.update_baseline:
        baseline_mod.write_baseline(baseline_path, grandfathered)
        print(
            f"updated {baseline_path}: kept {len(grandfathered)} "
            f"entr{'y' if len(grandfathered) == 1 else 'ies'}, dropped "
            f"{len(stale)} stale",
        )
        stale = []

    renderer = render_json if args.format == "json" else render_text
    print(
        renderer(
            new, grandfathered, stale, result.files_checked,
            time_s=result.wall_s,
        )
    )
    return 1 if new else 0


def _emit(destination: str, document: dict) -> None:
    """Write a JSON document to a path, or stdout for ``-``."""
    payload = json.dumps(document, indent=2, sort_keys=True)
    if destination == "-":
        print(payload)
        return
    out = Path(destination)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(payload + "\n", encoding="utf-8")
