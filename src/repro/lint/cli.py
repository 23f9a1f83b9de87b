"""Command-line entry point: ``python -m repro.lint [paths]``.

Findings print one per line, then one summary line.  Exit status: 0
when there are no findings, 1 when there are, 2 on usage errors
(unknown rule selector, missing path).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.lint.framework import all_rules, run_lint, select_rules


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "reprolint: AST-based invariant checks for determinism "
            "(D-rules), error discipline (E-rules), layering (A-rules), "
            "observability (O-rules), seed lineage (S-rules) and "
            "resource discipline (I-rules)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--select",
        default="",
        help="comma-separated rule codes or family prefixes (e.g. D,E201)",
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

    result = run_lint(paths, rules=rules)
    for finding in result.findings:
        print(f"{finding.location()}: {finding.rule} {finding.message}")
    print(
        f"{result.files_checked} file(s) checked: "
        f"{len(result.findings)} finding(s) in {result.wall_s:.2f}s"
    )
    return 1 if result.findings else 0
