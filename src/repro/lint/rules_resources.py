"""I-rules: resource discipline.

Stage shards may run in worker subprocesses and may be skipped entirely
on a cache hit, so shard code must not acquire ambient resources: a
simulated study never opens sockets or spawns subprocesses at all.
(A shard that writes to the filesystem fails tier-1's shard-purity
harness, which runs every shard; see ``docs/runtime.md``.)

* **I902** — ``socket`` / ``subprocess`` / ``os.system`` use anywhere
  in non-test code, module level included.  A per-file rule: every
  call in the file is scanned, and each finding names its scope.
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional

from repro.lint.findings import Finding
from repro.lint.framework import (
    FileContext,
    Rule,
    is_test_module,
    register,
    scoped_calls,
)


def _process_call(ctx: FileContext, node: ast.Call) -> Optional[str]:
    """The rendered name of a socket/subprocess/shell call, else None."""
    dotted = ctx.dotted_name(node.func)
    if dotted is None:
        return None
    if dotted == "socket" or dotted.startswith(("socket.", "subprocess.")):
        return dotted
    if dotted in ("os.popen", "os.system"):
        return dotted
    return None


@register
class ProcessEscapeRule(Rule):
    """I902 — sockets or subprocesses in non-test code."""

    code = "I902"
    name = "io-process-escape"
    description = (
        "socket/subprocess/os.system call in library code: a simulated "
        "study must not touch the network or spawn processes"
    )

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        if is_test_module(ctx.rel_path):
            return
        for scope, node in scoped_calls(ctx.tree):
            rendered = _process_call(ctx, node)
            if rendered is not None:
                yield ctx.finding(
                    self,
                    node,
                    f"{rendered}(...) in {scope}: the simulation is "
                    "hermetic — no sockets, no subprocesses",
                )
