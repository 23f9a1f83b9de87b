"""I-rules: resource discipline.

Stage shards may run in worker subprocesses and may be skipped entirely
on a cache hit, so shard code must not acquire ambient resources: a
simulated study never opens sockets or spawns subprocesses at all.
(A shard that writes to the filesystem fails tier-1's shard-purity
harness, which runs every shard; see ``docs/runtime.md``.)

* **I902** — ``socket`` / ``subprocess`` / ``os.system`` use anywhere
  in non-test code, module level included.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.lint.findings import Finding
from repro.lint.framework import (
    FileContext,
    ProjectContext,
    Rule,
    is_test_module,
    register,
)
from repro.lint.program import (
    MODULE_SCOPE,
    FunctionRef,
    ProgramModel,
    module_level_calls,
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


def process_sites(
    model: ProgramModel,
) -> Iterator[Tuple[FunctionRef, str, ast.Call]]:
    """(function, rendered name, call) for every socket/subprocess/shell
    call, in module and qualname order; calls outside every function
    body come last in their module, under :data:`MODULE_SCOPE`."""
    for module_name in sorted(model.modules):
        info = model.modules[module_name]
        scopes: List[Tuple[str, Iterable[ast.AST]]] = [
            (qualname, ast.walk(info.functions[qualname].node))
            for qualname in sorted(info.functions)
        ]
        if info.ctx.tree is not None:
            scopes.append((MODULE_SCOPE, module_level_calls(info.ctx.tree)))
        for qualname, nodes in scopes:
            for node in nodes:
                if not isinstance(node, ast.Call):
                    continue
                rendered = _process_call(info.ctx, node)
                if rendered is not None:
                    yield (module_name, qualname), rendered, node


@register
class ProcessEscapeRule(Rule):
    """I902 — sockets or subprocesses in non-test code."""

    code = "I902"
    name = "io-process-escape"
    description = (
        "socket/subprocess/os.system call in library code: a simulated "
        "study must not touch the network or spawn processes"
    )

    def finalize(self, project: ProjectContext) -> Iterable[Finding]:
        if not project.files:
            return
        for ref, rendered, node in process_sites(project.program_model()):
            ctx = project.context_for_module(ref[0])
            if ctx is None or is_test_module(ctx.rel_path):
                continue
            yield ctx.finding(
                self,
                node,
                f"{rendered}(...) in {ref[1]}: the simulation is "
                "hermetic — no sockets, no subprocesses",
            )
