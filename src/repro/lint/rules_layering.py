"""A-rules: layering.

The package DAG keeps the measurement pipeline honest: substrate
packages (``web``, ``dnssim``, ``netflow``) must not reach up into the
pipeline (``core``), and ``core`` must not reach into presentation
(``analysis``, ``cli``) — otherwise the pipeline could accidentally read
simulator ground truth, which the README forbids.  Ranks encode the
allowed direction once; A301 checks every import against them and A302
rejects module-level cycles outright.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Set, Tuple

from repro.lint.findings import Finding
from repro.lint.framework import (
    FileContext,
    ProjectContext,
    Rule,
    register,
    resolve_relative_import,
)

#: Import layering: a module may import only strictly lower ranks (or
#: its own package).  Equal ranks mark independent siblings that must
#: not import each other.
LAYER_RANKS: Dict[str, int] = {
    "errors": 0,
    "util": 10,
    "config": 10,
    "lint": 10,
    # obs sits with the foundations on purpose: every simulation and
    # runtime layer may instrument itself through it, but obs itself may
    # import nothing above repro.errors — observability can never grow a
    # dependency on the pipeline it observes.
    "obs": 10,
    "geodata": 20,
    "netbase": 20,
    "cloud": 30,
    "dnssim": 40,
    "web": 50,
    "geoloc": 60,
    "netflow": 60,
    "datasets": 70,
    "core": 80,
    "io": 90,
    "analysis": 90,
    "runtime": 90,
    "repro": 95,
    "cli": 100,
    "__main__": 110,
}


def _imported_repro_packages(
    ctx: FileContext,
) -> Iterable[Tuple[ast.AST, str]]:
    """Yield (node, package) for every import of a ``repro.*`` package,
    including lazy function-level imports (layering rot is layering rot
    even behind a deferred import)."""
    assert ctx.tree is not None
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "repro":
                    yield node, parts[1] if len(parts) > 1 else "repro"
        elif isinstance(node, ast.ImportFrom):
            module = resolve_relative_import(
                ctx.module, ctx.is_package, node.level, node.module
            )
            if module is None:
                continue
            parts = module.split(".")
            if parts[0] == "repro":
                yield node, parts[1] if len(parts) > 1 else "repro"


@register
class LayerOrderRule(Rule):
    """A301 — imports must point strictly down the layer ranks."""

    code = "A301"
    name = "layer-order"
    description = (
        "import that points up (or sideways) in the package layering: "
        "util/geodata/netbase below core, core below analysis/cli"
    )

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        importer = ctx.package
        importer_rank = LAYER_RANKS.get(importer)
        if importer_rank is None:
            return
        for node, imported in _imported_repro_packages(ctx):
            if imported == importer:
                continue
            imported_rank = LAYER_RANKS.get(imported)
            if imported_rank is None or imported_rank < importer_rank:
                continue
            direction = "sideways" if imported_rank == importer_rank else "up"
            yield ctx.finding(
                self,
                node,
                f"package '{importer}' (rank {importer_rank}) imports "
                f"'{imported}' (rank {imported_rank}): layering points "
                f"{direction}; depend only on lower layers",
            )


@register
class ImportCycleRule(Rule):
    """A302 — no import cycles between the analyzed modules.  Only
    module-level imports participate: a function-local import is the
    sanctioned way to break a would-be cycle."""

    code = "A302"
    name = "import-cycle"
    description = "module-level import cycle among analyzed modules"

    def finalize(self, project: ProjectContext) -> Iterable[Finding]:
        modules = project.modules
        edges: Dict[str, Dict[str, ast.AST]] = {}
        for module, ctx in modules.items():
            edges[module] = {}
            if ctx.tree is None:
                continue
            for node in ctx.tree.body:
                for target in self._import_targets(ctx, node, modules):
                    if target != module:
                        edges[module].setdefault(target, node)
        for cycle in self._cycles(edges):
            anchor = min(cycle)
            ctx = modules[anchor]
            position = cycle.index(anchor)
            ordered = cycle[position:] + cycle[:position]
            node = edges[anchor][ordered[1]]
            yield ctx.finding(
                self,
                node,
                "import cycle: " + " -> ".join(ordered + [anchor]),
            )

    @staticmethod
    def _import_targets(
        ctx: FileContext, node: ast.AST, modules: Dict[str, FileContext]
    ) -> Iterable[str]:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in modules:
                    yield alias.name
        elif isinstance(node, ast.ImportFrom):
            module = resolve_relative_import(
                ctx.module, ctx.is_package, node.level, node.module
            )
            if module is None:
                return
            if module in modules:
                yield module
            for alias in node.names:
                submodule = f"{module}.{alias.name}"
                if submodule in modules:
                    yield submodule

    @staticmethod
    def _cycles(edges: Dict[str, Dict[str, ast.AST]]) -> List[List[str]]:
        """Strongly connected components of size > 1, via Tarjan."""
        index: Dict[str, int] = {}
        lowlink: Dict[str, int] = {}
        on_stack: Set[str] = set()
        stack: List[str] = []
        counter = [0]
        sccs: List[List[str]] = []

        def strongconnect(node: str) -> None:
            # iterative Tarjan to stay clear of recursion limits on
            # large trees
            work = [(node, iter(sorted(edges.get(node, ()))))]
            index[node] = lowlink[node] = counter[0]
            counter[0] += 1
            stack.append(node)
            on_stack.add(node)
            while work:
                current, successors = work[-1]
                advanced = False
                for succ in successors:
                    if succ not in index:
                        index[succ] = lowlink[succ] = counter[0]
                        counter[0] += 1
                        stack.append(succ)
                        on_stack.add(succ)
                        work.append((succ, iter(sorted(edges.get(succ, ())))))
                        advanced = True
                        break
                    if succ in on_stack:
                        lowlink[current] = min(lowlink[current], index[succ])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[current])
                if lowlink[current] == index[current]:
                    component: List[str] = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == current:
                            break
                    if len(component) > 1:
                        sccs.append(sorted(component))

        for node in sorted(edges):
            if node not in index:
                strongconnect(node)
        return sccs
