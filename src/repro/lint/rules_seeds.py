"""S-rules: seed lineage.

Replays are only cold-equals-warm because every ``random.Random`` in
shard code descends from the shard's seeded root through the
:mod:`repro.util.rng` derivation APIs (``seeded_rng`` / ``spawn_rng`` /
``RngStreams.spawn``/``fork``); the per-file D102 already rejects a raw
``random.Random(...)`` anywhere outside ``util/rng.py``.  These rules
read one syntactic scan of each file's RNG-producing or seed-deriving
call sites, with their statically-resolved stream names: a stream
*name* derived in two places makes two components draw correlated
values; ``fixed_rng`` outside tests hides a missing injection point; a
stage ``run`` returning a generator carries RNG state across the shard
boundary.

* **S702** — the same literal stream name derived at two different call
  sites in the same API family (a double-spent seed); cross-file, as a
  name may be spent in two modules;
* **S703** — ``fixed_rng`` use outside test code, module level
  included; per-file;
* **S704** — a stage ``run`` returning an RNG or stream object (the
  shard boundary must carry data, not generators); cross-file, as the
  ``run`` a ``StageSpec`` names may be imported from another module.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Set, Tuple

from repro.lint.findings import Finding
from repro.lint.framework import (
    FileContext,
    ProjectContext,
    Rule,
    is_test_module,
    register,
    resolve_string,
    scoped_calls,
    static_prefix,
)

#: rng-derivation APIs grouped by the child-seed namespace they draw
#: from (``spawn("x")`` and ``seeded_rng(seed, "x")`` do *not* collide:
#: RngStreams.spawn derives under an internal ``spawn:`` prefix)
_DERIVE_FAMILIES = {
    "seeded_rng": "derive",
    "derive_seed": "derive",
    "spawn": "spawn",
    "fork": "fork",
}

#: APIs that *produce* an RNG (or RNG-stream) value
_RNG_PRODUCERS = frozenset({
    "seeded_rng", "spawn_rng", "fixed_rng", "spawn", "fork", "raw",
})

_RNG_FUNCTIONS = ("seeded_rng", "spawn_rng", "fixed_rng", "derive_seed")


def is_rng_module(module: str) -> bool:
    """The sanctioned RNG implementation module (``repro.util.rng`` in
    the real tree; any ``*.rng`` module in fixture trees)."""
    return module.split(".")[-1] == "rng"


def _exempt(ctx: FileContext) -> bool:
    return is_rng_module(ctx.module) or is_test_module(ctx.rel_path)


@dataclass(frozen=True)
class RngSite:
    """One RNG-producing or seed-deriving call site."""

    #: the function or method holding the call, or ``<module>``
    scope: str
    api: str  # seeded_rng | spawn_rng | fixed_rng | derive_seed | spawn | fork | raw
    #: statically-resolved stream name; ``None`` when the API takes none
    #: (fixed_rng, spawn_rng, raw) or the argument is missing
    name: Optional[str]
    #: True when ``name`` is a full literal (f-strings record only
    #: their static prefix and are never literal)
    literal: bool
    node: ast.Call


def rng_sites(
    ctx: FileContext, modules: Mapping[str, FileContext]
) -> Iterator[RngSite]:
    """Every RNG-producing / seed-deriving call site in one file."""
    for scope, node in scoped_calls(ctx.tree):
        api = _rng_api(ctx, node)
        if api is not None:
            name, literal = _stream_name(ctx, modules, node, api)
            yield RngSite(scope, api, name, literal, node)


def _rng_api(ctx: FileContext, node: ast.Call) -> Optional[str]:
    dotted = ctx.dotted_name(node.func)
    if dotted is not None:
        if dotted == "random.Random" or dotted.endswith(".random.Random"):
            return "raw"
        last = dotted.split(".")[-1]
        if last in _RNG_FUNCTIONS:
            return last
    if isinstance(node.func, ast.Attribute) and node.func.attr in (
        "spawn", "fork",
    ):
        return node.func.attr
    return None


def _stream_name(
    ctx: FileContext,
    modules: Mapping[str, FileContext],
    node: ast.Call,
    api: str,
) -> Tuple[Optional[str], bool]:
    """The statically-resolved stream-name argument of a derivation
    call: (name, is-full-literal).  F-strings resolve to their static
    prefix and count as non-literal."""
    if api not in _DERIVE_FAMILIES:
        return None, False
    index = 1 if api in ("seeded_rng", "derive_seed") else 0
    args = list(node.args)
    expr: Optional[ast.expr] = None
    if len(args) > index:
        expr = args[index]
    else:
        for kw in node.keywords:
            if kw.arg == "name":
                expr = kw.value
    if expr is None:
        return None, False
    resolved = resolve_string(ctx, expr, modules)
    if resolved is not None:
        return resolved, True
    prefix = static_prefix(expr)
    if prefix:
        return prefix + "…", False
    return "<dynamic>", False


def stage_runs(
    project: ProjectContext,
) -> Iterator[Tuple[str, FileContext, ast.FunctionDef]]:
    """(stage name, file, function) for every ``StageSpec(run=<name>)``
    whose name is a top-level function of its own file or of the
    analyzed module it is imported from.  Matching is by class name
    (the last dotted segment), so fixture trees need no
    ``repro.runtime.graph``."""
    modules = project.modules
    for ctx in project.files.values():
        if ctx.tree is None:
            continue
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = ctx.dotted_name(node.func)
            if dotted is None or dotted.split(".")[-1] != "StageSpec":
                continue
            keywords = {kw.arg: kw.value for kw in node.keywords}
            run = keywords.get("run")
            if not isinstance(run, ast.Name):
                continue
            name = keywords.get("name")
            stage = (
                name.value
                if isinstance(name, ast.Constant) and isinstance(name.value, str)
                else "<unknown>"
            )
            home, fn = ctx, _top_level_function(ctx, run.id)
            if fn is None:
                origin = ctx.import_origin(run.id, node) or ""
                module, _, function = origin.rpartition(".")
                home = modules.get(module)
                fn = _top_level_function(home, function) if home else None
            if fn is not None:
                yield stage, home, fn


def _top_level_function(
    ctx: FileContext, name: str
) -> Optional[ast.FunctionDef]:
    if ctx.tree is None:
        return None
    for stmt in ctx.tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
            stmt.name == name
        ):
            return stmt
    return None


@register
class DoubleSpentSeedRule(Rule):
    """S702 — one literal stream name derived at two call sites."""

    code = "S702"
    name = "seed-double-spent"
    description = (
        "the same literal stream name is derived at two different call "
        "sites in one API family: two consumers would draw correlated "
        "values from one seed"
    )

    def finalize(self, project: ProjectContext) -> Iterable[Finding]:
        modules = project.modules
        groups: Dict[Tuple[str, str], List[Tuple[RngSite, FileContext]]] = {}
        for ctx in project.files.values():
            if ctx.tree is None or _exempt(ctx):
                continue
            for site in rng_sites(ctx, modules):
                family = _DERIVE_FAMILIES.get(site.api)
                if family is None or not site.literal or site.name is None:
                    continue
                groups.setdefault((family, site.name), []).append((site, ctx))
        for (family, name), members in sorted(groups.items()):
            distinct = {
                (ctx.rel_path, site.node.lineno, site.node.col_offset)
                for site, ctx in members
            }
            if len(distinct) < 2:
                continue
            locations = ", ".join(
                f"{ctx.rel_path}:{site.node.lineno}"
                for site, ctx in sorted(
                    members, key=lambda m: (m[1].rel_path, m[0].node.lineno)
                )
            )
            for site, ctx in members:
                yield ctx.finding(
                    self,
                    site.node,
                    f"stream name '{name}' ({family} family) is "
                    f"derived at {len(distinct)} sites: {locations}; "
                    "each seed must have exactly one consumer",
                )


@register
class FixedRngOutsideTestsRule(Rule):
    """S703 — ``fixed_rng`` in non-test code."""

    code = "S703"
    name = "seed-fixed-rng"
    description = (
        "fixed_rng(...) outside tests: library code must take an "
        "injected rng (or derive one from the world's streams), not "
        "fabricate a constant-seed generator"
    )

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        if _exempt(ctx):
            return
        for scope, node in scoped_calls(ctx.tree):
            if _rng_api(ctx, node) == "fixed_rng":
                yield ctx.finding(
                    self,
                    node,
                    f"fixed_rng(...) in {scope} is outside "
                    "test code; inject the rng from the caller or "
                    "derive it from the shard's streams",
                )


@register
class RngEscapesShardRule(Rule):
    """S704 — a stage ``run`` returning an RNG/stream object."""

    code = "S704"
    name = "seed-rng-escapes-shard"
    description = (
        "a stage run function returns an RNG or RngStreams value: shard "
        "results must be data, generator state does not survive the "
        "merge boundary deterministically"
    )

    def finalize(self, project: ProjectContext) -> Iterable[Finding]:
        for stage, ctx, fn in stage_runs(project):
            producers = {
                node
                for node in ast.walk(fn)
                if isinstance(node, ast.Call)
                and _rng_api(ctx, node) in _RNG_PRODUCERS
            }
            rng_names: Set[str] = {
                target.id
                for node in ast.walk(fn)
                if isinstance(node, ast.Assign) and node.value in producers
                for target in node.targets
                if isinstance(target, ast.Name)
            }
            for node in ast.walk(fn):
                if not isinstance(node, ast.Return) or node.value is None:
                    continue
                leaked = self._leaked_rng(node.value, rng_names, producers)
                if leaked is None:
                    continue
                yield ctx.finding(
                    self,
                    node,
                    f"stage '{stage}' run returns {leaked}; return "
                    "drawn values instead of the generator",
                )

    @staticmethod
    def _leaked_rng(
        expr: ast.expr, rng_names: Set[str], producers: Set[ast.Call]
    ) -> Optional[str]:
        for sub in ast.walk(expr):
            if isinstance(sub, ast.Name) and sub.id in rng_names:
                return f"the RNG bound to '{sub.id}'"
            if isinstance(sub, ast.Call) and sub in producers:
                return "a freshly derived RNG"
        return None
