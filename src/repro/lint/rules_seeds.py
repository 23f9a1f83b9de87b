"""S-rules: seed lineage.

Replays are only cold-equals-warm because every ``random.Random`` in
shard code descends from the shard's seeded root through the
:mod:`repro.util.rng` derivation APIs (``seeded_rng`` / ``spawn_rng`` /
``RngStreams.spawn``/``fork``); the per-file D102 already rejects a raw
``random.Random(...)`` anywhere outside ``util/rng.py``.  These rules
read one syntactic scan of every RNG-producing or seed-deriving call
site in the program model, with its statically-resolved stream name:
a stream *name* derived in two places makes two components draw
correlated values; ``fixed_rng`` outside tests hides a missing
injection point; a stage ``run`` returning a generator carries RNG
state across the shard boundary.

* **S702** — the same literal stream name derived at two different call
  sites in the same API family (a double-spent seed);
* **S703** — ``fixed_rng`` use outside test code, module level
  included;
* **S704** — a stage ``run`` returning an RNG or stream object (the
  shard boundary must carry data, not generators).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.lint.findings import Finding
from repro.lint.framework import ProjectContext, Rule, is_test_module, register
from repro.lint.program import (
    MODULE_SCOPE,
    Callee,
    FunctionRef,
    ModuleInfo,
    ProgramModel,
    module_level_calls,
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


@dataclass(frozen=True)
class RngSite:
    """One RNG-producing or seed-deriving call site."""

    function: FunctionRef
    api: str  # seeded_rng | spawn_rng | fixed_rng | derive_seed | spawn | fork | raw
    #: statically-resolved stream name; ``None`` when the API takes none
    #: (fixed_rng, spawn_rng, raw) or the argument is missing
    name: Optional[str]
    #: True when ``name`` is a full literal (f-strings record only
    #: their static prefix and are never literal)
    literal: bool
    node: ast.Call


def rng_sites(model: ProgramModel) -> Dict[FunctionRef, Tuple[RngSite, ...]]:
    """Every RNG-producing / seed-deriving call site per function; a
    module's calls outside every function body sit under
    ``(module, MODULE_SCOPE)``."""
    sites: Dict[FunctionRef, Tuple[RngSite, ...]] = {}
    for module_name in sorted(model.modules):
        info = model.modules[module_name]
        for qualname in sorted(info.functions):
            ref = (module_name, qualname)
            fn = info.functions[qualname]
            callee_at = {(c.line, c.col): c.callee for c in fn.calls}
            sites[ref] = tuple(_scan_rng_sites(
                model, info, ast.walk(fn.node), callee_at, ref
            ))
        if info.ctx.tree is not None:
            module_sites = tuple(_scan_rng_sites(
                model, info, module_level_calls(info.ctx.tree), {},
                (module_name, MODULE_SCOPE),
            ))
            if module_sites:
                sites[(module_name, MODULE_SCOPE)] = module_sites
    return sites


def _scan_rng_sites(
    model: ProgramModel,
    info: ModuleInfo,
    nodes: Iterable[ast.AST],
    callee_at: Dict[Tuple[int, int], Callee],
    ref: FunctionRef,
) -> List[RngSite]:
    out: List[RngSite] = []
    for node in nodes:
        if not isinstance(node, ast.Call):
            continue
        api = _rng_api(info, node, callee_at)
        if api is None:
            continue
        name, literal = _stream_name(model, info, node, api)
        out.append(RngSite(
            function=ref, api=api, name=name, literal=literal, node=node,
        ))
    return out


def _rng_api(info: ModuleInfo, node: ast.Call, callee_at) -> Optional[str]:
    dotted = info.ctx.dotted_name(node.func)
    if dotted is not None:
        if dotted == "random.Random" or dotted.endswith(".random.Random"):
            return "raw"
        last = dotted.split(".")[-1]
        if last in _RNG_FUNCTIONS:
            return last
    callee = callee_at.get((node.lineno, node.col_offset))
    if callee is not None and callee.kind == "function":
        if is_rng_module(callee.module) and callee.qualname in _RNG_FUNCTIONS:
            return callee.qualname
    if isinstance(node.func, ast.Attribute) and node.func.attr in (
        "spawn", "fork",
    ):
        return node.func.attr
    return None


def _stream_name(
    model: ProgramModel, info: ModuleInfo, node: ast.Call, api: str
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
    resolved = model.resolve_string(info, expr)
    if resolved is not None:
        return resolved, True
    prefix = model.static_prefix(expr)
    if prefix:
        return prefix + "…", False
    return "<dynamic>", False


def _site_ctx(project: ProjectContext, site: RngSite):
    """(FileContext, module-is-exempt) for one RNG site."""
    module = site.function[0]
    ctx = project.context_for_module(module)
    if ctx is None:
        return None, True
    exempt = is_rng_module(module) or is_test_module(ctx.rel_path)
    return ctx, exempt


class _SeedRule(Rule):
    """Shared driver over the program's RNG-site table."""

    def finalize(self, project: ProjectContext) -> Iterable[Finding]:
        if not project.files:
            return
        model = project.program_model()
        yield from self._check(project, model, rng_sites(model))

    def _check(
        self,
        project: ProjectContext,
        model: ProgramModel,
        sites: Dict[FunctionRef, Tuple[RngSite, ...]],
    ) -> Iterable[Finding]:
        return ()


@register
class DoubleSpentSeedRule(_SeedRule):
    """S702 — one literal stream name derived at two call sites."""

    code = "S702"
    name = "seed-double-spent"
    description = (
        "the same literal stream name is derived at two different call "
        "sites in one API family: two consumers would draw correlated "
        "values from one seed"
    )

    def _check(self, project, model, sites) -> Iterable[Finding]:
        groups: Dict[Tuple[str, str], List[Tuple[RngSite, object]]] = {}
        for ref, ref_sites in sorted(sites.items()):
            for site in ref_sites:
                family = _DERIVE_FAMILIES.get(site.api)
                if family is None or not site.literal or site.name is None:
                    continue
                ctx, exempt = _site_ctx(project, site)
                if ctx is None or exempt:
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
class FixedRngOutsideTestsRule(_SeedRule):
    """S703 — ``fixed_rng`` in non-test code."""

    code = "S703"
    name = "seed-fixed-rng"
    description = (
        "fixed_rng(...) outside tests: library code must take an "
        "injected rng (or derive one from the world's streams), not "
        "fabricate a constant-seed generator"
    )

    def _check(self, project, model, sites) -> Iterable[Finding]:
        for ref, ref_sites in sorted(sites.items()):
            for site in ref_sites:
                if site.api != "fixed_rng":
                    continue
                ctx, exempt = _site_ctx(project, site)
                if ctx is None or exempt:
                    continue
                yield ctx.finding(
                    self,
                    site.node,
                    f"fixed_rng(...) in {site.function[1]} is outside "
                    "test code; inject the rng from the caller or "
                    "derive it from the shard's streams",
                )


@register
class RngEscapesShardRule(_SeedRule):
    """S704 — a stage ``run`` returning an RNG/stream object."""

    code = "S704"
    name = "seed-rng-escapes-shard"
    description = (
        "a stage run function returns an RNG or RngStreams value: shard "
        "results must be data, generator state does not survive the "
        "merge boundary deterministically"
    )

    def _check(self, project, model, sites) -> Iterable[Finding]:
        for decl in model.discover_stages():
            run_seed = decl.seeds.get("run")
            fn = model.function(run_seed) if run_seed else None
            if run_seed is None or fn is None:
                continue
            ctx = project.context_for_module(run_seed[0])
            if ctx is None:
                continue
            producer_at = {
                (site.node.lineno, site.node.col_offset)
                for site in sites.get(run_seed, ())
                if site.api in _RNG_PRODUCERS
            }
            rng_names: Set[str] = set()
            for node in ast.walk(fn.node):
                if not isinstance(node, ast.Assign):
                    continue
                if not isinstance(node.value, ast.Call):
                    continue
                if (
                    node.value.lineno,
                    node.value.col_offset,
                ) not in producer_at:
                    continue
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        rng_names.add(target.id)
            for node in ast.walk(fn.node):
                if not isinstance(node, ast.Return) or node.value is None:
                    continue
                leaked = self._leaked_rng(node.value, rng_names, producer_at)
                if leaked is None:
                    continue
                yield ctx.finding(
                    self,
                    node,
                    f"stage '{decl.name}' run returns {leaked}; return "
                    "drawn values instead of the generator",
                )

    @staticmethod
    def _leaked_rng(
        expr: ast.expr,
        rng_names: Set[str],
        producer_at: Set[Tuple[int, int]],
    ):
        for sub in ast.walk(expr):
            if isinstance(sub, ast.Name) and sub.id in rng_names:
                return f"the RNG bound to '{sub.id}'"
            if isinstance(sub, ast.Call) and (
                (sub.lineno, sub.col_offset) in producer_at
            ):
                return "a freshly derived RNG"
        return None
