"""O-rules: observability consistency.

Manifest comparison ("two runs disagree on metric X") only works if X
comes from a closed vocabulary.  :mod:`repro.obs.names` declares that
vocabulary — every metric name with its label set, every span name —
and these rules hold the rest of the tree to it by resolving the name
argument of every instrumentation call site against the catalog,
*statically* (the catalog file's AST is read once per run; nothing is
imported).  A name resolves if it is a literal, a module-level constant
of the calling file, or a catalog constant one import hop away
(``obs_names.X`` or ``from repro.obs.names import X``).

* **O601** — the metric name at an ``inc``/``observe`` /
  ``registry.counter``/``histogram``/``sum_counters`` call
  site must resolve to a declared metric.  Dynamic names (variables,
  f-strings) cannot be checked and are flagged too: a name the linter
  cannot see is a name the catalog does not close over.
* **O602** — the label keywords at a metric call site must equal the
  declared label set: every declared label bound, no undeclared ones.
* **O603** — span names at ``*.span(...)`` call sites must match the
  declared span list; a trailing ``*`` in a declared name covers a
  dynamic suffix (``stage:*`` admits ``f"stage:{name}"``).

The rules are quiet when no ``obs.names`` catalog module is part of the
analyzed tree (lint fixtures), and never patrol the ``obs`` package
itself — the implementation of the metrics layer necessarily handles
names as values.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Set, Tuple

from repro.lint.findings import Finding
from repro.lint.framework import (
    FileContext,
    ProjectContext,
    Rule,
    register,
    resolve_string,
    static_prefix,
)

#: ambient helpers in repro.obs.metrics (name is the first argument)
AMBIENT_METRIC_CALLS = {"inc", "observe"}

#: registry/duck-typed accessors whose first argument is a metric name
REGISTRY_METRIC_CALLS = {"counter", "histogram", "sum_counters"}

#: keyword arguments of metric calls that are values, not labels
NON_LABEL_KWARGS = {"amount", "value"}

#: a parsed catalog: (metric -> declared labels, span patterns)
Catalog = Tuple[Dict[str, Tuple[str, ...]], List[str]]


def _catalog_module(
    modules: Mapping[str, FileContext],
) -> Optional[FileContext]:
    """The ``obs.names`` catalog module of the analyzed tree, if any."""
    for name in sorted(modules):
        if name == "repro.obs.names" or name.endswith(".obs.names"):
            return modules[name]
    return None


def _parse_catalog(
    catalog: FileContext, modules: Mapping[str, FileContext]
) -> Catalog:
    """Statically read (metric -> labels, span patterns) from the
    catalog module's AST."""
    metrics: Dict[str, Tuple[str, ...]] = {}
    spans: List[str] = []
    value = catalog.assignments.get("_METRIC_DECLS")
    if isinstance(value, ast.Tuple):
        for element in value.elts:
            if not isinstance(element, ast.Tuple) or len(element.elts) < 3:
                continue
            name = resolve_string(catalog, element.elts[0], modules)
            labels_node = element.elts[2]
            if name is None or not isinstance(labels_node, ast.Tuple):
                continue
            labels = tuple(
                label.value
                for label in labels_node.elts
                if isinstance(label, ast.Constant)
                and isinstance(label.value, str)
            )
            metrics[name] = labels
    span_value = catalog.assignments.get("SPAN_NAMES")
    if isinstance(span_value, ast.Tuple):
        for element in span_value.elts:
            name = resolve_string(catalog, element, modules)
            if name is not None:
                spans.append(name)
    return metrics, spans


def _in_obs_package(module: str) -> bool:
    return "obs" in module.split(".")


def _metric_call_sites(
    ctx: FileContext, modules: Mapping[str, FileContext]
) -> Iterator[Tuple[ast.Call, str, bool]]:
    """Yield (call, helper name, strict) for metric-flavoured calls.

    ``strict`` means the call provably targets the obs metrics layer
    (``obs_metrics.inc(...)`` on an analyzed obs module, ``from
    repro.obs.metrics import inc``): there a dynamic name is itself a
    violation.  Duck-typed matches — ``registry.counter(...)``, or any
    ``.observe(...)`` on an object that is not an imported module — are
    reported non-strict, and only checked when the name argument is
    statically resolvable (an unrelated ``db.observe(fqdn, ...)`` must
    not false-positive).

    The walk is over the whole module AST: module-level and
    function-level code are both covered.
    """
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute):
            attr = func.attr
            if attr not in AMBIENT_METRIC_CALLS | REGISTRY_METRIC_CALLS:
                continue
            strict = False
            if isinstance(func.value, ast.Name):
                origin = ctx.import_origin(func.value.id, node) or ""
                strict = (
                    origin in modules
                    and _in_obs_package(origin)
                    and attr in AMBIENT_METRIC_CALLS
                )
            yield node, attr, strict
        elif isinstance(func, ast.Name):
            origin = ctx.import_origin(func.id, node) or ""
            if (
                func.id in AMBIENT_METRIC_CALLS
                and origin.split(".")[-1] == func.id
                and _in_obs_package(origin)
            ):
                yield node, func.id, True


class _CatalogRule(Rule):
    """Shared driver: read the catalog once, then visit every file
    outside the obs package."""

    def finalize(self, project: ProjectContext) -> Iterable[Finding]:
        modules = project.modules
        catalog = _catalog_module(modules)
        if catalog is None or catalog.tree is None:
            return
        parsed = _parse_catalog(catalog, modules)
        for ctx in project.files.values():
            if _in_obs_package(ctx.module) or ctx.tree is None:
                continue
            yield from self._check_module(ctx, modules, parsed)

    def _check_module(
        self,
        ctx: FileContext,
        modules: Mapping[str, FileContext],
        catalog: Catalog,
    ) -> Iterator[Finding]:
        return iter(())


@register
class MetricNameRule(_CatalogRule):
    """O601 — metric names must be declared in the obs names catalog."""

    code = "O601"
    name = "undeclared-metric-name"
    description = (
        "metric call site whose name is not a declared constant from "
        "the obs.names catalog (or is dynamic and uncheckable)"
    )

    def _check_module(self, ctx, modules, catalog) -> Iterator[Finding]:
        metrics, _ = catalog
        for call, helper, strict in _metric_call_sites(ctx, modules):
            if not call.args:
                continue
            name = resolve_string(ctx, call.args[0], modules)
            if name is None:
                if strict:
                    yield ctx.finding(
                        self,
                        call,
                        f"{helper}(...) metric name is dynamic; pass a "
                        "constant declared in the obs names catalog",
                    )
            elif name not in metrics:
                yield ctx.finding(
                    self,
                    call,
                    f"{helper}({name!r}) uses an undeclared metric "
                    "name; declare it in the obs names catalog",
                )


@register
class MetricLabelRule(_CatalogRule):
    """O602 — metric labels must match the declared label set."""

    code = "O602"
    name = "metric-label-mismatch"
    description = (
        "metric call site whose label keywords differ from the label "
        "set declared for that metric in the obs.names catalog"
    )

    def _check_module(self, ctx, modules, catalog) -> Iterator[Finding]:
        metrics, _ = catalog
        for call, helper, strict in _metric_call_sites(ctx, modules):
            if helper == "sum_counters":
                # aggregates across label sets by design
                continue
            if not call.args:
                continue
            name = resolve_string(ctx, call.args[0], modules)
            if name is None or name not in metrics:
                continue  # O601 territory
            if any(kw.arg is None for kw in call.keywords):
                continue  # **labels: dynamic, uncheckable
            passed: Set[str] = {
                kw.arg
                for kw in call.keywords
                if kw.arg is not None and (
                    not strict or kw.arg not in NON_LABEL_KWARGS
                )
            }
            declared = set(metrics[name])
            if passed != declared:
                want = ",".join(sorted(declared)) or "<none>"
                got = ",".join(sorted(passed)) or "<none>"
                yield ctx.finding(
                    self,
                    call,
                    f"{helper}({name!r}) labels [{got}] do not match "
                    f"the declared label set [{want}]",
                )


@register
class SpanNameRule(_CatalogRule):
    """O603 — span names must match the declared span list."""

    code = "O603"
    name = "undeclared-span-name"
    description = (
        "span(...) call site whose name (or static f-string prefix) "
        "matches no declared span name in the obs.names catalog"
    )

    @staticmethod
    def _matches(name: str, patterns: List[str], exact: bool) -> bool:
        for pattern in patterns:
            if pattern.endswith("*"):
                if name.startswith(pattern[:-1]):
                    return True
            elif exact and name == pattern:
                return True
        return False

    def _check_module(self, ctx, modules, catalog) -> Iterator[Finding]:
        _, spans = catalog
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute) or func.attr != "span":
                continue
            if not node.args:
                continue
            arg = node.args[0]
            name = resolve_string(ctx, arg, modules)
            if name is not None:
                if not self._matches(name, spans, exact=True):
                    yield ctx.finding(
                        self,
                        node,
                        f"span({name!r}) is not declared in the obs "
                        "names catalog",
                    )
                continue
            prefix = static_prefix(arg)
            if prefix is None:
                continue  # not a string expression at all (e.g. a call)
            if not prefix or not self._matches(prefix, spans, exact=False):
                yield ctx.finding(
                    self,
                    node,
                    f"span name with static prefix {prefix!r} matches no "
                    "declared wildcard span pattern in the obs names "
                    "catalog",
                )
