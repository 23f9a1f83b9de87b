"""Execution-context analysis over the whole-program call graph.

The runtime runs code in three execution contexts: the plain ``main``
thread of the CLIs, threads that a library caller or the code itself
starts, and the process-pool shard workers that run stage bodies.  A
raw write-mode ``open()`` is fine on ``main`` and a hazard from a
thread or a shard, where two writers may race on one file.

:class:`ContextAnalysis` classifies every function by the set of
contexts it is *reachable from*, by BFS over the
:class:`~repro.lint.program.ProgramModel` call graph from known
entrypoints:

* **main** — every ``main`` function (CLI entry convention);
* **thread** — targets of ``run_in_executor``, ``executor.submit``
  and ``threading.Thread(target=...)``;
* **shard** — every discovered stage's ``run`` callable (executed in
  process-pool workers).

Propagation follows plain call edges; an offload edge (``submit`` /
``run_in_executor`` / ``Thread(target=...)``) moves the callee to
**thread** instead.

On top of the context map the analysis collects the write-mode file
opens outside the sanctioned atomic-write helpers
(:mod:`repro.obs.persist`, the artifact cache's ``.tmp.{pid}.{tid}``
path) that a thread or shard reaches, which T1005
(:mod:`repro.lint.rules_concurrency`) reports.  Every reported site
carries a witness chain from a context seed down to the site, one
``file:line snippet`` hop per call.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.lint.framework import is_test_module
from repro.lint.program import FunctionInfo, ModuleInfo, ProgramModel

#: the execution contexts, in seed-priority order
CONTEXTS = ("main", "thread", "shard")

#: offload attribute → positional index of the callable argument; the
#: callee runs on an executor thread
_THREAD_OFFLOADS = {"run_in_executor": 1, "submit": 0}

#: write chains longer than this are truncated (defensive bound)
_MAX_CHAIN_HOPS = 12

FunctionRef = Tuple[str, str]

#: (callee, call line) pairs out of one function
Edges = Tuple[Tuple[FunctionRef, int], ...]


def is_atomic_write_module(module: str) -> bool:
    """Modules that own the sanctioned atomic write paths: the
    ``repro.io`` package, :mod:`repro.obs.persist` and the artifact
    cache (its ``store`` writes through ``.tmp.{pid}.{thread_ident}``
    followed by ``os.replace``)."""
    parts = module.split(".")
    return "io" in parts or parts[-1] in ("persist", "cache")


def _snippet(info: ModuleInfo, line: int) -> str:
    lines = info.ctx.lines
    return lines[line - 1].strip() if 0 < line <= len(lines) else ""


def _callee_at(fn: FunctionInfo) -> Dict[Tuple[int, int], Any]:
    """(line, col) → resolved Callee for every call in ``fn``."""
    return {(c.line, c.col): c.callee for c in fn.calls}


@dataclass(frozen=True)
class RawWrite:
    """One write-mode ``open()`` / ``Path.write_*`` call."""

    rendered: str
    line: int
    snippet: str


@dataclass
class ContextFinding:
    """One hazard site plus its witness chain."""

    rule: str
    context: str
    function: FunctionRef
    site: str
    chain: List[str] = field(default_factory=list)
    detail: str = ""


class ContextAnalysis:
    """Context classification + hazard-site scans over one model."""

    def __init__(self, model: ProgramModel) -> None:
        self.model = model
        self._contexts: Optional[Dict[FunctionRef, Set[str]]] = None
        self._parents: Dict[
            str, Dict[FunctionRef, Optional[Tuple[FunctionRef, int]]]
        ] = {}
        self._seeds: Optional[Dict[str, Tuple[FunctionRef, ...]]] = None
        self._edges_memo: Dict[FunctionRef, Tuple[Edges, Edges]] = {}
        self._self_attr_types: Optional[
            Dict[Tuple[str, str], Dict[str, Tuple[str, str]]]
        ] = None

    # -- seeds -----------------------------------------------------------

    def seeds(self) -> Dict[str, Tuple[FunctionRef, ...]]:
        """Context → entrypoint functions seeded into that context."""
        if self._seeds is not None:
            return self._seeds
        out: Dict[str, List[FunctionRef]] = {c: [] for c in CONTEXTS}
        for module_name in sorted(self.model.modules):
            info = self.model.modules[module_name]
            for qualname in sorted(info.functions):
                if qualname.split(".")[-1] == "main":
                    out["main"].append((module_name, qualname))
        for decl in self.model.discover_stages():
            run_seed = decl.seeds.get("run")
            if run_seed is not None and self.model.function(run_seed):
                out["shard"].append(run_seed)
        self._seeds = {c: tuple(refs) for c, refs in out.items()}
        return self._seeds

    # -- the context map -------------------------------------------------

    def contexts(self) -> Dict[FunctionRef, Set[str]]:
        """Function → the set of contexts whose execution reaches it."""
        if self._contexts is not None:
            return self._contexts
        contexts: Dict[FunctionRef, Set[str]] = {}
        parents: Dict[
            str, Dict[FunctionRef, Optional[Tuple[FunctionRef, int]]]
        ] = {c: {} for c in CONTEXTS}
        queue: deque = deque()

        def visit(
            ref: FunctionRef,
            context: str,
            parent: Optional[Tuple[FunctionRef, int]],
        ) -> None:
            if self.model.function(ref) is None:
                return
            seen = contexts.setdefault(ref, set())
            if context in seen:
                return
            seen.add(context)
            parents[context][ref] = parent
            queue.append((ref, context))

        for context, refs in self.seeds().items():
            for ref in refs:
                visit(ref, context, None)
        while queue:
            ref, context = queue.popleft()
            sync_edges, offload_edges = self._edges(ref)
            for target, line in sync_edges:
                visit(target, context, (ref, line))
            for target, line in offload_edges:
                visit(target, "thread", (ref, line))
        self._contexts = contexts
        self._parents = parents
        return contexts

    # -- witness chains --------------------------------------------------

    def chain(self, context: str, ref: FunctionRef) -> List[str]:
        """``file:line`` hops from a ``context`` seed down to ``ref``.

        The first hop is the seed's definition line; every later hop is
        the call site in the parent that hands execution onward.
        """
        self.contexts()
        tree = self._parents.get(context, {})
        if ref not in tree:
            return [self._render_def(ref)]
        path: List[FunctionRef] = []
        lines: List[Optional[int]] = []
        cursor: Optional[FunctionRef] = ref
        seen: Set[FunctionRef] = set()
        while cursor is not None and cursor not in seen and (
            len(path) < _MAX_CHAIN_HOPS
        ):
            seen.add(cursor)
            path.append(cursor)
            parent = tree.get(cursor)
            if parent is None:
                lines.append(None)
                cursor = None
            else:
                lines.append(parent[1])
                cursor = parent[0]
        path.reverse()
        lines.reverse()
        chain: List[str] = [self._render_def(path[0])]
        for index in range(1, len(path)):
            chain.append(
                self._render_site(path[index - 1], lines[index], path[index])
            )
        return chain

    def _render_def(self, ref: FunctionRef) -> str:
        info = self.model.modules.get(ref[0])
        fn = self.model.function(ref)
        if info is None or fn is None:
            return f"{ref[0]}:{ref[1]}"
        line = fn.node.lineno
        return f"{info.ctx.rel_path}:{line} {_snippet(info, line)}"

    def _render_site(
        self, parent: FunctionRef, line: Optional[int], target: FunctionRef
    ) -> str:
        info = self.model.modules.get(parent[0])
        if info is None or line is None:
            return f"{target[0]}:{target[1]}"
        return f"{info.ctx.rel_path}:{line} {_snippet(info, line)}"

    # -- call edges ------------------------------------------------------

    def _edges(self, ref: FunctionRef) -> Tuple[Edges, Edges]:
        """(sync call edges, thread-offload edges) out of one function."""
        cached = self._edges_memo.get(ref)
        if cached is not None:
            return cached
        info = self.model.modules[ref[0]]
        fn = info.functions[ref[1]]
        callee_at = _callee_at(fn)
        local_types = self._local_types(info, fn, callee_at)
        sync: List[Tuple[FunctionRef, int]] = []
        offload: List[Tuple[FunctionRef, int]] = []
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Call):
                continue
            hop = self._offload_edge(info, fn, node, local_types)
            if hop is not None:
                offload.append(hop)
                continue
            target: Optional[FunctionRef] = None
            callee = callee_at.get((node.lineno, node.col_offset))
            if callee is not None and callee.kind == "function":
                target = (callee.module, callee.qualname)
            elif callee is not None and callee.kind == "class":
                ctor = (callee.module, f"{callee.qualname}.__init__")
                if self.model.function(ctor) is not None:
                    target = ctor
            if target is None:
                target = self._method_target(fn, node, local_types)
            if target is None:
                target = self._self_attr_method_target(info, fn, node)
            if target is not None and self.model.function(target):
                sync.append((target, node.lineno))
        result = (tuple(sync), tuple(offload))
        self._edges_memo[ref] = result
        return result

    def _local_types(
        self,
        info: ModuleInfo,
        fn: FunctionInfo,
        callee_at: Dict[Tuple[int, int], Any],
    ) -> Dict[str, Tuple[str, str]]:
        """Local name → (module, class) from single-assignment
        instantiations (``x = Cls(...)``) and class-typed annotations
        (parameters and ``x: Cls``).  Names bound ambiguously are
        dropped — never guessed."""
        types: Dict[str, Optional[Tuple[str, str]]] = {}

        def bind(name: str, target: Optional[Tuple[str, str]]) -> None:
            if name in types and types[name] != target:
                types[name] = None
            else:
                types[name] = target

        def annotation_class(node: ast.expr) -> Optional[Tuple[str, str]]:
            dotted = info.ctx.dotted_name(node)
            if dotted is None:
                return None
            parts = dotted.split(".")
            symbol = info.symbols.get(parts[0])
            if symbol is None:
                return None
            if symbol.kind == "class" and len(parts) == 1:
                return (symbol.module, symbol.qualname)
            if symbol.kind == "module" and len(parts) == 2:
                origin = self.model.modules.get(symbol.module)
                if origin and parts[1] in origin.classes:
                    return (symbol.module, parts[1])
            return None

        args = getattr(fn.node, "args", None)
        if args is not None:
            params = list(args.args) + list(args.kwonlyargs)
            params += list(getattr(args, "posonlyargs", []))
            for param in params:
                if param.annotation is not None:
                    cls = annotation_class(param.annotation)
                    if cls is not None:
                        bind(param.arg, cls)
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Assign):
                targets = [
                    t for t in node.targets if isinstance(t, ast.Name)
                ]
                if len(targets) != len(node.targets):
                    continue
                value: Optional[Tuple[str, str]] = None
                if isinstance(node.value, ast.Call):
                    callee = callee_at.get(
                        (node.value.lineno, node.value.col_offset)
                    )
                    if callee is not None and callee.kind == "class":
                        value = (callee.module, callee.qualname)
                for target in targets:
                    bind(target.id, value)
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                cls = annotation_class(node.annotation)
                bind(node.target.id, cls)
        return {k: v for k, v in types.items() if v is not None}

    def _method_target(
        self,
        fn: FunctionInfo,
        node: ast.Call,
        local_types: Dict[str, Tuple[str, str]],
    ) -> Optional[FunctionRef]:
        """Resolve ``x.method(...)`` through the local-type map, and
        ``self.method(...)`` through the enclosing class."""
        func = node.func
        if not (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
        ):
            return None
        owner: Optional[Tuple[str, str]] = None
        if func.value.id in ("self", "cls") and "." in fn.qualname:
            owner = (fn.module, fn.qualname.rsplit(".", 1)[0])
        else:
            owner = local_types.get(func.value.id)
        if owner is None:
            return None
        callee = self.model._lookup_method(
            owner[0], owner[1], func.attr, rendered=f"{func.value.id}.{func.attr}"
        )
        if callee.kind != "function":
            return None
        target = (callee.module, callee.qualname)
        return target if self.model.function(target) is not None else None

    def _offload_edge(
        self,
        info: ModuleInfo,
        fn: FunctionInfo,
        node: ast.Call,
        local_types: Dict[str, Tuple[str, str]],
    ) -> Optional[Tuple[FunctionRef, int]]:
        """A thread-offload edge out of one call, if it is one."""
        func = node.func
        dotted = info.ctx.dotted_name(func)
        if dotted is not None and dotted.split(".")[-1] == "Thread":
            for keyword in node.keywords:
                if keyword.arg == "target":
                    target = self._callable_ref(
                        info, fn, keyword.value, local_types
                    )
                    if target is not None:
                        return (target, node.lineno)
            return None
        if not isinstance(func, ast.Attribute):
            return None
        index = _THREAD_OFFLOADS.get(func.attr)
        if index is None or len(node.args) <= index:
            return None
        target = self._callable_ref(info, fn, node.args[index], local_types)
        if target is None:
            return None
        return (target, node.lineno)

    def _callable_ref(
        self,
        info: ModuleInfo,
        fn: FunctionInfo,
        expr: ast.expr,
        local_types: Dict[str, Tuple[str, str]],
    ) -> Optional[FunctionRef]:
        """Resolve a callable-valued expression to a model function."""
        if isinstance(expr, ast.Name):
            symbol = info.symbols.get(expr.id)
            if symbol is not None and symbol.kind == "function":
                ref = (symbol.module, symbol.qualname)
                return ref if self.model.function(ref) else None
            return None
        if not (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
        ):
            return None
        base = expr.value.id
        owner: Optional[Tuple[str, str]] = None
        if base in ("self", "cls") and "." in fn.qualname:
            owner = (fn.module, fn.qualname.rsplit(".", 1)[0])
        elif base in local_types:
            owner = local_types[base]
        else:
            symbol = info.symbols.get(base)
            if symbol is not None and symbol.kind == "module":
                origin = self.model.modules.get(symbol.module)
                target = (
                    origin.symbols.get(expr.attr) if origin else None
                )
                if target is not None and target.kind == "function":
                    ref = (target.module, target.qualname)
                    return ref if self.model.function(ref) else None
            return None
        if owner is None:
            return None
        callee = self.model._lookup_method(
            owner[0], owner[1], expr.attr, rendered=f"{base}.{expr.attr}"
        )
        if callee.kind != "function":
            return None
        ref = (callee.module, callee.qualname)
        return ref if self.model.function(ref) else None

    # -- instance-attribute typing ---------------------------------------

    def self_attr_types(
        self,
    ) -> Dict[Tuple[str, str], Dict[str, Tuple[str, str]]]:
        """(module, class) → attribute → (module, class) of the value,
        from unambiguous ``self.x = Cls(...)`` constructor assignments
        (including the ``a if cond else Cls(...)`` default idiom)."""
        if self._self_attr_types is not None:
            return self._self_attr_types
        table: Dict[Tuple[str, str], Dict[str, Tuple[str, str]]] = {}
        for module_name, info in self.model.modules.items():
            for class_name, cls in info.classes.items():
                attrs: Dict[str, Optional[Tuple[str, str]]] = {}
                for method_qual in cls.methods.values():
                    method = info.functions.get(method_qual)
                    if method is None:
                        continue
                    callee_at = _callee_at(method)
                    for node in ast.walk(method.node):
                        self._bind_self_attr(node, callee_at, attrs)
                table[(module_name, class_name)] = {
                    name: owner
                    for name, owner in attrs.items()
                    if owner is not None
                }
        self._self_attr_types = table
        return table

    def _bind_self_attr(
        self,
        node: ast.AST,
        callee_at: Dict[Tuple[int, int], Any],
        attrs: Dict[str, Optional[Tuple[str, str]]],
    ) -> None:
        if isinstance(node, ast.Assign):
            targets: List[ast.expr] = list(node.targets)
            value = node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
            value = node.value
        else:
            return
        calls = [value]
        if isinstance(value, ast.IfExp):
            calls = [value.body, value.orelse]
        owner: Optional[Tuple[str, str]] = None
        for candidate in calls:
            if not isinstance(candidate, ast.Call):
                continue
            callee = callee_at.get(
                (candidate.lineno, candidate.col_offset)
            )
            if callee is not None and callee.kind == "class":
                owner = (callee.module, callee.qualname)
                break
        if owner is None:
            return
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                known = attrs.get(target.attr)
                if known is not None and known != owner:
                    attrs[target.attr] = None
                elif target.attr not in attrs or known is None:
                    attrs.setdefault(target.attr, owner)

    def _self_attr_method_target(
        self, info: ModuleInfo, fn: FunctionInfo, node: ast.Call
    ) -> Optional[FunctionRef]:
        """Resolve ``self.attr.method(...)`` through the constructor-
        assignment type table (one attribute hop)."""
        func = node.func
        if not (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Attribute)
            and isinstance(func.value.value, ast.Name)
            and func.value.value.id == "self"
            and "." in fn.qualname
        ):
            return None
        owner_class = (fn.module, fn.qualname.rsplit(".", 1)[0])
        attr_types = self.self_attr_types().get(owner_class, {})
        owner = attr_types.get(func.value.attr)
        if owner is None:
            return None
        callee = self.model._lookup_method(
            owner[0], owner[1], func.attr,
            rendered=f"self.{func.value.attr}.{func.attr}",
        )
        if callee.kind != "function":
            return None
        ref = (callee.module, callee.qualname)
        return ref if self.model.function(ref) else None

    # -- raw writes ------------------------------------------------------

    def raw_writes(self, ref: FunctionRef) -> Tuple[RawWrite, ...]:
        """Write-mode ``open()`` / ``Path.write_*`` calls in one
        function (the sites T1005 gates behind the atomic helpers)."""
        info = self.model.modules[ref[0]]
        fn = info.functions[ref[1]]
        sites: List[RawWrite] = []
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Call):
                continue
            rendered: Optional[str] = None
            dotted = info.ctx.dotted_name(node.func)
            if dotted == "open" and self._is_write_open(node):
                rendered = "open"
            elif isinstance(node.func, ast.Attribute) and (
                node.func.attr in ("write_text", "write_bytes")
            ):
                rendered = node.func.attr
            if rendered is None:
                continue
            sites.append(RawWrite(
                rendered=rendered,
                line=node.lineno,
                snippet=_snippet(info, node.lineno),
            ))
        return tuple(sites)

    @staticmethod
    def _is_write_open(node: ast.Call) -> bool:
        mode: Optional[ast.expr] = None
        if len(node.args) > 1:
            mode = node.args[1]
        for keyword in node.keywords:
            if keyword.arg == "mode":
                mode = keyword.value
        if not isinstance(mode, ast.Constant) or not isinstance(
            mode.value, str
        ):
            return False
        return any(flag in mode.value for flag in ("w", "a", "x", "+"))

    # -- findings --------------------------------------------------------

    def findings(self) -> List[ContextFinding]:
        """Every T-family hazard, pragma-agnostic, with witness chains.

        The registered rules turn these into lint findings, so per-line
        pragmas can suppress them individually.
        """
        out: List[ContextFinding] = []
        contexts = self.contexts()
        for ref in sorted(contexts):
            info = self.model.modules[ref[0]]
            if is_test_module(info.ctx.rel_path):
                continue
            concurrent = contexts[ref] & {"thread", "shard"}
            if concurrent and not is_atomic_write_module(info.name):
                context = next(c for c in CONTEXTS if c in concurrent)
                for write in self.raw_writes(ref):
                    out.append(self._finding(
                        "T1005", context, ref, write.line,
                        write.snippet, detail=write.rendered,
                    ))
        return out

    def _finding(
        self,
        rule: str,
        context: str,
        ref: FunctionRef,
        line: int,
        snippet: str,
        detail: str = "",
    ) -> ContextFinding:
        info = self.model.modules[ref[0]]
        chain = self.chain(context, ref)
        chain.append(f"{info.ctx.rel_path}:{line} {snippet}")
        return ContextFinding(
            rule=rule,
            context=context,
            function=ref,
            site=f"{info.ctx.rel_path}:{line}",
            chain=chain,
            detail=detail,
        )


def concurrency_for_model(model: ProgramModel) -> ContextAnalysis:
    """The memoized :class:`ContextAnalysis` of one program model."""
    cached = getattr(model, "_concurrency_analysis", None)
    if isinstance(cached, ContextAnalysis):
        return cached
    analysis = ContextAnalysis(model)
    setattr(model, "_concurrency_analysis", analysis)
    return analysis


def concurrency_for(project: Any) -> ContextAnalysis:
    """The analysis of one lint project (memoized via its model)."""
    return concurrency_for_model(project.program_model())
