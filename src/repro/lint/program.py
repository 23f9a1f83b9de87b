"""Whole-program analysis: module index, symbol tables, and call graph.

The per-file rules see one file at a time; the properties this module
serves cannot be checked that way.  Whether a metric name matches the
catalog constant it is imported from, whether one RNG stream name is
derived in two modules, which function a stage's ``run`` is — all
require the *program* view: which module is which file, what each
imported name is bound to, and who calls whom.

:class:`ProgramModel` provides that view.  It is built once per lint run
from the same :class:`~repro.lint.framework.FileContext` objects the
per-file rules see, and offers:

* a **module index** — dotted module name → :class:`ModuleInfo`, with a
  per-module symbol table (imports resolved through aliases and
  relative levels, module-level functions/classes/constants);
* a **conservative call graph** — every :class:`ast.Call` in every
  function body resolved to a :class:`Callee`: a function or method in
  the analyzed program, a class instantiation, a bare module, a
  ``repro.*`` name the analysis cannot index (``missing``), an external
  (stdlib) name, or ``unknown`` for dynamic dispatch.  Resolution
  understands ``module.attr`` chains, ``from x import y as z``,
  ``self.method()`` (including resolvable base classes), and method
  calls on locally-constructed or annotation-typed objects.  It never
  guesses: what cannot be proven degrades to ``unknown``, never to a
  wrong edge.

Stage discovery (:meth:`ProgramModel.discover_stages`) resolves every
``StageSpec(...)`` construction's role functions.  The runtime's cache
salts do not use this model: :mod:`repro.runtime.footprint` scans the
source itself.
"""

from __future__ import annotations

import ast
import builtins
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.lint.framework import (
    FileContext,
    ProjectContext,
    iter_python_files,
)

#: the qualname a scan reports for code outside every function body
MODULE_SCOPE = "<module>"


def module_level_calls(tree: ast.AST) -> Iterator[ast.Call]:
    """Every call a module makes outside its function bodies, in source
    order: what runs at import, class bodies included.  A function's
    decorators and defaults belong to the function's own scan, as
    ``ast.walk`` over its node reaches them."""
    for child in ast.iter_child_nodes(tree):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(child, ast.Call):
            yield child
        yield from module_level_calls(child)


def resolve_relative_import(
    module: str, is_package: bool, level: int, target: Optional[str]
) -> Optional[str]:
    """Absolute dotted module for a (possibly relative) ImportFrom.

    ``level == 0`` is already absolute.  For relative imports the base
    is the importing module's package: a plain module drops its own
    name first, a package (``__init__.py``) counts as its own base.
    Over-deep relativity resolves to ``None``.
    """
    if level == 0:
        return target
    base = module.split(".")
    if is_package:
        base.append("__init__")
    if level > len(base):
        return None
    prefix = base[: len(base) - level]
    if target:
        prefix.extend(target.split("."))
    return ".".join(prefix) if prefix else None


# ---------------------------------------------------------------------------
# model records
# ---------------------------------------------------------------------------

#: a function in the analyzed program, addressed as (module, qualname)
FunctionRef = Tuple[str, str]


@dataclass(frozen=True)
class Callee:
    """The resolution of one call site.

    ``kind`` is one of ``function`` / ``class`` / ``module`` (resolved
    only to module granularity) / ``missing`` (a ``repro.*`` name whose
    module is not in the analyzed program) / ``external`` (stdlib or
    third-party) / ``unknown`` (dynamic dispatch the analysis cannot
    follow).
    """

    kind: str
    module: str = ""
    qualname: str = ""


@dataclass(frozen=True)
class CallSite:
    """One :class:`ast.Call` with its resolved callee."""

    line: int
    col: int
    callee: Callee


@dataclass
class FunctionInfo:
    """One function or method body in the analyzed program."""

    node: ast.AST
    calls: List[CallSite] = field(default_factory=list)


@dataclass
class ClassInfo:
    """One class defined at module level."""

    bases: Tuple[str, ...]
    #: method name -> qualname in the module's function table
    methods: Dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class Symbol:
    """A name bound at module scope (by import or definition)."""

    kind: str  # function | class | module | constant | missing | external
    module: str = ""
    qualname: str = ""
    value: str = ""


@dataclass
class ModuleInfo:
    """Everything the model knows about one analyzed module."""

    name: str
    ctx: FileContext
    is_package: bool
    symbols: Dict[str, Symbol] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    #: module-level string constants, e.g. ``NAME = "literal"``
    constants: Dict[str, str] = field(default_factory=dict)
    #: module-level assignment statements by target name
    constant_nodes: Dict[str, ast.stmt] = field(default_factory=dict)


@dataclass
class StageDecl:
    """One statically-discovered ``StageSpec(...)`` construction."""

    name: str
    #: resolved plan/run/merge/index seeds, keyed by keyword
    seeds: Dict[str, FunctionRef] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# the model
# ---------------------------------------------------------------------------

class ProgramModel:
    """Module index + symbol tables + call graph over an analyzed tree."""

    def __init__(self, modules: Dict[str, ModuleInfo]) -> None:
        self.modules = modules

    # -- construction ----------------------------------------------------
    @classmethod
    def from_project(cls, project: ProjectContext) -> "ProgramModel":
        contexts = [
            ctx for ctx in project.files.values() if ctx.tree is not None
        ]
        return cls.from_contexts(contexts)

    @classmethod
    def from_paths(
        cls, paths: Sequence[Path], root: Optional[Path] = None
    ) -> "ProgramModel":
        """Build a model straight from the filesystem."""
        root = (root or Path.cwd()).resolve()
        contexts: List[FileContext] = []
        for path in iter_python_files(list(paths)):
            resolved = path.resolve()
            try:
                rel = resolved.relative_to(root).as_posix()
            except ValueError:
                rel = path.as_posix()
            ctx = FileContext(resolved, rel, resolved.read_text(encoding="utf-8"))
            if ctx.tree is not None:
                contexts.append(ctx)
        return cls.from_contexts(contexts)

    @classmethod
    def from_contexts(cls, contexts: Sequence[FileContext]) -> "ProgramModel":
        modules: Dict[str, ModuleInfo] = {}
        for ctx in sorted(contexts, key=lambda c: c.rel_path):
            info = ModuleInfo(
                name=ctx.module,
                ctx=ctx,
                is_package=ctx.path.name == "__init__.py",
            )
            # Last write wins on duplicate module names (shadowed trees);
            # sorted iteration keeps the choice deterministic.
            modules[info.name] = info
        model = cls(modules)
        for name in sorted(modules):
            model._index_module(modules[name])
        for name in sorted(modules):
            model._link_imports(modules[name])
        for name in sorted(modules):
            model._analyze_functions(modules[name])
        return model

    # -- pass 1: per-module definitions ----------------------------------
    def _index_module(self, info: ModuleInfo) -> None:
        tree = info.ctx.tree
        assert tree is not None
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._register_function(info, stmt, qualname=stmt.name)
                info.symbols[stmt.name] = Symbol(
                    "function", module=info.name, qualname=stmt.name
                )
            elif isinstance(stmt, ast.ClassDef):
                self._register_class(info, stmt)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                for target in self._assign_targets(stmt):
                    info.constant_nodes[target] = stmt
                    value = getattr(stmt, "value", None)
                    if isinstance(value, ast.Constant) and isinstance(
                        value.value, str
                    ):
                        info.constants[target] = value.value
                        info.symbols[target] = Symbol(
                            "constant", module=info.name, value=value.value
                        )

    @staticmethod
    def _assign_targets(stmt: ast.stmt) -> List[str]:
        targets: List[str] = []
        if isinstance(stmt, ast.Assign):
            nodes: List[ast.expr] = list(stmt.targets)
        else:
            nodes = [stmt.target]  # type: ignore[attr-defined]
        for node in nodes:
            if isinstance(node, ast.Name):
                targets.append(node.id)
            elif isinstance(node, ast.Tuple):
                targets.extend(
                    element.id
                    for element in node.elts
                    if isinstance(element, ast.Name)
                )
        return targets

    def _register_function(
        self, info: ModuleInfo, node: ast.AST, qualname: str
    ) -> None:
        info.functions[qualname] = FunctionInfo(node=node)

    def _register_class(self, info: ModuleInfo, node: ast.ClassDef) -> None:
        bases = tuple(
            rendered
            for rendered in (self._render(base) for base in node.bases)
            if rendered is not None
        )
        cls_info = ClassInfo(bases=bases)
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{node.name}.{stmt.name}"
                self._register_function(info, stmt, qualname=qualname)
                cls_info.methods[stmt.name] = qualname
        info.classes[node.name] = cls_info
        info.symbols[node.name] = Symbol(
            "class", module=info.name, qualname=node.name
        )

    @staticmethod
    def _render(node: ast.expr) -> Optional[str]:
        """Render an ``a.b.c`` attribute chain as a dotted string."""
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.append(node.id)
        return ".".join(reversed(parts))

    # -- pass 2: imported symbols ----------------------------------------
    def _link_imports(self, info: ModuleInfo) -> None:
        tree = info.ctx.tree
        assert tree is not None
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                self._link_plain_import(info, node)
            elif isinstance(node, ast.ImportFrom):
                self._link_from_import(info, node)

    def _link_plain_import(self, info: ModuleInfo, node: ast.Import) -> None:
        for alias in node.names:
            name = alias.name
            if name in self.modules:
                local = alias.asname or name.split(".")[0]
                bound = name if alias.asname else name.split(".")[0]
                if bound in self.modules:
                    info.symbols.setdefault(
                        local, Symbol("module", module=bound)
                    )
            elif name.split(".")[0] != "repro":
                local = alias.asname or name.split(".")[0]
                info.symbols.setdefault(local, Symbol("external", value=name))

    def _link_from_import(self, info: ModuleInfo, node: ast.ImportFrom) -> None:
        target = resolve_relative_import(
            info.name, info.is_package, node.level, node.module
        )
        if target is None:
            return
        target_indexed = target in self.modules
        for alias in node.names:
            local = alias.asname or alias.name
            submodule = f"{target}.{alias.name}"
            if submodule in self.modules:
                info.symbols.setdefault(local, Symbol("module", module=submodule))
            elif target_indexed:
                origin = self.modules[target]
                symbol = origin.symbols.get(alias.name)
                if symbol is not None and symbol.kind in (
                    "function", "class", "constant",
                ):
                    info.symbols.setdefault(local, symbol)
                else:
                    # Re-exported or dynamically-defined name: resolve it
                    # to module granularity.
                    info.symbols.setdefault(
                        local, Symbol("module", module=target)
                    )
            elif target.split(".")[0] != "repro":
                info.symbols.setdefault(
                    local, Symbol("external", value=f"{target}.{alias.name}")
                )

    # -- pass 3: call extraction ----------------------------------------
    def _analyze_functions(self, info: ModuleInfo) -> None:
        for qualname in sorted(info.functions):
            fn = info.functions[qualname]
            class_name = qualname.split(".")[0] if "." in qualname else None
            self._analyze_function(info, fn, class_name)

    def _analyze_function(
        self, info: ModuleInfo, fn: FunctionInfo, class_name: Optional[str]
    ) -> None:
        node = fn.node
        local_names = self.local_names(node)
        local_types = self._local_types(info, node, local_names)
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                callee = self._resolve_call(
                    info, sub, class_name, local_names, local_types
                )
                fn.calls.append(
                    CallSite(
                        line=sub.lineno, col=sub.col_offset, callee=callee
                    )
                )

    @staticmethod
    def local_names(node: ast.AST) -> Set[str]:
        """Every name bound inside the function (params, assignments,
        loop/with/except targets, comprehensions, local imports/defs)."""
        bound: Set[str] = set()
        args = getattr(node, "args", None)
        if args is not None:
            for group in (
                args.posonlyargs, args.args, args.kwonlyargs,
            ):
                bound.update(arg.arg for arg in group)
            for vararg in (args.vararg, args.kwarg):
                if vararg is not None:
                    bound.add(vararg.arg)
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(
                sub.ctx, (ast.Store, ast.Del)
            ):
                bound.add(sub.id)
            elif isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if sub is not node:
                    bound.add(sub.name)
            elif isinstance(sub, ast.ExceptHandler) and sub.name:
                bound.add(sub.name)
            elif isinstance(sub, (ast.Import, ast.ImportFrom)):
                for alias in sub.names:
                    bound.add(alias.asname or alias.name.split(".")[0])
        return bound

    def _local_types(
        self, info: ModuleInfo, node: ast.AST, local_names: Set[str]
    ) -> Dict[str, Tuple[str, str]]:
        """Conservative local-variable type bindings: parameters and
        variables annotated with a resolvable class, or assigned from a
        direct constructor call / a call whose return annotation names a
        resolvable class."""
        types: Dict[str, Tuple[str, str]] = {}
        args = getattr(node, "args", None)
        if args is not None:
            for arg in list(args.posonlyargs) + list(args.args) + list(
                args.kwonlyargs
            ):
                if arg.annotation is not None:
                    resolved = self._resolve_type(info, arg.annotation)
                    if resolved is not None:
                        types[arg.arg] = resolved
        for sub in ast.walk(node):
            if isinstance(sub, ast.AnnAssign) and isinstance(
                sub.target, ast.Name
            ):
                resolved = self._resolve_type(info, sub.annotation)
                if resolved is not None:
                    types[sub.target.id] = resolved
            elif isinstance(sub, ast.Assign) and len(sub.targets) == 1:
                target = sub.targets[0]
                if not isinstance(target, ast.Name):
                    continue
                if not isinstance(sub.value, ast.Call):
                    continue
                resolved = self._infer_call_type(info, sub.value)
                if resolved is not None:
                    types[target.id] = resolved
        return types

    def _infer_call_type(
        self, info: ModuleInfo, call: ast.Call
    ) -> Optional[Tuple[str, str]]:
        """Type of ``x = f(...)``: a constructed class, or the return
        annotation of a resolvable function."""
        callee = self._resolve_call(info, call, None, set(), {})
        if callee.kind == "class":
            return (callee.module, callee.qualname)
        if callee.kind == "function":
            fn = self.function((callee.module, callee.qualname))
            returns = getattr(fn.node, "returns", None) if fn else None
            if returns is not None:
                origin = self.modules.get(callee.module)
                if origin is not None:
                    return self._resolve_type(origin, returns)
        return None

    def _resolve_type(
        self, info: ModuleInfo, annotation: ast.expr
    ) -> Optional[Tuple[str, str]]:
        """Resolve an annotation expression to an indexed class."""
        if isinstance(annotation, ast.Constant) and isinstance(
            annotation.value, str
        ):
            try:
                annotation = ast.parse(annotation.value, mode="eval").body
            except SyntaxError:
                return None
        rendered = self._render(annotation)
        if rendered is None:
            return None
        parts = rendered.split(".")
        symbol = info.symbols.get(parts[0])
        if symbol is None:
            return None
        if symbol.kind == "class" and len(parts) == 1:
            return (symbol.module, symbol.qualname)
        if symbol.kind == "module" and len(parts) == 2:
            origin = self.modules.get(symbol.module)
            if origin is not None and parts[1] in origin.classes:
                return (symbol.module, parts[1])
        return None

    # -- call resolution -------------------------------------------------
    def _resolve_call(
        self,
        info: ModuleInfo,
        call: ast.Call,
        class_name: Optional[str],
        local_names: Set[str],
        local_types: Dict[str, Tuple[str, str]],
    ) -> Callee:
        func = call.func
        if isinstance(func, ast.Name):
            return self._resolve_name_call(info, func.id, local_names)
        if isinstance(func, ast.Attribute):
            return self._resolve_attribute_call(
                info, func, class_name, local_names, local_types
            )
        # Calling the result of a call / subscript / lambda: dynamic.
        return Callee("unknown")

    def _symbol_callee(self, symbol: Symbol) -> Callee:
        if symbol.kind in ("function", "class"):
            return Callee(
                symbol.kind, module=symbol.module, qualname=symbol.qualname
            )
        if symbol.kind == "module":
            return Callee("module", module=symbol.module)
        if symbol.kind == "external":
            return Callee("external")
        return Callee("unknown")

    def _resolve_name_call(
        self, info: ModuleInfo, name: str, local_names: Set[str]
    ) -> Callee:
        symbol = info.symbols.get(name)
        # A locally-bound name shadows the module symbol — unless the
        # binding *is* the module-level def (same name), which the local
        # scan cannot distinguish; prefer the module symbol, which is
        # correct for the overwhelmingly common no-shadowing case.
        if symbol is not None:
            return self._symbol_callee(symbol)
        if name in local_names:
            return Callee("unknown")
        if hasattr(builtins, name):
            return Callee("external")
        return Callee("unknown")

    def _resolve_attribute_call(
        self,
        info: ModuleInfo,
        func: ast.Attribute,
        class_name: Optional[str],
        local_names: Set[str],
        local_types: Dict[str, Tuple[str, str]],
    ) -> Callee:
        rendered = self._render(func)
        if rendered is None:
            # Method call on a call result / subscript: dynamic.
            return Callee("unknown")
        parts = rendered.split(".")
        root, attrs = parts[0], parts[1:]
        # self.method() / cls.method() inside a class body.
        if root in ("self", "cls") and class_name is not None and len(attrs) == 1:
            return self._lookup_method(info.name, class_name, attrs[0])
        # obj.method() on a locally-typed variable.
        if root in local_types and len(attrs) == 1:
            module, cls = local_types[root]
            return self._lookup_method(module, cls, attrs[0])
        symbol = info.symbols.get(root)
        if symbol is None:
            if root in local_names:
                return Callee("unknown")
            if hasattr(builtins, root):
                return Callee("external")
            return Callee("unknown")
        if symbol.kind == "class" and len(attrs) == 1:
            # ClassName.method(...) — classmethod/static style dispatch.
            return self._lookup_method(
                symbol.module, symbol.qualname, attrs[0]
            )
        if symbol.kind == "module":
            return self._resolve_dotted(".".join([symbol.module] + attrs))
        if symbol.kind == "external":
            return Callee("external")
        # Attribute access on an imported function/constant: dynamic.
        return Callee("unknown")

    def _resolve_dotted(self, dotted: str) -> Callee:
        """Resolve ``pkg.mod.attr...`` via the longest indexed module
        prefix."""
        parts = dotted.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            prefix = ".".join(parts[:cut])
            if prefix not in self.modules:
                continue
            origin = self.modules[prefix]
            remainder = parts[cut:]
            if len(remainder) == 1:
                symbol = origin.symbols.get(remainder[0])
                if symbol is not None and symbol.kind in (
                    "function", "class",
                ):
                    return self._symbol_callee(symbol)
                return Callee("module", module=prefix)
            return Callee("module", module=prefix)
        if parts[0] == "repro":
            return Callee("missing")
        return Callee("external")

    def _lookup_method(
        self,
        module: str,
        class_name: str,
        attr: str,
        _seen: Optional[Set[Tuple[str, str]]] = None,
    ) -> Callee:
        """Find ``attr`` on a class or its resolvable base classes."""
        seen = _seen if _seen is not None else set()
        if (module, class_name) in seen:
            return Callee("unknown")
        seen.add((module, class_name))
        origin = self.modules.get(module)
        if origin is None:
            return Callee("unknown")
        cls = origin.classes.get(class_name)
        if cls is None:
            return Callee("unknown")
        qualname = cls.methods.get(attr)
        if qualname is not None:
            return Callee("function", module=module, qualname=qualname)
        for base in cls.bases:
            base_parts = base.split(".")
            symbol = origin.symbols.get(base_parts[0])
            if symbol is None:
                continue
            if symbol.kind == "class" and len(base_parts) == 1:
                resolved = self._lookup_method(
                    symbol.module, symbol.qualname, attr, seen
                )
            elif symbol.kind == "module" and len(base_parts) == 2:
                resolved = self._lookup_method(
                    symbol.module, base_parts[1], attr, seen
                )
            else:
                continue
            if resolved.kind == "function":
                return resolved
        return Callee("unknown")

    # -- lookups ---------------------------------------------------------
    def function(self, ref: FunctionRef) -> Optional[FunctionInfo]:
        origin = self.modules.get(ref[0])
        return origin.functions.get(ref[1]) if origin else None

    def resolve_string(
        self, info: ModuleInfo, expr: ast.expr
    ) -> Optional[str]:
        """A string literal, or a name/attribute resolving to a
        module-level string constant in the analyzed program."""
        if isinstance(expr, ast.Constant):
            return expr.value if isinstance(expr.value, str) else None
        rendered = self._render(expr)
        if rendered is None:
            return None
        parts = rendered.split(".")
        symbol = info.symbols.get(parts[0])
        if symbol is None:
            return None
        if symbol.kind == "constant" and len(parts) == 1:
            return symbol.value
        if symbol.kind == "module" and len(parts) == 2:
            origin = self.modules.get(symbol.module)
            if origin is not None:
                return origin.constants.get(parts[1])
        return None

    @staticmethod
    def static_prefix(expr: ast.expr) -> Optional[str]:
        """The leading literal text of a string or f-string."""
        if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
            return expr.value
        if isinstance(expr, ast.JoinedStr):
            prefix = ""
            for value in expr.values:
                if isinstance(value, ast.Constant) and isinstance(
                    value.value, str
                ):
                    prefix += value.value
                else:
                    break
            return prefix
        return None

    # -- stage discovery -------------------------------------------------
    def discover_stages(self) -> List[StageDecl]:
        """Every ``StageSpec(...)`` construction in the analyzed tree.

        Matching is by class name (the last dotted segment), so stage
        graphs in fixture trees are discovered without a full
        ``repro.runtime.graph`` present.
        """
        stages: List[StageDecl] = []
        for module_name in sorted(self.modules):
            info = self.modules[module_name]
            assert info.ctx.tree is not None
            for node in ast.walk(info.ctx.tree):
                if not isinstance(node, ast.Call):
                    continue
                rendered = self._render(node.func)
                if rendered is None or rendered.split(".")[-1] != "StageSpec":
                    continue
                stages.append(self._stage_decl(info, node))
        return stages

    def _stage_decl(self, info: ModuleInfo, node: ast.Call) -> StageDecl:
        keywords = {
            kw.arg: kw.value for kw in node.keywords if kw.arg is not None
        }
        name_value = keywords.get("name")
        name = (
            name_value.value
            if isinstance(name_value, ast.Constant)
            and isinstance(name_value.value, str)
            else "<unknown>"
        )
        decl = StageDecl(name=name)
        for role in ("plan", "run", "merge", "index"):
            value = keywords.get(role)
            if value is None:
                continue
            callee = self._resolve_call(
                info,
                ast.Call(func=value, args=[], keywords=[]),
                None,
                set(),
                {},
            )
            if callee.kind == "function":
                decl.seeds[role] = (callee.module, callee.qualname)
        return decl


def program_model_for(project: ProjectContext) -> ProgramModel:
    """The (memoized) :class:`ProgramModel` of a lint run's project.

    Rules sharing one :class:`ProjectContext` share one model — the
    O, S and I families all call this from ``finalize``.
    """
    cached = getattr(project, "_program_model", None)
    if cached is None:
        cached = ProgramModel.from_project(project)
        setattr(project, "_program_model", cached)
    return cached
