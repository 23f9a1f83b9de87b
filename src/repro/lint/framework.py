"""reprolint core: file contexts, the rule registry, and the runner.

The framework is deliberately small.  A :class:`Rule` sees one parsed
file at a time through :class:`FileContext` (AST, source lines, module
name, import table, module-level bindings) and may run a cross-file
pass in :meth:`Rule.finalize` through :class:`ProjectContext` (the
import-cycle rule, the catalog rules, a stream name spent in two files,
a stage's ``run`` in another module).  The helpers below are the whole
of the linter's name resolution: one import hop, never a call graph.
Suppression is owned by the framework, never by rules: inline pragmas
— ``# reprolint: disable=D101`` on the offending line (or
``disable=all``), and ``# reprolint: disable-file=E201`` anywhere in
the file.
"""

from __future__ import annotations

import ast
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Type,
)

from repro.errors import LintError
from repro.lint.findings import Finding

PARSE_ERROR_RULE = "P001"

#: the scope a scan reports for code outside every function body
MODULE_SCOPE = "<module>"

_PRAGMA_RE = re.compile(
    r"#\s*reprolint:\s*(disable|disable-file)\s*=\s*([A-Za-z0-9_,\s]+)"
)


def _parse_pragmas(lines: Sequence[str]) -> Tuple[Dict[int, Set[str]], Set[str]]:
    """Return (line -> codes, file-level codes).  Codes are upper-case;
    the special token ``ALL`` suppresses every rule."""
    per_line: Dict[int, Set[str]] = {}
    per_file: Set[str] = set()
    for lineno, text in enumerate(lines, start=1):
        match = _PRAGMA_RE.search(text)
        if not match:
            continue
        codes = {
            code.strip().upper()
            for code in match.group(2).split(",")
            if code.strip()
        }
        if match.group(1) == "disable-file":
            per_file |= codes
        else:
            per_line.setdefault(lineno, set()).update(codes)
    return per_line, per_file


def is_test_module(rel_path: str) -> bool:
    """Test code, where ``fixed_rng``, sockets, subprocesses and ad-hoc
    state are allowed."""
    parts = rel_path.split("/")
    if any(part in ("tests", "test") for part in parts[:-1]):
        return True
    basename = parts[-1]
    return basename.startswith("test_") or basename == "conftest.py"


def module_name_for(path: Path) -> str:
    """Dotted module name, derived from the ``__init__.py`` chain.

    Climbs parent directories for as long as they are packages, so
    ``src/repro/web/browser.py`` maps to ``repro.web.browser`` no matter
    where the tree is checked out.
    """
    path = path.resolve()
    parts: List[str] = [] if path.name == "__init__.py" else [path.stem]
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.append(parent.name)
        parent = parent.parent
    return ".".join(reversed(parts)) or path.stem


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


class FileContext:
    """Everything a rule may want to know about one source file."""

    def __init__(self, path: Path, rel_path: str, source: str) -> None:
        self.path = path
        self.rel_path = rel_path
        self.lines: List[str] = source.splitlines()
        self.module = module_name_for(path)
        self.is_package = path.name == "__init__.py"
        self.tree: Optional[ast.Module] = None
        self.parse_error: Optional[Finding] = None
        try:
            self.tree = ast.parse(source, filename=rel_path)
        except SyntaxError as exc:
            self.parse_error = Finding(
                path=rel_path,
                line=exc.lineno or 1,
                col=(exc.offset or 1) - 1,
                rule=PARSE_ERROR_RULE,
                message=f"syntax error: {exc.msg}",
            )
        self._line_pragmas, self._file_pragmas = _parse_pragmas(self.lines)
        #: the imports outside every function body: local name ->
        #: fully-qualified origin, e.g. ``Random`` -> ``random.Random``
        #: for ``from random import Random``, ``np`` -> ``numpy`` for
        #: ``import numpy as np``, and ``b`` -> ``pkg.b`` for ``from .
        #: import b`` inside ``pkg``.  Resolve a name where it is used
        #: with :meth:`import_origin`, which sees function-local imports.
        self.imported_names: Dict[str, str] = {}
        #: (first line, last line, imports) of each function that imports
        #: names itself, an enclosing function before the ones it holds
        self._local_imports: List[Tuple[int, int, Dict[str, str]]] = []
        #: module-level ``NAME = value`` bindings (a later one wins)
        self.assignments: Dict[str, ast.expr] = {}
        if self.tree is None:
            return
        self._collect_imports(self.tree, self.imported_names)
        for stmt in self.tree.body:
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            else:
                continue
            for target in targets:
                if isinstance(target, ast.Name):
                    self.assignments[target.id] = value

    def _collect_imports(self, node: ast.AST, table: Dict[str, str]) -> None:
        """Record the imports under ``node`` into ``table``; each function
        body gets a table of its own."""
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                local: Dict[str, str] = {}
                position = len(self._local_imports)
                self._collect_imports(child, local)
                if local:
                    self._local_imports.insert(
                        position, (child.lineno, child.end_lineno, local)
                    )
            elif isinstance(child, ast.Import):
                for alias in child.names:
                    root = alias.name.split(".")[0]
                    table[alias.asname or root] = (
                        alias.name if alias.asname else root
                    )
            elif isinstance(child, ast.ImportFrom):
                module = resolve_relative_import(
                    self.module, self.is_package, child.level, child.module
                )
                if module is not None:
                    for alias in child.names:
                        local_name = alias.asname or alias.name
                        table[local_name] = f"{module}.{alias.name}"
            else:
                self._collect_imports(child, table)

    def import_origin(self, name: str, node: ast.AST) -> Optional[str]:
        """The fully-qualified origin ``name`` is imported as where
        ``node`` sits: the import of the innermost function around
        ``node`` that imports ``name`` itself, else the module's.
        ``None`` when ``name`` is not imported there."""
        line = getattr(node, "lineno", 0)
        for first, last, table in reversed(self._local_imports):
            if first <= line <= last and name in table:
                return table[name]
        return self.imported_names.get(name)

    @property
    def package(self) -> str:
        """First package segment below ``repro`` (``web`` for
        ``repro.web.browser``).  Outside a ``repro`` tree (e.g. lint
        fixtures) the first dotted segment, or the bare module name."""
        parts = self.module.split(".")
        if parts[0] == "repro" and len(parts) > 1:
            return parts[1]
        return parts[0]

    @property
    def basename(self) -> str:
        return self.path.name

    def dotted_name(self, node: ast.AST) -> Optional[str]:
        """Render ``a.b.c`` chains, resolving the root through the file's
        import table (so ``dt.now`` becomes ``datetime.datetime.now``
        after ``from datetime import datetime as dt``)."""
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.append(self.import_origin(node.id, node) or node.id)
        return ".".join(reversed(parts))

    def finding(self, rule: "Rule", node: ast.AST, message: str) -> Finding:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(
            path=self.rel_path,
            line=line,
            col=col,
            rule=rule.code,
            message=message,
        )

    def is_suppressed(self, finding: Finding) -> bool:
        if "ALL" in self._file_pragmas or finding.rule in self._file_pragmas:
            return True
        codes = self._line_pragmas.get(finding.line, ())
        return "ALL" in codes or finding.rule in codes


def scoped_calls(tree: ast.Module) -> Iterator[Tuple[str, ast.Call]]:
    """Every call in a module, with the scope it runs in: the function
    or method whose body holds it (``func``, ``Class.method``,
    ``Outer.Inner.method``), or :data:`MODULE_SCOPE` for code outside
    every function body, class bodies included.  Nested functions and
    function-local classes belong to their enclosing function, and a
    function's decorators and defaults to the function itself."""

    def visit(node: ast.AST, classes: Tuple[str, ...]):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope = ".".join(classes + (child.name,))
                for sub in ast.walk(child):
                    if isinstance(sub, ast.Call):
                        yield scope, sub
                continue
            if isinstance(child, ast.Call):
                yield MODULE_SCOPE, child
            if isinstance(child, ast.ClassDef):
                yield from visit(child, classes + (child.name,))
            else:
                yield from visit(child, classes)

    return visit(tree, ())


def _string_value(node: Optional[ast.expr]) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def resolve_string(
    ctx: FileContext, expr: ast.expr, modules: Mapping[str, FileContext]
) -> Optional[str]:
    """The string ``expr`` statically names: a literal, a module-level
    string constant of ``ctx``'s own file, or one a single import hop
    away in another analyzed file (``names.CONST`` after ``from pkg
    import names``, or ``CONST`` after ``from pkg.names import CONST``).
    ``None`` when it is none of these."""
    if isinstance(expr, ast.Constant):
        return _string_value(expr)
    if isinstance(expr, ast.Name):
        if expr.id in ctx.assignments:
            return _string_value(ctx.assignments[expr.id])
        origin = ctx.import_origin(expr.id, expr) or ""
        module, _, attr = origin.rpartition(".")
    elif isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
        module = ctx.import_origin(expr.value.id, expr) or ""
        attr = expr.attr
    else:
        return None
    origin = modules.get(module)
    return _string_value(origin.assignments.get(attr)) if origin else None


def static_prefix(expr: ast.expr) -> Optional[str]:
    """The leading literal text of a string or f-string."""
    if not isinstance(expr, ast.JoinedStr):
        return _string_value(expr)
    prefix = ""
    for value in expr.values:
        text = _string_value(value)
        if text is None:
            break
        prefix += text
    return prefix


@dataclass
class ProjectContext:
    """Cross-file state made available to :meth:`Rule.finalize`."""

    files: Dict[str, FileContext] = field(default_factory=dict)

    def add(self, ctx: FileContext) -> None:
        self.files[ctx.rel_path] = ctx

    @property
    def modules(self) -> Dict[str, FileContext]:
        return {ctx.module: ctx for ctx in self.files.values()}


class Rule:
    """Base class for reprolint rules.  Subclasses set ``code`` (e.g.
    ``D101``), ``name`` (kebab-case slug) and ``description``, and
    implement :meth:`check_file` and/or :meth:`finalize`."""

    code: str = ""
    name: str = ""
    description: str = ""

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        return ()

    def finalize(self, project: ProjectContext) -> Iterable[Finding]:
        return ()


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(rule_cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not rule_cls.code:
        raise LintError(f"rule {rule_cls.__name__} has no code")
    existing = _REGISTRY.get(rule_cls.code)
    if existing is not None and existing is not rule_cls:
        raise LintError(f"duplicate rule code {rule_cls.code}")
    _REGISTRY[rule_cls.code] = rule_cls
    return rule_cls


def load_builtin_rules() -> None:
    """Import the rule modules for their registration side effects."""
    from repro.lint import (  # noqa: F401
        rules_determinism,
        rules_errors,
        rules_layering,
        rules_obs,
        rules_resources,
        rules_seeds,
    )


def all_rules() -> List[Rule]:
    load_builtin_rules()
    return [_REGISTRY[code]() for code in sorted(_REGISTRY)]


def select_rules(select: Optional[Sequence[str]] = None) -> List[Rule]:
    """Instantiate registered rules, optionally filtered by code or by
    family prefix (``D``, ``E201``, ...)."""
    rules = all_rules()
    if not select:
        return rules
    wanted = [token.strip().upper() for token in select if token.strip()]
    return [
        rule
        for rule in rules
        if any(rule.code == token or rule.code.startswith(token) for token in wanted)
    ]


def iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    """Yield ``.py`` files under ``paths`` in sorted order, skipping
    caches and hidden directories."""
    seen: Set[Path] = set()
    for path in paths:
        if path.is_file():
            candidates = [path] if path.suffix == ".py" else []
        else:
            candidates = sorted(path.rglob("*.py"))
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved in seen:
                continue
            # Only judge components *below* the search root, so a repo
            # checked out under a hidden directory still lints.
            try:
                relative_parts = candidate.relative_to(path).parts
            except ValueError:
                relative_parts = candidate.parts
            if any(
                part == "__pycache__" or part.startswith(".")
                for part in relative_parts
            ):
                continue
            seen.add(resolved)
            yield candidate


@dataclass
class LintResult:
    findings: List[Finding]
    files_checked: int
    #: wall-clock duration of the run, for the report's summary line
    wall_s: float = 0.0


def run_lint(
    paths: Sequence[Path],
    rules: Optional[Sequence[Rule]] = None,
    root: Optional[Path] = None,
) -> LintResult:
    """Lint every Python file under ``paths`` and return the findings.

    ``root`` anchors the relative paths used in reports; it defaults to
    the current working directory.
    """
    started = time.monotonic()
    active = list(rules) if rules is not None else all_rules()
    root = (root or Path.cwd()).resolve()
    project = ProjectContext()
    findings: List[Finding] = []
    files_checked = 0
    for path in iter_python_files(paths):
        files_checked += 1
        resolved = path.resolve()
        try:
            rel = resolved.relative_to(root).as_posix()
        except ValueError:
            rel = path.as_posix()
        ctx = FileContext(resolved, rel, resolved.read_text(encoding="utf-8"))
        project.add(ctx)
        if ctx.parse_error is not None:
            findings.append(ctx.parse_error)
            continue
        findings.extend(
            finding
            for rule in active
            for finding in rule.check_file(ctx)
            if not ctx.is_suppressed(finding)
        )
    for rule in active:
        for finding in rule.finalize(project):
            ctx = project.files.get(finding.path)
            if ctx is None or not ctx.is_suppressed(finding):
                findings.append(finding)
    # Finding equality is (path, line, col, rule): collapse duplicates a
    # rule may emit when scopes overlap.
    findings = sorted(set(findings))
    return LintResult(
        findings=findings,
        files_checked=files_checked,
        wall_s=time.monotonic() - started,
    )
