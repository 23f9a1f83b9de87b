"""E-rules: error discipline.

Callers of ``repro`` are promised one catchable base class
(:class:`repro.errors.ReproError`) at every API boundary.  These rules
keep that promise honest: every raise must speak the taxonomy, nothing
may swallow arbitrary exceptions, input validation must not hide in
``assert`` statements that ``python -O`` strips, and a wrapped error
keeps its cause attached.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Iterator, List, Optional, Set

from repro.lint.findings import Finding
from repro.lint.framework import FileContext, Rule, register

#: Files where ``raise SystemExit`` is the sanctioned way to end the
#: process (console entry points).
SYSTEM_EXIT_FILES = {"cli.py", "__main__.py"}


def repro_error_names() -> Set[str]:
    """Names of :class:`ReproError` and every (transitive) subclass.

    Discovered live from :mod:`repro.errors`, so a newly added error
    class is allowed without touching the linter.
    """
    from repro.errors import ReproError

    names: Set[str] = set()
    stack = [ReproError]
    while stack:
        cls = stack.pop()
        if cls.__name__ in names:
            continue
        names.add(cls.__name__)
        stack.extend(cls.__subclasses__())
    return names


def _base_name(node: ast.AST) -> Optional[str]:
    """Last dotted segment of a base-class expression."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _local_error_classes(tree: ast.Module, allowed: Set[str]) -> Set[str]:
    """Classes defined in this file that derive (transitively, by name)
    from an allowed error class."""
    bases_by_class: Dict[str, List[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            bases_by_class[node.name] = [
                name
                for name in (_base_name(base) for base in node.bases)
                if name is not None
            ]
    local: Set[str] = set()
    changed = True
    while changed:
        changed = False
        for cls, bases in bases_by_class.items():
            if cls in local or cls in allowed:
                continue
            if any(base in allowed or base in local for base in bases):
                local.add(cls)
                changed = True
    return local


@register
class RaiseTaxonomyRule(Rule):
    """E201 — every raise must be a :class:`ReproError` subclass so one
    ``except ReproError`` guards any API boundary."""

    code = "E201"
    name = "raise-outside-taxonomy"
    description = (
        "raise of an exception that is not a ReproError subclass "
        "(SystemExit allowed in cli.py/__main__.py)"
    )

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        assert ctx.tree is not None
        allowed = repro_error_names()
        allowed |= _local_error_classes(ctx.tree, allowed)
        if ctx.basename in SYSTEM_EXIT_FILES:
            allowed.add("SystemExit")
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Raise):
                continue
            exc = node.exc
            if exc is None:
                continue  # bare re-raise
            target = exc.func if isinstance(exc, ast.Call) else exc
            name = _base_name(target)
            if name is None:
                yield ctx.finding(
                    self,
                    node,
                    "raise of a dynamic expression; raise a named "
                    "ReproError subclass instead",
                )
                continue
            if name in allowed:
                continue
            if not isinstance(exc, ast.Call) and name[:1].islower():
                continue  # re-raising a caught exception variable
            yield ctx.finding(
                self,
                node,
                f"raise {name}(...) is outside the ReproError taxonomy; "
                "use or add a subclass in repro/errors.py",
            )


@register
class BareExceptRule(Rule):
    """E202 — a bare ``except:`` swallows everything, including
    ``KeyboardInterrupt`` and genuine bugs."""

    code = "E202"
    name = "bare-except"
    description = "bare except: clause; catch ReproError or a specific type"

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        assert ctx.tree is not None
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield ctx.finding(
                    self,
                    node,
                    "bare except: hides real failures; catch ReproError "
                    "or a specific exception type",
                )


@register
class AssertValidationRule(Rule):
    """E203 — ``assert`` disappears under ``python -O``; validating a
    function's inputs with it silently turns off the check in optimized
    runs.  Narrowing asserts on derived state (``assert obj.field is not
    None``) are allowed."""

    code = "E203"
    name = "assert-for-validation"
    description = (
        "assert on a function parameter (input validation); raise "
        "ValidationError instead"
    )

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        assert ctx.tree is not None
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            params = {
                arg.arg
                for arg in (
                    list(args.posonlyargs)
                    + list(args.args)
                    + list(args.kwonlyargs)
                    + ([args.vararg] if args.vararg else [])
                    + ([args.kwarg] if args.kwarg else [])
                )
            }
            params.discard("self")
            params.discard("cls")
            if not params:
                continue
            for stmt in ast.walk(node):
                if not isinstance(stmt, ast.Assert):
                    continue
                hit = self._direct_param_use(stmt.test, params)
                if hit is not None:
                    yield ctx.finding(
                        self,
                        stmt,
                        f"assert validates parameter {hit!r} but is "
                        "stripped under python -O; raise "
                        "ValidationError instead",
                    )

    @staticmethod
    def _direct_param_use(test: ast.AST, params: Set[str]) -> Optional[str]:
        """First parameter used *directly* in the assert condition.

        A parameter that only appears as the base of an attribute access
        (``assert ctx.tree is not None``) is treated as narrowing, not
        validation, and does not count.
        """
        attribute_bases = {
            id(node.value)
            for node in ast.walk(test)
            if isinstance(node, ast.Attribute)
        }
        for node in ast.walk(test):
            if (
                isinstance(node, ast.Name)
                and node.id in params
                and id(node) not in attribute_bases
            ):
                return node.id
        return None


@register
class UnchainedWrapRule(Rule):
    """E204 — wrapping ``raise`` in a handler without ``from``."""

    code = "E204"
    name = "unchained-wrap"
    description = (
        "raise of a new exception inside an except handler without "
        "'from': the original traceback is detached from the wrapped "
        "error"
    )

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        assert ctx.tree is not None
        for handler in ast.walk(ctx.tree):
            if not isinstance(handler, ast.ExceptHandler):
                continue
            for node in self._handler_raises(handler.body):
                if node.exc is None or node.cause is not None:
                    continue
                if not isinstance(node.exc, ast.Call):
                    # ``raise exc`` / ``raise name`` re-raises are the
                    # chain itself, not a wrap.
                    continue
                yield ctx.finding(
                    self,
                    node,
                    "exception wrapped inside an except handler without "
                    "'from': use 'raise ...(...) from <cause>' to keep "
                    "the causal chain",
                )

    @classmethod
    def _handler_raises(
        cls, body: List[ast.stmt]
    ) -> Iterator[ast.Raise]:
        """Raise statements belonging to this handler — not those of
        nested ``try`` statements (they have their own handlers)."""
        for stmt in body:
            if isinstance(stmt, ast.Raise):
                yield stmt
                continue
            if isinstance(
                stmt,
                (ast.Try, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
            ) or (
                hasattr(ast, "TryStar")
                and isinstance(stmt, getattr(ast, "TryStar"))
            ):
                continue
            for _, value in ast.iter_fields(stmt):
                if isinstance(value, list) and value and all(
                    isinstance(item, ast.stmt) for item in value
                ):
                    yield from cls._handler_raises(value)
