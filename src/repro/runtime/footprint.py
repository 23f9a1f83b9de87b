"""Module-footprint salts: the code each stage can run, in its cache key.

A stage's *footprint* covers what its plan/run/merge/index functions
(found by ``__module__`` and ``__qualname__``) can reach, from two
plain scans of the source:

* **Inside the stage's module, by name.**  Each reached top-level
  definition (function, class or assignment) folds its source, and each
  name it reads outside annotations is followed to another top-level
  definition, which is reached too, or to a top-level import, whose
  module is *touched*; so is the module of an import statement inside
  a reached definition.  A role that is no top-level definition (a
  lambda, a nested function) folds its whole module; a role whose
  module lies outside the source root folds nothing.
* **Across modules, whole modules.**  Each touched module, and every
  first-party module in the closure of its imports (function-level ones
  included, but not an imported module's package ``__init__``), folds
  its source digest.  A first-party import that resolves to no file, or
  a relative import, raises :class:`~repro.errors.ValidationError`.

Every stage's ``run`` receives the world, so the closure of the module
that builds it is the *world footprint*, folded into every stage by
:func:`~repro.runtime.cache.effective_salts`.  Module scans and graph
salts are memoized per process and root: an engine over a graph this
process has salted reads no source, and keeps keying by the code it
runs after that code is edited on disk.
"""

from __future__ import annotations

import ast
import functools
import threading
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from repro.errors import ValidationError
from repro.runtime.cache import _blake, effective_salts
from repro.runtime.graph import ROLES

#: the module that builds the world every stage's ``run`` receives
WORLD_MODULE = "repro.datasets.builder"

#: the key the world's footprint is recorded under, next to the stages'
WORLD = "world"


@dataclass(frozen=True)
class Footprint:
    """The code one stage's cache salt (or the world's) covers."""

    #: modules holding the role functions, covered per definition
    stage_modules: Tuple[str, ...]
    #: modules folded whole: the touched modules and their import closure
    modules: Tuple[str, ...]
    #: blake2b over every folded definition and module source
    salt: str


#: footprints and effective salts of one graph, read-only
Salts = Tuple[Mapping[str, Footprint], Mapping[str, str]]

#: module scans and graph salts, keyed by kind, root, and a module or
#: the stages' names, inputs and role callables (which hash by
#: identity); library callers may run engines on threads, hence the lock
_MEMO: Dict[Tuple[Any, ...], Any] = {}
_LOCK = threading.Lock()


def _memoized(key: Tuple[Any, ...], compute: Callable[[], Any]) -> Any:
    with _LOCK:
        value = _MEMO.get(key)
    if value is None:
        value = compute()
        with _LOCK:
            value = _MEMO.setdefault(key, value)
    return value


@functools.lru_cache(maxsize=None)
def default_root() -> Path:
    """The installed ``repro`` package tree (…/src/repro), resolved once
    per process."""
    return Path(__file__).resolve().parents[1]


def _resolved(root: Optional[Path]) -> Path:
    return default_root() if root is None else root.resolve()


def _first_party(root: Path, module: str) -> bool:
    return module.split(".")[0] == root.name


def _module_file(root: Path, module: str) -> Optional[Path]:
    parts = module.split(".")[1:]
    base = root.joinpath(*parts)
    candidates = [base / "__init__.py"]
    if parts:
        candidates.append(base.with_name(f"{base.name}.py"))
    return next((path for path in candidates if path.is_file()), None)


def _source(root: Path, module: str) -> str:
    path = _module_file(root, module)
    if path is None:
        raise ValidationError(
            f"first-party module {module!r} resolves to no file under "
            f"{root}, so no cache salt can cover it"
        )
    return path.read_text(encoding="utf-8")


def _imports(
    root: Path, module: str, node: ast.AST
) -> Iterator[Tuple[str, str]]:
    """``(bound name, first-party module loaded)`` per alias of an import
    statement in ``module``; other nodes yield nothing."""
    if isinstance(node, ast.ImportFrom):
        if node.level:
            raise ValidationError(
                f"{module} line {node.lineno}: a relative import cannot be "
                "folded into a cache salt; import by absolute name"
            )
        if _first_party(root, node.module or ""):
            for alias in node.names:
                target = f"{node.module}.{alias.name}"
                if _module_file(root, target) is None:
                    target = node.module  # a name the module defines
                yield alias.asname or alias.name, target
    elif isinstance(node, ast.Import):
        for alias in node.names:
            if _first_party(root, alias.name):
                yield alias.asname or alias.name.split(".")[0], alias.name


def _scan(root: Path, module: str) -> Tuple[str, Set[str]]:
    """(source digest, first-party imports anywhere in the file)."""

    def scan() -> Tuple[str, Set[str]]:
        source = _source(root, module)
        imports = {
            target
            for node in ast.walk(ast.parse(source))
            for _, target in _imports(root, module, node)
        }
        return _blake(source), imports - {module}

    return _memoized(("scan", str(root), module), scan)


def _closure(root: Path, modules: Iterable[str]) -> Set[str]:
    """``modules`` and every first-party module their imports reach."""
    reached: Set[str] = set()
    frontier = list(modules)
    while frontier:
        module = frontier.pop()
        if module not in reached:
            reached.add(module)
            frontier.extend(_scan(root, module)[1] - reached)
    return reached


def _code(node: ast.AST) -> Iterator[ast.AST]:
    """:func:`ast.walk` minus annotations, which run no code."""
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        for field, value in ast.iter_fields(node):
            if field not in ("annotation", "returns"):
                values = value if isinstance(value, list) else [value]
                stack.extend(v for v in values if isinstance(v, ast.AST))


#: per top-level name of a module: digests of the definitions binding
#: it, the names they read and the modules they touch
_Names = Dict[str, Tuple[Set[str], Set[str], Set[str]]]


def _names(root: Path, module: str) -> _Names:
    source = _source(root, module)
    lines = source.splitlines()
    names: _Names = {}
    for stmt in ast.parse(source).body:
        for name, target in _imports(root, module, stmt):
            names.setdefault(name, (set(), set(), set()))[2].add(target)
        if isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            bound = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            bound = [
                node.id for node in ast.walk(stmt)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Store)
            ]
        else:
            continue
        first = min([stmt.lineno] + [
            decorator.lineno
            for decorator in getattr(stmt, "decorator_list", ())
        ])
        digest = _blake(
            f"def:{module}", "\n".join(lines[first - 1 : stmt.end_lineno])
        )
        reads: Set[str] = set()
        touched: Set[str] = set()
        for node in _code(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.add(node.id)
            touched.update(t for _, t in _imports(root, module, node))
        for name in bound:
            entry = names.setdefault(name, (set(), set(), set()))
            entry[0].add(digest)
            entry[1].update(reads)
            entry[2].update(touched)
    return names


def _footprint(
    root: Path, stage_modules: Set[str], folded: Set[str], touched: Set[str]
) -> Footprint:
    modules = _closure(root, touched) - stage_modules
    folded = folded | {
        _blake(f"mod:{module}", _scan(root, module)[0])
        for module in sorted(modules)
    }
    return Footprint(
        stage_modules=tuple(sorted(stage_modules)),
        modules=tuple(sorted(modules)),
        salt=_blake(*sorted(folded)),
    )


def footprint(
    seeds: Iterable[Tuple[str, str]], root: Optional[Path] = None
) -> Optional[Footprint]:
    """The footprint of ``(module, qualname)`` seeds; ``None`` when no
    seed's module lies under ``root``."""
    resolved = _resolved(root)
    by_module: Dict[str, Set[str]] = {}
    for module, qualname in seeds:
        if _first_party(resolved, module):
            by_module.setdefault(module, set()).add(qualname)
    if not by_module:
        return None
    folded: Set[str] = set()
    touched: Set[str] = set()
    for module, qualnames in sorted(by_module.items()):
        names: _Names = _memoized(
            ("names", str(resolved), module), lambda: _names(resolved, module)
        )
        if not qualnames <= set(names):
            # A lambda or nested function can run any code of its module.
            digest, imports = _scan(resolved, module)
            folded.add(_blake(f"mod:{module}", digest))
            touched |= imports
            continue
        queue, reached = set(qualnames), set()
        while queue:
            name = queue.pop()
            reached.add(name)
            if name in names:
                digests, reads, modules = names[name]
                folded |= digests
                touched |= modules
                queue |= reads - reached
    return _footprint(resolved, set(by_module), folded, touched)


def world_footprint(root: Optional[Path] = None) -> Optional[Footprint]:
    """The closure of the module that builds the world (``None`` for a
    root that is not a ``repro`` tree)."""
    resolved = _resolved(root)
    if not _first_party(resolved, WORLD_MODULE):
        return None
    return _footprint(resolved, set(), set(), {WORLD_MODULE})


def stage_footprints(
    graph: Any, root: Optional[Path] = None
) -> Dict[str, Footprint]:
    """Per-stage footprints for a live :class:`StageGraph`; a stage none
    of whose roles lies under ``root`` has none."""
    footprints: Dict[str, Footprint] = {}
    for spec in graph.stages:
        seeds = [
            (getattr(fn, "__module__", None) or "",
             getattr(fn, "__qualname__", ""))
            for fn in (getattr(spec, role) for role in ROLES)
        ]
        found = footprint(seeds, root)
        if found is not None:
            footprints[spec.name] = found
    return footprints


def footprint_salts(footprints: Mapping[str, Footprint]) -> Dict[str, str]:
    """Just the salt strings, shaped for :func:`effective_salts`."""
    return {name: fp.salt for name, fp in footprints.items()}


def stage_salts(graph: Any, root: Optional[Path] = None) -> Salts:
    """``(footprints, effective salts)`` of a graph, once per process.

    The footprints are the stages' and, under :data:`WORLD`, the
    world's.  Every engine over the same graph shares them, so both are
    read-only views.
    """
    resolved = _resolved(root)

    def compute() -> Salts:
        if WORLD in graph:
            raise ValidationError(
                f"a stage named {WORLD!r} would shadow the world's footprint"
            )
        footprints = stage_footprints(graph, resolved)
        world = world_footprint(resolved)
        salts = effective_salts(
            graph, footprint_salts(footprints), world.salt if world else ""
        )
        if world is not None:
            footprints[WORLD] = world
        return MappingProxyType(footprints), MappingProxyType(salts)

    stages = tuple(
        (spec.name, spec.inputs) + tuple(getattr(spec, r) for r in ROLES)
        for spec in graph.stages
    )
    return _memoized(("salts", str(resolved)) + stages, compute)
