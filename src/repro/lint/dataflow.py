"""Interprocedural dataflow over the program model.

PR 4's :class:`~repro.lint.program.ProgramModel` answers *who calls
whom*; this module answers three questions that require propagating
facts *along* those edges:

* **seed lineage** — where does every ``random.Random`` on a stage's
  ``run`` path come from?  The S7xx rules demand that each one descends
  from the shard's seeded root (``seeded_rng`` / ``spawn_rng`` /
  ``RngStreams``, src/repro/util/rng.py); a raw ``random.Random(...)``
  three helpers deep would silently break warm-equals-cold replay.
* **exception escape** — which exception types can leave each public
  entrypoint (CLI subcommands, the ``run_study`` facade, stage ``run``
  functions)?  Computed by collecting ``raise`` sites, subtracting the
  enclosing ``try`` handlers, and propagating the remainder along the
  call graph to a fixpoint.  The X8xx rules then hold the ``repro.*``
  boundary to the :class:`~repro.errors.ReproError` taxonomy.
* **resource discipline** — which run-path code performs raw I/O
  (``open``/``socket``/``subprocess``) instead of going through the
  ``repro.io`` / ``obs.persist`` atomic helpers?  (I9xx rules.)

The analysis is *conservative in the non-flagging direction*: dynamic
dispatch, external callees and dynamically-computed exception
expressions are skipped, never guessed, so every reported witness chain
is a real static path.  Only explicit ``raise`` statements are tracked
— implicit exceptions (a ``KeyError`` from a subscript, ``ZeroDivision``
from arithmetic) are out of scope by design.

:func:`DataflowAnalysis.report_json` renders the whole picture as the
``repro.lint/dataflow/v1`` document that ``--dataflow-json`` writes and
CI archives next to the program graph.
"""

from __future__ import annotations

import ast
import builtins
import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.lint.framework import ProjectContext
from repro.lint.program import (
    FunctionInfo,
    FunctionRef,
    ModuleInfo,
    ProgramModel,
    Reachability,
)

DATAFLOW_SCHEMA = "repro.lint/dataflow/v1"

#: process-control exceptions excluded from escape sets — a CLI exiting
#: via SystemExit is sanctioned, not a raw traceback
CONTROL_EXCEPTIONS = frozenset({"SystemExit", "KeyboardInterrupt", "GeneratorExit"})

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

_MAX_WITNESS_HOPS = 12


def _digest(*parts: str) -> str:
    h = hashlib.blake2b(digest_size=20)
    for part in parts:
        h.update(part.encode("utf-8"))
        h.update(b"\x1f")
    return h.hexdigest()


def is_rng_module(module: str) -> bool:
    """The sanctioned RNG implementation module (``repro.util.rng`` in
    the real tree; any ``*.rng`` module in fixture trees)."""
    return module.split(".")[-1] == "rng"


def is_test_module(rel_path: str, module: str) -> bool:
    """Test code, where ``fixed_rng`` and ad-hoc streams are allowed."""
    parts = rel_path.split("/")
    if any(part in ("tests", "test") for part in parts[:-1]):
        return True
    basename = parts[-1]
    return basename.startswith("test_") or basename == "conftest.py"


def is_io_sanctioned(module: str) -> bool:
    """Modules allowed to touch file handles directly: the ``repro.io``
    package and the obs persistence layer (atomic write helpers)."""
    parts = module.split(".")
    return "io" in parts or parts[-1] == "persist"


def is_serve_module(module: str) -> bool:
    """Modules inside a ``serve`` package: the study service transport.

    This is the **only** carve-out from the I902 no-sockets rule, and it
    is deliberately narrow: the service must listen on a socket to be a
    service, but the exemption covers the ``serve`` layer alone (socket
    calls only — subprocess escapes stay flagged everywhere), so the
    simulation underneath it remains hermetic.
    """
    return "serve" in module.split(".")


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RaiseSite:
    """One explicit ``raise`` of a resolvable exception class."""

    exception: str
    line: int
    snippet: str


@dataclass(frozen=True)
class EscapeOrigin:
    """Why an exception escapes a function: a local raise site, or a
    call to a function it already escapes from."""

    kind: str  # "raise" | "call"
    line: int
    snippet: str = ""
    callee: Optional[FunctionRef] = None


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
    line: int
    col: int
    snippet: str


@dataclass(frozen=True)
class IoSite:
    """One raw I/O call (open/socket/subprocess/os.system...)."""

    function: FunctionRef
    rendered: str
    line: int
    col: int
    snippet: str


# ---------------------------------------------------------------------------
# the analysis
# ---------------------------------------------------------------------------


class DataflowAnalysis:
    """Interprocedural facts over one :class:`ProgramModel`.

    Everything is computed lazily and memoized: the S-rules only need
    the RNG-lineage side, the X-rules only the escape side, so neither
    pays for the other.
    """

    def __init__(self, model: ProgramModel) -> None:
        self.model = model
        self._escapes: Optional[Dict[FunctionRef, Dict[str, EscapeOrigin]]] = None
        self._rng_sites: Optional[Dict[FunctionRef, Tuple[RngSite, ...]]] = None
        self._io_sites: Optional[Dict[FunctionRef, Tuple[IoSite, ...]]] = None
        self._ancestors: Optional[Dict[str, Set[str]]] = None
        self._reach_memo: Dict[FunctionRef, Reachability] = {}
        self._stage_reach: Optional[Dict[FunctionRef, List[str]]] = None

    # -- shared plumbing -------------------------------------------------

    def _function_refs(self) -> Iterable[FunctionRef]:
        for module_name in sorted(self.model.modules):
            info = self.model.modules[module_name]
            for qualname in sorted(info.functions):
                yield (module_name, qualname)

    def reachable_from(self, seed: FunctionRef) -> Reachability:
        """Memoized single-seed reachability (per run entrypoint)."""
        cached = self._reach_memo.get(seed)
        if cached is None:
            cached = self.model.reachable([seed])
            self._reach_memo[seed] = cached
        return cached

    def run_reachable(self) -> Dict[FunctionRef, List[str]]:
        """Function → sorted stage names whose ``run`` seed reaches it."""
        if self._stage_reach is None:
            reached: Dict[FunctionRef, Set[str]] = {}
            for decl in self.model.discover_stages():
                run_seed = decl.seeds.get("run")
                if run_seed is None:
                    continue
                for ref in self.reachable_from(run_seed).functions:
                    reached.setdefault(ref, set()).add(decl.name)
            self._stage_reach = {
                ref: sorted(stages) for ref, stages in reached.items()
            }
        return self._stage_reach

    def chain_from(
        self,
        seed: FunctionRef,
        ref: FunctionRef,
        limit: int = _MAX_WITNESS_HOPS,
    ) -> List[str]:
        """The ``seed`` → ``ref`` call chain over the BFS tree, rendered
        as ``module:qualname`` hops (the witness prefix of S/I findings)."""
        reach = self.reachable_from(seed)
        if ref not in reach.parents:
            return [f"{ref[0]}:{ref[1]}"]
        chain: List[str] = []
        cursor: Optional[FunctionRef] = ref
        while cursor is not None and len(chain) < limit:
            chain.append(f"{cursor[0]}:{cursor[1]}")
            cursor = reach.parents.get(cursor)
        return list(reversed(chain))

    def run_path_chain(
        self, stage: str, ref: FunctionRef, limit: int = _MAX_WITNESS_HOPS
    ) -> List[str]:
        """:meth:`chain_from` anchored at one discovered stage's run seed."""
        for decl in self.model.discover_stages():
            if decl.name != stage:
                continue
            run_seed = decl.seeds.get("run")
            if run_seed is not None and ref in (
                self.reachable_from(run_seed).parents
            ):
                return self.chain_from(run_seed, ref, limit)
        return [f"{ref[0]}:{ref[1]}"]

    @staticmethod
    def _snippet(info: ModuleInfo, line: int) -> str:
        lines = info.ctx.lines
        return lines[line - 1].strip() if 0 < line <= len(lines) else ""

    def _callee_at(
        self, fn: FunctionInfo
    ) -> Dict[Tuple[int, int], Any]:
        """(line, col) → resolved Callee for every call in ``fn``."""
        return {(c.line, c.col): c.callee for c in fn.calls}

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

    # -- exception hierarchy ---------------------------------------------

    def _exception_ancestors(self) -> Dict[str, Set[str]]:
        """Exception class name → every ancestor name (self included).

        Builtins come from live introspection, the ReproError taxonomy
        from :mod:`repro.errors` (so dual-inheritance classes such as
        ``ValidationError(ReproError, ValueError)`` are caught by both
        ``except ReproError`` and ``except ValueError``), and
        fixture-local hierarchies from name-based base chains.
        """
        if self._ancestors is not None:
            return self._ancestors
        ancestors: Dict[str, Set[str]] = {}
        for name in dir(builtins):
            obj = getattr(builtins, name)
            if isinstance(obj, type) and issubclass(obj, BaseException):
                ancestors[name] = {c.__name__ for c in obj.__mro__} - {"object"}
        from repro.errors import ReproError

        stack = [ReproError]
        while stack:
            cls = stack.pop()
            if cls.__name__ not in ancestors:
                ancestors[cls.__name__] = {
                    c.__name__ for c in cls.__mro__
                } - {"object"}
            stack.extend(cls.__subclasses__())
        # Fixture-local classes: resolve base-name chains transitively.
        declared: Dict[str, List[str]] = {}
        for module_name in sorted(self.model.modules):
            info = self.model.modules[module_name]
            for cls_name in sorted(info.classes):
                bases = [
                    base.split(".")[-1] for base in info.classes[cls_name].bases
                ]
                declared.setdefault(cls_name, bases)
        changed = True
        while changed:
            changed = False
            for cls_name, bases in declared.items():
                known = {
                    name
                    for base in bases
                    for name in sorted(ancestors.get(base, set()))
                }
                if not known:
                    continue
                merged = ancestors.get(cls_name, {cls_name}) | known | {cls_name}
                if merged != ancestors.get(cls_name):
                    ancestors[cls_name] = merged
                    changed = True
        self._ancestors = ancestors
        return ancestors

    def exception_category(self, name: str) -> str:
        """``repro`` (in the ReproError taxonomy), ``builtin``, or
        ``unknown`` (an exception class the analysis cannot place)."""
        ancestors = self._exception_ancestors()
        lineage = ancestors.get(name)
        if lineage is not None and "ReproError" in lineage:
            return "repro"
        if hasattr(builtins, name):
            return "builtin"
        return "unknown"

    def _handles(self, handler: str, raised: str) -> bool:
        ancestors = self._exception_ancestors()
        lineage = ancestors.get(raised)
        if lineage is None:
            # Unknown class: assume a plain Exception subclass.
            lineage = {raised, "Exception", "BaseException"}
        return handler in lineage

    def _guarded(self, guards: Tuple[Tuple[str, ...], ...], raised: str) -> bool:
        return any(
            self._handles(handler, raised)
            for frame in guards
            for handler in frame
        )

    # -- escape analysis -------------------------------------------------

    def escapes(self) -> Dict[FunctionRef, Dict[str, EscapeOrigin]]:
        """Escaping exception set per function, with one origin each."""
        if self._escapes is not None:
            return self._escapes
        local: Dict[FunctionRef, List[Tuple[Tuple[Tuple[str, ...], ...], RaiseSite]]] = {}
        calls: Dict[
            FunctionRef,
            List[Tuple[Tuple[Tuple[str, ...], ...], FunctionRef, int, str]],
        ] = {}
        for ref in self._function_refs():
            info = self.model.modules[ref[0]]
            fn = info.functions[ref[1]]
            raises, call_edges = self._scan_escape_sites(info, fn)
            local[ref] = raises
            calls[ref] = call_edges
        escapes: Dict[FunctionRef, Dict[str, EscapeOrigin]] = {}
        for ref, raise_list in local.items():
            out: Dict[str, EscapeOrigin] = {}
            for guards, site in raise_list:
                if site.exception in CONTROL_EXCEPTIONS:
                    continue
                if site.exception in out or self._guarded(guards, site.exception):
                    continue
                out[site.exception] = EscapeOrigin(
                    kind="raise", line=site.line, snippet=site.snippet
                )
            escapes[ref] = out
        # Monotone fixpoint over the call graph: escape sets only grow,
        # so iteration terminates even through recursion cycles.
        changed = True
        while changed:
            changed = False
            for ref in sorted(calls):
                out = escapes[ref]
                for guards, callee, line, snippet in calls[ref]:
                    for name in sorted(escapes.get(callee, {})):
                        if name in out or self._guarded(guards, name):
                            continue
                        out[name] = EscapeOrigin(
                            kind="call", line=line, snippet=snippet,
                            callee=callee,
                        )
                        changed = True
        self._escapes = escapes
        return escapes

    def _scan_escape_sites(
        self, info: ModuleInfo, fn: FunctionInfo
    ) -> Tuple[
        List[Tuple[Tuple[Tuple[str, ...], ...], RaiseSite]],
        List[Tuple[Tuple[Tuple[str, ...], ...], FunctionRef, int, str]],
    ]:
        """(raise sites, analyzed-call edges), each with its enclosing
        ``try``-handler guard stack."""
        callee_at = self._callee_at(fn)
        local_types = self._local_types(info, fn, callee_at)
        raises: List[Tuple[Tuple[Tuple[str, ...], ...], RaiseSite]] = []
        edges: List[
            Tuple[Tuple[Tuple[str, ...], ...], FunctionRef, int, str]
        ] = []

        def scan_expr(
            node: ast.AST, guards: Tuple[Tuple[str, ...], ...]
        ) -> None:
            for sub in ast.walk(node):
                if not isinstance(sub, ast.Call):
                    continue
                callee = callee_at.get((sub.lineno, sub.col_offset))
                target: Optional[FunctionRef] = None
                if callee is not None and callee.kind == "function":
                    target = (callee.module, callee.qualname)
                elif callee is not None and callee.kind == "class":
                    # Instantiation runs __init__ when the class defines
                    # one — or __post_init__ for dataclasses, whose
                    # generated __init__ calls it.
                    origin = self.model.modules.get(callee.module)
                    cls = origin.classes.get(callee.qualname) if origin else None
                    init = None
                    if cls is not None:
                        init = cls.methods.get("__init__") or (
                            cls.methods.get("__post_init__")
                        )
                    if init is not None:
                        target = (callee.module, init)
                if target is None:
                    target = self._method_target(fn, sub, local_types)
                if target is not None and self.model.function(target) is not None:
                    edges.append((
                        guards, target, sub.lineno,
                        self._snippet(info, sub.lineno),
                    ))

        def scan_block(
            stmts: Sequence[ast.stmt],
            guards: Tuple[Tuple[str, ...], ...],
            caught: Optional[Tuple[Tuple[str, ...], Optional[str]]],
        ) -> None:
            for stmt in stmts:
                if isinstance(stmt, ast.Try) or (
                    hasattr(ast, "TryStar") and isinstance(
                        stmt, getattr(ast, "TryStar")
                    )
                ):
                    frame = tuple(
                        name
                        for handler in stmt.handlers
                        for name in self._handler_names(handler)
                    )
                    scan_block(stmt.body, guards + (frame,), caught)
                    for handler in stmt.handlers:
                        names = self._handler_names(handler)
                        scan_block(
                            handler.body, guards, (names, handler.name)
                        )
                    # ``else`` and ``finally`` are *not* protected by
                    # this try's handlers.
                    scan_block(stmt.orelse, guards, caught)
                    scan_block(stmt.finalbody, guards, caught)
                    continue
                if isinstance(stmt, ast.Raise):
                    for name in self._raised_names(stmt, caught):
                        raises.append((
                            guards,
                            RaiseSite(
                                exception=name,
                                line=stmt.lineno,
                                snippet=self._snippet(info, stmt.lineno),
                            ),
                        ))
                    if stmt.exc is not None:
                        scan_expr(stmt.exc, guards)
                    continue
                # Header expressions of this statement (test, iter,
                # withitems, call values...) evaluate under the current
                # guards; nested statement blocks recurse.
                for field_name, value in ast.iter_fields(stmt):
                    if isinstance(value, ast.expr):
                        scan_expr(value, guards)
                    elif isinstance(value, list):
                        exprs = [v for v in value if isinstance(v, ast.expr)]
                        for expr in exprs:
                            scan_expr(expr, guards)
                        items = [
                            v for v in value if isinstance(v, ast.withitem)
                        ]
                        for item in items:
                            scan_expr(item.context_expr, guards)
                        blocks = [v for v in value if isinstance(v, ast.stmt)]
                        if blocks:
                            scan_block(blocks, guards, caught)

        body = getattr(fn.node, "body", [])
        scan_block(body, (), None)
        return raises, edges

    @staticmethod
    def _handler_names(handler: ast.ExceptHandler) -> Tuple[str, ...]:
        if handler.type is None:
            return ("BaseException",)
        nodes = (
            handler.type.elts
            if isinstance(handler.type, ast.Tuple)
            else [handler.type]
        )
        names: List[str] = []
        for node in nodes:
            if isinstance(node, ast.Name):
                names.append(node.id)
            elif isinstance(node, ast.Attribute):
                names.append(node.attr)
        return tuple(names) or ("BaseException",)

    def _raised_names(
        self,
        stmt: ast.Raise,
        caught: Optional[Tuple[Tuple[str, ...], Optional[str]]],
    ) -> List[str]:
        exc = stmt.exc
        if exc is None:
            # Bare re-raise: escapes the handler's caught types.
            return list(caught[0]) if caught else []
        target = exc.func if isinstance(exc, ast.Call) else exc
        if isinstance(target, ast.Name):
            name = target.id
        elif isinstance(target, ast.Attribute):
            name = target.attr
        else:
            return []
        if not isinstance(exc, ast.Call):
            if caught and name == caught[1]:
                # ``raise exc`` of the handler variable: a re-raise.
                return list(caught[0])
            if name[:1].islower():
                return []  # re-raising some other caught variable
        return [name]

    # -- RNG derivation scan ---------------------------------------------

    def rng_sites(self) -> Dict[FunctionRef, Tuple[RngSite, ...]]:
        """Every RNG-producing / seed-deriving call site per function."""
        if self._rng_sites is not None:
            return self._rng_sites
        sites: Dict[FunctionRef, Tuple[RngSite, ...]] = {}
        for ref in self._function_refs():
            info = self.model.modules[ref[0]]
            fn = info.functions[ref[1]]
            sites[ref] = tuple(self._scan_rng_sites(info, fn, ref))
        self._rng_sites = sites
        return sites

    def _scan_rng_sites(
        self, info: ModuleInfo, fn: FunctionInfo, ref: FunctionRef
    ) -> List[RngSite]:
        callee_at = self._callee_at(fn)
        out: List[RngSite] = []
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Call):
                continue
            api = self._rng_api(info, node, callee_at)
            if api is None:
                continue
            name, literal = self._stream_name(info, node, api)
            out.append(RngSite(
                function=ref,
                api=api,
                name=name,
                literal=literal,
                line=node.lineno,
                col=node.col_offset,
                snippet=self._snippet(info, node.lineno),
            ))
        return out

    def _rng_api(
        self,
        info: ModuleInfo,
        node: ast.Call,
        callee_at: Dict[Tuple[int, int], Any],
    ) -> Optional[str]:
        dotted = info.ctx.dotted_name(node.func)
        if dotted is not None:
            if dotted == "random.Random" or dotted.endswith(".random.Random"):
                return "raw"
            last = dotted.split(".")[-1]
            if last in ("seeded_rng", "spawn_rng", "fixed_rng", "derive_seed"):
                return last
        callee = callee_at.get((node.lineno, node.col_offset))
        if callee is not None and callee.kind == "function":
            if is_rng_module(callee.module) and callee.qualname in (
                "seeded_rng", "spawn_rng", "fixed_rng", "derive_seed",
            ):
                return callee.qualname
        if isinstance(node.func, ast.Attribute) and node.func.attr in (
            "spawn", "fork",
        ):
            return node.func.attr
        return None

    def _stream_name(
        self, info: ModuleInfo, node: ast.Call, api: str
    ) -> Tuple[Optional[str], bool]:
        """The statically-resolved stream-name argument of a derivation
        call: (name, is-full-literal).  F-strings resolve to their
        static prefix and count as non-literal."""
        family = _DERIVE_FAMILIES.get(api)
        if family is None:
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
        resolved = self.model.resolve_string(info, expr)
        if resolved is not None:
            return resolved, True
        prefix = self.model.static_prefix(expr)
        if prefix:
            return prefix + "…", False
        return "<dynamic>", False

    # -- raw I/O scan ----------------------------------------------------

    def io_sites(self) -> Dict[FunctionRef, Tuple[IoSite, ...]]:
        """Raw I/O call sites per function (open/socket/subprocess...)."""
        if self._io_sites is not None:
            return self._io_sites
        sites: Dict[FunctionRef, Tuple[IoSite, ...]] = {}
        for ref in self._function_refs():
            info = self.model.modules[ref[0]]
            fn = info.functions[ref[1]]
            out: List[IoSite] = []
            for node in ast.walk(fn.node):
                if not isinstance(node, ast.Call):
                    continue
                rendered = self._raw_io_name(info, node)
                if rendered is None:
                    continue
                out.append(IoSite(
                    function=ref,
                    rendered=rendered,
                    line=node.lineno,
                    col=node.col_offset,
                    snippet=self._snippet(info, node.lineno),
                ))
            sites[ref] = tuple(out)
        self._io_sites = sites
        return sites

    @staticmethod
    def _raw_io_name(info: ModuleInfo, node: ast.Call) -> Optional[str]:
        dotted = info.ctx.dotted_name(node.func)
        if dotted is None:
            return None
        if dotted == "open":
            return "open"
        if dotted.startswith("socket.") or dotted == "socket":
            return dotted
        if dotted.startswith("subprocess."):
            return dotted
        if dotted in ("os.popen", "os.system"):
            return dotted
        return None

    # -- lineage trees ---------------------------------------------------

    def stage_lineage(
        self, stage: str, run_ref: FunctionRef
    ) -> Dict[str, Any]:
        """The RNG-derivation tree reachable from one stage's ``run``.

        The digest folds the *structure* — which function derives which
        stream through which API — and deliberately excludes line
        numbers, so pure line drift (an edit above a derivation site)
        does not masquerade as a lineage change; any such edit already
        shows up in the stage's footprint salt.
        """
        sites = self.rng_sites()
        reach = self.reachable_from(run_ref)
        streams: List[Dict[str, Any]] = []
        keys: List[str] = []
        for ref in sorted(set(reach.functions)):
            for site in sites.get(ref, ()):
                entry = {
                    "function": f"{ref[0]}:{ref[1]}",
                    "api": site.api,
                    "name": site.name,
                    "literal": site.literal,
                    "line": site.line,
                    "chain": self.chain_from(run_ref, ref),
                }
                streams.append(entry)
                keys.append(
                    f"{ref[0]}:{ref[1]}:{site.api}:"
                    f"{site.name or ''}:{int(site.literal)}"
                )
        streams.sort(key=lambda e: (e["function"], e["api"], e["name"] or "", e["line"]))
        digest = _digest(
            f"stage:{stage}", f"run:{run_ref[0]}:{run_ref[1]}", *sorted(keys)
        )
        return {
            "digest": digest,
            "root": f"{run_ref[0]}:{run_ref[1]}",
            "streams": streams,
        }

    def stage_lineages(self) -> Dict[str, Dict[str, Any]]:
        """Lineage trees for every statically-discovered stage."""
        lineages: Dict[str, Dict[str, Any]] = {}
        for decl in self.model.discover_stages():
            run_seed = decl.seeds.get("run")
            if run_seed is None or self.model.function(run_seed) is None:
                continue
            lineages[decl.name] = self.stage_lineage(decl.name, run_seed)
        return lineages

    # -- entrypoints -----------------------------------------------------

    def entrypoints(self) -> Dict[str, Dict[str, Any]]:
        """Public boundary functions, each with its escape set.

        * ``cli:<module>`` — ``main`` of every ``*.cli`` / ``*.__main__``
          module, plus ``cli:<module>:<subcommand>`` for each statically
          discovered ``add_parser("<name>")`` (subcommands dispatch
          through ``main``, so they share its escape set);
        * ``facade:<module>:run_study`` — the study facade;
        * ``stage:<name>:run`` — every discovered stage ``run``.
        """
        out: Dict[str, Dict[str, Any]] = {}
        for module_name in sorted(self.model.modules):
            info = self.model.modules[module_name]
            last = module_name.split(".")[-1]
            if last in ("cli", "__main__") and "main" in info.functions:
                ref = (module_name, "main")
                record = self._entrypoint_record("cli", ref)
                out[f"cli:{module_name}"] = record
                for sub in self._subcommands(info):
                    entry = dict(record)
                    entry["subcommand"] = sub
                    out[f"cli:{module_name}:{sub}"] = entry
            if "run_study" in info.functions:
                out[f"facade:{module_name}:run_study"] = (
                    self._entrypoint_record("facade", (module_name, "run_study"))
                )
        for decl in self.model.discover_stages():
            run_seed = decl.seeds.get("run")
            if run_seed is None or self.model.function(run_seed) is None:
                continue
            out[f"stage:{decl.name}:run"] = self._entrypoint_record(
                "stage", run_seed
            )
        return out

    @staticmethod
    def _subcommands(info: ModuleInfo) -> List[str]:
        """Every ``*.add_parser("<literal>")`` name in one module."""
        assert info.ctx.tree is not None
        names: List[str] = []
        for node in ast.walk(info.ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (
                isinstance(func, ast.Attribute) and func.attr == "add_parser"
            ):
                continue
            if node.args and isinstance(node.args[0], ast.Constant) and (
                isinstance(node.args[0].value, str)
            ):
                names.append(node.args[0].value)
        return sorted(set(names))

    def _entrypoint_record(
        self, kind: str, ref: FunctionRef
    ) -> Dict[str, Any]:
        escapes = self.escapes().get(ref, {})
        return {
            "kind": kind,
            "module": ref[0],
            "function": ref[1],
            "escapes": {
                name: {
                    "category": self.exception_category(name),
                    "witness": self.witness_chain(ref, name),
                }
                for name in sorted(escapes)
            },
        }

    def witness_chain(self, ref: FunctionRef, exception: str) -> List[str]:
        """``file:line`` hops from ``ref`` down to the raise site."""
        chain: List[str] = []
        seen: Set[FunctionRef] = set()
        cursor: Optional[FunctionRef] = ref
        while cursor is not None and cursor not in seen and (
            len(chain) < _MAX_WITNESS_HOPS
        ):
            seen.add(cursor)
            origin = self.escapes().get(cursor, {}).get(exception)
            if origin is None:
                break
            info = self.model.modules.get(cursor[0])
            rel = info.ctx.rel_path if info else cursor[0]
            chain.append(f"{rel}:{origin.line} {origin.snippet}")
            cursor = origin.callee if origin.kind == "call" else None
        return chain

    # -- the report ------------------------------------------------------

    def report_json(self) -> Dict[str, Any]:
        """The full ``repro.lint/dataflow/v1`` document."""
        stages: Dict[str, Any] = {}
        taints: List[Dict[str, Any]] = []
        run_reach = self.run_reachable()
        sites = self.rng_sites()
        for decl in self.model.discover_stages():
            run_seed = decl.seeds.get("run")
            if run_seed is None or self.model.function(run_seed) is None:
                continue
            stages[decl.name] = {
                "module": decl.module,
                "run": f"{run_seed[0]}:{run_seed[1]}",
                "lineage": self.stage_lineage(decl.name, run_seed),
            }
        for ref in sorted(run_reach):
            for site in sites.get(ref, ()):
                if site.api != "raw" or is_rng_module(ref[0]):
                    continue
                info = self.model.modules[ref[0]]
                for stage in run_reach[ref]:
                    taints.append({
                        "rule": "S701",
                        "stage": stage,
                        "site": f"{info.ctx.rel_path}:{site.line}",
                        "snippet": site.snippet,
                        "chain": self.run_path_chain(stage, ref),
                    })
        n_functions = sum(
            len(info.functions) for info in self.model.modules.values()
        )
        entrypoints = self.entrypoints()
        return {
            "schema": DATAFLOW_SCHEMA,
            "entrypoints": entrypoints,
            "stages": stages,
            "taints": taints,
            "summary": {
                "modules": len(self.model.modules),
                "functions": n_functions,
                "entrypoints": len(entrypoints),
                "stages": len(stages),
                "taints": len(taints),
            },
        }


# ---------------------------------------------------------------------------
# memoization
# ---------------------------------------------------------------------------


def dataflow_for_model(model: ProgramModel) -> DataflowAnalysis:
    """The (memoized) analysis of one program model, hung off the model
    itself so every analysis built on it shares one instance."""
    cached = getattr(model, "_dataflow_analysis", None)
    if cached is None:
        cached = DataflowAnalysis(model)
        setattr(model, "_dataflow_analysis", cached)
    return cached


def dataflow_for(project: ProjectContext) -> DataflowAnalysis:
    """The (memoized) analysis of a lint run's project: all S/X/I rules
    and ``--dataflow-json`` share one instance."""
    return dataflow_for_model(project.program_model())
