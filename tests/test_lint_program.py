"""Unit tests for the whole-program model (repro.lint.program).

Fixture trees are synthetic packages written to tmp_path; every test
builds a real :class:`ProgramModel` from the filesystem, so the module
index, import resolution and call graph are exercised end to end.  The
runtime's footprint scans are tested in ``test_runtime_footprint.py``.
"""

from __future__ import annotations

import textwrap
from pathlib import Path
from typing import Dict

from repro.lint.program import (
    ProgramModel,
    Symbol,
    resolve_relative_import,
)


def build_model(tmp_path: Path, files: Dict[str, str]) -> ProgramModel:
    """Write ``files`` (relpath -> source) and model the tree."""
    for relpath, source in files.items():
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
        parent = path.parent
        while parent != tmp_path.parent and parent != parent.parent:
            init = parent / "__init__.py"
            if parent == tmp_path:
                break
            if not init.exists():
                init.write_text("")
            parent = parent.parent
    return ProgramModel.from_paths([tmp_path], root=tmp_path)


# ---------------------------------------------------------------------------
# import resolution
# ---------------------------------------------------------------------------


def test_resolve_relative_import_module_and_package():
    assert resolve_relative_import("pkg.sub.mod", False, 1, "other") == (
        "pkg.sub.other"
    )
    assert resolve_relative_import("pkg.sub.mod", False, 2, "x") == "pkg.x"
    # a package counts as its own base: `from . import x` in
    # pkg/sub/__init__.py is pkg.sub.x
    assert resolve_relative_import("pkg.sub", True, 1, "x") == "pkg.sub.x"
    # over-deep relativity degrades to None, never raises
    assert resolve_relative_import("pkg", False, 5, "x") is None


def test_relative_imports_resolve_to_edges(tmp_path):
    model = build_model(tmp_path, {
        "pkg/a.py": """
            from . import b
            from .sub import c
        """,
        "pkg/b.py": "X = 1\n",
        "pkg/sub/c.py": "Y = 2\n",
    })
    symbols = model.modules["pkg.a"].symbols
    assert symbols["b"] == Symbol("module", module="pkg.b")
    assert symbols["c"] == Symbol("module", module="pkg.sub.c")


def test_from_import_alias_binds_origin_symbol(tmp_path):
    model = build_model(tmp_path, {
        "pkg/helpers.py": """
            def work():
                return 1
        """,
        "pkg/main.py": """
            from pkg.helpers import work as w

            def caller():
                return w()
        """,
    })
    fn = model.function(("pkg.main", "caller"))
    callees = [c.callee for c in fn.calls]
    assert callees[0].kind == "function"
    assert (callees[0].module, callees[0].qualname) == ("pkg.helpers", "work")


def test_import_cycle_does_not_hang(tmp_path):
    model = build_model(tmp_path, {
        "pkg/a.py": """
            import pkg.b

            def fa():
                return pkg.b.fb()
        """,
        "pkg/b.py": """
            import pkg.a

            def fb():
                return pkg.a.fa()
        """,
    })
    # the model builds over the cycle, and each call resolves across it
    for caller, callee in (("fa", "fb"), ("fb", "fa")):
        module = "pkg.a" if caller == "fa" else "pkg.b"
        resolved = model.function((module, caller)).calls[0].callee
        assert (resolved.kind, resolved.qualname) == ("function", callee)


# ---------------------------------------------------------------------------
# call resolution
# ---------------------------------------------------------------------------


def test_module_attr_call_resolves(tmp_path):
    model = build_model(tmp_path, {
        "pkg/util.py": """
            def helper():
                return 1
        """,
        "pkg/main.py": """
            from pkg import util

            def go():
                return util.helper()
        """,
    })
    fn = model.function(("pkg.main", "go"))
    callee = fn.calls[0].callee
    assert callee.kind == "function"
    assert (callee.module, callee.qualname) == ("pkg.util", "helper")


def test_constructed_local_method_dispatch(tmp_path):
    model = build_model(tmp_path, {
        "pkg/svc.py": """
            class Service:
                def ping(self):
                    return self.pong()

                def pong(self):
                    return 1
        """,
        "pkg/main.py": """
            from pkg.svc import Service

            def go():
                s = Service()
                return s.ping()
        """,
    })
    fn = model.function(("pkg.main", "go"))
    kinds = {(c.callee.kind, c.callee.qualname) for c in fn.calls}
    assert ("class", "Service") in kinds
    assert ("function", "Service.ping") in kinds
    # self.pong() inside ping resolves through self-dispatch
    ping = model.function(("pkg.svc", "Service.ping"))
    assert ping.calls[0].callee.qualname == "Service.pong"


def test_return_annotation_infers_local_type(tmp_path):
    model = build_model(tmp_path, {
        "pkg/svc.py": """
            class Engine:
                def start(self):
                    return 1

            def make_engine() -> Engine:
                return Engine()
        """,
        "pkg/main.py": """
            from pkg.svc import make_engine

            def go():
                engine = make_engine()
                return engine.start()
        """,
    })
    fn = model.function(("pkg.main", "go"))
    resolved = {c.callee.qualname for c in fn.calls}
    assert "Engine.start" in resolved


def test_base_class_method_lookup(tmp_path):
    model = build_model(tmp_path, {
        "pkg/svc.py": """
            class Base:
                def shared(self):
                    return 1

            class Child(Base):
                def own(self):
                    return self.shared()
        """,
    })
    own = model.function(("pkg.svc", "Child.own"))
    callee = own.calls[0].callee
    assert callee.kind == "function"
    assert callee.qualname == "Base.shared"


def test_dynamic_calls_degrade_to_unknown(tmp_path):
    model = build_model(tmp_path, {
        "pkg/main.py": """
            def go(factory, table):
                factory()()
                table["key"]()
                x = unknown_name
                return x.method()
        """,
    })
    fn = model.function(("pkg.main", "go"))
    assert fn.calls, "calls must still be recorded"
    assert {c.callee.kind for c in fn.calls} == {"unknown"}


# ---------------------------------------------------------------------------
# stage discovery / constants / export
# ---------------------------------------------------------------------------


def test_discover_stages_resolves_seeds_and_version(tmp_path):
    model = build_model(tmp_path, {
        "pkg/graph.py": """
            class StageSpec:
                def __init__(self, **kw):
                    pass
        """,
        "pkg/stages.py": """
            from pkg.graph import StageSpec

            def _plan(world, products):
                return []

            def _run(world, products, payload):
                return None

            def _merge(world, products, shards):
                return None

            def _index(product):
                return {}

            SPEC = StageSpec(
                name="alpha", plan=_plan, run=_run, merge=_merge,
                index=_index,
            )
            BAD = StageSpec(
                name="beta", plan=lambda w, p: [], run=_run, merge=_merge,
                index=_index,
            )
        """,
    })
    decls = {decl.name: decl for decl in model.discover_stages()}
    alpha = decls["alpha"]
    assert set(alpha.seeds) == {"plan", "run", "merge", "index"}
    assert alpha.seeds["run"] == ("pkg.stages", "_run")
    # a lambda role resolves to no function, so it seeds nothing
    beta = decls["beta"]
    assert set(beta.seeds) == {"run", "merge", "index"}


def test_resolve_string_through_constants(tmp_path):
    import ast

    model = build_model(tmp_path, {
        "pkg/names.py": 'NAME = "metric.one"\n',
        "pkg/main.py": """
            from pkg import names
            from pkg.names import NAME as LOCAL
        """,
    })
    info = model.modules["pkg.main"]
    attr = ast.parse("names.NAME", mode="eval").body
    assert model.resolve_string(info, attr) == "metric.one"
    name = ast.parse("LOCAL", mode="eval").body
    assert model.resolve_string(info, name) == "metric.one"
    dynamic = ast.parse("some_variable", mode="eval").body
    assert model.resolve_string(info, dynamic) is None


def test_static_prefix_of_fstring():
    import ast

    literal = ast.parse('"stage:fixed"', mode="eval").body
    assert ProgramModel.static_prefix(literal) == "stage:fixed"
    joined = ast.parse('f"stage:{name}"', mode="eval").body
    assert ProgramModel.static_prefix(joined) == "stage:"
    call = ast.parse("make_name()", mode="eval").body
    assert ProgramModel.static_prefix(call) is None


def test_model_import_and_call_edges(tmp_path):
    model = build_model(tmp_path, {
        "pkg/stages.py": """
            from pkg import work

            def run(world, products, payload):
                return work.crunch()
        """,
        "pkg/work.py": """
            def crunch():
                return 1
        """,
    })
    assert "pkg.stages" in model.modules
    assert model.modules["pkg.stages"].symbols["work"] == Symbol(
        "module", module="pkg.work"
    )
    run_calls = model.function(("pkg.stages", "run")).calls
    assert any(
        call.callee.kind == "function"
        and (call.callee.module, call.callee.qualname)
        == ("pkg.work", "crunch")
        for call in run_calls
    )
