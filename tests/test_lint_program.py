"""Unit tests for the linter's name resolution (repro.lint.framework)
and its stage lookup (repro.lint.rules_seeds).

Fixture trees are synthetic packages written to tmp_path and parsed
into real :class:`FileContext` objects, so module names come from the
``__init__.py`` chain exactly as in a lint run.  The runtime's
footprint scans are tested in ``test_runtime_footprint.py``.
"""

from __future__ import annotations

import ast
import textwrap
from pathlib import Path
from typing import Dict

from repro.lint.framework import (
    FileContext,
    ProjectContext,
    resolve_relative_import,
    resolve_string,
    static_prefix,
)
from repro.lint.rules_seeds import stage_runs


def load_tree(tmp_path: Path, files: Dict[str, str]) -> ProjectContext:
    """Write ``files`` (relpath -> source) with ``__init__.py`` chains
    and parse every file of the tree."""
    for relpath, source in files.items():
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
        parent = path.parent
        while parent != tmp_path:
            init = parent / "__init__.py"
            if not init.exists():
                init.write_text("")
            parent = parent.parent
    project = ProjectContext()
    for path in sorted(tmp_path.rglob("*.py")):
        rel = path.relative_to(tmp_path).as_posix()
        project.add(FileContext(path, rel, path.read_text()))
    return project


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
    project = load_tree(tmp_path, {
        "pkg/a.py": """
            from . import b
            from .sub import c
        """,
        "pkg/b.py": "X = 1\n",
        "pkg/sub/c.py": "Y = 2\n",
        "pkg/sub/__init__.py": "from . import c as local_c\n",
    })
    modules = project.modules
    assert modules["pkg.a"].imported_names["b"] == "pkg.b"
    assert modules["pkg.a"].imported_names["c"] == "pkg.sub.c"
    assert modules["pkg.sub"].imported_names["local_c"] == "pkg.sub.c"


# ---------------------------------------------------------------------------
# names and stages
# ---------------------------------------------------------------------------


def test_discover_stages_resolves_seeds_and_version(tmp_path):
    project = load_tree(tmp_path, {
        "pkg/graph.py": """
            class StageSpec:
                def __init__(self, **kw):
                    pass
        """,
        "pkg/roles.py": """
            def shared_run(world, products, payload):
                return None
        """,
        "pkg/stages.py": """
            from pkg.graph import StageSpec
            from pkg.roles import shared_run

            def _plan(world, products):
                return []

            def _run(world, products, payload):
                return None

            SPEC = StageSpec(name="alpha", plan=_plan, run=_run)
            BAD = StageSpec(
                name="beta", plan=_plan, run=lambda w, p, k, x: None,
            )
            IMPORTED = StageSpec(name="gamma", plan=_plan, run=shared_run)
        """,
    })
    found = {
        stage: (ctx.module, fn.name) for stage, ctx, fn in stage_runs(project)
    }
    # a lambda role names no function, so beta has no run to check
    assert found == {
        "alpha": ("pkg.stages", "_run"),
        "gamma": ("pkg.roles", "shared_run"),
    }


def test_resolve_string_through_constants(tmp_path):
    project = load_tree(tmp_path, {
        "pkg/names.py": 'NAME = "metric.one"\nCOUNT = 3\n',
        "pkg/main.py": """
            from pkg import names
            from pkg.names import NAME as LOCAL

            OWN = "metric.own"
        """,
    })
    modules = project.modules
    ctx = modules["pkg.main"]

    def resolve(source):
        return resolve_string(ctx, ast.parse(source, mode="eval").body, modules)

    assert resolve("names.NAME") == "metric.one"
    assert resolve("LOCAL") == "metric.one"
    assert resolve("OWN") == "metric.own"
    assert resolve('"literal"') == "literal"
    assert resolve("names.COUNT") is None
    assert resolve("some_variable") is None
    assert resolve("names.NAME.upper()") is None


def test_static_prefix_of_fstring():
    literal = ast.parse('"stage:fixed"', mode="eval").body
    assert static_prefix(literal) == "stage:fixed"
    joined = ast.parse('f"stage:{name}"', mode="eval").body
    assert static_prefix(joined) == "stage:"
    call = ast.parse("make_name()", mode="eval").body
    assert static_prefix(call) is None
