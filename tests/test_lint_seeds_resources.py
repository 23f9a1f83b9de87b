"""The S and I rule families, and the rules that guard run paths.

S702–S704 and I902 read syntactic scans of each file (RNG derivation
sites, socket/subprocess sites); the tests below run small fixture
trees through the real lint framework.  The second half pins where the
run-path invariants are enforced: a raw ``random.Random`` on a stage's
run path is D102's, and an explicit builtin ``raise`` under a stage
``run`` or a CLI ``main`` is E201's — each flagged at the offending
line.  One defect per O, S and I rule (and D102) is planted in a copy
of the real tree, so the rules are held to the tree's own import
forms.
"""

from __future__ import annotations

import shutil
import textwrap
from pathlib import Path
from typing import List, Optional, Sequence

import pytest

from repro.lint import Finding, run_lint, select_rules
from repro.runtime.footprint import default_root


def write_tree(tmp_path: Path, files) -> Path:
    """Write a {relpath: source} tree with ``__init__.py`` chains."""
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
    return tmp_path


def lint_tree(
    tmp_path: Path, files, select: Optional[Sequence[str]] = None
) -> List[Finding]:
    write_tree(tmp_path, files)
    rules = select_rules(select) if select else None
    return run_lint([tmp_path], rules=rules, root=tmp_path).findings


def codes(findings: Sequence[Finding]) -> List[str]:
    return [finding.rule for finding in findings]


def line_of(source: str, needle: str) -> int:
    """1-based line of the first ``needle`` in a dedented fixture."""
    for number, text in enumerate(textwrap.dedent(source).splitlines(), 1):
        if needle in text:
            return number
    raise AssertionError(f"{needle!r} not in fixture")


# ---------------------------------------------------------------------------
# fixture building blocks
# ---------------------------------------------------------------------------

RNG_MODULE = {
    "pkg/util/rng.py": """
        import random

        def seeded_rng(seed, name):
            return random.Random((seed, name))

        def fixed_rng(seed=0):
            return random.Random(seed)
    """,
}


def stage_tree(helper_source: str, run_body: str = "helpers.crunch(payload)"):
    """A one-stage fixture whose ``run`` calls ``helpers.crunch``."""
    files = dict(RNG_MODULE)
    files["pkg/helpers.py"] = helper_source
    files["pkg/stages.py"] = f"""
        from pkg import helpers

        def _plan(world, products):
            return [("s0", None)]

        def _run(world, products, payload):
            return {run_body}

        def _merge(world, products, shards):
            return shards

        def _index(product):
            return {{"records": {{}}}}

        SPEC = StageSpec(
            name="alpha", plan=_plan, run=_run, merge=_merge,
            index=_index,
        )
    """
    return files


# ---------------------------------------------------------------------------
# S-rules
# ---------------------------------------------------------------------------


def test_s702_fires_on_double_spent_stream_name(tmp_path):
    files = dict(RNG_MODULE)
    files["pkg/consumers.py"] = """
        from pkg.util.rng import seeded_rng

        def one(seed):
            return seeded_rng(seed, "panel:dup")

        def two(seed):
            return seeded_rng(seed, "panel:dup")
    """
    findings = lint_tree(tmp_path, files, select=["S702"])
    assert codes(findings) == ["S702", "S702"]
    assert "panel:dup" in findings[0].message
    assert "2 sites" in findings[0].message


def test_s702_quiet_on_distinct_stream_names(tmp_path):
    files = dict(RNG_MODULE)
    files["pkg/consumers.py"] = """
        from pkg.util.rng import seeded_rng

        def one(seed):
            return seeded_rng(seed, "panel:one")

        def two(seed):
            return seeded_rng(seed, "panel:two")
    """
    assert lint_tree(tmp_path, files, select=["S702"]) == []


def test_s703_fires_outside_tests_and_stays_quiet_inside(tmp_path):
    files = dict(RNG_MODULE)
    files["pkg/lib.py"] = """
        from pkg.util.rng import fixed_rng

        def sample():
            return fixed_rng().random()
    """
    files["tests/test_lib.py"] = """
        from pkg.util.rng import fixed_rng

        def test_sample():
            assert fixed_rng().random() is not None
    """
    findings = lint_tree(tmp_path, files, select=["S703"])
    assert codes(findings) == ["S703"]
    assert findings[0].path == "pkg/lib.py"


def test_s704_fires_when_a_run_returns_the_rng(tmp_path):
    findings = lint_tree(tmp_path, stage_tree(
        """
        def crunch(payload):
            return payload
        """,
        run_body="_draw(payload)",
    ) | {
        "pkg/stages.py": """
            from pkg.util.rng import seeded_rng

            def _plan(world, products):
                return [("s0", None)]

            def _run(world, products, payload):
                rng = seeded_rng(payload, "alpha:run")
                return rng

            def _merge(world, products, shards):
                return shards

            SPEC = StageSpec(
                name="alpha", plan=_plan, run=_run, merge=_merge,
            )
        """,
    }, select=["S704"])
    assert codes(findings) == ["S704"]
    assert "returns the RNG bound to 'rng'" in findings[0].message


# ---------------------------------------------------------------------------
# I-rules
# ---------------------------------------------------------------------------


def test_i902_fires_on_subprocess_anywhere(tmp_path):
    findings = lint_tree(tmp_path, {
        "pkg/mod.py": """
            import subprocess

            def shell(cmd):
                return subprocess.run(cmd)
        """,
    }, select=["I902"])
    assert codes(findings) == ["I902"]
    assert "hermetic" in findings[0].message


def test_module_level_subprocess_and_fixed_rng_are_flagged(tmp_path):
    # Code outside every function body runs at import: I902 and S703
    # scan it as they scan function bodies.
    files = dict(RNG_MODULE)
    files["pkg/boot.py"] = """
        import subprocess

        subprocess.run(["true"])
    """
    files["pkg/defaults.py"] = """
        from pkg.util.rng import fixed_rng

        RNG = fixed_rng()
    """
    findings = lint_tree(tmp_path, files, select=["I902", "S703"])
    assert sorted((f.rule, f.path) for f in findings) == [
        ("I902", "pkg/boot.py"),
        ("S703", "pkg/defaults.py"),
    ]
    assert all("<module>" in finding.message for finding in findings)


def test_i902_quiet_in_test_code(tmp_path):
    findings = lint_tree(tmp_path, {
        "tests/test_mod.py": """
            import subprocess

            def test_shell():
                assert subprocess.run(["true"]) is not None
        """,
    }, select=["I902"])
    assert findings == []


SOCKET_SERVER = """
    import socket

    def listen(host, port):
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.bind((host, port))
        return sock
"""


def test_i902_fires_on_socket_in_a_serve_package(tmp_path):
    # No package is exempt: a module under a package named `serve` may
    # not open a socket either.
    findings = lint_tree(tmp_path, {
        "pkg/serve/server.py": SOCKET_SERVER,
    }, select=["I902"])
    assert codes(findings) == ["I902"]
    assert findings[0].path == "pkg/serve/server.py"


def test_i902_still_fires_on_socket_outside_serve(tmp_path):
    # Socket use in any other library package is a raw-I/O finding.
    findings = lint_tree(tmp_path, {
        "pkg/core/net.py": SOCKET_SERVER,
    }, select=["I902"])
    assert codes(findings) == ["I902"]
    assert "socket" in findings[0].message


def test_i902_still_fires_on_subprocess_in_serve(tmp_path):
    # ... and subprocess stays banned inside a package named `serve`.
    findings = lint_tree(tmp_path, {
        "pkg/serve/worker.py": """
            import subprocess

            def shell(cmd):
                return subprocess.run(cmd)
        """,
    }, select=["I902"])
    assert codes(findings) == ["I902"]


# ---------------------------------------------------------------------------
# run-path invariants, flagged at the offending line
# ---------------------------------------------------------------------------

RAW_RNG_HELPER = """
    import random

    def crunch(payload):
        rng = random.Random(0)
        return rng.random()
"""


def test_d102_flags_raw_rng_in_a_run_path_helper(tmp_path):
    findings = lint_tree(tmp_path, stage_tree(RAW_RNG_HELPER))
    assert [(f.rule, f.path, f.line) for f in findings] == [
        ("D102", "pkg/helpers.py", line_of(RAW_RNG_HELPER, "random.Random(0)")),
    ]


def test_e201_flags_a_builtin_raise_under_a_stage_run(tmp_path):
    helper = """
        def crunch(payload):
            if payload is None:
                raise KeyError("missing payload")
            return payload
    """
    findings = lint_tree(tmp_path, stage_tree(helper))
    assert [(f.rule, f.path, f.line) for f in findings] == [
        ("E201", "pkg/helpers.py", line_of(helper, "raise KeyError")),
    ]


def test_e201_flags_a_builtin_raise_under_a_cli_main(tmp_path):
    cli = """
        def work():
            raise ValueError("boom")

        def main(argv=None):
            work()
            return 0
    """
    findings = lint_tree(tmp_path, {"pkg/cli.py": cli})
    assert [(f.rule, f.path, f.line) for f in findings] == [
        ("E201", "pkg/cli.py", line_of(cli, "raise ValueError")),
    ]


NESTED_CLASS = """
    import subprocess

    from pkg.util.rng import fixed_rng

    class Outer:
        class Inner:
            def go(self):
                subprocess.run(["true"])
                return fixed_rng()

    def build():
        class Local:
            def go(self):
                return fixed_rng(1)
        return Local
"""


def test_calls_in_a_nested_class_method_are_scanned(tmp_path):
    # A method of a class nested in a class body runs as surely as a
    # top-level function; its calls are scanned and named by the
    # method's dotted path.  A function-local class belongs to the
    # function that defines it.
    files = dict(RNG_MODULE)
    files["pkg/nested.py"] = NESTED_CLASS
    findings = lint_tree(tmp_path, files, select=["I902", "S703"])
    assert [(f.rule, f.path, f.line) for f in findings] == [
        ("I902", "pkg/nested.py", line_of(NESTED_CLASS, "subprocess.run")),
        ("S703", "pkg/nested.py", line_of(NESTED_CLASS, "fixed_rng()")),
        ("S703", "pkg/nested.py", line_of(NESTED_CLASS, "fixed_rng(1)")),
    ]
    assert ["Outer.Inner.go" in f.message for f in findings] == [
        True, True, False,
    ]
    assert "in build " in findings[2].message


# ---------------------------------------------------------------------------
# one defect planted in a copy of the real tree, per rule
# ---------------------------------------------------------------------------

PANEL_UNPACK = "    lo, hi = payload\n"


def _replace(old: str, new: str):
    def edit(source: str) -> str:
        assert source.count(old) == 1, old
        return source.replace(old, new)
    return edit


def _in_panel_run(text: str):
    """Insert ``text`` right after ``panel_run`` unpacks its payload."""
    def edit(source: str) -> str:
        start = source.index("def panel_run(")
        at = source.index(PANEL_UNPACK, start) + len(PANEL_UNPACK)
        return source[:at] + text + source[at:]
    return edit


def _append(text: str):
    return lambda source: source + text


PLANTED = [
    pytest.param(
        "O601", "core/classify.py",
        _replace("obs_names.CLASSIFY_FLOWS, count,",
                 '"classify.undeclared", count,'),
        ["obs_metrics.inc("], "'classify.undeclared'", id="O601",
    ),
    pytest.param(
        "O602", "core/classify.py",
        _replace("obs_names.CLASSIFY_FLOWS, count, stage=stage.value",
                 "obs_names.CLASSIFY_FLOWS, count"),
        ["obs_metrics.inc("], "labels [<none>]", id="O602",
    ),
    pytest.param(
        "O603", "runtime/engine.py",
        _replace("tracer.span(obs_names.SPAN_WORLD_BUILD)",
                 'tracer.span("world.undeclared")'),
        ['tracer.span("world.undeclared")'], "'world.undeclared'", id="O603",
    ),
    pytest.param(
        "S702", "runtime/stages.py",
        _in_panel_run('    _twin = world.streams.spawn("runtime:sensitive")\n'),
        ["_twin = ", 'streams=world.streams.spawn("runtime:sensitive")'],
        "'runtime:sensitive' (spawn family) is derived at 2 sites",
        id="S702",
    ),
    pytest.param(
        "S703", "runtime/stages.py",
        _in_panel_run(
            "    from repro.util.rng import fixed_rng\n"
            "    _rng = fixed_rng()\n"
        ),
        ["_rng = fixed_rng()"], "fixed_rng(...) in panel_run ", id="S703",
    ),
    pytest.param(
        "S704", "runtime/stages.py",
        _in_panel_run('    return world.streams.spawn("runtime:leak")\n'),
        ['return world.streams.spawn("runtime:leak")'],
        "stage 'panel' run returns a freshly derived RNG", id="S704",
    ),
    pytest.param(
        "I902", "runtime/cache.py",
        _append('\nimport subprocess\n\nsubprocess.run(["true"])\n'),
        ['subprocess.run(["true"])'], "subprocess.run(...) in <module>",
        id="I902",
    ),
]


@pytest.mark.parametrize("rule,relpath,plant,needles,fragment", PLANTED)
def test_planted_defect_in_the_real_tree(
    tmp_path, rule, relpath, plant, needles, fragment
):
    # The rules must see the tree's own import forms: `obs_names.X`
    # through `from repro.obs import names as obs_names`,
    # `obs_metrics.inc`, `world.streams.spawn` and
    # `StageSpec(run=panel_run)`.
    target = tmp_path / "edited" / "repro"
    shutil.copytree(
        default_root(), target, ignore=shutil.ignore_patterns("__pycache__")
    )
    path = target / relpath
    edited = plant(path.read_text())
    path.write_text(edited)
    findings = run_lint(
        [target], rules=select_rules([rule]), root=target.parent
    ).findings
    assert [(f.rule, f.path, f.line) for f in findings] == sorted(
        (rule, f"repro/{relpath}", line_of(edited, needle))
        for needle in needles
    )
    assert all(fragment in f.message for f in findings), [
        f.message for f in findings
    ]


def test_planted_raw_rng_in_panel_run_yields_d102(tmp_path):
    target = tmp_path / "edited" / "repro"
    shutil.copytree(default_root(), target)
    stages = target / "runtime" / "stages.py"
    source = stages.read_text()
    anchor = "    lo, hi = payload\n"
    start = source.index("def panel_run(")
    planted = source.index(anchor, start) + len(anchor)
    rogue = "    _rogue = random.Random(0)\n"
    edited = "import random\n" + source[:planted] + rogue + source[planted:]
    stages.write_text(edited)
    findings = run_lint(
        [target], rules=select_rules(["D102"]), root=target.parent
    ).findings
    assert [(f.rule, f.path, f.line) for f in findings] == [
        ("D102", "repro/runtime/stages.py", line_of(edited, "_rogue = ")),
    ]
