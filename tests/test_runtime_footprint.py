"""The footprint-salt loop: edit code, invalidate exactly the right
stages.

The flagship regression here copies the installed source tree once per
edit and edits modules in each copy: a helper function appended to
``core/classify.py``, a comment to ``obs/metrics.py`` and to each obs
tooling module (tracing, manifests, the ledger and its diff, exports),
and two edits to the code that builds the world: a commercial
geolocation database that answers one country, and a passive-DNS
window one day longer.  It asserts that exactly the footprints that
list an edited module get a new salt, and that exactly the stages
downstream of one get new effective salts and cache keys; the tooling
edit moves no salt at all, and a world edit moves every effective
salt.  Edits to a stage's ``index`` role, and to a helper only the
index reaches, move salts the same way.  Salts are computed once per
process: a second engine
reads no source, and an edit on disk to code the process is running
does not move them.

The scans themselves are exercised on small fixture trees: reach by
name inside a stage module, whole modules and import closures across
modules, a lambda role folding its whole module, and the imports no
salt can cover raising.
"""

from __future__ import annotations

import builtins
import importlib.util
import inspect
import io
import json
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path
from typing import Dict

import pytest

from repro import WorldConfig
from repro.datasets.builder import cached_build_world
from repro.errors import ValidationError
from repro.runtime import run_study
from repro.runtime.cache import ArtifactCache, effective_salts, stage_code_salt
from repro.runtime.engine import ExecutionEngine
from repro.runtime.footprint import (
    WORLD,
    WORLD_MODULE,
    default_root,
    footprint,
    footprint_salts,
    stage_footprints,
    stage_salts,
    world_footprint,
)
from repro.runtime.graph import StageGraph, StageSpec
from repro.runtime.stages import STAGE_NAMES, build_stage_graph

#: stages that can reach core/classify.py, directly or through an input
CLASSIFY_DEPENDENTS = {
    "classification", "inventory", "geolocation", "confinement",
    "localization", "sensitive", "ispscale",
}

#: stages whose closure does not include core/classify.py
CLASSIFY_INDEPENDENT = {"panel", "sensitive_domains"}

#: stages whose footprints list obs/metrics.py: every stage that counts
METRICS_DEPENDENTS = set(STAGE_NAMES) - {"sensitive_domains"}

#: obs modules that observe, record or export a run; no stage runs them
OBS_TOOLING_MODULES = (
    "clock", "diff", "export", "ledger", "manifest", "persist", "trace",
)

#: edit name -> ({module file of a copied tree: (text, replacement)},
#: the footprints that list an edited module or definition, the stages
#: whose effective salts move: those and every stage downstream of one,
#: or every stage when the world's code moved).  An empty text appends
#: the replacement to the file.
EDITS = {
    "classify-helper": (
        {
            "core/classify.py": (
                "", "\n\ndef _footprint_probe(flow):\n    return flow\n",
            ),
        },
        {"classification"},
        CLASSIFY_DEPENDENTS,
    ),
    "obs-metrics": (
        {"obs/metrics.py": ("", "# footprint probe\n")},
        METRICS_DEPENDENTS | {WORLD},
        set(STAGE_NAMES),
    ),
    "obs-tooling": (
        {
            f"obs/{name}.py": ("", "# footprint probe\n")
            for name in OBS_TOOLING_MODULES
        },
        set(),
        set(),
    ),
    # The stages reach this code only through the world object, which
    # no name in a stage module refers to; inventory lists the module
    # through datasets/builder.py, whose passive-DNS window it reads.
    "world-geolocation": (
        {
            "geoloc/commercial.py": (
                "        record = self._plan.lookup(address)\n",
                '        return "US"\n',
            ),
        },
        {"inventory", WORLD},
        set(STAGE_NAMES),
    ),
    "world-window": (
        {
            "datasets/builder.py": (
                "BACKGROUND_END_DAY = max(SNAPSHOT_DAYS.values()) + 10.0\n",
                "BACKGROUND_END_DAY = max(SNAPSHOT_DAYS.values()) + 11.0\n",
            ),
        },
        {"inventory", WORLD},
        set(STAGE_NAMES),
    ),
}


def copy_tree(tmp_path: Path, name: str) -> Path:
    target = tmp_path / name / "repro"
    shutil.copytree(default_root(), target)
    return target


@pytest.fixture(scope="module")
def edited_trees(tmp_path_factory):
    """(pristine copy, {edit name: copy with that edit made})."""
    tmp_path = tmp_path_factory.mktemp("footprint-trees")
    pristine = copy_tree(tmp_path, "pristine")
    edited = {}
    for edit, (files, _, _) in EDITS.items():
        tree = edited[edit] = copy_tree(tmp_path, edit)
        for relpath, (text, replacement) in files.items():
            module = tree / relpath
            source = module.read_text()
            if text:
                assert source.count(text) == 1, (edit, relpath)
                source = source.replace(text, replacement)
            else:
                source += replacement
            module.write_text(source)
    return pristine, edited


def write_tree(root: Path, files: Dict[str, str]) -> Path:
    """Write ``files`` (relpath -> source) with an ``__init__.py`` in
    every package directory; return the ``pkg`` package root."""
    for relpath, source in files.items():
        path = root / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
        parent = path.parent
        while parent != root:
            init = parent / "__init__.py"
            if not init.exists():
                init.write_text("")
            parent = parent.parent
    return root / "pkg"


# ---------------------------------------------------------------------------
# the pipeline's footprints
# ---------------------------------------------------------------------------


def test_every_pipeline_stage_gets_a_footprint():
    footprints = stage_footprints(build_stage_graph())
    assert set(footprints) == set(STAGE_NAMES)
    tooling = {f"repro.obs.{name}" for name in OBS_TOOLING_MODULES}
    for name, fp in footprints.items():
        assert fp.salt, name
        assert fp.stage_modules, name
        # the salt covers the code a stage can run, and no tooling
        assert not tooling & set(fp.modules), name
        assert not [
            module for module in fp.modules
            if module.startswith("repro.lint.")
        ], name
    # footprints discriminate between stages — no two identical
    salts = [fp.salt for fp in footprints.values()]
    assert len(set(salts)) == len(salts)


def test_classification_footprint_covers_classify_module():
    footprints = stage_footprints(build_stage_graph())
    assert "repro.core.classify" in footprints["classification"].modules
    for name in CLASSIFY_INDEPENDENT:
        covered = set(footprints[name].modules)
        covered |= set(footprints[name].stage_modules)
        assert "repro.core.classify" not in covered, name


def test_world_footprint_covers_the_builder_closure():
    assert WORLD_MODULE == cached_build_world.__module__
    world = world_footprint()
    assert world.stage_modules == ()
    assert WORLD_MODULE in world.modules
    assert "repro.geoloc.commercial" in world.modules
    # the world is built from the substrate, never from the analyses
    assert not [
        module for module in world.modules
        if module.startswith(("repro.core.", "repro.runtime."))
    ]


def test_helper_edit_changes_exactly_the_reaching_footprints(edited_trees):
    pristine, edited = edited_trees
    graph = build_stage_graph()
    before, _ = stage_salts(graph, root=pristine)
    assert set(before) == set(STAGE_NAMES) | {WORLD}
    for edit, (_, reaching, _) in EDITS.items():
        after, _ = stage_salts(graph, root=edited[edit])
        assert set(after) == set(before), edit
        moved = {name for name in before if before[name] != after[name]}
        assert moved == reaching, edit


def test_helper_edit_propagates_to_effective_salts_and_cache_keys(
    edited_trees,
):
    pristine, edited = edited_trees
    graph = build_stage_graph()
    _, before = stage_salts(graph, root=pristine)
    cache = ArtifactCache(None)
    for edit, (_, _, moved) in EDITS.items():
        _, after = stage_salts(graph, root=edited[edit])
        for name in STAGE_NAMES:
            key_before = cache.key("cfg", before[name], name, "s0")
            key_after = cache.key("cfg", after[name], name, "s0")
            if name in moved:
                assert before[name] != after[name], (edit, name)
                assert key_before != key_after, (edit, name)
            else:
                assert before[name] == after[name], (edit, name)
                assert key_before == key_after, (edit, name)


#: (module file under the copied tree, text, replacement): an edit to
#: the classification stage's ``index`` role, and one to a helper that
#: only the index reaches
INDEX_EDITS = {
    "index-role": (
        "runtime/stages.py",
        '        "tracking_flows": len(tracking),\n',
        '        "tracking_flows": len(tracking) + 0,\n',
    ),
    "index-helper": (
        "runtime/stages.py",
        '        "total_requests": stats.total_requests,\n',
        '        "total_requests": stats.total_requests + 0,\n',
    ),
}


@pytest.mark.parametrize("edit", sorted(INDEX_EDITS))
def test_index_edit_propagates_to_effective_salts(tmp_path, edit):
    relpath, text, replacement = INDEX_EDITS[edit]
    edited = copy_tree(tmp_path, "edited")
    module = edited / relpath
    source = module.read_text()
    assert source.count(text) == 1
    module.write_text(source.replace(text, replacement))
    graph = build_stage_graph()
    footprints_before, before = stage_salts(graph)
    footprints_after, after = stage_salts(graph, root=edited)
    assert {
        name for name in footprints_before
        if footprints_before[name] != footprints_after[name]
    } == {"classification"}
    for name in STAGE_NAMES:
        if name in CLASSIFY_DEPENDENTS:
            assert before[name] != after[name], name
        else:
            assert before[name] == after[name], name


def test_stage_salts_fold_the_world_into_every_stage():
    graph = build_stage_graph()
    footprints, salts = stage_salts(graph)
    stages = {name: fp for name, fp in footprints.items() if name != WORLD}
    without_world = effective_salts(graph, footprint_salts(stages))
    assert dict(salts) == effective_salts(
        graph, footprint_salts(stages), footprints[WORLD].salt
    )
    assert not set(salts.values()) & set(without_world.values())


def test_stage_named_like_the_world_is_rejected():
    graph = build_stage_graph()
    spec = graph["panel"]
    clash = StageGraph()
    clash.add(StageSpec(
        name=WORLD, inputs=(), plan=spec.plan, run=spec.run,
        merge=spec.merge, index=spec.index,
    ))
    with pytest.raises(ValidationError, match="world"):
        stage_salts(clash)


# ---------------------------------------------------------------------------
# memo and set-up
# ---------------------------------------------------------------------------


def _record_opened_sources(monkeypatch):
    """Record every ``.py`` file opened from now on."""
    opened = []
    real_open = io.open

    def recording_open(file, *args, **kwargs):
        if str(file).endswith(".py"):
            opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", recording_open)
    monkeypatch.setattr(io, "open", recording_open)
    return opened


def test_module_scans_are_memoized_per_root(monkeypatch, tmp_path):
    # Each module's digests and imports are kept per process and root:
    # footprints computed again read no source, while a new root is
    # scanned afresh.
    graph = build_stage_graph()
    stage_footprints(graph)
    world_footprint()
    opened = _record_opened_sources(monkeypatch)
    stage_footprints(graph)
    world_footprint()
    assert opened == []
    root = write_tree(tmp_path, _stage_tree())
    del opened[:]
    footprint(STAGE_SEEDS, root)
    assert sorted(Path(path).name for path in opened) == [
        "deep.py", "stages.py", "work.py",
    ]


def test_second_engine_reads_no_source(monkeypatch):
    ExecutionEngine()
    read = []
    getsource = inspect.getsource

    def counting_getsource(obj):
        read.append(obj)
        return getsource(obj)

    monkeypatch.setattr(inspect, "getsource", counting_getsource)
    opened = _record_opened_sources(monkeypatch)
    ExecutionEngine()
    assert read == []
    assert opened == []


SYNTHETIC_STAGE = """
def plan(world, indexes):
    return [("all", None)]


def run(world, products, shard_key, payload):
    return None


def merge(world, products, shards):
    return None


def index(product):
    return {"records": {}}
"""


def load_module(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_salts_stay_fixed_when_running_source_is_edited_on_disk(tmp_path):
    # A long-lived process keys artifacts by the code it runs: editing
    # the file on disk must not move the salts of the loaded functions.
    path = tmp_path / "synthetic_stage.py"
    path.write_text(SYNTHETIC_STAGE)
    module = load_module("synthetic_stage", path)
    graph = StageGraph()
    graph.add(StageSpec(
        name="synthetic", inputs=(), plan=module.plan, run=module.run,
        merge=module.merge, index=module.index,
    ))
    before = dict(ExecutionEngine(graph=graph)._salts)
    path.write_text(SYNTHETIC_STAGE.replace(
        "return None", "return 'edited on disk'"
    ))
    assert dict(ExecutionEngine(graph=graph)._salts) == before


def test_footprint_salt_folds_into_stage_code_salt():
    spec = build_stage_graph()["classification"]
    plain = stage_code_salt(spec)
    folded = stage_code_salt(spec, module_footprint_salt="abc123")
    assert plain != folded
    # the empty footprint reproduces the footprint-less salt exactly
    assert stage_code_salt(spec, module_footprint_salt="") == plain


def test_synthetic_graph_without_model_coverage_gets_no_footprint():
    def plan(world, products):
        return [("s0", None)]

    def run(world, products, payload):
        return None

    def merge(world, products, shards):
        return None

    def index(product):
        return {"records": {}}

    graph = StageGraph()
    graph.add(StageSpec(
        name="synthetic", inputs=(), plan=plan, run=run, merge=merge,
        index=index,
    ))
    # test-local functions live outside the source root: no footprint,
    # and effective_salts degrades to the footprint-less behavior
    footprints = stage_footprints(graph)
    assert footprints == {}
    salts = effective_salts(graph, footprint_salts(footprints))
    assert salts["synthetic"] == effective_salts(graph)["synthetic"]


def test_manifest_records_footprints():
    run = run_study(WorldConfig.small(), workers=1)
    manifest = run.manifest
    assert manifest is not None
    footprints = manifest["footprints"]
    assert set(footprints) == set(STAGE_NAMES) | {WORLD}
    entry = footprints["classification"]
    assert entry["salt"]
    assert "repro.core.classify" in entry["modules"]
    world = footprints[WORLD]
    assert world["stage_modules"] == []
    assert WORLD_MODULE in world["modules"]


def test_engine_construction_imports_no_lint_analysis(tmp_path):
    # A fresh interpreter, so modules other tests imported cannot mask
    # an import the engine's set-up makes.
    probe = (
        "import json, sys\n"
        "from repro.runtime.engine import ExecutionEngine\n"
        f"ExecutionEngine(cache_dir={str(tmp_path / 'cache')!r})\n"
        "print(json.dumps(sorted(m for m in sys.modules "
        "if m == 'repro.lint' or m.startswith('repro.lint.'))))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(default_root().parent)}
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env=env, capture_output=True, text=True, check=True,
    )
    assert json.loads(result.stdout) == []


# ---------------------------------------------------------------------------
# the scans, on fixture trees
# ---------------------------------------------------------------------------


def _stage_tree() -> Dict[str, str]:
    return {
        "pkg/stages.py": """
            from pkg import work

            def plan(world, products):
                return [("s0", None)]

            def run(world, products, payload):
                return work.crunch()

            def merge(world, products, shards):
                return shards

            def unrelated():
                return 0
        """,
        "pkg/work.py": """
            from pkg import deep

            def crunch():
                return deep.core()
        """,
        "pkg/deep.py": """
            def core():
                return 1
        """,
        "pkg/island.py": """
            def lonely():
                return 2
        """,
    }


STAGE_SEEDS = [
    ("pkg.stages", "plan"), ("pkg.stages", "run"), ("pkg.stages", "merge"),
]


def test_footprint_covers_transitive_modules(tmp_path):
    files = _stage_tree()
    files["pkg/__init__.py"] = "VERSION = 1\n"
    fp = footprint(STAGE_SEEDS, write_tree(tmp_path, files))
    assert fp.stage_modules == ("pkg.stages",)
    assert "pkg.work" in fp.modules
    assert "pkg.deep" in fp.modules  # via pkg.work's import closure
    assert "pkg.island" not in fp.modules
    # importing a module does not fold its package's __init__
    assert "pkg" not in fp.modules


def test_footprint_changes_on_cross_module_helper_edit(tmp_path):
    files = _stage_tree()
    before = write_tree(tmp_path / "v1", files)
    files["pkg/deep.py"] = """
        def core():
            return 99  # changed helper body
    """
    after = write_tree(tmp_path / "v2", files)
    seeds = [("pkg.stages", "run")]
    assert footprint(seeds, before).salt != footprint(seeds, after).salt


def test_footprint_ignores_unrelated_sibling_edit(tmp_path):
    files = _stage_tree()
    before = write_tree(tmp_path / "v1", files)
    files["pkg/stages.py"] = files["pkg/stages.py"].replace(
        "return 0", "return 123"
    )
    after = write_tree(tmp_path / "v2", files)
    # `unrelated` is in the stage module but no seed reads its name:
    # per-definition granularity keeps the salt stable.
    assert (
        footprint(STAGE_SEEDS, before).salt
        == footprint(STAGE_SEEDS, after).salt
    )


def test_reach_follows_names_but_not_annotations(tmp_path):
    files = {
        "pkg/stages.py": """
            from pkg import typing_only, work
            from pkg.deep import core

            LIMIT = 3

            def _helper(value: typing_only.Kind) -> typing_only.Kind:
                from pkg import late
                return late.grow(value) + LIMIT

            def run(world: typing_only.World, products, payload):
                return _helper(core()) + work.crunch()
        """,
        "pkg/typing_only.py": "Kind = int\nWorld = object\n",
        "pkg/work.py": "def crunch():\n    return 1\n",
        "pkg/deep.py": "def core():\n    return 2\n",
        "pkg/late.py": "def grow(value):\n    return value + 1\n",
    }
    seeds = [("pkg.stages", "run")]
    before = footprint(seeds, write_tree(tmp_path / "v1", files))
    assert before.modules == ("pkg.deep", "pkg.late", "pkg.work")
    files["pkg/stages.py"] = files["pkg/stages.py"].replace(
        "LIMIT = 3", "LIMIT = 4"
    )
    after = footprint(seeds, write_tree(tmp_path / "v2", files))
    # a constant read by a reached helper folds its own source
    assert after.salt != before.salt


LAMBDA_STAGE = """
def plan(world, indexes):
    return [("all", None)]


run = lambda world, products, shard_key, payload: None


def merge(world, products, shards):
    return None


def index(product):
    return {"records": {}}


def unrelated():
    return 0
"""


def test_lambda_role_folds_its_whole_module(tmp_path):
    roots = {}
    for version, body in (("v1", "return 0"), ("v2", "return 123")):
        roots[version] = write_tree(tmp_path / version, {
            "pkg/stages.py": LAMBDA_STAGE.replace("return 0", body),
        })
    module = load_module("pkg.stages", roots["v1"] / "stages.py")
    assert module.run.__qualname__ == "<lambda>"
    graph = StageGraph()
    graph.add(StageSpec(
        name="alpha", inputs=(), plan=module.plan, run=module.run,
        merge=module.merge, index=module.index,
    ))
    before = stage_footprints(graph, roots["v1"])["alpha"]
    after = stage_footprints(graph, roots["v2"])["alpha"]
    assert before.stage_modules == ("pkg.stages",)
    # a lambda can run any code of its module, so an edit to a
    # definition no role names moves the salt
    assert before.salt != after.salt


def test_footprint_reports_missing_repro_modules(tmp_path):
    root = write_tree(tmp_path, {
        "pkg/stages.py": """
            import pkg.not_there

            def run(world, products, payload):
                return pkg.not_there.helper()
        """,
    })
    with pytest.raises(ValidationError, match="pkg.not_there"):
        footprint([("pkg.stages", "run")], root)


def test_missing_first_party_from_import_raises(tmp_path):
    root = write_tree(tmp_path, {
        "pkg/stages.py": """
            from pkg.nowhere import thing

            def run(world, products, payload):
                return thing()
        """,
    })
    # the name a role reads binds a from-import of a module with no file
    with pytest.raises(ValidationError, match="pkg.nowhere"):
        footprint([("pkg.stages", "run")], root)


def test_unindexed_import_in_a_reached_module_raises(tmp_path):
    files = _stage_tree()
    files["pkg/deep.py"] = """
        def core():
            from pkg.vanished import thing
            return thing()
    """
    with pytest.raises(ValidationError, match="pkg.vanished"):
        footprint(STAGE_SEEDS, write_tree(tmp_path, files))


def test_relative_import_raises(tmp_path):
    files = _stage_tree()
    files["pkg/work.py"] = files["pkg/work.py"].replace(
        "from pkg import deep", "from . import deep"
    )
    with pytest.raises(ValidationError, match="relative import"):
        footprint(STAGE_SEEDS, write_tree(tmp_path, files))


def test_import_cycle_closure_terminates(tmp_path):
    root = write_tree(tmp_path, {
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
    fp = footprint([("pkg.a", "fa")], root)
    # pkg.b's closure leads back to the stage module, which is covered
    # per definition, not folded whole
    assert fp.modules == ("pkg.b",)
