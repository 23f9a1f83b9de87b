"""The footprint-salt loop: edit a helper, invalidate exactly the right
stages.

The flagship regression here copies the installed source tree once per
edit and appends to modules in each copy: a helper function to
``core/classify.py``, a comment to ``obs/metrics.py``, and a comment to
each obs tooling module (tracing, manifests, the ledger and its diff,
exports).  It asserts that exactly the stages whose footprints list an
edited module get a new footprint salt, and that exactly those and the
stages downstream of them get new effective salts and cache keys; the
tooling edit moves no salt at all.  Edits to a stage's ``index`` role,
and to a helper only the index reaches, move salts the same way.
Salts are computed once per process: a second engine reads no source,
and an edit on disk to code the process is running does not move
them.
"""

from __future__ import annotations

import importlib.util
import inspect
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro import WorldConfig
from repro.runtime import run_study
from repro.runtime.cache import ArtifactCache, effective_salts, stage_code_salt
from repro.runtime.engine import ExecutionEngine
from repro.runtime.footprint import (
    default_root,
    footprint_salts,
    program_model,
    stage_footprints,
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

#: edit name -> (text appended per module file of a copied tree, the
#: stages whose footprints list an edited module, the stages whose
#: effective salts move: those and every stage downstream of one)
APPENDED_EDITS = {
    "classify-helper": (
        {
            "core/classify.py":
                "\n\ndef _footprint_probe(flow):\n    return flow\n",
        },
        {"classification"},
        CLASSIFY_DEPENDENTS,
    ),
    "obs-metrics": (
        {"obs/metrics.py": "# footprint probe\n"},
        METRICS_DEPENDENTS,
        set(STAGE_NAMES),
    ),
    "obs-tooling": (
        {
            f"obs/{name}.py": "# footprint probe\n"
            for name in OBS_TOOLING_MODULES
        },
        set(),
        set(),
    ),
}

#: lint analyses and scans that are lint-time artifacts only: salting
#: cache keys needs the program model, never these
LINT_ONLY_MODULES = (
    "repro.lint.concurrency",
    "repro.lint.rules_resources",
    "repro.lint.rules_seeds",
)


def copy_tree(tmp_path: Path, name: str) -> Path:
    target = tmp_path / name / "repro"
    shutil.copytree(default_root(), target)
    return target


@pytest.fixture(scope="module")
def edited_trees(tmp_path_factory):
    """(pristine copy, {edit name: copy with that edit appended})."""
    tmp_path = tmp_path_factory.mktemp("footprint-trees")
    pristine = copy_tree(tmp_path, "pristine")
    edited = {}
    for edit, (appended, _, _) in APPENDED_EDITS.items():
        tree = edited[edit] = copy_tree(tmp_path, edit)
        for relpath, text in appended.items():
            module = tree / relpath
            module.write_text(module.read_text() + text)
    return pristine, edited


def test_program_model_is_memoized_per_root():
    assert program_model() is program_model()
    assert program_model() is program_model(default_root())


def test_every_pipeline_stage_gets_a_footprint():
    footprints = stage_footprints(build_stage_graph())
    assert set(footprints) == set(STAGE_NAMES)
    tooling = {f"repro.obs.{name}" for name in OBS_TOOLING_MODULES}
    for name, fp in footprints.items():
        assert fp.salt, name
        assert fp.stage_modules, name
        assert fp.missing == (), name
        # the salt covers the code a stage can run, and no tooling
        assert not tooling & set(fp.modules), name
        assert not [
            module for module in fp.modules
            if module.startswith(("repro.lint.", "repro.serve."))
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


def test_helper_edit_changes_exactly_the_reaching_footprints(edited_trees):
    pristine, edited = edited_trees
    graph = build_stage_graph()
    before = stage_footprints(graph, root=pristine)
    assert set(before) == set(STAGE_NAMES)
    for edit, (_, reaching, _) in APPENDED_EDITS.items():
        after = stage_footprints(graph, root=edited[edit])
        assert set(after) == set(STAGE_NAMES), edit
        moved = {
            name for name in STAGE_NAMES
            if before[name].salt != after[name].salt
        }
        assert moved == reaching, edit


def test_helper_edit_propagates_to_effective_salts_and_cache_keys(
    edited_trees,
):
    pristine, edited = edited_trees
    graph = build_stage_graph()

    def salts(root):
        return effective_salts(
            graph, footprint_salts(stage_footprints(graph, root=root))
        )

    before = salts(pristine)
    cache = ArtifactCache(None)
    for edit, (_, _, moved) in APPENDED_EDITS.items():
        after = salts(edited[edit])
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
    before = effective_salts(graph, footprint_salts(stage_footprints(graph)))
    after = effective_salts(
        graph, footprint_salts(stage_footprints(graph, root=edited))
    )
    for name in STAGE_NAMES:
        if name in CLASSIFY_DEPENDENTS:
            assert before[name] != after[name], name
        else:
            assert before[name] == after[name], name


def test_second_engine_reads_no_source(monkeypatch):
    ExecutionEngine()
    read = []
    getsource = inspect.getsource

    def counting_getsource(obj):
        read.append(obj)
        return getsource(obj)

    monkeypatch.setattr(inspect, "getsource", counting_getsource)
    ExecutionEngine()
    assert read == []


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


def test_salts_stay_fixed_when_running_source_is_edited_on_disk(tmp_path):
    # A long-lived process keys artifacts by the code it runs: editing
    # the file on disk must not move the salts of the loaded functions.
    path = tmp_path / "synthetic_stage.py"
    path.write_text(SYNTHETIC_STAGE)
    spec = importlib.util.spec_from_file_location("synthetic_stage", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
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
    # test-local functions have '<locals>' qualnames: no footprint, and
    # effective_salts degrades to the footprint-less behavior
    footprints = stage_footprints(graph)
    assert footprints == {}
    salts = effective_salts(graph, footprint_salts(footprints))
    assert salts["synthetic"] == effective_salts(graph)["synthetic"]


def test_manifest_records_footprints():
    run = run_study(WorldConfig.small(), workers=1)
    manifest = run.manifest
    assert manifest is not None
    footprints = manifest["footprints"]
    assert set(footprints) == set(STAGE_NAMES)
    entry = footprints["classification"]
    assert entry["salt"]
    assert "repro.core.classify" in entry["modules"]


def test_engine_construction_imports_no_lint_analysis():
    # A guard over modules that do not exist would pass trivially.
    for module in LINT_ONLY_MODULES:
        assert importlib.util.find_spec(module) is not None, module
    # A fresh interpreter, so modules other tests imported cannot mask
    # an import the engine's set-up makes.
    probe = (
        "import json, sys\n"
        "from repro.runtime.engine import ExecutionEngine\n"
        "ExecutionEngine()\n"
        f"print(json.dumps([m for m in {LINT_ONLY_MODULES!r} "
        "if m in sys.modules]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(default_root().parent)}
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env=env, capture_output=True, text=True, check=True,
    )
    assert json.loads(result.stdout) == []
