"""The execution-context analysis and the T rule family.

Engine tests build a :class:`ProgramModel` over small fixture trees and
probe the context map directly; rule tests run the same fixtures
through the real lint framework (fixture + pragma pair for T1005); and
shape checks pin the analysis's seeds and findings, on a fixture and on
the live tree.
"""

from __future__ import annotations

import re
import textwrap
from pathlib import Path
from typing import List, Optional, Sequence

from repro.lint import Finding, run_lint, select_rules
from repro.lint.concurrency import (
    CONTEXTS,
    ContextAnalysis,
    concurrency_for_model,
)
from repro.lint.program import ProgramModel
from repro.runtime.footprint import default_root


def write_tree(tmp_path: Path, files) -> Path:
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


def analysis_for(tmp_path: Path, files) -> ContextAnalysis:
    write_tree(tmp_path, files)
    model = ProgramModel.from_paths([tmp_path], root=tmp_path)
    return ContextAnalysis(model)


def lint_tree(
    tmp_path: Path, files, select: Optional[Sequence[str]] = None
) -> List[Finding]:
    write_tree(tmp_path, files)
    rules = select_rules(select) if select else None
    return run_lint([tmp_path], rules=rules, root=tmp_path).findings


def codes(findings: Sequence[Finding]) -> List[str]:
    return [finding.rule for finding in findings]


# ---------------------------------------------------------------------------
# the context map
# ---------------------------------------------------------------------------

OFFLOAD_FIXTURE = {
    "pkg/jobs.py": """
        from concurrent.futures import ThreadPoolExecutor

        def main():
            with ThreadPoolExecutor() as executor:
                executor.submit(job).result()
            return job()

        def job():
            return helper()

        def helper():
            return 1
    """,
}


def test_offload_target_gains_thread_context(tmp_path):
    analysis = analysis_for(tmp_path, OFFLOAD_FIXTURE)
    contexts = analysis.contexts()
    assert "thread" in contexts[("pkg.jobs", "job")]
    assert "thread" in contexts[("pkg.jobs", "helper")]
    # main itself runs on the calling thread, not the executor's.
    assert contexts[("pkg.jobs", "main")] == {"main"}


def test_main_context_propagates_along_plain_calls(tmp_path):
    analysis = analysis_for(tmp_path, OFFLOAD_FIXTURE)
    contexts = analysis.contexts()
    assert "main" in contexts[("pkg.jobs", "job")]
    assert "main" in contexts[("pkg.jobs", "helper")]


def test_thread_target_via_threading_thread(tmp_path):
    files = {
        "pkg/threads.py": """
            import threading

            def main():
                worker = threading.Thread(target=body, name="w")
                worker.start()

            def body():
                return 1
        """,
    }
    analysis = analysis_for(tmp_path, files)
    assert "thread" in analysis.contexts()[("pkg.threads", "body")]


def test_stage_run_seeds_shard_context(tmp_path):
    files = {
        "pkg/stages.py": """
            from pkg.graph import StageSpec

            def _plan(world, config):
                return [("all", None)]

            def _run(world, products, key, payload):
                return crunch(payload)

            def _merge(world, products, shards):
                return shards

            def crunch(payload):
                return payload

            SPEC = StageSpec(name="alpha", plan=_plan, run=_run, merge=_merge)
        """,
        "pkg/graph.py": """
            class StageSpec:
                def __init__(self, name, plan, run, merge):
                    self.name = name
        """,
    }
    analysis = analysis_for(tmp_path, files)
    contexts = analysis.contexts()
    assert "shard" in contexts[("pkg.stages", "_run")]
    assert "shard" in contexts[("pkg.stages", "crunch")]


def test_witness_chain_renders_file_line_hops(tmp_path):
    analysis = analysis_for(tmp_path, OFFLOAD_FIXTURE)
    chain = analysis.chain("thread", ("pkg.jobs", "helper"))
    assert len(chain) >= 2
    for hop in chain:
        assert re.match(r"\S+\.py:\d+ ", hop), hop
    assert "helper" in chain[-1] or "job" in chain[-1]


# ---------------------------------------------------------------------------
# T1005 — raw concurrent file write outside the atomic helpers
# ---------------------------------------------------------------------------

T1005_FIXTURE = {
    "pkg/writer.py": """
        import threading

        def main():
            threading.Thread(target=dump).start()

        def dump():
            with open("out.txt", "w") as handle:
                handle.write("x")
    """,
}


def test_t1005_fires_on_raw_concurrent_write(tmp_path):
    findings = lint_tree(tmp_path, T1005_FIXTURE, select=["T1005"])
    assert codes(findings) == ["T1005"]
    assert "witness:" in findings[0].message


def test_t1005_quiet_inside_sanctioned_io_module(tmp_path):
    files = {
        "pkg/io/files.py": T1005_FIXTURE["pkg/writer.py"],
    }
    findings = lint_tree(tmp_path, files, select=["T1005"])
    assert codes(findings) == []


def test_t1005_quiet_on_read_mode_open(tmp_path):
    files = {
        "pkg/writer.py": """
            import threading

            def main():
                threading.Thread(target=slurp).start()

            def slurp():
                with open("out.txt") as handle:
                    return handle.read()
        """,
    }
    findings = lint_tree(tmp_path, files, select=["T1005"])
    assert codes(findings) == []


def test_t1005_pragma_disable(tmp_path):
    files = dict(T1005_FIXTURE)
    files["pkg/writer.py"] = files["pkg/writer.py"].replace(
        'with open("out.txt", "w") as handle:',
        'with open("out.txt", "w") as handle:'
        "  # reprolint: disable=T1005",
    )
    findings = lint_tree(tmp_path, files, select=["T1005"])
    assert codes(findings) == []


# ---------------------------------------------------------------------------
# the live tree is T-clean
# ---------------------------------------------------------------------------


def test_live_tree_has_no_t_family_findings():
    root = default_root()
    findings = run_lint(
        [root],
        rules=select_rules(["T"]),
        root=root.parent,
    ).findings
    assert findings == [], [f.message for f in findings]


# ---------------------------------------------------------------------------
# the analysis's seeds and findings
# ---------------------------------------------------------------------------


def test_findings_shape(tmp_path):
    analysis = analysis_for(tmp_path, T1005_FIXTURE)
    assert set(analysis.seeds()) == set(CONTEXTS)
    findings = analysis.findings()
    assert findings, "fixture should produce findings"
    for entry in findings:
        assert re.match(r"\S+\.py:\d+$", entry.site), entry.site
        assert entry.chain, entry
        for hop in entry.chain:
            assert re.match(r"\S+\.py:\d+ ", hop), hop
        assert entry.rule.startswith("T")
        assert entry.context in CONTEXTS


def test_live_tree_analysis_validates():
    root = default_root()
    model = ProgramModel.from_paths([root], root=root.parent)
    analysis = concurrency_for_model(model)

    def suppressed(entry) -> bool:
        path, _, line = entry.site.rpartition(":")
        ctx = model.modules[entry.function[0]].ctx
        return ctx.is_suppressed(Finding(path, int(line), 0, entry.rule, ""))

    unsuppressed = [e for e in analysis.findings() if not suppressed(e)]
    assert unsuppressed == [], unsuppressed
    assert len(analysis.contexts()) > 100
    # Context classification must have found the study CLI's main and
    # the nine stage runs.
    seeds = analysis.seeds()
    assert ("repro.cli", "main") in seeds["main"]
    assert len(seeds["shard"]) == 9
    assert all(qualname.endswith("_run") for _, qualname in seeds["shard"])
