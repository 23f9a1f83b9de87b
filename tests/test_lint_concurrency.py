"""The execution-context analysis and the T rule family.

Engine tests build a :class:`ProgramModel` over small fixture trees and
probe the context map directly; rule tests run the same fixtures
through the real lint framework (fixture + pragma pair per rule); a
copied-tree regression plants a lock-free cross-thread mutation inside
the live ``repro.serve.jobs`` worker body and demands a T1003 finding
whose witness chain names the write site; and shape checks pin the
analysis's seeds and findings, on a fixture and on the live tree.
"""

from __future__ import annotations

import re
import shutil
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
    "pkg/serveish.py": """
        import asyncio

        async def handler():
            loop = asyncio.get_running_loop()
            return await loop.run_in_executor(None, job)

        def job():
            return helper()

        def helper():
            return 1

        def main():
            return job()
    """,
}


def test_offload_target_gains_thread_context(tmp_path):
    analysis = analysis_for(tmp_path, OFFLOAD_FIXTURE)
    contexts = analysis.contexts()
    assert "thread" in contexts[("pkg.serveish", "job")]
    assert "thread" in contexts[("pkg.serveish", "helper")]
    # handler itself runs on the loop, not the executor thread.
    assert "thread" not in contexts[("pkg.serveish", "handler")]
    assert "async" in contexts[("pkg.serveish", "handler")]


def test_main_context_propagates_along_plain_calls(tmp_path):
    analysis = analysis_for(tmp_path, OFFLOAD_FIXTURE)
    contexts = analysis.contexts()
    assert "main" in contexts[("pkg.serveish", "job")]
    assert "main" in contexts[("pkg.serveish", "helper")]


def test_async_body_not_inherited_by_sync_callers(tmp_path):
    files = {
        "pkg/mix.py": """
            async def coro():
                return 1

            def main():
                return coro()
        """,
    }
    analysis = analysis_for(tmp_path, files)
    contexts = analysis.contexts()
    assert contexts[("pkg.mix", "coro")] == {"async"}


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
    chain = analysis.chain("thread", ("pkg.serveish", "helper"))
    assert len(chain) >= 2
    for hop in chain:
        assert re.match(r"\S+\.py:\d+ ", hop), hop
    assert "helper" in chain[-1] or "job" in chain[-1]


# ---------------------------------------------------------------------------
# T1001 — blocking call directly in an async def
# ---------------------------------------------------------------------------

T1001_FIXTURE = {
    "pkg/handlers.py": """
        import time

        async def handler():
            time.sleep(0.5)
            return 1
    """,
}


def test_t1001_fires_on_sleep_in_async_def(tmp_path):
    findings = lint_tree(tmp_path, T1001_FIXTURE, select=["T1001"])
    assert codes(findings) == ["T1001"]
    assert "time.sleep" in findings[0].message
    assert "handler" in findings[0].message


def test_t1001_quiet_after_executor_offload(tmp_path):
    files = {
        "pkg/handlers.py": """
            import asyncio
            import time

            def pause():
                time.sleep(0.5)

            async def handler():
                loop = asyncio.get_running_loop()
                await loop.run_in_executor(None, pause)
        """,
    }
    findings = lint_tree(tmp_path, files, select=["T1001"])
    assert codes(findings) == []


def test_t1001_pragma_disable(tmp_path):
    files = dict(T1001_FIXTURE)
    files["pkg/handlers.py"] = files["pkg/handlers.py"].replace(
        "time.sleep(0.5)",
        "time.sleep(0.5)  # reprolint: disable=T1001",
    )
    findings = lint_tree(tmp_path, files, select=["T1001"])
    assert codes(findings) == []


# ---------------------------------------------------------------------------
# T1002 — blocking call reachable from async context
# ---------------------------------------------------------------------------

T1002_FIXTURE = {
    "pkg/loader.py": """
        def load():
            with open("config.json") as handle:
                return handle.read()

        async def handler():
            return load()
    """,
}


def test_t1002_fires_with_witness_chain(tmp_path):
    findings = lint_tree(tmp_path, T1002_FIXTURE, select=["T1002"])
    assert codes(findings) == ["T1002"]
    finding = findings[0]
    assert "witness:" in finding.message
    assert "open" in finding.message
    assert f"pkg/loader.py:{finding.line}" in finding.message


def test_t1002_quiet_when_call_is_offloaded(tmp_path):
    files = {
        "pkg/loader.py": """
            import asyncio

            def load():
                with open("config.json") as handle:
                    return handle.read()

            async def handler():
                loop = asyncio.get_running_loop()
                return await loop.run_in_executor(None, load)
        """,
    }
    findings = lint_tree(tmp_path, files, select=["T1002"])
    assert codes(findings) == []


def test_t1002_pragma_disable(tmp_path):
    files = dict(T1002_FIXTURE)
    files["pkg/loader.py"] = files["pkg/loader.py"].replace(
        'with open("config.json") as handle:',
        'with open("config.json") as handle:'
        "  # reprolint: disable=T1002",
    )
    findings = lint_tree(tmp_path, files, select=["T1002"])
    assert codes(findings) == []


# ---------------------------------------------------------------------------
# T1003 — cross-context shared-state write without a lock witness
# ---------------------------------------------------------------------------

T1003_FIXTURE = {
    "pkg/state.py": """
        import asyncio

        CACHE = {}

        def main():
            CACHE["main"] = 1
            return run()

        async def handler():
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(None, job)

        def job():
            CACHE["job"] = 2

        def run():
            return CACHE
    """,
}


def test_t1003_fires_on_lock_free_cross_context_write(tmp_path):
    findings = lint_tree(tmp_path, T1003_FIXTURE, select=["T1003"])
    assert "T1003" in codes(findings)
    assert any("CACHE" in finding.message for finding in findings)
    assert all("witness:" in finding.message for finding in findings)


def test_t1003_quiet_with_lock_witness(tmp_path):
    files = {
        "pkg/state.py": """
            import asyncio
            import threading

            CACHE = {}
            _LOCK = threading.Lock()

            def main():
                with _LOCK:
                    CACHE["main"] = 1

            async def handler():
                loop = asyncio.get_running_loop()
                await loop.run_in_executor(None, job)

            def job():
                with _LOCK:
                    CACHE["job"] = 2
        """,
    }
    findings = lint_tree(tmp_path, files, select=["T1003"])
    assert codes(findings) == []


def test_t1003_quiet_without_thread_context(tmp_path):
    files = {
        "pkg/state.py": """
            CACHE = {}

            def main():
                CACHE["main"] = 1
        """,
    }
    findings = lint_tree(tmp_path, files, select=["T1003"])
    assert codes(findings) == []


def test_t1003_pragma_disable(tmp_path):
    files = dict(T1003_FIXTURE)
    files["pkg/state.py"] = files["pkg/state.py"].replace(
        'CACHE["job"] = 2',
        'CACHE["job"] = 2  # reprolint: disable=T1003',
    ).replace(
        'CACHE["main"] = 1',
        'CACHE["main"] = 1  # reprolint: disable=T1003',
    )
    findings = lint_tree(tmp_path, files, select=["T1003"])
    assert codes(findings) == []


def test_t1003_sees_global_declared_rebind(tmp_path):
    # Regression for the analyzer gap that hid ``global X; X = ...``
    # writes behind the local-name scan: module state rebound from a
    # function that runs on an executor thread.
    files = {
        "pkg/forkctx.py": """
            import asyncio

            _CONTEXT = None

            async def handler():
                loop = asyncio.get_running_loop()
                await loop.run_in_executor(None, job)

            def job():
                global _CONTEXT
                _CONTEXT = object()
        """,
    }
    findings = lint_tree(tmp_path, files, select=["T1003"])
    assert "T1003" in codes(findings)
    assert any("_CONTEXT" in finding.message for finding in findings)


# ---------------------------------------------------------------------------
# T1004 — event-loop API touched from thread context
# ---------------------------------------------------------------------------

T1004_FIXTURE = {
    "pkg/loops.py": """
        import asyncio

        async def handler():
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(None, job, loop)

        def job(loop):
            loop.call_soon(print)
    """,
}


def test_t1004_fires_on_call_soon_from_thread(tmp_path):
    findings = lint_tree(tmp_path, T1004_FIXTURE, select=["T1004"])
    assert codes(findings) == ["T1004"]
    assert "call_soon" in findings[0].message
    assert "call_soon_threadsafe" in findings[0].message


def test_t1004_quiet_on_threadsafe_hop(tmp_path):
    files = {
        "pkg/loops.py": """
            import asyncio

            async def handler():
                loop = asyncio.get_running_loop()
                await loop.run_in_executor(None, job, loop)

            def job(loop):
                loop.call_soon_threadsafe(print)
        """,
    }
    findings = lint_tree(tmp_path, files, select=["T1004"])
    assert codes(findings) == []


def test_t1004_pragma_disable(tmp_path):
    files = dict(T1004_FIXTURE)
    files["pkg/loops.py"] = files["pkg/loops.py"].replace(
        "loop.call_soon(print)",
        "loop.call_soon(print)  # reprolint: disable=T1004",
    )
    findings = lint_tree(tmp_path, files, select=["T1004"])
    assert codes(findings) == []


# ---------------------------------------------------------------------------
# T1005 — raw concurrent file write outside the atomic helpers
# ---------------------------------------------------------------------------

T1005_FIXTURE = {
    "pkg/writer.py": """
        import asyncio

        async def handler():
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(None, dump)

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
            import asyncio

            async def handler():
                loop = asyncio.get_running_loop()
                await loop.run_in_executor(None, slurp)

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
# copied-tree T1003 regression (mirrors the D102 copied-tree lock)
# ---------------------------------------------------------------------------


def test_copied_tree_planted_cross_thread_mutation_is_caught(tmp_path):
    target = tmp_path / "repro"
    shutil.copytree(default_root(), target)
    jobs = target / "serve" / "jobs.py"
    source = jobs.read_text()
    # Plant a module-level dict and a lock-free write inside the job
    # worker body (thread context).
    anchor = "    def _execute(self"
    start = source.index(anchor)
    head = source.index("\n", source.index(":", start)) + 1
    indent = "        "
    planted = (
        source[:start]
        + source[start:head]
        + f"{indent}_SEEN[id(self)] = True\n"
        + source[head:]
        + "\n_SEEN = {}\n"
    )
    jobs.write_text(planted)
    findings = run_lint(
        [target], rules=select_rules(["T1003"]), root=target.parent
    ).findings
    assert findings, "planted lock-free cross-thread write was not detected"
    seen = [f for f in findings if "_SEEN" in f.message]
    assert seen, [f.message for f in findings]
    finding = seen[0]
    assert finding.path == "repro/serve/jobs.py"
    # The witness chain must name the write site itself.
    assert f"repro/serve/jobs.py:{finding.line}" in finding.message
    assert "witness:" in finding.message


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
    analysis = analysis_for(
        tmp_path,
        {**T1002_FIXTURE, "pkg/loops.py": T1004_FIXTURE["pkg/loops.py"]},
    )
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
    # Context classification must have found the main and async seeds.
    assert all(analysis.seeds().get(context) for context in ("main", "async"))
