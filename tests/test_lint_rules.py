"""Per-rule fixture tests for reprolint.

Every shipped rule gets at least one seeded violation it must detect
and one compliant snippet it must stay quiet on.  Snippets are written
to a temp tree (with ``__init__.py`` chains where package placement
matters) and run through the real framework, so these tests cover the
visitor plumbing as well as the rules.
"""

from __future__ import annotations

import textwrap
from pathlib import Path
from typing import List, Optional, Sequence

import pytest

from repro.lint import Finding, run_lint, select_rules


def lint_snippet(
    tmp_path: Path,
    source: str,
    relpath: str = "mod.py",
    select: Optional[Sequence[str]] = None,
    packages: Sequence[str] = (),
) -> List[Finding]:
    """Write ``source`` at ``relpath`` under a temp tree and lint it."""
    for package in packages:
        directory = tmp_path / package
        directory.mkdir(parents=True, exist_ok=True)
        init = directory / "__init__.py"
        if not init.exists():
            init.write_text("")
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    rules = select_rules(select) if select else None
    return run_lint([tmp_path], rules=rules, root=tmp_path).findings


def codes(findings: Sequence[Finding]) -> List[str]:
    return [finding.rule for finding in findings]


# ---------------------------------------------------------------------------
# D101 — module-level random.*
# ---------------------------------------------------------------------------


def test_d101_fires_on_global_random_call(tmp_path):
    findings = lint_snippet(
        tmp_path,
        """
        import random
        x = random.random()
        """,
        select=["D101"],
    )
    assert codes(findings) == ["D101"]
    assert "process-global" in findings[0].message


def test_d101_fires_on_from_import_of_random_functions(tmp_path):
    findings = lint_snippet(
        tmp_path,
        """
        from random import choice, shuffle
        """,
        select=["D101"],
    )
    assert codes(findings) == ["D101"]


def test_d101_quiet_on_injected_stream(tmp_path):
    findings = lint_snippet(
        tmp_path,
        """
        import random

        def draw(rng: random.Random) -> float:
            return rng.random()
        """,
        select=["D101"],
    )
    assert findings == []


# ---------------------------------------------------------------------------
# D102 — raw random.Random construction
# ---------------------------------------------------------------------------


def test_d102_fires_outside_rng_module(tmp_path):
    findings = lint_snippet(
        tmp_path,
        """
        import random
        r = random.Random(3)
        """,
        select=["D102"],
    )
    assert codes(findings) == ["D102"]


def test_d102_allows_construction_inside_util_rng(tmp_path):
    findings = lint_snippet(
        tmp_path,
        """
        import random
        r = random.Random(3)
        """,
        relpath="util/rng.py",
        select=["D102"],
        packages=["util"],
    )
    assert findings == []


def test_d102_quiet_on_annotation_only(tmp_path):
    findings = lint_snippet(
        tmp_path,
        """
        import random

        def f(rng: random.Random) -> None:
            pass
        """,
        select=["D102"],
    )
    assert findings == []


def test_d102_function_local_import_binds_only_its_function(tmp_path):
    # ``g``'s import rebinds ``random`` in ``g`` alone: ``f`` still builds
    # a raw stream from the module-level ``random``, and is flagged as it
    # is in a file without ``g``.
    f = """
        import random


        def f():
            return random.Random(0)
        """
    g = """

        def g():
            from numpy import random
            return random.rand()
        """
    (tmp_path / "alone.py").write_text(textwrap.dedent(f))
    findings = lint_snippet(
        tmp_path, f + g, relpath="mixed.py", select=["D101", "D102"]
    )
    assert sorted((finding.path, finding.rule, finding.line)
                  for finding in findings) == [
        ("alone.py", "D102", 6), ("mixed.py", "D102", 6),
    ]


# ---------------------------------------------------------------------------
# D103 — wall clock / environment in deterministic packages
# ---------------------------------------------------------------------------


def test_d103_fires_on_time_time_in_core(tmp_path):
    findings = lint_snippet(
        tmp_path,
        """
        import time
        t = time.time()
        """,
        relpath="core/clock.py",
        select=["D103"],
        packages=["core"],
    )
    assert codes(findings) == ["D103"]


def test_d103_fires_on_os_environ_and_resolved_from_import(tmp_path):
    findings = lint_snippet(
        tmp_path,
        """
        import os
        from os import getenv

        a = os.environ["HOME"]
        b = getenv("HOME")
        """,
        relpath="web/envread.py",
        select=["D103"],
        packages=["web"],
    )
    assert codes(findings) == ["D103", "D103"]


def test_d103_fires_on_datetime_now_via_alias(tmp_path):
    findings = lint_snippet(
        tmp_path,
        """
        from datetime import datetime as dt
        stamp = dt.now()
        """,
        relpath="dnssim/stamp.py",
        select=["D103"],
        packages=["dnssim"],
    )
    assert codes(findings) == ["D103"]


def test_d103_quiet_outside_deterministic_packages(tmp_path):
    findings = lint_snippet(
        tmp_path,
        """
        import time
        t = time.time()
        """,
        relpath="analysis/clock.py",
        select=["D103"],
        packages=["analysis"],
    )
    assert findings == []


# ---------------------------------------------------------------------------
# D104 — hash() for seeding
# ---------------------------------------------------------------------------


def test_d104_fires_on_hash_call(tmp_path):
    findings = lint_snippet(
        tmp_path,
        """
        seed = hash("panel")
        """,
        select=["D104"],
    )
    assert codes(findings) == ["D104"]


def test_d104_quiet_inside_dunder_hash(tmp_path):
    findings = lint_snippet(
        tmp_path,
        """
        class Key:
            def __hash__(self) -> int:
                return hash(("key", 1))
        """,
        select=["D104"],
    )
    assert findings == []


# ---------------------------------------------------------------------------
# D105 — unsorted set iteration
# ---------------------------------------------------------------------------


def test_d105_fires_on_for_over_set_literal_variable(tmp_path):
    findings = lint_snippet(
        tmp_path,
        """
        items = {1, 2, 3}
        for item in items:
            print(item)
        """,
        select=["D105"],
    )
    assert codes(findings) == ["D105"]


def test_d105_fires_on_comprehension_over_annotated_param(tmp_path):
    findings = lint_snippet(
        tmp_path,
        """
        from typing import Set

        def flatten(names: Set[str]) -> list:
            return [name.upper() for name in names]
        """,
        select=["D105"],
    )
    assert codes(findings) == ["D105"]


def test_d105_fires_on_dict_of_set_get(tmp_path):
    findings = lint_snippet(
        tmp_path,
        """
        from typing import Dict, Set

        class Index:
            def __init__(self) -> None:
                self.forward: Dict[str, Set[str]] = {}

            def lookup(self, key: str) -> list:
                out = []
                for value in self.forward.get(key, ()):
                    out.append(value)
                return out
        """,
        select=["D105"],
    )
    assert codes(findings) == ["D105"]


def test_d105_fires_on_dataclass_attribute_of_loop_variable(tmp_path):
    findings = lint_snippet(
        tmp_path,
        """
        from dataclasses import dataclass, field
        from typing import Set

        @dataclass
        class Record:
            fqdns: Set[str] = field(default_factory=set)

        def consume(records):
            for record in records:
                for fqdn in record.fqdns:
                    print(fqdn)
        """,
        select=["D105"],
    )
    assert codes(findings) == ["D105"]


def test_d105_fires_on_set_union_expression(tmp_path):
    findings = lint_snippet(
        tmp_path,
        """
        a = set([1])
        b = set([2])
        both = [x for x in a | b]
        """,
        select=["D105"],
    )
    assert codes(findings) == ["D105"]


def test_d105_quiet_when_sorted(tmp_path):
    findings = lint_snippet(
        tmp_path,
        """
        from typing import Set

        def flatten(names: Set[str]) -> list:
            ordered = [name for name in sorted(names)]
            for name in sorted(names):
                ordered.append(name)
            return ordered
        """,
        select=["D105"],
    )
    assert findings == []


def test_d105_quiet_on_reassignment_to_sorted(tmp_path):
    findings = lint_snippet(
        tmp_path,
        """
        items = {3, 1, 2}
        items = sorted(items)
        for item in items:
            print(item)
        """,
        select=["D105"],
    )
    assert findings == []


# ---------------------------------------------------------------------------
# E201 — raise taxonomy
# ---------------------------------------------------------------------------


def test_e201_fires_on_value_error(tmp_path):
    findings = lint_snippet(
        tmp_path,
        """
        def f(n):
            raise ValueError("bad n")
        """,
        select=["E201"],
    )
    assert codes(findings) == ["E201"]


def test_e201_allows_taxonomy_and_local_subclasses(tmp_path):
    findings = lint_snippet(
        tmp_path,
        """
        from repro.errors import ReproError, ValidationError

        class LocalError(ReproError):
            pass

        class DeeperError(LocalError):
            pass

        def f(flag):
            if flag == 1:
                raise ValidationError("flag")
            if flag == 2:
                raise LocalError("local")
            raise DeeperError("deeper")
        """,
        select=["E201"],
    )
    assert findings == []


def test_e201_allows_reraise_of_caught_variable(tmp_path):
    findings = lint_snippet(
        tmp_path,
        """
        def f():
            try:
                g()
            except KeyError as exc:
                raise
        """,
        select=["E201"],
    )
    assert findings == []


def test_e201_system_exit_only_in_entry_points(tmp_path):
    source = """
    def main():
        return 0

    raise SystemExit(main())
    """
    def findings_for(relpath):
        found = lint_snippet(tmp_path, source, relpath=relpath, select=["E201"])
        return [f for f in found if f.path == relpath]

    assert codes(findings_for("other.py")) == ["E201"]
    assert findings_for("cli.py") == []
    assert findings_for("__main__.py") == []


# ---------------------------------------------------------------------------
# E202 — bare except
# ---------------------------------------------------------------------------


def test_e202_fires_on_bare_except(tmp_path):
    findings = lint_snippet(
        tmp_path,
        """
        try:
            risky()
        except:
            pass
        """,
        select=["E202"],
    )
    assert codes(findings) == ["E202"]


def test_e202_quiet_on_typed_except(tmp_path):
    findings = lint_snippet(
        tmp_path,
        """
        from repro.errors import ReproError

        try:
            risky()
        except ReproError:
            pass
        """,
        select=["E202"],
    )
    assert findings == []


# ---------------------------------------------------------------------------
# E203 — assert for input validation
# ---------------------------------------------------------------------------


def test_e203_fires_on_parameter_assert(tmp_path):
    findings = lint_snippet(
        tmp_path,
        """
        def f(n):
            assert n >= 0
            return n
        """,
        select=["E203"],
    )
    assert codes(findings) == ["E203"]
    assert "'n'" in findings[0].message


def test_e203_fires_on_parameter_inside_call(tmp_path):
    findings = lint_snippet(
        tmp_path,
        """
        def f(items):
            assert len(items) > 0
            return items
        """,
        select=["E203"],
    )
    assert codes(findings) == ["E203"]


def test_e203_quiet_on_narrowing_and_locals(tmp_path):
    findings = lint_snippet(
        tmp_path,
        """
        def f(ctx):
            assert ctx.tree is not None
            record = lookup()
            assert record is not None
            return record
        """,
        select=["E203"],
    )
    assert findings == []


# ---------------------------------------------------------------------------
# E204 — wrapping raise without ``from``
# ---------------------------------------------------------------------------


def test_e204_fires_on_unchained_wrap(tmp_path):
    findings = lint_snippet(
        tmp_path,
        """
        from repro.errors import ValidationError

        def f(payload):
            try:
                return payload["key"]
            except KeyError:
                raise ValidationError("missing key")
        """,
        select=["E204"],
    )
    assert codes(findings) == ["E204"]
    assert findings[0].line == 8
    assert "'from'" in findings[0].message


def test_e204_quiet_on_chained_wrap_and_bare_reraise(tmp_path):
    findings = lint_snippet(
        tmp_path,
        """
        from repro.errors import ValidationError

        def f(payload):
            try:
                return payload["key"]
            except KeyError as exc:
                raise ValidationError("missing key") from exc

        def g(payload):
            try:
                return payload["key"]
            except KeyError:
                raise
        """,
        select=["E204"],
    )
    assert findings == []


# ---------------------------------------------------------------------------
# A301 — layer order
# ---------------------------------------------------------------------------


def test_a301_fires_when_substrate_imports_core(tmp_path):
    findings = lint_snippet(
        tmp_path,
        """
        from repro.core.classify import RequestClassifier
        """,
        relpath="repro/web/upward.py",
        select=["A301"],
        packages=["repro", "repro/web"],
    )
    assert codes(findings) == ["A301"]
    assert "'core'" in findings[0].message


def test_a301_fires_when_core_imports_analysis(tmp_path):
    findings = lint_snippet(
        tmp_path,
        """
        def lazy():
            from repro.analysis.report import build
            return build
        """,
        relpath="repro/core/upward.py",
        select=["A301"],
        packages=["repro", "repro/core"],
    )
    assert codes(findings) == ["A301"]


def test_a301_quiet_on_downward_import(tmp_path):
    findings = lint_snippet(
        tmp_path,
        """
        from repro.web.requests import ThirdPartyRequest
        from repro.errors import ReproError
        """,
        relpath="repro/core/downward.py",
        select=["A301"],
        packages=["repro", "repro/core"],
    )
    assert findings == []


# ---------------------------------------------------------------------------
# A302 — import cycles
# ---------------------------------------------------------------------------


def test_a302_fires_on_module_cycle(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "__init__.py").write_text("")
    (tmp_path / "pkg" / "alpha.py").write_text("import pkg.beta\n")
    (tmp_path / "pkg" / "beta.py").write_text("import pkg.alpha\n")
    findings = run_lint(
        [tmp_path], rules=select_rules(["A302"]), root=tmp_path
    ).findings
    assert codes(findings) == ["A302"]
    assert "pkg.alpha -> pkg.beta -> pkg.alpha" in findings[0].message


def test_a302_quiet_when_cycle_broken_by_function_level_import(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "__init__.py").write_text("")
    (tmp_path / "pkg" / "alpha.py").write_text("import pkg.beta\n")
    (tmp_path / "pkg" / "beta.py").write_text(
        "def lazy():\n    import pkg.alpha\n    return pkg.alpha\n"
    )
    findings = run_lint(
        [tmp_path], rules=select_rules(["A302"]), root=tmp_path
    ).findings
    assert findings == []


# ---------------------------------------------------------------------------
# P001 — parse errors surface as findings
# ---------------------------------------------------------------------------


def test_parse_error_reported(tmp_path):
    findings = lint_snippet(tmp_path, "def broken(:\n    pass\n")
    assert codes(findings) == ["P001"]


# ---------------------------------------------------------------------------
# Pragmas
# ---------------------------------------------------------------------------


def test_inline_pragma_suppresses_single_rule(tmp_path):
    findings = lint_snippet(
        tmp_path,
        """
        import random
        x = random.random()  # reprolint: disable=D101
        y = random.random()
        """,
        select=["D101"],
    )
    assert len(findings) == 1
    assert findings[0].line == 4


def test_inline_pragma_disable_all(tmp_path):
    findings = lint_snippet(
        tmp_path,
        """
        import random
        x = random.Random(0)  # reprolint: disable=all
        """,
        select=["D102"],
    )
    assert findings == []


def test_file_level_pragma(tmp_path):
    findings = lint_snippet(
        tmp_path,
        """
        # reprolint: disable-file=D101
        import random
        x = random.random()
        y = random.random()
        """,
        select=["D101"],
    )
    assert findings == []


def test_pragma_does_not_suppress_other_rules(tmp_path):
    findings = lint_snippet(
        tmp_path,
        """
        import random
        x = random.Random(0)  # reprolint: disable=D101
        """,
        select=["D102"],
    )
    assert codes(findings) == ["D102"]


# ---------------------------------------------------------------------------
# O6xx — cross-file rules (multi-file fixtures)
# ---------------------------------------------------------------------------


def lint_tree(
    tmp_path: Path,
    files,
    select: Optional[Sequence[str]] = None,
) -> List[Finding]:
    """Write a {relpath: source} tree (with ``__init__.py`` chains for
    every package directory) and lint the whole tree."""
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
    rules = select_rules(select) if select else None
    return run_lint([tmp_path], rules=rules, root=tmp_path).findings


OBS_FIXTURE = {
    "pkg/obs/names.py": """
        REQUESTS = "requests.total"
        LATENCY = "latency.seconds"

        _METRIC_DECLS = (
            (REQUESTS, "counter", ("country",), "total requests"),
            (LATENCY, "histogram", (), "request latency"),
        )

        SPAN_NAMES = (
            "engine.run",
            "stage:*",
        )
    """,
    "pkg/obs/metrics.py": """
        def inc(name, amount=1, **labels):
            return (name, amount, labels)
    """,
}


def obs_tree(main_source: str):
    files = dict(OBS_FIXTURE)
    files["pkg/main.py"] = main_source
    return files


def test_o601_quiet_on_declared_constant(tmp_path):
    findings = lint_tree(tmp_path, obs_tree("""
        from pkg.obs import metrics, names

        def go():
            metrics.inc(names.REQUESTS, country="DE")
    """), select=["O601"])
    assert codes(findings) == []


def test_o601_fires_on_undeclared_literal(tmp_path):
    findings = lint_tree(tmp_path, obs_tree("""
        from pkg.obs import metrics

        def go():
            metrics.inc("requests.bogus")
    """), select=["O601"])
    assert codes(findings) == ["O601"]
    assert "requests.bogus" in findings[0].message


def test_o601_fires_on_dynamic_name_at_strict_site(tmp_path):
    findings = lint_tree(tmp_path, obs_tree("""
        from pkg.obs import metrics

        def go(name):
            metrics.inc(name)
    """), select=["O601"])
    assert codes(findings) == ["O601"]
    assert "dynamic" in findings[0].message


def test_o601_quiet_on_unrelated_observe_method(tmp_path):
    # PassiveDNSDatabase.observe(fqdn, ...) style duck-typed collision:
    # a dynamic first argument on an unproven receiver must not fire.
    findings = lint_tree(tmp_path, obs_tree("""
        def go(db, fqdn, address):
            db.observe(fqdn, address)
    """), select=["O601"])
    assert codes(findings) == []


def test_o601_pragma_disable(tmp_path):
    findings = lint_tree(tmp_path, obs_tree("""
        from pkg.obs import metrics

        def go():
            metrics.inc("requests.bogus")  # reprolint: disable=O601
    """), select=["O601"])
    assert codes(findings) == []


def test_o602_fires_on_label_mismatch(tmp_path):
    findings = lint_tree(tmp_path, obs_tree("""
        from pkg.obs import metrics, names

        def go():
            metrics.inc(names.REQUESTS, region="EU")
    """), select=["O602"])
    assert codes(findings) == ["O602"]
    assert "country" in findings[0].message and "region" in findings[0].message


def test_o602_quiet_on_exact_labels_and_amount_kwarg(tmp_path):
    findings = lint_tree(tmp_path, obs_tree("""
        from pkg.obs import metrics, names

        def go():
            metrics.inc(names.REQUESTS, amount=3, country="DE")
    """), select=["O602"])
    assert codes(findings) == []


def test_o603_fires_on_undeclared_span(tmp_path):
    findings = lint_tree(tmp_path, obs_tree("""
        def go(tracer):
            with tracer.span("engine.shutdown"):
                pass
    """), select=["O603"])
    assert codes(findings) == ["O603"]
    assert "engine.shutdown" in findings[0].message


def test_o603_wildcard_admits_fstring_prefix(tmp_path):
    findings = lint_tree(tmp_path, obs_tree("""
        def go(tracer, name):
            with tracer.span(f"stage:{name}"):
                pass
    """), select=["O603"])
    assert codes(findings) == []


def test_o603_fires_on_unmatched_fstring_prefix(tmp_path):
    findings = lint_tree(tmp_path, obs_tree("""
        def go(tracer, name):
            with tracer.span(f"phase:{name}"):
                pass
    """), select=["O603"])
    assert codes(findings) == ["O603"]


def test_files_sharing_a_module_name_are_each_checked(tmp_path):
    # Two script folders without `__init__.py` give both files the
    # module name `tool`; each file is still checked on its own.
    source = textwrap.dedent("""
        from pkg.obs import metrics

        def go():
            metrics.inc("requests.bogus")
    """)
    for folder in ("a", "b"):
        (tmp_path / folder).mkdir()
        (tmp_path / folder / "tool.py").write_text(source)
    findings = lint_tree(tmp_path, OBS_FIXTURE, select=["O601"])
    assert [(f.rule, f.path) for f in findings] == [
        ("O601", "a/tool.py"),
        ("O601", "b/tool.py"),
    ]


def test_obs_rules_quiet_without_catalog_module(tmp_path):
    findings = lint_tree(tmp_path, {
        "pkg/main.py": """
            def go(registry):
                registry.counter("anything.goes")
        """,
    }, select=["O601", "O602", "O603"])
    assert codes(findings) == []


# ---------------------------------------------------------------------------
# The repo itself must be clean
# ---------------------------------------------------------------------------


def test_repo_tree_is_lint_clean():
    repo_root = Path(__file__).resolve().parent.parent
    source_tree = repo_root / "src" / "repro"
    if not source_tree.exists():  # pragma: no cover - exotic layouts
        pytest.skip("source tree not present")
    # The same roster `make lint` checks: the package plus the scripts
    # and benchmarks that ride in CI.
    paths = [source_tree] + [
        extra
        for extra in (repo_root / "scripts", repo_root / "benchmarks")
        if extra.exists()
    ]
    result = run_lint(paths, root=repo_root)
    assert result.findings == [], [
        f"{f.location()}: {f.rule} {f.message}" for f in result.findings
    ]
