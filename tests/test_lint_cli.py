"""End-to-end tests for ``python -m repro.lint``: exit codes, reporters,
rule selection, and the baseline round-trip."""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.lint import load_baseline, partition, run_lint, write_baseline
from repro.lint.cli import main

DIRTY = textwrap.dedent(
    """
    import random

    x = random.random()

    def f(n):
        raise ValueError("bad")
    """
)

CLEAN = textwrap.dedent(
    """
    from repro.errors import ValidationError

    def f(n):
        if n < 0:
            raise ValidationError("bad")
        return n
    """
)


@pytest.fixture()
def project(tmp_path, monkeypatch):
    """A temp project dir the CLI runs inside (baseline paths are
    resolved relative to the cwd)."""
    monkeypatch.chdir(tmp_path)
    return tmp_path


def write(project: Path, relpath: str, source: str) -> Path:
    path = project / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return path


def test_exit_zero_on_clean_tree(project, capsys):
    write(project, "pkg/clean.py", CLEAN)
    assert main(["pkg"]) == 0
    out = capsys.readouterr().out
    assert "0 finding(s)" in out


def test_exit_one_and_text_report_on_findings(project, capsys):
    write(project, "pkg/dirty.py", DIRTY)
    assert main(["pkg"]) == 1
    out = capsys.readouterr().out
    assert "pkg/dirty.py" in out
    assert "D101" in out and "E201" in out


def test_json_report(project, capsys):
    write(project, "pkg/dirty.py", DIRTY)
    assert main(["pkg", "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False
    assert payload["files_checked"] == 1
    rules = {finding["rule"] for finding in payload["findings"]}
    assert {"D101", "E201"} <= rules


def test_select_restricts_rules(project, capsys):
    write(project, "pkg/dirty.py", DIRTY)
    assert main(["pkg", "--select", "E"]) == 1
    out = capsys.readouterr().out
    assert "E201" in out
    assert "D101" not in out


def test_select_unknown_rule_is_usage_error(project, capsys):
    write(project, "pkg/clean.py", CLEAN)
    assert main(["pkg", "--select", "Z999"]) == 2


def test_missing_path_is_usage_error(project):
    assert main(["no/such/dir"]) == 2


def test_list_rules(project, capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in ("D101", "D102", "D103", "D104", "D105", "E201", "E202", "E203", "A301", "A302"):
        assert code in out


def test_write_baseline_then_clean_exit(project, capsys):
    write(project, "pkg/dirty.py", DIRTY)
    assert main(["pkg", "--write-baseline"]) == 0
    assert (project / ".reprolint-baseline.json").exists()
    # Grandfathered findings no longer fail the run ...
    assert main(["pkg"]) == 0
    out = capsys.readouterr().out
    assert "baselined" in out
    # ... but --no-baseline still reports them.
    assert main(["pkg", "--no-baseline"]) == 1


def test_baseline_survives_line_shifts(project):
    path = write(project, "pkg/dirty.py", DIRTY)
    assert main(["pkg", "--write-baseline"]) == 0
    path.write_text("# a new leading comment\n" + path.read_text())
    assert main(["pkg"]) == 0


def test_new_finding_breaks_through_baseline(project, capsys):
    path = write(project, "pkg/dirty.py", DIRTY)
    assert main(["pkg", "--write-baseline"]) == 0
    path.write_text(DIRTY + "\ny = random.choice([1, 2])\n")
    assert main(["pkg"]) == 1
    out = capsys.readouterr().out
    assert "random.choice" in out


def test_stale_baseline_entries_reported(project, capsys):
    path = write(project, "pkg/dirty.py", DIRTY)
    assert main(["pkg", "--write-baseline"]) == 0
    path.write_text(CLEAN)
    assert main(["pkg"]) == 0
    out = capsys.readouterr().out
    assert "stale baseline entry" in out


def test_malformed_baseline_is_usage_error(project, capsys):
    write(project, "pkg/clean.py", CLEAN)
    (project / ".reprolint-baseline.json").write_text("{not json")
    assert main(["pkg"]) == 2
    assert "malformed baseline" in capsys.readouterr().err


def test_baseline_roundtrip_api(tmp_path):
    source_dir = tmp_path / "pkg"
    source_dir.mkdir()
    (source_dir / "dirty.py").write_text(DIRTY)
    findings = run_lint([source_dir], root=tmp_path).findings
    assert findings
    baseline_path = tmp_path / "baseline.json"
    write_baseline(baseline_path, findings)
    baseline = load_baseline(baseline_path)
    new, grandfathered, stale = partition(findings, baseline)
    assert new == []
    assert len(grandfathered) == len(findings)
    assert stale == []


def test_missing_baseline_file_is_empty(tmp_path):
    assert load_baseline(tmp_path / "absent.json") == {}


# ---------------------------------------------------------------------------
# --select codes and family prefixes / --graph-json
# ---------------------------------------------------------------------------


def test_select_single_code_restricts_to_that_rule(project, capsys):
    write(project, "pkg/dirty.py", DIRTY)
    assert main(["pkg", "--select", "E201", "--no-baseline"]) == 1
    out = capsys.readouterr().out
    assert "E201" in out
    assert "D101" not in out


def test_select_family_prefix(project, capsys):
    write(project, "pkg/dirty.py", DIRTY)
    assert main(["pkg", "--select", "D", "--no-baseline"]) == 1
    out = capsys.readouterr().out
    assert "D101" in out
    assert "E201" not in out


def test_select_combines_codes_and_prefixes(project, capsys):
    write(project, "pkg/dirty.py", DIRTY)
    assert main(["pkg", "--select", "D,E201", "--no-baseline"]) == 1
    out = capsys.readouterr().out
    assert "D101" in out
    assert "E201" in out


def test_select_unknown_family_prefix_is_usage_error(project, capsys):
    write(project, "pkg/dirty.py", DIRTY)
    assert main(["pkg", "--select", "Z9"]) == 2
    assert "no rules match" in capsys.readouterr().err


def test_graph_json_writes_program_graph(project, capsys):
    write(project, "pkg/__init__.py", "")
    write(project, "pkg/clean.py", CLEAN)
    assert main(["pkg", "--graph-json", "graph.json"]) == 0
    graph = json.loads((project / "graph.json").read_text())
    assert graph["schema"] == "repro.lint/program-graph/v1"
    assert "pkg.clean" in graph["modules"]
    assert "pkg.clean:f" in graph["functions"]


def test_graph_json_to_stdout(project, capsys):
    write(project, "pkg/__init__.py", "")
    write(project, "pkg/clean.py", CLEAN)
    assert main(["pkg", "--graph-json", "-"]) == 0
    out = capsys.readouterr().out
    payload = out[: out.rindex("}") + 1]
    start = payload.index("{")
    graph = json.loads(payload[start:])
    assert graph["schema"] == "repro.lint/program-graph/v1"


# ---------------------------------------------------------------------------
# --jobs / --update-baseline / time_s
# ---------------------------------------------------------------------------


def json_findings(project, argv, capsys):
    code = main(argv + ["--format", "json", "--no-baseline"])
    payload = json.loads(capsys.readouterr().out)
    return code, payload


def test_jobs_matches_serial_findings(project, capsys):
    write(project, "pkg/dirty.py", DIRTY)
    write(project, "pkg/other.py", DIRTY.replace("f(n)", "g(n)"))
    serial_code, serial = json_findings(project, ["pkg"], capsys)
    jobs_code, parallel = json_findings(
        project, ["pkg", "--jobs", "2"], capsys
    )
    assert serial_code == jobs_code == 1
    assert parallel["findings"] == serial["findings"]


def test_jobs_zero_means_cpu_count(project, capsys):
    write(project, "pkg/clean.py", CLEAN)
    assert main(["pkg", "--jobs", "0"]) == 0


def test_reports_carry_wall_time(project, capsys):
    write(project, "pkg/clean.py", CLEAN)
    assert main(["pkg", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert isinstance(payload["time_s"], float)
    assert payload["time_s"] >= 0.0
    assert main(["pkg"]) == 0
    assert " in " in capsys.readouterr().out


def test_update_baseline_drops_stale_entries(project, capsys):
    path = write(project, "pkg/dirty.py", DIRTY)
    assert main(["pkg", "--write-baseline"]) == 0
    path.write_text(CLEAN)
    assert main(["pkg", "--update-baseline"]) == 0
    out = capsys.readouterr().out
    assert "dropped" in out
    # The rewritten baseline has no stale entries left to report.
    assert main(["pkg"]) == 0
    assert "stale baseline entry" not in capsys.readouterr().out


def test_update_baseline_does_not_absorb_new_findings(project, capsys):
    path = write(project, "pkg/dirty.py", DIRTY)
    assert main(["pkg", "--write-baseline"]) == 0
    path.write_text(DIRTY + "\ny = random.choice([1, 2])\n")
    assert main(["pkg", "--update-baseline"]) == 1
    # The new finding still fails the next plain run.
    assert main(["pkg"]) == 1


def test_update_baseline_on_clean_tree_writes_empty_baseline(project):
    path = write(project, "pkg/dirty.py", DIRTY)
    assert main(["pkg", "--write-baseline"]) == 0
    path.write_text(CLEAN)
    assert main(["pkg", "--update-baseline"]) == 0
    baseline = load_baseline(project / ".reprolint-baseline.json")
    assert baseline == {}


def test_update_baseline_conflicts_with_no_baseline(project, capsys):
    write(project, "pkg/clean.py", CLEAN)
    assert main(["pkg", "--update-baseline", "--no-baseline"]) == 2
    assert main(["pkg", "--update-baseline", "--write-baseline"]) == 2
