"""End-to-end tests for ``python -m repro.lint``: exit codes, the text
report, rule selection, and the registered rules against the docs."""

from __future__ import annotations

import re
import textwrap
from pathlib import Path

import pytest

from repro.lint import all_rules
from repro.lint.cli import main

DOCS = Path(__file__).resolve().parent.parent / "docs" / "linting.md"

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
    """A temp project dir the CLI runs inside (reported paths are
    relative to the cwd)."""
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


def test_docs_mention_every_rule_code():
    text = DOCS.read_text()
    for rule in all_rules():
        assert rule.code in text, rule.code


def test_rule_codes_are_unique_and_well_formed():
    codes = [rule.code for rule in all_rules()]
    assert len(set(codes)) == len(codes)
    for code in codes:
        assert re.fullmatch(r"[A-Z]\d{3,4}", code), code


# ---------------------------------------------------------------------------
# --select codes and family prefixes
# ---------------------------------------------------------------------------


def test_select_single_code_restricts_to_that_rule(project, capsys):
    write(project, "pkg/dirty.py", DIRTY)
    assert main(["pkg", "--select", "E201", ]) == 1
    out = capsys.readouterr().out
    assert "E201" in out
    assert "D101" not in out


def test_select_family_prefix(project, capsys):
    write(project, "pkg/dirty.py", DIRTY)
    assert main(["pkg", "--select", "D", ]) == 1
    out = capsys.readouterr().out
    assert "D101" in out
    assert "E201" not in out


def test_select_combines_codes_and_prefixes(project, capsys):
    write(project, "pkg/dirty.py", DIRTY)
    assert main(["pkg", "--select", "D,E201", ]) == 1
    out = capsys.readouterr().out
    assert "D101" in out
    assert "E201" in out


def test_select_unknown_family_prefix_is_usage_error(project, capsys):
    write(project, "pkg/dirty.py", DIRTY)
    assert main(["pkg", "--select", "Z9"]) == 2
    assert "no rules match" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the summary line
# ---------------------------------------------------------------------------


def test_reports_carry_wall_time(project, capsys):
    write(project, "pkg/clean.py", CLEAN)
    assert main(["pkg"]) == 0
    out = capsys.readouterr().out
    assert re.fullmatch(
        r"1 file\(s\) checked: 0 finding\(s\) in \d+\.\d\ds\n", out
    ), out


