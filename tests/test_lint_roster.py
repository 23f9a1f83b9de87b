"""Tripwire: the rule-family roster, docs, and registered codes agree.

``repro.lint.RULE_FAMILIES`` is the single source of truth for which
families exist.  Adding a rule in a new family (or retiring one) must
update the roster *and* the docs/linting.md family table in the same
change — these tests fail otherwise.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.lint import RULE_FAMILIES, all_rules

DOCS = Path(__file__).resolve().parent.parent / "docs" / "linting.md"


def test_registered_codes_use_only_rostered_families():
    assert {rule.code[0] for rule in all_rules()} == set(RULE_FAMILIES)


def test_every_family_has_at_least_one_rule():
    lived_in = {rule.code[0] for rule in all_rules()}
    assert set(RULE_FAMILIES) <= lived_in


def test_docs_family_table_matches_roster():
    text = DOCS.read_text()
    # Family table rows look like `| S | seed lineage | ... |`.
    documented = {
        match.group(1): match.group(2).strip()
        for match in re.finditer(
            r"^\| ([A-Z]) \| ([^|]+) \|", text, re.MULTILINE
        )
    }
    assert documented == RULE_FAMILIES


def test_docs_mention_every_rule_code():
    text = DOCS.read_text()
    for rule in all_rules():
        assert rule.code in text, rule.code


def test_rule_codes_are_unique_and_well_formed():
    codes = [rule.code for rule in all_rules()]
    assert len(set(codes)) == len(codes)
    for code in codes:
        assert re.fullmatch(r"[A-Z]\d{3,4}", code), code
