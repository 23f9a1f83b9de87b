"""EXPERIMENTS.md's headline table agrees with the outputs it cites.

Every measured cell of the "Headline metrics" table is a line of
``benchmarks/output/paper_vs_measured.txt``, as printed there, except the
methodology gain (``ablation_lists_only.txt``) and the multi-domain IP
share (``figure4.txt``).  The test reads the committed files and runs
nothing, so a regenerated output that moved a number fails here until
the record is updated with it.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parents[1]
OUTPUT = ROOT / "benchmarks" / "output"

#: each headline row's metric cell → the paper_vs_measured.txt keys its
#: measured cell prints, in the cell's order
MEASURED_KEYS = {
    "Panel users (T1)": ["t1_users"],
    "SEMI/ABP detected-flow ratio (T2)": ["t2_semi_over_abp"],
    "ip-api ↔ MaxMind country agreement (T3)": [
        "t3_commercial_country_agreement_pct"
    ],
    "MaxMind ↔ IPmap country agreement (T3)": [
        "t3_ipmap_country_agreement_pct"
    ],
    "EU28 flows confined in EU28, IPmap (F7b)": ["f7_ipmap_eu28_pct"],
    "EU28 → N. America, IPmap (F7b)": ["f7_ipmap_na_pct"],
    "EU28 confinement under MaxMind (F7a)": ["f7_maxmind_eu28_pct"],
    "EU28 → N. America under MaxMind (F7a)": ["f7_maxmind_na_pct"],
    "T5 Default country / EU28 confinement": [
        "t5_default_country_pct", "t5_default_region_pct"
    ],
    "T5 TLD-redirect country / EU28": [
        "t5_tld_country_pct", "t5_tld_region_pct"
    ],
    "pDNS completion gain (Sect. 3.3)": ["pdns_additional_share_pct"],
    "Single-TLD IPs' request share (F4)": [
        "f4_single_domain_request_share_pct"
    ],
    "Sensitive share of tracking flows (F9)": ["f9_sensitive_share_pct"],
    "Table 8 EU28 confinement range": ["t8_eu28_min_pct", "t8_eu28_max_pct"],
}

#: the two rows held to their own output files: metric cell → (file, the
#: pattern whose group is the number as printed there)
OWN_FILES = {
    'Methodology gain over lists-only (Sect. 1: "double")': (
        "ablation_lists_only.txt", r"methodology gain:\s+(\d+\.\d+)x"
    ),
    "IPs serving >1 domain (F4)": (
        "figure4.txt", r"\| IPs serving >1 domain\s+\| (\d+\.\d+)%"
    ),
}

NUMBER = re.compile(r"\d+(?:\.\d+)?")


def headline_rows() -> Dict[str, str]:
    """The Headline metrics table: metric cell → measured cell."""
    text = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    section = text.split("## Headline metrics", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) != 4 or cells[0] in ("metric", "---"):
            continue
        rows[cells[0]] = cells[2]
    return rows


def printed_measured() -> Dict[str, str]:
    """paper_vs_measured.txt: key → the measured value as printed."""
    lines = (OUTPUT / "paper_vs_measured.txt").read_text().splitlines()
    return {
        fields[0]: fields[2]
        for fields in (line.split() for line in lines[1:])
    }


def cell_numbers(cell: str) -> List[str]:
    return NUMBER.findall(cell)


def test_every_row_is_checked():
    assert set(headline_rows()) == set(MEASURED_KEYS) | set(OWN_FILES)
    keys = [key for keys in MEASURED_KEYS.values() for key in keys]
    assert sorted(keys) == sorted(printed_measured())


def test_measured_cells_equal_paper_vs_measured():
    rows = headline_rows()
    printed = printed_measured()
    for metric, keys in MEASURED_KEYS.items():
        numbers = cell_numbers(rows[metric])
        assert len(numbers) == len(keys), metric
        for number, key in zip(numbers, keys):
            # Compared as numbers: a count prints as "350.00" there.
            assert float(number) == float(printed[key]), (
                metric, key, number, printed[key],
            )


def test_the_two_exceptions_equal_their_own_files():
    rows = headline_rows()
    for metric, (name, pattern) in OWN_FILES.items():
        match = re.search(pattern, (OUTPUT / name).read_text())
        assert match, (name, pattern)
        assert cell_numbers(rows[metric]) == [match.group(1)], (metric, name)
