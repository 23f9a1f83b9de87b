"""Paper-vs-measured reporting.

:func:`full_report` regenerates every table and figure from one study
and assembles a single text document; :func:`experiment_summary` returns
the headline paper-vs-measured pairs used by EXPERIMENTS.md and the
benchmark assertions.
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis import figures as F
from repro.analysis import tables as T
from repro.core.localization import LocalizationScenario, table5_outcomes
from repro.core.pipeline import Study
from repro.core.sensitive import sensitive_flow_shares
from repro.geodata.regions import Region

#: the paper's headline values, used for paper-vs-measured reporting
PAPER_VALUES: Dict[str, float] = {
    "t1_users": 350,
    "t2_semi_over_abp": 0.80,
    "t3_commercial_country_agreement_pct": 96.13,
    "t3_ipmap_country_agreement_pct": 53.4,
    "f7_ipmap_eu28_pct": 84.93,
    "f7_ipmap_na_pct": 10.75,
    "f7_maxmind_eu28_pct": 33.16,
    "f7_maxmind_na_pct": 65.94,
    "t5_default_country_pct": 27.60,
    "t5_default_region_pct": 88.00,
    "t5_tld_country_pct": 66.13,
    "t5_tld_region_pct": 98.33,
    "f9_sensitive_share_pct": 2.89,
    "t8_eu28_min_pct": 74.7,
    "t8_eu28_max_pct": 93.1,
    "f4_single_domain_request_share_pct": 85.0,
    "pdns_additional_share_pct": 2.78,
}


def experiment_summary(study: Study) -> Dict[str, float]:
    """Measured values for every headline metric in :data:`PAPER_VALUES`."""
    abp, semi, _ = study.classification.table2_stats()
    t3 = study.geolocation.pairwise_agreement(study.inventory.addresses())
    ipmap = study.eu28_destination_regions("RIPE IPmap")
    maxmind = study.eu28_destination_regions("MaxMind")
    outcomes = {
        o.scenario: o
        for o in table5_outcomes(study.products["localization"]["counts"])
    }
    default = outcomes[LocalizationScenario.DEFAULT]
    tld = outcomes[LocalizationScenario.REDIRECT_TLD]

    eu28_shares = [
        report.region_shares.get("EU 28", 0.0)
        for (_, snapshot), report in study.isp_reports.items()
        if snapshot == "April 4"
    ]
    return {
        "t1_users": float(study.visit_log.n_users()),
        "t2_semi_over_abp": (
            semi.total_requests / abp.total_requests
            if abp.total_requests
            else 0.0
        ),
        "t3_commercial_country_agreement_pct": t3[
            ("ip-api", "MaxMind")
        ].country_pct,
        "t3_ipmap_country_agreement_pct": t3[
            ("MaxMind", "RIPE IPmap")
        ].country_pct,
        "f7_ipmap_eu28_pct": ipmap.get(Region.EU28.value, 0.0),
        "f7_ipmap_na_pct": ipmap.get(Region.NORTH_AMERICA.value, 0.0),
        "f7_maxmind_eu28_pct": maxmind.get(Region.EU28.value, 0.0),
        "f7_maxmind_na_pct": maxmind.get(Region.NORTH_AMERICA.value, 0.0),
        "t5_default_country_pct": default.country_pct,
        "t5_default_region_pct": default.region_pct,
        "t5_tld_country_pct": tld.country_pct,
        "t5_tld_region_pct": tld.region_pct,
        "f9_sensitive_share_pct": sensitive_flow_shares(
            study.products["sensitive"]
        )["sensitive_share_pct"],
        "t8_eu28_min_pct": min(eu28_shares) if eu28_shares else 0.0,
        "t8_eu28_max_pct": max(eu28_shares) if eu28_shares else 0.0,
        "f4_single_domain_request_share_pct":
            study.inventory.single_domain_request_share_pct(),
        "pdns_additional_share_pct": study.inventory.additional_share_pct(),
    }


def paper_vs_measured(study: Study) -> str:
    """A rendered paper-vs-measured comparison block."""
    measured = experiment_summary(study)
    lines = ["metric                                      paper    measured"]
    for key in sorted(PAPER_VALUES):
        lines.append(
            f"{key:<42} {PAPER_VALUES[key]:>8.2f} {measured[key]:>10.2f}"
        )
    return "\n".join(lines)


def full_report(study: Study) -> str:
    """Every regenerated table and figure as one text document."""
    blocks: List[str] = []
    for builder in (
        T.table1, T.table2, T.table3, T.table4, T.table5, T.table6,
        T.table7, T.table8, T.table9,
        F.figure2, F.figure3, F.figure4, F.figure5, F.figure6, F.figure7,
        F.figure8, F.figure9, F.figure10, F.figure11, F.figure12,
    ):
        blocks.append(builder(study)["text"])
    blocks.append("Paper vs measured\n" + paper_vs_measured(study))
    return "\n\n".join(blocks)
