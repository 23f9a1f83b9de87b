"""Regeneration of the paper's tables (1–9) from a :class:`~repro.core.
pipeline.Study`.

Each ``tableN(study)`` returns a dict with structured values plus a
``"text"`` entry containing the rendered table; the benchmark harness
prints that text so the run's output mirrors the paper's rows.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.core.pipeline import Study
from repro.util.tables import percent, render_table


def table1(study: Study) -> Dict[str, Any]:
    """Table 1 — the real-users dataset statistics."""
    log = study.visit_log
    values = {
        "users": log.n_users(),
        "first_party_domains": log.first_party_domains(),
        "first_party_requests": log.first_party_requests(),
        "third_party_domains": log.third_party_fqdns(),
        "third_party_requests": log.third_party_requests(),
    }
    text = render_table(
        ["# Users", "# 1st party Domains", "# 1st party Requests",
         "# 3rd party Domains", "# 3rd party Requests"],
        [[values["users"], values["first_party_domains"],
          values["first_party_requests"], values["third_party_domains"],
          values["third_party_requests"]]],
        title="Table 1: The real users dataset statistics.",
    )
    return {**values, "text": text}


def table2(study: Study) -> Dict[str, Any]:
    """Table 2 — filter lists vs. semi-automatic classification."""
    abp, semi, total = study.classification.table2_stats()
    rows = [
        ["AdBlockPlus Lists", len(abp.fqdns), len(abp.tlds),
         len(abp.unique_urls), abp.total_requests],
        ["Semi-automatic", len(semi.fqdns), len(semi.tlds),
         len(semi.unique_urls), semi.total_requests],
        ["Total", len(total.fqdns), len(total.tlds),
         len(total.unique_urls), total.total_requests],
    ]
    text = render_table(
        ["", "# FQDN", "# TLD", "# Unique Requests", "# Total Requests"],
        rows,
        title="Table 2: AdBlockPlus lists vs semi-manual classification.",
    )
    return {
        "abp_requests": abp.total_requests,
        "semi_requests": semi.total_requests,
        "total_requests": total.total_requests,
        "abp_fqdns": len(abp.fqdns),
        "semi_fqdns": len(semi.fqdns),
        "abp_tlds": len(abp.tlds),
        "semi_tlds": len(semi.tlds),
        "semi_over_abp": (
            semi.total_requests / abp.total_requests
            if abp.total_requests
            else 0.0
        ),
        "text": text,
    }


def table3(study: Study, max_ips: Optional[int] = None) -> Dict[str, Any]:
    """Table 3 — pairwise agreement across geolocation tools."""
    addresses = study.inventory.addresses()
    if max_ips is not None:
        addresses = addresses[:max_ips]
    matrix = study.geolocation.pairwise_agreement(addresses)
    tools = ["ip-api", "MaxMind", "RIPE IPmap"]
    rows = []
    for first in tools:
        row: List[Any] = [first]
        for second in tools:
            cell = matrix[(first, second)]
            row.append(f"{cell.country_pct:.2f}% / {cell.region_pct:.2f}%")
        rows.append(row)
    text = render_table(
        ["Service"] + [f"{t} (Country/Cont.)" for t in tools],
        rows,
        title="Table 3: Pair-wise agreement across geolocation tools.",
    )
    return {"matrix": matrix, "n_ips": len(addresses), "text": text}


def table4(study: Study) -> Dict[str, Any]:
    """Table 4 — MaxMind mis-geolocation for the major ad providers.

    The three largest organizations by classified request volume stand
    in for Google / Amazon / Facebook ads+tracking.
    """
    from collections import Counter

    fleet = study.world.fleet
    volume: Counter = Counter()
    for request in study.tracking_requests():
        volume[request.truth_org] += 1
    major = [name for name, _ in volume.most_common(3)]

    oracle = study.world.oracle

    def org_of_ip(address):
        return oracle.owner(address)

    report_rows = study.geolocation.misgeolocation_by_org(
        study.inventory, org_of_ip, major
    )
    rows = []
    for row in report_rows:
        rows.append(
            [
                row.org_label,
                row.n_ips,
                f"{row.wrong_country_ips} ({row.wrong_country_ip_pct:.2f}%)",
                f"{row.wrong_region_ips} ({row.wrong_region_ip_pct:.2f}%)",
                row.n_requests,
                f"{row.wrong_country_requests} "
                f"({row.wrong_country_request_pct:.2f}%)",
                f"{row.wrong_region_requests} "
                f"({row.wrong_region_request_pct:.2f}%)",
            ]
        )
    text = render_table(
        ["Provider", "# IPs", "Wrong Country", "Wrong Cont.",
         "# Requests", "Wrong Country (req)", "Wrong Cont. (req)"],
        rows,
        title="Table 4: Wrong geolocated IPs/requests using the "
        "commercial database for the top ad+tracking providers.",
    )
    return {"rows": report_rows, "providers": major, "text": text}


def table5(study: Study) -> Dict[str, Any]:
    """Table 5 — localization improvements under the what-if scenarios."""
    tracking = study.tracking_requests()
    outcomes = study.localization.scenario_table(tracking)
    baseline = outcomes[0]
    rows = []
    for outcome in outcomes:
        d_country, d_region = outcome.improvement_over(baseline)
        rows.append(
            [
                outcome.scenario.value,
                percent(outcome.country_pct),
                percent(outcome.region_pct),
                "-" if outcome is baseline else percent(d_country),
                "-" if outcome is baseline else percent(d_region),
            ]
        )
    text = render_table(
        ["Scenario", "In Country", "In Cont.", "Impr. Country",
         "Impr. Cont."],
        rows,
        title=(
            f"Table 5: Potential localization improvements "
            f"(EU28 flows: {baseline.n_flows:,})."
        ),
    )
    return {"outcomes": outcomes, "text": text}


def table6(study: Study) -> Dict[str, Any]:
    """Table 6 — per-country improvements from mirroring / migration."""
    tracking = study.tracking_requests()
    rows_data = study.localization.per_country_improvements(tracking)
    display = study.world.registry
    rows = []
    for row in rows_data:
        country = display.find(str(row["country"]))
        rows.append(
            [
                country.name if country else row["country"],
                row["n_requests"],
                percent(float(row["mirroring_improvement_pct"])),
                percent(float(row["migration_improvement_pct"])),
                bool(row["cloud_coverage"]),
            ]
        )
    text = render_table(
        ["Country", "# Requests", "PoP Mirroring impr. (over TLD)",
         "Migration impr. (over TLD)", "Cloud PoP in country"],
        rows,
        title="Table 6: Localization improvement per EU28 country using "
        "public cloud PoPs.",
    )
    return {"rows": rows_data, "text": text}


def table7(study: Study) -> Dict[str, Any]:
    """Table 7 — the four ISP profiles."""
    rows = [
        [isp.name, study.world.registry.get(isp.country).name,
         isp.demographics]
        for isp in study.world.isps
    ]
    text = render_table(
        ["Name", "Country", "Demographics"],
        rows,
        title="Table 7: Profile of the four European ISPs.",
    )
    return {"isps": study.world.isps, "text": text}


def table8(
    study: Study, snapshots: Optional[Sequence[str]] = None
) -> Dict[str, Any]:
    """Table 8 — sampled tracking-flow statistics across ISPs and days."""
    from repro.config import SNAPSHOT_DAYS

    isp_names = sorted(isp.name for isp in study.world.isps)
    # KeyError on a day outside SNAPSHOT_DAYS.
    wanted = {snap: SNAPSHOT_DAYS[snap] for snap in snapshots or SNAPSHOT_DAYS}
    # Columns follow the paper's chronological snapshot order.
    snapshot_names = [snap for snap in SNAPSHOT_DAYS if snap in wanted]
    reports = {
        (isp, snap): study.isp_reports[(isp, snap)]
        for isp in isp_names
        for snap in snapshot_names
    }
    header = ["Metric"] + [
        f"{isp} {snap}" for isp in isp_names for snap in snapshot_names
    ]
    metric_rows: List[List[Any]] = []
    metric_rows.append(
        ["#Sampled Tracking Flows"]
        + [
            reports[(isp, snap)].sampled_tracking_flows
            for isp in isp_names
            for snap in snapshot_names
        ]
    )
    for region in ("EU 28", "N. America", "Rest of Europe", "Asia",
                   "Rest World"):
        metric_rows.append(
            [region]
            + [
                percent(reports[(isp, snap)].region_shares.get(region, 0.0))
                for isp in isp_names
                for snap in snapshot_names
            ]
        )
    text = render_table(
        header, metric_rows,
        title="Table 8: Sampled tracking flow statistics across EU ISPs "
        "and over time.",
    )
    return {"reports": reports, "text": text}


#: the related-work comparison is a static taxonomy; we reproduce the
#: feature axes and this work's row (the full per-paper grid is in the
#: paper itself and carries no measurement content).
RELATED_WORK_AXES = (
    ("Request classification", "ABP lists + custom corrections"),
    ("Requests type", "Ads + Tracking"),
    ("Measurement type", "Active + Passive"),
    ("Platform type", "Desktop (browser extension) + ISP core"),
    ("Data collection", "Real users + NetFlows"),
    ("Infrastructure geolocation", "Active measurements (RIPE IPmap)"),
    ("Traffic type", "Works on HTTPS"),
)


def table9(study: Study) -> Dict[str, Any]:
    """Table 9 — the feature set of this work among related approaches."""
    rows = [[axis, value] for axis, value in RELATED_WORK_AXES]
    text = render_table(
        ["Feature axis", "This work"],
        rows,
        title="Table 9: Key features of the methodology (related-work "
        "comparison axes).",
    )
    return {"axes": RELATED_WORK_AXES, "text": text}
