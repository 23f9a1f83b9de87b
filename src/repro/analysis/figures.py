"""Regeneration of the data behind the paper's figures (2–12).

Each ``figureN(study)`` returns the series the figure plots plus a
rendered ``"text"`` block.  Figure 1 (the IAB OpenRTB block diagram) is
illustrative; its content is the message flow implemented by
:mod:`repro.web.rtb`.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.core.pipeline import Study
from repro.geodata.regions import Region, region_of_country
from repro.util.cdf import EmpiricalCDF
from repro.util.tables import percent, render_table


def figure2(study: Study) -> Dict[str, Any]:
    """Fig. 2 — CDFs of third-party requests per website."""
    per_site = study.classification.per_site_counts()
    tracking = [counts[0] for counts in per_site.values() if counts[0] > 0]
    clean = [counts[1] for counts in per_site.values() if counts[1] > 0]
    total = [sum(counts) for counts in per_site.values()]
    cdfs = {
        "clean_only": EmpiricalCDF(clean) if clean else None,
        "ad_tracking_only": EmpiricalCDF(tracking) if tracking else None,
        "all_third_party": EmpiricalCDF(total) if total else None,
    }
    rows = []
    for label, cdf in cdfs.items():
        if cdf is None:
            continue
        summary = cdf.summary()
        rows.append(
            [label, int(summary["n"]), summary["median"], summary["p90"],
             round(summary["mean"], 1)]
        )
    text = render_table(
        ["Series", "# Sites", "Median req/site", "p90", "Mean"],
        rows,
        title="Figure 2: Third-party requests per website (CDF summary).",
    )
    return {**cdfs, "text": text}


def figure3(study: Study, k: int = 20) -> Dict[str, Any]:
    """Fig. 3 — top-k TLDs of ad+tracking flows, ABP vs SEMI counts."""
    top = study.classification.top_tlds(k)
    rows = [
        [tld, abp_count, semi_count, abp_count + semi_count]
        for tld, abp_count, semi_count in top
    ]
    text = render_table(
        ["TLD", "ABP", "SEMI", "Total"],
        rows,
        title=f"Figure 3: Top {k} TLDs of ad+tracking domains.",
    )
    return {"top_tlds": top, "text": text}


def figure4(study: Study) -> Dict[str, Any]:
    """Fig. 4 — domains behind each tracking IP."""
    inventory = study.inventory
    sample = inventory.domains_per_ip_sample()
    cdf = EmpiricalCDF(sample) if sample else None
    values = {
        "single_domain_request_share_pct":
            inventory.single_domain_request_share_pct(),
        "multi_domain_ip_share_pct": inventory.multi_domain_ip_share_pct(),
        "n_ips": len(inventory),
        "cdf": cdf,
    }
    text = render_table(
        ["Metric", "Value"],
        [
            ["# tracking IPs", values["n_ips"]],
            ["requests served by single-TLD IPs",
             percent(values["single_domain_request_share_pct"])],
            ["IPs serving >1 domain",
             percent(values["multi_domain_ip_share_pct"])],
            ["max domains behind one IP", int(cdf.max) if cdf else 0],
        ],
        title="Figure 4: Domains detected behind each tracking IP.",
    )
    return {**values, "text": text}


def figure5(study: Study, threshold: int = 10) -> Dict[str, Any]:
    """Fig. 5 — IPs hosting many ad+tracking domains, and where they are."""
    heavy = study.inventory.heavy_multi_domain_ips(threshold)
    locate = study.geolocation.reference
    rows = []
    by_region: Dict[str, int] = {}
    for record in heavy:
        country = locate(record.address) or "unknown"
        region = (
            Region.UNKNOWN.value
            if country == "unknown"
            else region_of_country(country).value
        )
        by_region[region] = by_region.get(region, 0) + 1
        rows.append(
            [str(record.address), record.n_domains_behind, country, region]
        )
    text = render_table(
        ["IP", "# Domains", "Country", "Region"],
        rows,
        title=f"Figure 5: IPs hosting {threshold}+ ad+tracking domains.",
    )
    return {"heavy_ips": heavy, "by_region": by_region, "text": text}


def figure6(study: Study) -> Dict[str, Any]:
    """Fig. 6 — flow of ad+tracking between continents (Sankey)."""
    analyzer = study.confinement()
    tracking = study.tracking_requests()
    sankey = analyzer.continent_sankey(tracking)
    destination_shares = sankey.destination_shares()
    per_region = analyzer.per_region_confinement(tracking)
    rows = [
        [origin, f"{sankey.origin_total(origin):,.0f}",
         percent(sankey.confinement(origin)),
         ", ".join(
             f"{dest}={share:.1f}%"
             for dest, share in sankey.top_destinations(origin, 3)
         )]
        for origin in sankey.origins()
    ]
    text = render_table(
        ["Origin region", "Flows", "Confinement", "Top destinations"],
        rows,
        title="Figure 6: Flow of ad+tracking between continents.",
    )
    return {
        "sankey": sankey,
        "destination_shares": destination_shares,
        "per_region_confinement": per_region,
        "text": text,
    }


def figure7(study: Study) -> Dict[str, Any]:
    """Fig. 7 — EU28 destination regions: MaxMind vs RIPE IPmap."""
    maxmind = study.eu28_destination_regions("MaxMind")
    ipmap = study.eu28_destination_regions("RIPE IPmap")
    regions = sorted(set(maxmind) | set(ipmap))
    rows = [
        [region, percent(maxmind.get(region, 0.0)),
         percent(ipmap.get(region, 0.0))]
        for region in regions
    ]
    text = render_table(
        ["Destination", "(a) MaxMind", "(b) RIPE IPmap"],
        rows,
        title="Figure 7: EU28 users' tracking-flow destinations under the "
        "two geolocation services.",
    )
    return {"maxmind": maxmind, "ipmap": ipmap, "text": text}


def figure8(study: Study) -> Dict[str, Any]:
    """Fig. 8 — country-level Sankey for EU28 origins."""
    analyzer = study.confinement()
    tracking = study.tracking_requests()
    sankey = analyzer.country_sankey(tracking, Region.EU28)
    national = {
        origin: sankey.confinement(origin) for origin in sankey.origins()
    }
    rows = [
        [origin, f"{sankey.origin_total(origin):,.0f}",
         percent(national[origin]),
         ", ".join(
             f"{dest}={share:.1f}%"
             for dest, share in sankey.top_destinations(origin, 3)
         )]
        for origin in sankey.origins()
    ]
    text = render_table(
        ["Origin", "Flows", "National confinement", "Top destinations"],
        rows,
        title="Figure 8: Flow of ad+tracking from EU28 countries.",
    )
    return {"sankey": sankey, "national_confinement": national, "text": text}


def figure9(study: Study) -> Dict[str, Any]:
    """Fig. 9 — sensitive-category shares of tracking flows."""
    tracking = study.tracking_requests()
    shares = study.sensitive.category_shares(tracking)
    sensitive_share = study.sensitive.sensitive_share_pct(tracking)
    identified = study.sensitive.identified_domains()
    rows = [
        [category, percent(share)]
        for category, share in sorted(shares.items(), key=lambda kv: -kv[1])
    ]
    text = render_table(
        ["Sensitive category", "Share of sensitive flows"],
        rows,
        title=(
            f"Figure 9: Sensitive categories ({len(identified)} domains, "
            f"{sensitive_share:.2f}% of tracking flows)."
        ),
    )
    return {
        "category_shares": shares,
        "sensitive_share_pct": sensitive_share,
        "n_sensitive_domains": len(identified),
        "text": text,
    }


def figure10(study: Study) -> Dict[str, Any]:
    """Fig. 10 — destination regions per sensitive category (EU28 users)."""
    tracking = study.tracking_requests()
    per_category = study.sensitive.category_destination_regions(
        tracking, study.geolocation.reference
    )
    rows = []
    for category, shares in sorted(per_category.items()):
        eu = shares.get(Region.EU28.value, 0.0)
        na = shares.get(Region.NORTH_AMERICA.value, 0.0)
        rows.append([category, percent(eu), percent(na), percent(100 - eu)])
    text = render_table(
        ["Category", "EU 28", "N. America", "Leakage out of EU28"],
        rows,
        title="Figure 10: Destination continent of sensitive tracking "
        "flows (EU28 users).",
    )
    return {"per_category": per_category, "text": text}


def figure11(study: Study) -> Dict[str, Any]:
    """Fig. 11 — per-country leakage of sensitive flows."""
    tracking = study.tracking_requests()
    leakage = study.sensitive.per_country_leakage(
        tracking, study.geolocation.reference
    )
    rows = [
        [country, total, leaked,
         percent(100.0 * leaked / total if total else 0.0)]
        for country, (leaked, total) in sorted(
            leakage.items(), key=lambda kv: -kv[1][1]
        )
    ]
    text = render_table(
        ["Country", "Sensitive flows", "Leaving the country", "Leakage"],
        rows,
        title="Figure 11: Sensitive tracking flows leaving the user's "
        "country (EU28).",
    )
    return {"leakage": leakage, "text": text}


def figure12(study: Study, snapshot: str = "April 4") -> Dict[str, Any]:
    """Fig. 12 — top destination countries per ISP."""
    reports = {
        isp.name: study.isp_reports[(isp.name, snapshot)]
        for isp in study.world.isps
    }
    rows = []
    for name, report in sorted(reports.items()):
        rows.append(
            [name,
             ", ".join(
                 f"{country}={share:.2f}%"
                 for country, share in report.top_destinations(5)
             )]
        )
    text = render_table(
        ["ISP", "Top-5 destination countries"],
        rows,
        title=f"Figure 12: Destination countries per ISP ({snapshot}).",
    )
    return {"reports": reports, "text": text}
