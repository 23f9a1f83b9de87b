#!/usr/bin/env python
"""Calibration dashboard: prints every headline metric next to the
paper's value so the world-model constants can be tuned.  The Sect. 4–6
numbers come from the same table and figure builders as the report.

Usage: python scripts/calibrate.py [small|medium|paper]
"""

import sys
import time

from repro import WorldConfig
from repro.analysis import figures as F
from repro.analysis import tables as T
from repro.runtime import run_study


def main() -> None:
    preset = sys.argv[1] if len(sys.argv) > 1 else "medium"
    config = {
        "small": WorldConfig.small,
        "medium": WorldConfig.medium,
        "paper": WorldConfig.paper_scale,
    }[preset]()
    t0 = time.time()
    study = run_study(config).study()
    log = study.visit_log
    print(f"[{time.time()-t0:6.1f}s] engine run done (every stage)")
    print(
        f"T1: users={log.n_users()} 1p_domains={log.first_party_domains()} "
        f"1p_reqs={log.first_party_requests()} 3p_fqdns={log.third_party_fqdns()} "
        f"3p_reqs={log.third_party_requests()} https={log.https_share():.1%}"
    )

    cls = study.classification
    abp, semi = cls.list_stats(), cls.semi_automatic_stats()
    print(
        f"T2: ABP  fqdn={len(abp.fqdns)} tld={len(abp.tlds)} "
        f"uniq={len(abp.unique_urls)} reqs={abp.total_requests}"
    )
    print(
        f"    SEMI fqdn={len(semi.fqdns)} tld={len(semi.tlds)} "
        f"uniq={len(semi.unique_urls)} reqs={semi.total_requests} "
        f"semi/abp={semi.total_requests/max(1,abp.total_requests):.2f} (paper 0.80)"
    )
    truth = sum(1 for r in cls.requests if r.is_tracking_truth)
    print(
        f"    classified={cls.n_tracking()} truth={truth} "
        f"share_of_3p={cls.n_tracking()/len(cls.requests):.1%} (paper 61.5%)"
    )

    # traffic breakdown diagnostics (uses simulation ground truth)
    from collections import Counter
    kind_counts: Counter = Counter()
    seat_counts: Counter = Counter()
    fleet = study.world.fleet
    for r in cls.tracking_requests():
        org = fleet.org(r.truth_org)
        kind_counts[org.kind.value] += 1
        seat = org.legal_country
        seat_counts["US" if seat == "US" else ("EU" if study.world.registry.get(seat).eu28 else seat)] += 1
    total_t = sum(kind_counts.values())
    print("    by kind: " + " ".join(f"{k}={100*v/total_t:.1f}" for k, v in kind_counts.most_common()))
    print("    by seat: " + " ".join(f"{k}={100*v/total_t:.1f}" for k, v in seat_counts.most_common(6)))

    inv = study.inventory
    print(
        f"IPs: total={len(inv)} additional={len(inv.additional_addresses())} "
        f"(+{inv.additional_share_pct():.2f}%, paper +2.78%) "
        f"v4={inv.ipv4_share_pct():.1f}% (paper 97%)"
    )
    print(
        f"F4: single-domain request share={inv.single_domain_request_share_pct():.1f}% "
        f"(paper ~85%)  multi-domain IP share={inv.multi_domain_ip_share_pct():.2f}% "
        f"(paper <2%)  heavy(>=10)={len(inv.heavy_multi_domain_ips())} (paper 114)"
    )
    print(f"[{time.time()-t0:6.1f}s] inventory built")

    ipm = study.eu28_destination_regions()
    mm = study.eu28_destination_regions("MaxMind")
    fmt = lambda d: {k: round(v, 2) for k, v in sorted(d.items(), key=lambda x: -x[1])}
    print(f"F7b IPmap  : {fmt(ipm)}")
    print("    paper  : EU28 84.93, NA 10.75, RestEU 3.07, AS 0.98")
    print(f"F7a MaxMind: {fmt(mm)}")
    print("    paper  : NA 65.94, EU28 33.16, RestEU 0.47")
    print(f"[{time.time()-t0:6.1f}s] geolocated")

    nat = F.figure8(study)["national_confinement"]
    print(
        "F8 national: "
        + " ".join(
            f"{c}={nat.get(c, 0):.1f}"
            for c in ("GB", "ES", "DE", "IT", "GR", "RO", "CY", "DK", "PL", "HU", "BE")
        )
    )
    print("    paper  : GB=58.4 ES=33.1 GR=6.77 RO=5.1 CY=1.16")
    f6 = F.figure6(study)
    print(
        "F6 regions : "
        + " ".join(
            f"{region}={pct:.1f}({users})"
            for region, (pct, users) in f6["per_region_confinement"].items()
        )
    )
    print("    paper  : AF=2.11(22) AS=16.39(20) RestEU=12.94(23) SA=4.42(86) NA=86.83(16)")
    print(f"F6 dest    : {fmt(f6['destination_shares'])}")
    print("    paper  : EU28 51.65, NA 40.87, RestEU 3.78, AS 1.90, SA 1.51")
    sankey = f6["sankey"]
    for origin in sankey.origins():
        top = sankey.top_destinations(origin, 3)
        total = sankey.origin_total(origin)
        print(
            f"    {origin:<15} ({total:8.0f} flows) -> "
            + " ".join(f"{d}={s:.1f}" for d, s in top)
        )

    for outcome in T.table5(study)["outcomes"]:
        print(
            f"T5: {outcome.scenario.value:<42} country={outcome.country_pct:5.2f}% "
            f"region={outcome.region_pct:5.2f}%"
        )
    print("    paper  : Default 27.6/88.0  FQDN 52.15/93.53  TLD 66.13/98.33")
    print("             Mirror 30.79/92.09  TLD+Mirror 68.12/99.20")

    t3 = study.geolocation.pairwise_agreement(inv.addresses())
    for pair in (("ip-api", "MaxMind"), ("ip-api", "RIPE IPmap"), ("MaxMind", "RIPE IPmap")):
        cell = t3[pair]
        print(f"T3: {pair[0]} vs {pair[1]}: country={cell.country_pct:.1f}% region={cell.region_pct:.1f}%")
    print("    paper  : ipapi/MM 96.13/99.15, vs IPmap ~53/65")

    f9 = F.figure9(study)
    shares = f9["category_shares"]
    print(f"F9: sensitive share={f9['sensitive_share_pct']:.2f}% (paper 2.89%)")
    print("    categories: " + " ".join(f"{k}={v:.0f}" for k, v in sorted(shares.items(), key=lambda x: -x[1])))
    print("    paper  : health=38 gambling=22 sexorient=11 pregnancy=11 politics=9 porn=7")
    print(f"[{time.time()-t0:6.1f}s] sensitive done")

    for name in ("DE-Broadband", "DE-Mobile", "PL", "HU"):
        report = study.isp_reports[(name, "April 4")]
        top = ", ".join(f"{c}={s:.1f}" for c, s in report.top_destinations(5))
        eu = report.region_shares.get("EU 28", 0.0)
        na = report.region_shares.get("N. America", 0.0)
        print(f"T8/F12 {name:<13} EU28={eu:.1f}% NA={na:.1f}% enc={report.encrypted_share_pct:.0f}% | {top}")
    print("    paper Apr4: DEB EU 87.7/NA 9.3 (DE 69.0) | DEM 90.8/6.6 (DE 67.3) | PL 75.6/21.5 (NL 32.9, US 20.7, DE 20.5) | HU 93.1/6.3 (AT 62.3)")
    print(f"[{time.time()-t0:6.1f}s] total")


if __name__ == "__main__":
    main()
