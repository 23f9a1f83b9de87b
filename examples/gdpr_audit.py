#!/usr/bin/env python
"""GDPR audit for one national Data Protection Authority.

Usage::

    python examples/gdpr_audit.py [ISO2] [seed]

The paper's motivation (Sect. 2.1): a national DPA can investigate a
tracking backend far more easily when it is physically inside its
jurisdiction.  This example plays the DPA of one country (default: DE)
and reports:

* how much of its citizens' tracking traffic it can reach domestically,
* where the rest terminates (the cross-border investigation problem),
* the sensitive-category flows leaving the country — the cases GDPR
  most urgently protects,
* the tracking domains it *could* summon domestically today, versus the
  ones that at least keep a domestic server a DNS change away.
"""

import sys
from collections import Counter

from repro import WorldConfig
from repro.geodata.regions import Region, region_of_country
from repro.runtime import run_study
from repro.web.requests import tld1_of


def main() -> None:
    country = (sys.argv[1] if len(sys.argv) > 1 else "DE").upper()
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 7
    study = run_study(WorldConfig.small(seed=seed)).study()
    registry = study.world.registry
    name = registry.get(country).name
    print(f"=== GDPR tracking audit for the {name} DPA ===\n")

    tracking = [
        r for r in study.tracking_requests() if r.user_country == country
    ]
    if not tracking:
        print("No panel users in this country — try ES, GB, DE, IT, GR …")
        return
    analyzer = study.confinement()

    domestic = foreign_eu = outside = 0
    destinations: Counter = Counter()
    for request in tracking:
        dest = analyzer.destination_country(request.ip)
        destinations[dest or "unknown"] += 1
        if dest == country:
            domestic += 1
        elif region_of_country(dest) is Region.EU28:
            foreign_eu += 1
        else:
            outside += 1
    total = len(tracking)
    print(f"Citizens' tracking flows observed: {total:,}")
    print(f"  terminating domestically:        {100*domestic/total:5.1f}%"
          "   (directly investigable)")
    print(f"  elsewhere in EU28:               {100*foreign_eu/total:5.1f}%"
          "   (one-stop-shop referral to a peer DPA)")
    print(f"  outside GDPR jurisdiction:       {100*outside/total:5.1f}%"
          "   (mutual legal assistance needed)")

    print("\nTop destination countries:")
    for dest, count in destinations.most_common(6):
        label = registry.find(dest).name if registry.find(dest) else dest
        print(f"  {label:<15} {100*count/total:5.1f}%")

    sensitive = [
        r
        for r in study.sensitive.sensitive_requests(tracking)
    ]
    if sensitive:
        leaked = sum(
            1
            for r in sensitive
            if analyzer.destination_country(r.ip) != country
        )
        categories = Counter(
            study.sensitive.category_of(r) for r in sensitive
        )
        print(
            f"\nSensitive-category flows: {len(sensitive):,} "
            f"({100*len(sensitive)/total:.2f}% of tracking), "
            f"{100*leaked/len(sensitive):.1f}% leave the country"
        )
        print("  categories: " + ", ".join(
            f"{cat}={n}" for cat, n in categories.most_common(5)
        ))
    else:
        print("\nNo sensitive-category flows observed for this country.")

    # Which tracking domains could be reached domestically?
    localization = study.localization
    domestic_now: set = set()
    domestic_possible: set = set()
    for request in tracking:
        tld = tld1_of(request.fqdn)
        if analyzer.destination_country(request.ip) == country:
            domestic_now.add(tld)
        elif country in localization.observed_tld_countries(tld):
            domestic_possible.add(tld)
    domestic_possible -= domestic_now
    print(
        f"\nTracking domains serving citizens from inside {name}: "
        f"{len(domestic_now)}"
    )
    print(
        f"Domains with a domestic server one DNS redirection away: "
        f"{len(domestic_possible)}"
    )


if __name__ == "__main__":
    main()
