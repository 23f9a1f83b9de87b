#!/usr/bin/env python
"""DNS-redirection planning for a tracking operator (Sect. 5).

Usage::

    python examples/dns_redirection_planner.py [seed]

Plays the role of a GDPR-friendly tracking operator deciding how to
confine its flows: for each of the operator's registrable domains the
planner reports the countries it already serves from, the extra
confinement each what-if lever would buy (FQDN-level redirection,
TLD-level redirection, cloud PoP mirroring), and the residual flows
that would still cross borders.
"""

import sys
from collections import Counter

from repro import WorldConfig
from repro.core.localization import LocalizationScenario
from repro.geodata.regions import Region, region_of_country
from repro.runtime import run_study
from repro.web.requests import tld1_of


def main() -> None:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 7
    study = run_study(WorldConfig.small(seed=seed)).study()
    localization = study.localization

    # Pick the busiest multi-country tracking operator as "us".
    volume: Counter = Counter()
    for request in study.tracking_requests():
        volume[request.truth_org] += 1
    fleet = study.world.fleet
    operator = next(
        name
        for name, _ in volume.most_common()
        if len({s.country for s in fleet.servers_of(name)}) >= 3
    )
    org = fleet.org(operator)
    our_domains = set(org.domains)
    print(f"=== Redirection plan for operator {operator!r} ===")
    print(f"legal seat: {org.legal_country}, domains: {sorted(our_domains)}")
    pops = sorted({s.country for s in fleet.servers_of(operator)})
    print(f"current PoP countries: {pops}\n")

    our_flows = [
        r
        for r in study.tracking_requests()
        if tld1_of(r.fqdn) in our_domains
        and region_of_country(r.user_country) is Region.EU28
    ]
    if not our_flows:
        print("Operator has no EU28 flows in this world; re-run with "
              "another seed.")
        return

    print(f"EU28 flows to our domains: {len(our_flows):,}")
    for scenario in (
        LocalizationScenario.DEFAULT,
        LocalizationScenario.REDIRECT_FQDN,
        LocalizationScenario.REDIRECT_TLD,
        LocalizationScenario.POP_MIRRORING,
    ):
        outcome = localization.evaluate(our_flows, scenario)
        print(
            f"  {scenario.value:<28} in-country={outcome.country_pct:5.1f}%  "
            f"in-EU28={outcome.region_pct:5.1f}%"
        )

    # Where would users still cross borders even at TLD level?
    stranded: Counter = Counter()
    for request in our_flows:
        tld = tld1_of(request.fqdn)
        if request.user_country not in localization.observed_tld_countries(
            tld
        ):
            stranded[request.user_country] += 1
    if stranded:
        print("\nUser countries we cannot serve domestically today "
              "(candidate new PoPs, by stranded flows):")
        for country, count in stranded.most_common(8):
            print(f"  {country}: {count:,} flows")
    clouds = sorted(
        set().union(
            *(localization.cloud_tenancy(d) for d in our_domains)
        )
    )
    print(
        f"\nDetected cloud tenancy (from published ranges): {clouds or 'none'}"
    )
    if clouds:
        reachable = set()
        for provider in clouds:
            reachable |= set(
                study.world.clouds.get(provider).pop_countries
            )
        print(
            "Countries reachable by mirroring onto our existing clouds: "
            + ", ".join(sorted(c for c in reachable))
        )


if __name__ == "__main__":
    main()
