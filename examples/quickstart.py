#!/usr/bin/env python
"""Quickstart: run the whole study on a small world and print the
headline results of the paper.

Usage::

    python examples/quickstart.py [seed]

Builds a complete simulated world (organizations, server fleets, DNS,
publishers, a 40-user panel, four ISPs), runs the paper's measurement
pipeline end to end, and prints:

* Table 1-style dataset statistics,
* the two-stage classification split (Table 2),
* the Figure 7 geolocation flip (the paper's headline),
* national confinement per EU28 country (Figure 8),
* the localization what-if table (Table 5),
* and the run's provenance manifest (docs/observability.md).

One traced engine run computes every stage; the tables read its study
view, and the manifest records what produced them.
"""

import sys

from repro import WorldConfig
from repro.analysis.tables import table1, table2, table5
from repro.geodata.regions import Region
from repro.obs.trace import Tracer
from repro.runtime import run_study


def main() -> None:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 7
    print(f"Building the small world (seed={seed}) and running the study…")
    run = run_study(WorldConfig.small(seed=seed), tracer=Tracer())
    study = run.study()

    print()
    print(table1(study)["text"])
    print()
    print(table2(study)["text"])

    print()
    print("Figure 7 — where EU28 users' tracking flows terminate:")
    ipmap = study.eu28_destination_regions("RIPE IPmap")
    maxmind = study.eu28_destination_regions("MaxMind")
    for region in sorted(set(ipmap) | set(maxmind)):
        print(
            f"  {region:<15} active-measurement={ipmap.get(region, 0.0):6.2f}%"
            f"   commercial-db={maxmind.get(region, 0.0):6.2f}%"
        )
    eu = Region.EU28.value
    print(
        f"\n  The commercial database flips the takeaway: "
        f"{maxmind.get(eu, 0):.1f}% vs {ipmap.get(eu, 0):.1f}% EU28 "
        f"confinement."
    )

    print()
    print("Figure 8 — national confinement per EU28 origin:")
    national = study.confinement().national_confinement(
        study.tracking_requests()
    )
    for country, pct in sorted(national.items(), key=lambda kv: -kv[1]):
        print(f"  {country}: {pct:5.1f}% of flows stay in-country")

    print()
    print(table5(study)["text"])

    # The provenance manifest records what produced these numbers:
    # config digest, per-stage record counts and the merged metrics
    # registry.
    print()
    print("Provenance — the traced engine run behind these tables:")
    manifest = run.manifest
    print(f"  config digest: {manifest['config']['digest'][:16]}…")
    for entry in manifest["stages"]:
        counts = ", ".join(
            f"{k}={v}" for k, v in sorted(entry["records_out"].items())
        )
        print(f"  {entry['stage']:<18} {counts}")
    agreed = run.registry.value("ipmap.locate", verdict="accepted")
    print(f"  geolocation majority-vote acceptances: {int(agreed)}")


if __name__ == "__main__":
    main()
