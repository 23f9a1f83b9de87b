#!/usr/bin/env python
"""Continuous GDPR-confinement monitoring from an ISP vantage (Sect. 7).

Usage::

    python examples/isp_compliance_monitor.py [seed]

The paper closes by proposing a system that "continuously monitors
compliance to GDPR over time" from NetFlow.  This example is that
monitor: it joins each ISP's snapshot days against the tracker-IP list
(built from the browser-extension panel plus passive DNS), prints the
Table 8 time series, and raises attention flags when confinement moves.
"""

import sys

from repro import SNAPSHOT_DAYS, WorldConfig
from repro.runtime import run_study


def main() -> None:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 7
    study = run_study(WorldConfig.small(seed=seed)).study()
    reports = study.isp_reports

    print("=== Cross-border tracking monitor (four European ISPs) ===\n")
    print(
        f"tracker IP list: {len(study.inventory)} addresses "
        f"({len(study.inventory.additional_addresses())} recovered via "
        f"passive DNS)"
    )

    for isp in study.world.isps:
        print(f"\n--- {isp.name} ({isp.demographics}) ---")
        history = []
        for snapshot in SNAPSHOT_DAYS:
            report = reports[(isp.name, snapshot)]
            eu = report.region_shares.get("EU 28", 0.0)
            na = report.region_shares.get("N. America", 0.0)
            history.append((snapshot, eu))
            estimated = report.estimated_tracking_flows
            print(
                f"  {snapshot:<8} sampled={report.sampled_tracking_flows:>7,} "
                f"(est. {estimated:>12,}) EU28={eu:5.1f}% NA={na:5.1f}% "
                f"enc={report.encrypted_share_pct:4.1f}%"
            )
        # Attention flags: movement across the GDPR implementation date.
        before = [eu for snap, eu in history if snap in ("Nov 8", "April 4")]
        after = [eu for snap, eu in history if snap in ("May 16", "June 20")]
        delta = sum(after) / len(after) - sum(before) / len(before)
        verdict = (
            "stable"
            if abs(delta) < 5.0
            else ("improved" if delta > 0 else "DEGRADED")
        )
        print(f"  confinement across the GDPR date: {verdict} "
              f"({delta:+.1f} points)")

        top = reports[(isp.name, "June 20")].top_destinations(4)
        print(
            "  current sinks: "
            + ", ".join(f"{country} {share:.1f}%" for country, share in top)
        )


if __name__ == "__main__":
    main()
