#!/usr/bin/env python
"""Inter-tracker collaboration atlas (the paper's future work, built).

Usage::

    python examples/collaboration_atlas.py [seed]

The paper's conclusion promises to "capture inter-tracker collaboration
and data exchange" next. This example runs that analysis: it extracts
every cookie-sync identifier hand-off from the classified panel log,
builds the collaboration graph, and reports the structural and
geographic findings — including the hand-offs that move an EU citizen's
identifier out of GDPR jurisdiction *between trackers*, which no
endpoint-confinement number can see. It closes with the multi-regulation
monitor over the same flows.
"""

import sys

from repro import WorldConfig
from repro.core.collaboration import CollaborationAnalyzer
from repro.core.regulations import RegulationMonitor
from repro.runtime import run_study


def main() -> None:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 7
    study = run_study(WorldConfig.small(seed=seed)).study()
    analyzer = CollaborationAnalyzer(
        study.classification, study.geolocation.reference
    )

    summary = analyzer.summary()
    print("=== Tracker collaboration graph ===")
    print(f"identifier hand-offs observed: {int(summary['hand_offs']):,}")
    print(f"collaborating domains:         {int(summary['domains']):,}")
    print(f"distinct partnerships (edges): {int(summary['edges']):,}")
    print(
        f"ecosystem cohesion: {summary['giant_component_share']:.0%} of "
        f"domains in the largest component "
        f"({int(summary['components'])} components)"
    )
    print(
        f"hand-offs crossing a national border: "
        f"{summary['cross_border_share_pct']:.1f}%"
    )
    print(
        f"hand-offs moving data out of GDPR jurisdiction: "
        f"{summary['gdpr_exit_share_pct']:.1f}%"
    )

    print("\nheaviest partnerships:")
    for source, target, weight in analyzer.top_collaborations(6):
        print(f"  {source:<28} -> {target:<28} {weight:>6,} hand-offs")

    print("\nbiggest identifier sinks (in-degree):")
    for domain, degree in analyzer.hubs(6):
        print(f"  {domain:<28} receives from {degree} partners")

    print("\ntop cross-country exchanges:")
    matrix = analyzer.country_exchange_matrix()
    crossing = sorted(
        (
            (pair, count)
            for pair, count in matrix.items()
            if pair[0] != pair[1]
        ),
        key=lambda item: -item[1],
    )
    for (source, target), count in crossing[:6]:
        print(f"  {source} -> {target}: {count:,}")

    print("\n=== Regulation monitor over the same flows ===")
    monitor = RegulationMonitor(
        study.geolocation.reference,
        sensitive=study.sensitive,
        registry=study.world.registry,
    )
    for name, report in sorted(
        monitor.evaluate_all(study.tracking_requests()).items()
    ):
        print(
            f"  {name:<28} in-scope={report.in_scope_flows:>7,} "
            f"confined={report.confinement_pct:5.1f}% "
            f"{'investigable' if report.investigable else 'HARD TO REACH'}"
        )


if __name__ == "__main__":
    main()
