"""ISP-scale validation (Sect. 7).

Joins the tracker-IP inventory (built from the browser-extension data
plus passive DNS) against the four ISPs' sampled NetFlow on the study's
snapshot days, producing the Table 8 grid and the Fig. 12 per-ISP
destination-country breakdowns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    import random

    from repro.web.browser import MappingService

from repro.config import SNAPSHOT_DAYS, ISPConfig
from repro.core.confinement import Locator
from repro.core.tracker_ips import TrackerIPInventory
from repro.geodata.countries import CountryRegistry, default_registry
from repro.geodata.regions import Region, region_of_country
from repro.netflow.isps import ISPProfile
from repro.netflow.join import HashedIPMatcher, JoinResult, TrackerFlowJoin
from repro.netflow.traffic import TrafficSynthesizer

#: Table 8's region rows, in paper order
TABLE8_REGIONS = ("EU 28", "N. America", "Rest of Europe", "Asia", "Rest World")


@dataclass(frozen=True)
class SnapshotReport:
    """One (ISP, day) cell group of Table 8."""

    isp_name: str
    snapshot: str
    sampled_tracking_flows: int
    estimated_tracking_flows: int
    region_shares: Dict[str, float]
    destination_countries: Dict[str, float]
    encrypted_share_pct: float
    web_share_pct: float

    def top_destinations(self, k: int = 5) -> List[Tuple[str, float]]:
        """Top-k destination countries plus a Rest-World bucket (Fig 12)."""
        ranked = sorted(
            self.destination_countries.items(), key=lambda kv: (-kv[1], kv[0])
        )
        top = ranked[:k]
        rest = sum(share for _, share in ranked[k:])
        if rest > 0:
            top.append(("Rest World", rest))
        return top


class ISPScaleStudy:
    """Runs the four-ISP NetFlow study against one tracker inventory."""

    def __init__(
        self,
        synthesizers: Mapping[str, TrafficSynthesizer],
        isps: Sequence[ISPProfile],
        inventory: TrackerIPInventory,
        locate: Locator,
        config: ISPConfig,
        registry: Optional[CountryRegistry] = None,
    ) -> None:
        self._synthesizers = dict(synthesizers)
        self._isps = {isp.name: isp for isp in isps}
        self._config = config
        self._registry = registry or default_registry()
        matcher = HashedIPMatcher()
        for record in inventory.records():
            matcher.add(record.address, record.window)
        self._join = TrackerFlowJoin(matcher, locate)

    # -- public API ---------------------------------------------------------
    def run_snapshot(
        self,
        isp_name: str,
        snapshot: str,
        *,
        rng: "random.Random",
        mapping: "MappingService",
    ) -> SnapshotReport:
        """Synthesize, join and aggregate one (ISP, day) snapshot.

        ``rng`` and ``mapping`` go to the synthesizer (see
        :meth:`TrafficSynthesizer.snapshot`): the runtime runs each ISP
        shard against its own stream and a private DNS mapping.
        """
        isp = self._isps[isp_name]
        day = SNAPSHOT_DAYS[snapshot]
        synthesizer = self._synthesizers[isp_name]
        records = synthesizer.snapshot(day, rng=rng, mapping=mapping)
        result = self._join.join(isp_name, isp.country, day, records)
        return self._report(isp, snapshot, result)

    # -- aggregation -----------------------------------------------------
    def _report(
        self, isp: ISPProfile, snapshot: str, result: JoinResult
    ) -> SnapshotReport:
        total = result.matched_flows
        region_counts: Dict[str, int] = {name: 0 for name in TABLE8_REGIONS}
        country_counts: Dict[str, int] = {}
        for destination, count in result.destinations.items():
            label = self._region_label(destination)
            region_counts[label] = region_counts.get(label, 0) + count
            country_counts[destination] = (
                country_counts.get(destination, 0) + count
            )
        region_shares = {
            name: (100.0 * count / total if total else 0.0)
            for name, count in region_counts.items()
        }
        destination_shares = {
            self._display_country(country): 100.0 * count / total
            for country, count in country_counts.items()
        } if total else {}
        return SnapshotReport(
            isp_name=isp.name,
            snapshot=snapshot,
            sampled_tracking_flows=total,
            estimated_tracking_flows=total * self._config.sampling_rate,
            region_shares=region_shares,
            destination_countries=destination_shares,
            encrypted_share_pct=100.0 * result.encrypted_share(),
            web_share_pct=100.0 * result.web_share(),
        )

    def _region_label(self, destination: str) -> str:
        if destination == "unknown":
            return "Rest World"
        region = region_of_country(destination, self._registry)
        if region is Region.EU28:
            return "EU 28"
        if region is Region.NORTH_AMERICA:
            return "N. America"
        if region is Region.REST_EUROPE:
            return "Rest of Europe"
        if region is Region.ASIA:
            return "Asia"
        return "Rest World"

    def _display_country(self, iso2: str) -> str:
        country = self._registry.find(iso2)
        return country.name if country is not None else iso2
