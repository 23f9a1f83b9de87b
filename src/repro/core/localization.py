"""Localization what-if analysis (Sect. 5, Tables 5 and 6).

All scenarios are *measurement-driven*: the alternative server locations
for a tracking FQDN are the locations actually observed in the dataset
(panel answers plus passive-DNS completion, geolocated with the
reference tool) — not the simulator's ground truth.

Scenarios:

* ``DEFAULT`` — where the flows actually went.
* ``REDIRECT_FQDN`` — the tracking operator redirects the user to any
  alternative server observed *for the same FQDN*.
* ``REDIRECT_TLD`` — redirection may target any server observed under
  any FQDN of the same registrable domain.
* ``POP_MIRRORING`` — operators already hosting on one of the nine
  public clouds replicate their PoPs to the provider's other
  datacenters (country set from the provider's published footprint).
* ``REDIRECT_TLD_PLUS_MIRRORING`` — both of the above.
* ``CLOUD_MIGRATION`` — the extreme case: any tracking domain may move
  into any PoP of any of the nine clouds.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.cloud.providers import CloudCatalog
from repro.core.confinement import Locator
from repro.core.tracker_ips import TrackerIPInventory
from repro.errors import ValidationError
from repro.geodata.countries import CountryRegistry, default_registry
from repro.geodata.regions import Region, region_of_country
from repro.netbase.addr import IPAddress
from repro.web.requests import ThirdPartyRequest, tld1_of


class LocalizationScenario(enum.Enum):
    DEFAULT = "Default"
    REDIRECT_FQDN = "Redirections (FQDN)"
    REDIRECT_TLD = "Redirections (TLD)"
    POP_MIRRORING = "POP Mirroring (Cloud)"
    REDIRECT_TLD_PLUS_MIRRORING = "Redirection (TLD) + POP Mirroring (Cloud)"
    CLOUD_MIGRATION = "Migration to Cloud"


@dataclass(frozen=True)
class ScenarioOutcome:
    """Country / EU28-level confinement of one scenario (a Table 5 row)."""

    scenario: LocalizationScenario
    n_flows: int
    country_pct: float
    region_pct: float

    def improvement_over(self, baseline: "ScenarioOutcome") -> Tuple[float, float]:
        return (
            self.country_pct - baseline.country_pct,
            self.region_pct - baseline.region_pct,
        )


class LocalizationAnalyzer:
    """Evaluates the what-if scenarios over EU28 tracking flows."""

    def __init__(
        self,
        inventory: TrackerIPInventory,
        locate: Locator,
        clouds: CloudCatalog,
        registry: Optional[CountryRegistry] = None,
    ) -> None:
        self._inventory = inventory
        self._locate = locate
        self._clouds = clouds
        self._registry = registry or default_registry()
        self._ip_country: Dict[IPAddress, Optional[str]] = {}
        self._fqdn_countries: Dict[str, Set[str]] = defaultdict(set)
        self._tld_countries: Dict[str, Set[str]] = defaultdict(set)
        self._tld_clouds: Dict[str, Set[str]] = defaultdict(set)
        self._build_observed_maps()
        self._migration_countries = self._clouds.union_pop_countries()

    # -- observed-alternatives maps -----------------------------------------
    def _located(self, address: IPAddress) -> Optional[str]:
        if address not in self._ip_country:
            self._ip_country[address] = self._locate(address)
        return self._ip_country[address]

    def _build_observed_maps(self) -> None:
        """Observed server countries per FQDN / TLD, plus cloud tenancy.

        Tenancy is inferred the way the paper could: an IP inside a
        provider's published ranges means the domain leases from that
        provider.
        """
        for record in self._inventory.records():
            country = self._located(record.address)
            if country is None:
                continue
            provider = self._clouds.provider_of_ip(record.address)
            for fqdn in record.fqdns:
                self._fqdn_countries[fqdn].add(country)
                tld = tld1_of(fqdn)
                self._tld_countries[tld].add(country)
                if provider is not None:
                    self._tld_clouds[tld].add(provider.name)

    def observed_fqdn_countries(self, fqdn: str) -> Set[str]:
        return set(self._fqdn_countries.get(fqdn, set()))

    def observed_tld_countries(self, tld: str) -> Set[str]:
        return set(self._tld_countries.get(tld, set()))

    def cloud_tenancy(self, tld: str) -> Set[str]:
        return set(self._tld_clouds.get(tld, set()))

    def mirrored_countries(self, tld: str) -> Set[str]:
        """TLD's reachable countries after PoP mirroring on its clouds."""
        countries = self.observed_tld_countries(tld)
        for provider_name in self.cloud_tenancy(tld):
            countries.update(self._clouds.get(provider_name).pop_countries)
        return countries

    # -- per-flow reachability under a scenario ----------------------------
    def _reachable_countries(
        self, request: ThirdPartyRequest, scenario: LocalizationScenario
    ) -> Set[str]:
        fqdn = request.fqdn
        tld = tld1_of(fqdn)
        actual = self._located(request.ip)
        base: Set[str] = {actual} if actual is not None else set()
        if scenario is LocalizationScenario.DEFAULT:
            return base
        if scenario is LocalizationScenario.REDIRECT_FQDN:
            return base | self.observed_fqdn_countries(fqdn)
        if scenario is LocalizationScenario.REDIRECT_TLD:
            return base | self.observed_tld_countries(tld)
        if scenario is LocalizationScenario.POP_MIRRORING:
            countries = base | self.observed_fqdn_countries(fqdn)
            for provider_name in self.cloud_tenancy(tld):
                countries.update(
                    self._clouds.get(provider_name).pop_countries
                )
            return countries
        if scenario is LocalizationScenario.REDIRECT_TLD_PLUS_MIRRORING:
            return base | self.mirrored_countries(tld)
        if scenario is LocalizationScenario.CLOUD_MIGRATION:
            return base | self.mirrored_countries(tld) | set(
                self._migration_countries
            )
        raise ValidationError(f"unknown scenario {scenario}")

    # -- scenario evaluation -----------------------------------------------
    def scenario_counts(
        self,
        requests: Sequence[ThirdPartyRequest],
        scenario: LocalizationScenario,
        origin_region: Region = Region.EU28,
    ) -> Tuple[int, int, int]:
        """Raw ``(n, country_ok, region_ok)`` counts under ``scenario``.

        The additive form of :meth:`evaluate`: counts over disjoint flow
        subsets sum to the counts over their union, which lets the
        runtime evaluate scenarios shard-by-shard and merge.

        A flow's outcome depends only on its user country, FQDN and
        server IP, and flows repeat those keys (on ``small``, 13,867
        EU28 flows hold 5,156 keys), so each key's ``(country_ok,
        region_ok)`` pair is computed once per call.
        """
        registry = self._registry
        n = 0
        country_ok = 0
        region_ok = 0
        outcomes: Dict[Tuple[str, str, IPAddress], Tuple[bool, bool]] = {}
        for request in requests:
            user_country = request.user_country
            if region_of_country(user_country, registry) is not origin_region:
                continue
            n += 1
            key = (user_country, request.fqdn, request.ip)
            outcome = outcomes.get(key)
            if outcome is None:
                reachable = self._reachable_countries(request, scenario)
                outcome = (
                    user_country in reachable,
                    any(
                        region_of_country(c, registry) is origin_region
                        for c in reachable
                    ),
                )
                outcomes[key] = outcome
            country_ok += outcome[0]
            region_ok += outcome[1]
        return n, country_ok, region_ok

    def evaluate(
        self,
        requests: Sequence[ThirdPartyRequest],
        scenario: LocalizationScenario,
        origin_region: Region = Region.EU28,
    ) -> ScenarioOutcome:
        """Confinement achievable under ``scenario`` for region flows."""
        n, country_ok, region_ok = self.scenario_counts(
            requests, scenario, origin_region
        )
        return ScenarioOutcome(
            scenario=scenario,
            n_flows=n,
            country_pct=100.0 * country_ok / n if n else 0.0,
            region_pct=100.0 * region_ok / n if n else 0.0,
        )

    def scenario_table(
        self, requests: Sequence[ThirdPartyRequest]
    ) -> List[ScenarioOutcome]:
        """All Table 5 rows, in the paper's order."""
        return [
            self.evaluate(requests, scenario)
            for scenario in (
                LocalizationScenario.DEFAULT,
                LocalizationScenario.REDIRECT_FQDN,
                LocalizationScenario.REDIRECT_TLD,
                LocalizationScenario.POP_MIRRORING,
                LocalizationScenario.REDIRECT_TLD_PLUS_MIRRORING,
            )
        ]

    # -- Table 6: per-country improvements -----------------------------------
    def per_country_improvements(
        self,
        requests: Sequence[ThirdPartyRequest],
        countries: Optional[Sequence[str]] = None,
    ) -> List[Dict[str, object]]:
        """Per-country Table 6 rows.

        For every EU28 origin country: sampled flows, the improvement of
        cloud PoP mirroring over TLD redirection, and the improvement of
        full cloud migration over TLD redirection.
        """
        by_country: Dict[str, List[ThirdPartyRequest]] = defaultdict(list)
        for request in requests:
            if (
                region_of_country(request.user_country, self._registry)
                is Region.EU28
            ):
                by_country[request.user_country].append(request)
        selected = countries or sorted(by_country)
        rows: List[Dict[str, object]] = []
        for country in selected:
            group = by_country.get(country, [])
            if not group:
                continue
            outcomes = {
                scenario: self._country_confinement(group, country, scenario)
                for scenario in (
                    LocalizationScenario.REDIRECT_TLD,
                    LocalizationScenario.REDIRECT_TLD_PLUS_MIRRORING,
                    LocalizationScenario.CLOUD_MIGRATION,
                )
            }
            tld = outcomes[LocalizationScenario.REDIRECT_TLD]
            rows.append(
                {
                    "country": country,
                    "n_requests": len(group),
                    "mirroring_improvement_pct": max(
                        0.0,
                        outcomes[
                            LocalizationScenario.REDIRECT_TLD_PLUS_MIRRORING
                        ]
                        - tld,
                    ),
                    "migration_improvement_pct": max(
                        0.0,
                        outcomes[LocalizationScenario.CLOUD_MIGRATION] - tld,
                    ),
                    "cloud_coverage": country in self._migration_countries,
                }
            )
        rows.sort(
            key=lambda row: (-row["migration_improvement_pct"], row["country"])  # type: ignore[operator,index]
        )
        return rows

    def _country_confinement(
        self,
        requests: Sequence[ThirdPartyRequest],
        country: str,
        scenario: LocalizationScenario,
    ) -> float:
        ok = sum(
            1
            for request in requests
            if country in self._reachable_countries(request, scenario)
        )
        return 100.0 * ok / len(requests) if requests else 0.0
