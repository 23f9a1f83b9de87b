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
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

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


#: Table 5's scenarios, in the paper's order; Table 6 also reads
#: ``CLOUD_MIGRATION``
TABLE5_SCENARIOS = (
    LocalizationScenario.DEFAULT,
    LocalizationScenario.REDIRECT_FQDN,
    LocalizationScenario.REDIRECT_TLD,
    LocalizationScenario.POP_MIRRORING,
    LocalizationScenario.REDIRECT_TLD_PLUS_MIRRORING,
)

#: a scenario's ``(n, country_ok, region_ok)`` flow counts
Counts = Tuple[int, int, int]


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
    ) -> Dict[str, Counts]:
        """Raw ``(n, country_ok, region_ok)`` counts under ``scenario``,
        per user country of ``origin_region``, in country order.

        The additive form of :meth:`evaluate`: counts over disjoint flow
        subsets sum to the counts over their union, which lets the
        runtime evaluate scenarios shard-by-shard and merge.  Table 5's
        rows are the sums over countries (:func:`scenario_outcome`);
        Table 6 reads the countries one by one
        (:func:`country_improvements`).

        A flow's outcome depends only on its user country, FQDN and
        server IP, and flows repeat those keys (on ``small``, 13,867
        EU28 flows hold 5,156 keys), so each key's ``(country_ok,
        region_ok)`` pair is computed once per call.
        """
        registry = self._registry
        counts: Dict[str, List[int]] = {}
        outcomes: Dict[Tuple[str, str, IPAddress], Tuple[bool, bool]] = {}
        for request in requests:
            user_country = request.user_country
            if region_of_country(user_country, registry) is not origin_region:
                continue
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
            entry = counts.get(user_country)
            if entry is None:
                entry = counts[user_country] = [0, 0, 0]
            entry[0] += 1
            entry[1] += outcome[0]
            entry[2] += outcome[1]
        return {
            country: (n, country_ok, region_ok)
            for country, (n, country_ok, region_ok) in sorted(counts.items())
        }

    def evaluate(
        self,
        requests: Sequence[ThirdPartyRequest],
        scenario: LocalizationScenario,
        origin_region: Region = Region.EU28,
    ) -> ScenarioOutcome:
        """Confinement achievable under ``scenario`` for region flows."""
        return scenario_outcome(
            scenario, self.scenario_counts(requests, scenario, origin_region)
        )


def scenario_outcome(
    scenario: LocalizationScenario, counts: Mapping[str, Counts]
) -> ScenarioOutcome:
    """One scenario's confinement from its per-country counts."""
    n = sum(entry[0] for entry in counts.values())
    country_ok = sum(entry[1] for entry in counts.values())
    region_ok = sum(entry[2] for entry in counts.values())
    return ScenarioOutcome(
        scenario=scenario,
        n_flows=n,
        country_pct=100.0 * country_ok / n if n else 0.0,
        region_pct=100.0 * region_ok / n if n else 0.0,
    )


def table5_outcomes(
    counts: Mapping[str, Mapping[str, Counts]]
) -> List[ScenarioOutcome]:
    """Table 5's rows, in the paper's order, from per-country counts
    keyed by scenario name (the localization product's ``counts``)."""
    return [
        scenario_outcome(scenario, counts[scenario.name])
        for scenario in TABLE5_SCENARIOS
    ]


def country_improvements(
    counts: Mapping[str, Mapping[str, Counts]], cloud_countries: Set[str]
) -> List[Dict[str, object]]:
    """Table 6's rows from per-country counts keyed by scenario name.

    For every EU28 origin country: sampled flows, the improvement of
    cloud PoP mirroring over TLD redirection, and the improvement of
    full cloud migration over TLD redirection, each floored at zero;
    ``cloud_coverage`` says whether a cloud has a PoP in the country.
    Rows are ordered by migration improvement, largest first.
    """
    tld = counts[LocalizationScenario.REDIRECT_TLD.name]
    mirroring = counts[LocalizationScenario.REDIRECT_TLD_PLUS_MIRRORING.name]
    migration = counts[LocalizationScenario.CLOUD_MIGRATION.name]
    rows: List[Dict[str, object]] = []
    for country, (n, tld_ok, _) in tld.items():
        base = 100.0 * tld_ok / n
        rows.append(
            {
                "country": country,
                "n_requests": n,
                "mirroring_improvement_pct": max(
                    0.0, 100.0 * mirroring[country][1] / n - base
                ),
                "migration_improvement_pct": max(
                    0.0, 100.0 * migration[country][1] / n - base
                ),
                "cloud_coverage": country in cloud_countries,
            }
        )
    rows.sort(
        key=lambda row: (-row["migration_improvement_pct"], row["country"])  # type: ignore[operator,index]
    )
    return rows
