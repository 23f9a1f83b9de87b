"""Geolocation orchestration (Sect. 3.4).

Bundles the three geolocation tools over the tracker IP inventory:

* the active-measurement locator (RIPE IPmap substitute) — the study's
  reference tool,
* the two commercial databases (MaxMind / IP-API substitutes),

and exposes the paper's comparison products: the pairwise agreement
matrix (Table 3), the per-provider mis-geolocation report (Table 4), and
the IPmap validation against the published cloud ranges.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cloud.providers import CloudCatalog
from repro.errors import UnknownKeyError
from repro.geoloc.commercial import CommercialGeoDatabase
from repro.geoloc.compare import (
    AgreementCell,
    MisgeolocationRow,
    agreement_matrix,
    misgeolocation_report,
)
from repro.geoloc.truth import GroundTruthOracle
from repro.core.tracker_ips import TrackerIPInventory
from repro.netbase.addr import IPAddress

Locator = Callable[[IPAddress], Optional[str]]


class GeolocationSuite:
    """All geolocation tools over one tracker-IP inventory."""

    def __init__(
        self,
        ipmap: Locator,
        maxmind: CommercialGeoDatabase,
        ip_api: CommercialGeoDatabase,
        oracle: GroundTruthOracle,
    ) -> None:
        self._ipmap = ipmap
        self._maxmind = maxmind
        self._ip_api = ip_api
        self._oracle = oracle
        # Built once: per-record lookups go through this index instead
        # of assembling a fresh dict per call.
        self._locators: Dict[str, Locator] = {
            "RIPE IPmap": self._ipmap,
            "MaxMind": self._maxmind.locate,
            "ip-api": self._ip_api.locate,
        }

    # -- locator access ----------------------------------------------------
    def locators(self) -> Dict[str, Locator]:
        """Tool name → locator callable (a copy; mutate freely)."""
        return dict(self._locators)

    def locate(self, tool: str, address: IPAddress) -> Optional[str]:
        """Geolocate ``address`` with one named tool.

        Raises :class:`repro.errors.UnknownKeyError` for tools outside
        :meth:`locators`.
        """
        try:
            locator = self._locators[tool]
        except KeyError:
            raise UnknownKeyError(f"unknown geolocation tool {tool!r}") from None
        return locator(address)

    @property
    def reference(self) -> Locator:
        """The study's reference tool (active measurements)."""
        return self._ipmap

    @property
    def maxmind(self) -> Locator:
        return self._maxmind.locate

    @property
    def ip_api(self) -> Locator:
        return self._ip_api.locate

    @property
    def truth(self) -> Locator:
        """Evaluation-only ground truth."""
        return self._oracle.country

    # -- Table 3 ---------------------------------------------------------
    def pairwise_agreement(
        self, addresses: Sequence[IPAddress]
    ) -> Dict[Tuple[str, str], AgreementCell]:
        return agreement_matrix(addresses, self.locators())

    # -- Table 4 ---------------------------------------------------------
    def misgeolocation_by_org(
        self,
        inventory: TrackerIPInventory,
        org_of_ip: Callable[[IPAddress], Optional[str]],
        org_labels: Sequence[str],
    ) -> List[MisgeolocationRow]:
        """Commercial-vs-reference mis-geolocation for selected orgs.

        ``org_of_ip`` attributes an IP to an organization label (in the
        paper: Google / Amazon / Facebook ads+tracking); only IPs whose
        label is in ``org_labels`` are reported.
        """
        grouped: Dict[str, List[IPAddress]] = defaultdict(list)
        for address in inventory.addresses():
            label = org_of_ip(address)
            if label in org_labels:
                grouped[label].append(address)
        counts = inventory.request_counts()
        return [
            misgeolocation_report(
                org_label=label,
                addresses=grouped.get(label, []),
                request_counts=counts,
                tested=self._maxmind.locate,
                reference=self._ipmap,
            )
            for label in org_labels
        ]

    # -- IPmap accuracy validation (Sect. 3.4's AWS/Azure check) ----------
    def validate_ipmap_against_clouds(
        self,
        clouds: CloudCatalog,
        providers: Sequence[str] = ("aws", "azure"),
        per_pool_samples: int = 3,
    ) -> Dict[str, float]:
        """Geolocate addresses inside published cloud ranges and score
        against the advertised pool country.

        Returns country- and region-level accuracy percentages.
        """
        from repro.geodata.regions import region_of_country

        total = country_ok = region_ok = 0
        for provider_name in providers:
            provider = clouds.get(provider_name)
            for country in provider.pop_countries:
                prefix = clouds.pool_record(provider_name, country).prefix
                for offset in range(per_pool_samples):
                    address = prefix.nth(offset)
                    estimate = self._ipmap(address)
                    if estimate is None:
                        continue
                    total += 1
                    if estimate == country:
                        country_ok += 1
                    if region_of_country(estimate) is region_of_country(
                        country
                    ):
                        region_ok += 1
        if total == 0:
            return {"country_pct": 0.0, "region_pct": 0.0, "n": 0.0}
        return {
            "country_pct": 100.0 * country_ok / total,
            "region_pct": 100.0 * region_ok / total,
            "n": float(total),
        }

    # -- evaluation helpers -------------------------------------------------
    def reference_accuracy(
        self, addresses: Sequence[IPAddress]
    ) -> Dict[str, float]:
        """Accuracy of the active engine against ground truth
        (evaluation only — the paper cannot compute this, we can)."""
        from repro.geodata.regions import region_of_country

        total = country_ok = region_ok = 0
        for address in addresses:
            truth = self._oracle.country(address)
            estimate = self._ipmap(address)
            if truth is None or estimate is None:
                continue
            total += 1
            if truth == estimate:
                country_ok += 1
            if region_of_country(truth) is region_of_country(estimate):
                region_ok += 1
        if total == 0:
            return {"country_pct": 0.0, "region_pct": 0.0, "n": 0.0}
        return {
            "country_pct": 100.0 * country_ok / total,
            "region_pct": 100.0 * region_ok / total,
            "n": float(total),
        }
