"""Recursive-resolver simulation.

Two resolver models matter for the paper's findings (Sect. 7.3, "the
effect of provider type"):

* **ISP resolvers** sit inside the client's access network, so the
  authority sees a query from the client's own country and CDN-style
  nearest-PoP mapping lands on in-country servers when they exist.
* **Third-party public resolvers** (Google DNS, Quad9, ...) answer from
  a sparse set of resolver sites.  Without EDNS-Client-Subnet the
  authority only sees the resolver site's location, which is frequently
  in a *neighbouring* country — this depresses national confinement for
  broadband users who increasingly use such resolvers.

Every successful resolution is reported to the attached passive-DNS
collectors with a timestamp, which is what makes the pDNS database
complete relative to what any single vantage point observed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

from repro.errors import DNSError
from repro.dnssim.authority import AuthorityDirectory, ClientSite
from repro.dnssim.records import DNSAnswer
from repro.dnssim.passive import PassiveDNSDatabase
from repro.geodata.distance import great_circle_km
from repro.util.rng import fixed_rng


@dataclass(frozen=True)
class PublicResolver:
    """A third-party open resolver with a set of anycast sites."""

    name: str
    sites: Sequence[ClientSite]

    def __post_init__(self) -> None:
        if not self.sites:
            raise DNSError(f"public resolver {self.name} has no sites")

    def site_for(self, client: ClientSite) -> ClientSite:
        """The resolver site a client's queries are anycast-routed to."""
        return min(
            self.sites,
            key=lambda s: (
                great_circle_km(client.lat, client.lon, s.lat, s.lon),
                s.country,
            ),
        )


class RecursiveResolver:
    """Resolves names against the authority directory for a client.

    Parameters
    ----------
    authorities:
        The world's authoritative zones.
    collectors:
        Passive-DNS databases that observe every resolution.
    public_resolver:
        When set, queries are laundered through the nearest site of this
        public resolver (the authority sees the site, not the client).
    """

    def __init__(
        self,
        authorities: AuthorityDirectory,
        collectors: Iterable[PassiveDNSDatabase] = (),
        public_resolver: Optional[PublicResolver] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        self._authorities = authorities
        self._collectors: List[PassiveDNSDatabase] = list(collectors)
        self._public_resolver = public_resolver
        # Test-convenience default only: every runtime path injects the
        # shard's seeded stream through MappingService.
        self._rng = rng or fixed_rng()  # reprolint: disable=S703

    def resolve(self, fqdn: str, client: ClientSite, at: float) -> DNSAnswer:
        """Resolve ``fqdn`` for ``client`` at simulation time ``at`` (days).

        Raises :class:`~repro.errors.NXDomainError` when no authority
        knows the name.
        """
        vantage = client
        if self._public_resolver is not None:
            vantage = self._public_resolver.site_for(client)
        zone = self._authorities.zone_for(fqdn)
        endpoint, ttl = zone.answer(fqdn, vantage, self._rng)
        for collector in self._collectors:
            collector.observe(fqdn, endpoint.ip, at)
        return DNSAnswer(
            name=fqdn,
            address=endpoint.ip,
            ttl=ttl,
            server_country=endpoint.country,
            resolver_country=vantage.country,
        )


def default_public_resolvers() -> List[PublicResolver]:
    """The public resolver deployments of the simulated world.

    Site placement mirrors the real sparse-in-the-east footprint that
    drives the broadband-confinement effect: plenty of sites in western
    Europe and the US, none in PL/HU/GR/CY.
    """
    return [
        PublicResolver(
            name="quad-google",
            sites=(
                ClientSite("US", 37.39, -122.08),
                ClientSite("NL", 52.37, 4.90),
                ClientSite("DE", 50.11, 8.68),
                ClientSite("GB", 51.51, -0.13),
                ClientSite("SG", 1.35, 103.82),
            ),
        ),
        PublicResolver(
            name="quad-nine",
            sites=(
                ClientSite("CH", 47.37, 8.54),
                ClientSite("US", 40.71, -74.01),
                ClientSite("NL", 52.37, 4.90),
            ),
        ),
        PublicResolver(
            name="level-three",
            sites=(
                ClientSite("US", 39.74, -104.99),
                ClientSite("GB", 51.51, -0.13),
                ClientSite("FR", 48.86, 2.35),
            ),
        ),
    ]
