"""Ground-truth location oracle.

The oracle knows where every simulated endpoint physically is.  It is
the *physical substrate* of the active-measurement engine (pings need a
true location to have a latency) and the scoring reference of the
evaluation — the measurement pipeline itself never consults it when
producing the paper's numbers.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.geodata.countries import CountryRegistry
from repro.netbase.addr import IPAddress
from repro.netbase.allocator import AddressPlan
from repro.web.deployment import Fleet


class GroundTruthOracle:
    """True physical location of any simulated IP address."""

    def __init__(
        self,
        fleet: Fleet,
        plan: AddressPlan,
        registry: CountryRegistry,
    ) -> None:
        self._fleet = fleet
        self._plan = plan
        self._registry = registry

    def country(self, address: IPAddress) -> Optional[str]:
        """True country of the endpoint, or None for unknown space."""
        server = self._fleet.server_for_ip(address)
        if server is not None:
            return server.country
        record = self._plan.lookup(address)
        return record.country if record is not None else None

    def coordinates(self, address: IPAddress) -> Optional[Tuple[float, float]]:
        """True lat/lon of the endpoint (country centroid for non-servers)."""
        server = self._fleet.server_for_ip(address)
        if server is not None:
            return (server.lat, server.lon)
        record = self._plan.lookup(address)
        if record is None:
            return None
        country = self._registry.find(record.country)
        if country is None:
            return None
        return (country.lat, country.lon)

    def owner(self, address: IPAddress) -> Optional[str]:
        """The organization (or cloud provider) owning the covering prefix."""
        record = self._plan.lookup(address)
        return record.owner if record is not None else None
