"""Border-crossing quantification (Sect. 4).

Folds classified tracking flows into the Sankey aggregations behind
Figures 6, 7 and 8, through a geolocation locator.  The confinement
stage runs the folds shard by shard and merges them; the figures read
the merged Sankeys, whose per-origin shares are the headline
confinement percentages.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Mapping, Optional, TypeVar

from repro.errors import UnknownKeyError
from repro.geodata.countries import CountryRegistry, default_registry
from repro.geodata.regions import Region, region_of_country
from repro.netbase.addr import IPAddress
from repro.util.sankey import Sankey
from repro.web.requests import ThirdPartyRequest

Locator = Callable[[IPAddress], Optional[str]]

T = TypeVar("T")


class ConfinementAnalyzer:
    """One locator's per-flow destination lookup and the two Sankey folds.

    Destination lookups are cached per IP, so running the analyzer over
    hundreds of thousands of requests costs one geolocation per distinct
    server address.
    """

    def __init__(
        self,
        locate: Locator,
        registry: Optional[CountryRegistry] = None,
    ) -> None:
        self._locate = locate
        self._registry = registry or default_registry()
        self._cache: Dict[IPAddress, Optional[str]] = {}

    def destination_country(self, address: IPAddress) -> Optional[str]:
        if address not in self._cache:
            self._cache[address] = self._locate(address)
        return self._cache[address]

    # -- Sankey builders -----------------------------------------------------
    def continent_sankey(
        self, requests: Iterable[ThirdPartyRequest]
    ) -> Sankey:
        """Region → region flow diagram (Fig. 6)."""
        sankey = Sankey()
        for request in requests:
            origin = region_of_country(request.user_country, self._registry)
            destination_country = self.destination_country(request.ip)
            destination = (
                region_of_country(destination_country, self._registry)
                if destination_country is not None
                else Region.UNKNOWN
            )
            sankey.add(origin.value, destination.value)
        return sankey

    def country_sankey(
        self,
        requests: Iterable[ThirdPartyRequest],
        origin_region: Optional[Region] = Region.EU28,
    ) -> Sankey:
        """Country → country flow diagram (Fig. 8).

        Destinations failing geolocation appear as ``unknown``, as in
        the paper's diagram.
        """
        sankey = Sankey()
        for request in requests:
            if origin_region is not None and (
                region_of_country(request.user_country, self._registry)
                is not origin_region
            ):
                continue
            destination = self.destination_country(request.ip) or "unknown"
            sankey.add(request.user_country, destination)
        return sankey


def tool_entry(by_tool: Mapping[str, T], tool: str) -> T:
    """One geolocation tool's entry of a mapping keyed by tool.

    Raises :class:`UnknownKeyError`, naming the tools ``by_tool``
    holds, for a tool it does not hold.
    """
    try:
        return by_tool[tool]
    except KeyError:
        raise UnknownKeyError(
            f"unknown geolocation tool {tool!r}; "
            f"known tools: {', '.join(by_tool)}"
        ) from None


def eu28_destination_shares(
    sankeys: Mapping[str, Sankey], tool: str
) -> Dict[str, float]:
    """Fig. 7: one tool's destination-region shares of EU28 flows.

    ``sankeys`` maps each geolocation tool to the continent Sankey of
    the EU28 users' flows (the confinement product's ``eu28`` entry).
    Raises :class:`UnknownKeyError` for a tool it does not hold.
    """
    return tool_entry(sankeys, tool).origin_shares(Region.EU28.value)
