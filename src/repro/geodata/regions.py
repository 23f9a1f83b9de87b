"""Region algebra: the paper's geographic units of analysis.

The paper groups flow endpoints into seven region labels (Figures 6, 7,
10 and Table 8): ``EU 28``, ``Rest of Europe``, ``N. America``,
``S. America``, ``Asia``, ``Africa`` and ``Oceania``.  Crucially, EU28 is
carved *out* of Europe — a flow from Germany to Switzerland counts as
leaving the GDPR jurisdiction even though it stays on the continent.
"""

from __future__ import annotations

import enum
from typing import Dict, Optional

from repro.errors import GeoDataError
from repro.geodata.countries import Country, CountryRegistry, default_registry


class Region(enum.Enum):
    """The paper's seven region labels plus an ``UNKNOWN`` bucket."""

    EU28 = "EU 28"
    REST_EUROPE = "Rest of Europe"
    NORTH_AMERICA = "N. America"
    SOUTH_AMERICA = "S. America"
    ASIA = "Asia"
    AFRICA = "Africa"
    OCEANIA = "Oceania"
    UNKNOWN = "unknown"

    def __str__(self) -> str:  # pragma: no cover - display helper
        return self.value


CONTINENT_NAMES: Dict[str, str] = {
    "AF": "Africa",
    "AS": "Asia",
    "EU": "Europe",
    "NA": "N. America",
    "OC": "Oceania",
    "SA": "S. America",
}

_CONTINENT_TO_REGION: Dict[str, Region] = {
    "AF": Region.AFRICA,
    "AS": Region.ASIA,
    "NA": Region.NORTH_AMERICA,
    "OC": Region.OCEANIA,
    "SA": Region.SOUTH_AMERICA,
}


def region_of_country(
    iso2: Optional[str], registry: Optional[CountryRegistry] = None
) -> Region:
    """Map a country code to the paper's region label.

    ``None`` (geolocation failed) maps to :attr:`Region.UNKNOWN`.  One
    lookup in the registry's region table: a cold run asks this over
    400K times.
    """
    if iso2 is None:
        return Region.UNKNOWN
    if registry is None:
        registry = default_registry()
    region = registry.regions.get(iso2)
    if region is None:
        raise GeoDataError(f"unknown country code {iso2!r}")
    return region


def region_of(country: Country) -> Region:
    """Map a :class:`Country` to the paper's region label."""
    if country.continent == "EU":
        return Region.EU28 if country.eu28 else Region.REST_EUROPE
    return _CONTINENT_TO_REGION[country.continent]


def continent_label(country: Country) -> str:
    """Plain continent display name (Europe undivided), for diagnostics."""
    return CONTINENT_NAMES[country.continent]


def same_country(origin: Optional[str], destination: Optional[str]) -> bool:
    """True when both endpoints geolocate to the same known country."""
    return origin is not None and origin == destination


def same_region(
    origin: Optional[str],
    destination: Optional[str],
    registry: Optional[CountryRegistry] = None,
) -> bool:
    """True when both endpoints fall in the same known paper region."""
    origin_region = region_of_country(origin, registry)
    destination_region = region_of_country(destination, registry)
    if Region.UNKNOWN in (origin_region, destination_region):
        return False
    return origin_region is destination_region


def in_gdpr_jurisdiction(
    iso2: Optional[str], registry: Optional[CountryRegistry] = None
) -> bool:
    """True when the country is an EU28 member (GDPR jurisdiction)."""
    return region_of_country(iso2, registry) is Region.EU28
