"""Country registry: the geographic ground truth of the simulated world.

Each :class:`Country` carries the attributes the reproduction needs:

* ISO-3166 alpha-2 code and display name,
* continent code (``EU``, ``NA``, ``SA``, ``AS``, ``AF``, ``OC``),
* EU28 membership as of 2018 (the GDPR jurisdiction studied by the paper
  — note the United Kingdom *is* a member in this period),
* a population figure (millions) used to scale user bases,
* an IT-infrastructure index in ``[0, 100]`` approximating relative
  datacenter / hosting density.  The paper finds that national
  confinement of tracking flows correlates with this density (Sect. 5 and
  7.3); the index drives where organizations deploy PoPs.
* a latitude / longitude centroid used by the latency model.

The values are order-of-magnitude realistic (2018-era) but are inputs to
a simulation, not a data product.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from repro.errors import GeoDataError

if TYPE_CHECKING:
    from repro.geodata.regions import Region

CONTINENTS = ("AF", "AS", "EU", "NA", "OC", "SA")


@dataclass(frozen=True)
class Country:
    """A country with the attributes the simulation depends on."""

    iso2: str
    name: str
    continent: str
    eu28: bool
    population_m: float
    infra_index: float
    lat: float
    lon: float

    def __post_init__(self) -> None:
        if self.continent not in CONTINENTS:
            raise GeoDataError(f"unknown continent {self.continent!r}")
        if not 0.0 <= self.infra_index <= 100.0:
            raise GeoDataError("infra_index must be within [0, 100]")
        if self.eu28 and self.continent != "EU":
            raise GeoDataError(f"{self.iso2}: EU28 members must be in Europe")

    @property
    def hosting_site(self) -> Tuple[float, float]:
        """Where the country's datacenters actually cluster.

        Hosting concentrates at interconnection hubs, which are often
        far from the demographic centroid (Germany hosts at Frankfurt,
        not Berlin; the US east-coast hub is Ashburn).  Server placement
        and resolver egress use this point; the plain centroid remains
        the eyeball/user location.
        """
        return HOSTING_SITES.get(self.iso2, (self.lat, self.lon))

    @property
    def jitter_radius_deg(self) -> float:
        """Placement jitter (degrees) for probes/servers/users.

        Scaled with population as a crude proxy for territory so that
        entities placed "in" a small country do not physically land
        across its borders (which would corrupt the active-geolocation
        ground truth).
        """
        return min(1.5, 0.3 + self.population_m / 80.0)


#: datacenter-hub coordinates where they differ meaningfully from the
#: demographic centroid (Frankfurt, Ashburn, Milan, Zurich, ...)
HOSTING_SITES: Dict[str, Tuple[float, float]] = {
    "DE": (50.11, 8.68),    # Frankfurt (DE-CIX)
    "US": (39.04, -77.49),  # Ashburn, VA
    "IT": (45.46, 9.19),    # Milan
    "CH": (47.37, 8.54),    # Zurich
    "RU": (55.76, 37.62),   # Moscow
    "CA": (43.65, -79.38),  # Toronto
    "BR": (-23.55, -46.63), # São Paulo
    "AU": (-33.87, 151.21), # Sydney
    "IN": (19.08, 72.88),   # Mumbai
    "CN": (31.23, 121.47),  # Shanghai
}

# (iso2, name, continent, eu28, population_m, infra_index, lat, lon)
_COUNTRY_ROWS: List[Tuple[str, str, str, bool, float, float, float, float]] = [
    # --- EU28 (2018 membership, including the UK) -----------------------
    ("AT", "Austria", "EU", True, 8.8, 42.0, 48.21, 16.37),
    ("BE", "Belgium", "EU", True, 11.4, 40.0, 50.85, 4.35),
    ("BG", "Bulgaria", "EU", True, 7.0, 16.0, 42.70, 23.32),
    ("HR", "Croatia", "EU", True, 4.1, 10.0, 45.81, 15.98),
    ("CY", "Cyprus", "EU", True, 1.2, 4.0, 35.17, 33.36),
    ("CZ", "Czechia", "EU", True, 10.6, 28.0, 50.08, 14.44),
    ("DK", "Denmark", "EU", True, 5.8, 30.0, 55.68, 12.57),
    ("EE", "Estonia", "EU", True, 1.3, 12.0, 59.44, 24.75),
    ("FI", "Finland", "EU", True, 5.5, 26.0, 60.17, 24.94),
    ("FR", "France", "EU", True, 67.0, 78.0, 48.86, 2.35),
    ("DE", "Germany", "EU", True, 82.8, 95.0, 52.52, 13.41),
    ("GR", "Greece", "EU", True, 10.7, 10.0, 37.98, 23.73),
    ("HU", "Hungary", "EU", True, 9.8, 18.0, 47.50, 19.04),
    ("IE", "Ireland", "EU", True, 4.8, 70.0, 53.35, -6.26),
    ("IT", "Italy", "EU", True, 60.5, 55.0, 41.90, 12.50),
    ("LV", "Latvia", "EU", True, 1.9, 9.0, 56.95, 24.11),
    ("LT", "Lithuania", "EU", True, 2.8, 11.0, 54.69, 25.28),
    ("LU", "Luxembourg", "EU", True, 0.6, 22.0, 49.61, 6.13),
    ("MT", "Malta", "EU", True, 0.5, 3.0, 35.90, 14.51),
    ("NL", "Netherlands", "EU", True, 17.2, 90.0, 52.37, 4.90),
    ("PL", "Poland", "EU", True, 38.0, 32.0, 52.23, 21.01),
    ("PT", "Portugal", "EU", True, 10.3, 18.0, 38.72, -9.14),
    ("RO", "Romania", "EU", True, 19.5, 14.0, 44.43, 26.10),
    ("SK", "Slovakia", "EU", True, 5.4, 12.0, 48.15, 17.11),
    ("SI", "Slovenia", "EU", True, 2.1, 9.0, 46.05, 14.51),
    ("ES", "Spain", "EU", True, 46.7, 50.0, 40.42, -3.70),
    ("SE", "Sweden", "EU", True, 10.1, 38.0, 59.33, 18.07),
    ("GB", "United Kingdom", "EU", True, 66.0, 92.0, 51.51, -0.13),
    # --- Rest of Europe --------------------------------------------------
    ("CH", "Switzerland", "EU", False, 8.5, 44.0, 46.95, 7.45),
    ("NO", "Norway", "EU", False, 5.3, 24.0, 59.91, 10.75),
    ("RU", "Russia", "EU", False, 144.5, 34.0, 55.76, 37.62),
    ("RS", "Serbia", "EU", False, 7.0, 7.0, 44.79, 20.45),
    ("MD", "Moldova", "EU", False, 3.5, 3.0, 47.01, 28.86),
    ("UA", "Ukraine", "EU", False, 44.2, 12.0, 50.45, 30.52),
    ("IS", "Iceland", "EU", False, 0.35, 8.0, 64.15, -21.94),
    ("TR", "Turkey", "EU", False, 82.0, 16.0, 39.93, 32.86),
    # --- North America ----------------------------------------------------
    ("US", "United States", "NA", False, 327.0, 100.0, 38.90, -77.04),
    ("CA", "Canada", "NA", False, 37.0, 55.0, 45.42, -75.70),
    ("MX", "Mexico", "NA", False, 126.0, 20.0, 19.43, -99.13),
    ("PA", "Panama", "NA", False, 4.2, 5.0, 8.98, -79.52),
    # --- South America ----------------------------------------------------
    ("BR", "Brazil", "SA", False, 209.0, 30.0, -15.79, -47.88),
    ("AR", "Argentina", "SA", False, 44.5, 14.0, -34.60, -58.38),
    ("CL", "Chile", "SA", False, 18.7, 12.0, -33.45, -70.67),
    ("CO", "Colombia", "SA", False, 49.7, 10.0, 4.71, -74.07),
    ("PE", "Peru", "SA", False, 32.0, 6.0, -12.05, -77.04),
    ("VE", "Venezuela", "SA", False, 28.9, 4.0, 10.48, -66.90),
    # --- Asia --------------------------------------------------------------
    ("JP", "Japan", "AS", False, 126.5, 60.0, 35.68, 139.69),
    ("SG", "Singapore", "AS", False, 5.6, 58.0, 1.35, 103.82),
    ("HK", "Hong Kong", "AS", False, 7.4, 50.0, 22.32, 114.17),
    ("IN", "India", "AS", False, 1353.0, 28.0, 28.61, 77.21),
    ("CN", "China", "AS", False, 1393.0, 42.0, 39.90, 116.40),
    ("MY", "Malaysia", "AS", False, 31.5, 14.0, 3.14, 101.69),
    ("TH", "Thailand", "AS", False, 69.4, 12.0, 13.76, 100.50),
    ("TW", "Taiwan", "AS", False, 23.6, 26.0, 25.03, 121.57),
    ("KR", "South Korea", "AS", False, 51.6, 38.0, 37.57, 126.98),
    ("IL", "Israel", "AS", False, 8.9, 20.0, 31.77, 35.21),
    ("AE", "United Arab Emirates", "AS", False, 9.6, 16.0, 24.45, 54.38),
    ("ID", "Indonesia", "AS", False, 267.0, 10.0, -6.21, 106.85),
    # --- Africa ------------------------------------------------------------
    ("ZA", "South Africa", "AF", False, 57.8, 14.0, -25.75, 28.19),
    ("EG", "Egypt", "AF", False, 98.4, 8.0, 30.04, 31.24),
    ("NG", "Nigeria", "AF", False, 195.9, 6.0, 9.06, 7.49),
    ("KE", "Kenya", "AF", False, 51.4, 6.0, -1.29, 36.82),
    ("TN", "Tunisia", "AF", False, 11.6, 4.0, 36.81, 10.18),
    ("MA", "Morocco", "AF", False, 36.0, 5.0, 34.02, -6.84),
    # --- Oceania -----------------------------------------------------------
    ("AU", "Australia", "OC", False, 24.9, 34.0, -35.28, 149.13),
    ("NZ", "New Zealand", "OC", False, 4.9, 12.0, -41.29, 174.78),
]


class CountryRegistry:
    """Lookup and iteration over the simulated world's countries."""

    def __init__(self, countries: Iterable[Country]) -> None:
        # regions.py imports this module, so the mapping is imported late
        from repro.geodata.regions import region_of

        self._by_iso2: Dict[str, Country] = {}
        for country in countries:
            if country.iso2 in self._by_iso2:
                raise GeoDataError(f"duplicate country {country.iso2}")
            self._by_iso2[country.iso2] = country
        #: ISO code -> the paper's region label, built with the registry
        #: for :func:`~repro.geodata.regions.region_of_country` (read-only)
        self.regions: Dict[str, Region] = {
            iso2: region_of(country)
            for iso2, country in self._by_iso2.items()
        }

    def __len__(self) -> int:
        return len(self._by_iso2)

    def __contains__(self, iso2: str) -> bool:
        return iso2 in self._by_iso2

    def __iter__(self):
        return iter(sorted(self._by_iso2.values(), key=lambda c: c.iso2))

    def get(self, iso2: str) -> Country:
        """Return the country for ``iso2`` or raise :class:`GeoDataError`."""
        country = self._by_iso2.get(iso2)
        if country is None:
            raise GeoDataError(f"unknown country code {iso2!r}")
        return country

    def find(self, iso2: str) -> Optional[Country]:
        """Return the country for ``iso2`` or ``None``."""
        return self._by_iso2.get(iso2)

    def eu28(self) -> List[Country]:
        """Return EU28 member countries sorted by ISO code."""
        return [c for c in self if c.eu28]

    def in_continent(self, continent: str) -> List[Country]:
        if continent not in CONTINENTS:
            raise GeoDataError(f"unknown continent {continent!r}")
        return [c for c in self if c.continent == continent]

    def codes(self) -> List[str]:
        return sorted(self._by_iso2)


_DEFAULT: Optional[CountryRegistry] = None


def default_registry() -> CountryRegistry:
    """Return the process-wide default registry (immutable; built once)."""
    # An idempotent memo of immutable data built from a module constant:
    # every process converges to the same registry, so shard outputs
    # cannot depend on which worker built it first.
    global _DEFAULT
    if _DEFAULT is None:
        # Benign race: losers rebuild identical immutable data, so the
        # memo needs no lock.
        _DEFAULT = CountryRegistry(Country(*row) for row in _COUNTRY_ROWS)
    return _DEFAULT
