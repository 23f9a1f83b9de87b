"""RIPE-Atlas-like active measurement probe mesh.

The real RIPE Atlas deployment is very dense in Europe (5K+ probes),
substantial in the US (1K+), and thinner elsewhere — which is exactly
why IPmap is accurate at country level in Europe and reliably separates
Europe from the US (paper Sect. 3.4).  The mesh reproduces that density
profile: probes are allocated to countries proportionally to
``population × (1 + infra/50)`` within each region budget, then placed
with jitter around the country centroid.

The mesh also holds the one piece of world-fixed geometry every
campaign reads: each probe's great-circle distance to every candidate
site (:meth:`ProbeMesh.distance_rows`).  Both sets are fixed per world,
so the rows are computed once, on the first campaign, and shared by
every engine built over the mesh.  Each probe also carries its
:func:`~repro.geodata.distance.row_point` from construction: a
campaign measures its target's row to the sampled probes with
:func:`~repro.geodata.distance.great_circle_row_km`.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.config import GeolocationConfig
from repro.errors import GeolocationError
from repro.geodata.countries import Country, CountryRegistry
from repro.geodata.distance import (
    RowPoint,
    great_circle_km,
    great_circle_row_km,
    min_rtt_ms,
    row_point,
)
from repro.util.rng import RngStreams


@dataclass(frozen=True)
class Probe:
    """One measurement probe."""

    probe_id: int
    country: str
    lat: float
    lon: float
    #: ``row_point(lat, lon)``: the probe as a campaign's target row
    #: reads it
    point: RowPoint = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "point", row_point(self.lat, self.lon))

    def rtt_to(
        self, lat: float, lon: float, rng: Optional[random.Random] = None
    ) -> float:
        """Measure (sample) a minimum RTT from this probe to a target."""
        distance = great_circle_km(self.lat, self.lon, lat, lon)
        return min_rtt_ms(distance, rng)


#: candidate-site coordinates, as ``(lat, lon)`` pairs in site order
SiteCoordinates = Tuple[Tuple[float, float], ...]


class ProbeMesh:
    """The world's probe deployment."""

    def __init__(self, probes: Sequence[Probe]) -> None:
        if not probes:
            raise GeolocationError("probe mesh is empty")
        self._probes = list(probes)
        # (sites, {probe: distance row}); filled by distance_rows
        self._distance_rows: Optional[
            Tuple[SiteCoordinates, Dict[Probe, array]]
        ] = None

    def __len__(self) -> int:
        return len(self._probes)

    def probes(self) -> List[Probe]:
        return list(self._probes)

    def in_country(self, country: str) -> List[Probe]:
        return [p for p in self._probes if p.country == country]

    def countries(self) -> List[str]:
        return sorted({p.country for p in self._probes})

    def sample(self, rng: random.Random, count: int) -> List[Probe]:
        """A random measurement campaign's probe selection."""
        count = min(count, len(self._probes))
        return rng.sample(self._probes, count)

    def distance_rows(
        self, sites: SiteCoordinates
    ) -> Mapping[Probe, Sequence[float]]:
        """Each probe's distance row: ``great_circle_km`` from the probe
        to every site, in ``sites`` order, through the row kernel.

        Built on the first call and kept for the life of the mesh, so
        every engine over one world shares one copy: 8 bytes per
        (probe, site) pair, about 4.75 MiB for 752 probes and 827 sites.
        One of two exceptions to a world being read-only while stages
        run, with each DNS service's answer geometry
        (:class:`~repro.dnssim.authority.FqdnService`): the memo holds
        values any caller would compute identically.  It is built
        without a lock and published with one assignment, so a worker
        forked mid-build inherits no held lock (it builds its own copy),
        and a racing duplicate build stores the same values.
        """
        memo = self._distance_rows
        if memo is None or memo[0] != sites:
            points = [row_point(lat, lon) for lat, lon in sites]
            rows = {
                probe: array(
                    "d", great_circle_row_km(probe.lat, probe.lon, points)
                )
                for probe in self._probes
            }
            memo = (sites, rows)
            self._distance_rows = memo
        return memo[1]

    @classmethod
    def build(
        cls,
        registry: CountryRegistry,
        config: GeolocationConfig,
        streams: RngStreams,
    ) -> "ProbeMesh":
        """Build the default mesh from the density profile in ``config``."""
        rng = streams.get("probes")
        probes: List[Probe] = []
        probe_id = 0

        def place(country: Country, count: int) -> None:
            nonlocal probe_id
            radius = country.jitter_radius_deg
            for _ in range(count):
                probes.append(
                    Probe(
                        probe_id=probe_id,
                        country=country.iso2,
                        lat=country.lat + rng.uniform(-radius, radius),
                        lon=country.lon + rng.uniform(-1.5 * radius, 1.5 * radius),
                    )
                )
                probe_id += 1

        def spread(countries: List[Country], budget: int) -> None:
            weights = [
                c.population_m * (1.0 + c.infra_index / 50.0)
                for c in countries
            ]
            total = sum(weights)
            remainders = []
            allocated = 0
            for country, weight in zip(countries, weights):
                share = budget * weight / total
                count = int(share)
                allocated += count
                remainders.append((share - count, country))
                place(country, count)
            remainders.sort(key=lambda pair: (-pair[0], pair[1].iso2))
            for _, country in remainders[: budget - allocated]:
                place(country, 1)

        europe = registry.in_continent("EU")
        spread(europe, config.n_probes_eu)
        place(registry.get("US"), config.n_probes_us)
        rest = [
            c
            for c in registry
            if c.continent != "EU" and c.iso2 != "US"
        ]
        spread(rest, config.n_probes_other)
        # Guarantee at least one probe everywhere so estimation always has
        # a candidate voter per country.
        covered = {p.country for p in probes}
        for country in registry:
            if country.iso2 not in covered:
                place(country, 1)
        return cls(probes)
