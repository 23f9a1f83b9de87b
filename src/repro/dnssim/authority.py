"""Authoritative DNS with geo-aware server selection.

Each organization operates one :class:`Zone` covering its domains.  A
zone maps every FQDN it serves to a :class:`FqdnService`: the set of
server endpoints that can answer for the name plus a
:class:`SelectionPolicy` describing how the authority maps a querying
resolver to one of them.

The selection policies model the strategies that produce the paper's
confinement structure:

* ``NEAREST`` — CDN-style latency mapping: answer with the endpoint
  geographically closest to the querying resolver.  Dense-PoP
  organizations confine EU users within EU28 this way.
* ``HOME`` — always answer from the organization's home deployment,
  wherever the client is (small trackers without a CDN).
* ``WEIGHTED`` — random endpoint weighted by capacity (load balancing),
  fenced to the querying resolver's continent for most answers.

Which endpoint ``NEAREST`` picks for a client site, and which group of
endpoints a fenced ``WEIGHTED`` answer draws from, depend only on the
service's endpoints and the site, both fixed per world.  Each service
therefore memoizes them as queries arrive: the ``NEAREST`` endpoint per
client site; the ``WEIGHTED`` endpoint and weight groups per continent,
built once; and per client site, a pointer to its fence group.  The
memos are keyed by site, never by country (one country can have
several vantage sites: its hosting hub and public-resolver sites), and
entries share the per-continent groups rather than copying them.  A
``WEIGHTED`` answer still makes its two ``rng.random()`` draws per
query, so answers and RNG streams are those of the plain computation.
Like :meth:`~repro.geoloc.probes.ProbeMesh.distance_rows`, the memos
are filled without a lock and each value is published whole, with one
assignment: a thread that races another stores identical values, and a
worker forked mid-fill inherits no held lock.  A memo miss measures the
client site to every endpoint with one
:func:`~repro.geodata.distance.great_circle_row_km` row; the endpoints'
row points are taken for that row and not kept, so a service holds no
geometry beyond its memos.

Server endpoints are duck-typed: any object with ``ip`` (an
:class:`~repro.netbase.addr.IPAddress`), ``country`` (ISO2 string) and
``lat`` / ``lon`` floats works; ``repro.web.deployment`` provides the
concrete type.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Protocol, Sequence, Tuple

from repro.errors import DNSError, NXDomainError
from repro.geodata.distance import great_circle_row_km, row_point
from repro.util.rng import fixed_rng
from repro.netbase.addr import IPAddress


class Endpoint(Protocol):
    """Structural type for a server endpoint a zone can answer with."""

    ip: IPAddress
    country: str
    lat: float
    lon: float


@dataclass(frozen=True)
class ClientSite:
    """Where a query (from the authority's point of view) comes from."""

    country: str
    lat: float
    lon: float


class SelectionPolicy(enum.Enum):
    NEAREST = "nearest"
    HOME = "home"
    WEIGHTED = "weighted"


def _continent_of(iso2: str) -> str:
    """Continent code of a country (unknown codes form their own bucket)."""
    from repro.geodata.countries import default_registry

    country = default_registry().find(iso2)
    return country.continent if country is not None else iso2


#: what a ``WEIGHTED`` answer draws from: endpoints in service order,
#: their weights, and the weights' sum
WeightedGroup = Tuple[Tuple[Endpoint, ...], Tuple[float, ...], float]


def _weighted_group(pairs: Sequence[Tuple[Endpoint, float]]) -> WeightedGroup:
    weights = tuple(weight for _, weight in pairs)
    return tuple(endpoint for endpoint, _ in pairs), weights, sum(weights)


@dataclass
class FqdnService:
    """The endpoints and mapping policy behind one FQDN."""

    #: probability a WEIGHTED (load-balanced) answer stays on the
    #: querying resolver's continent when same-continent endpoints
    #: exist: real load balancers keep users on-continent for latency,
    #: but configuration drift leaks a minority of answers overseas.
    GEOFENCE_PROBABILITY = 0.60

    fqdn: str
    endpoints: List[Endpoint]
    policy: SelectionPolicy = SelectionPolicy.NEAREST
    ttl: int = 300
    weights: Optional[List[float]] = None
    # World-fixed answer geometry, filled as queries arrive (see the
    # module docstring): the NEAREST endpoint per client site; the
    # WEIGHTED groups, (all endpoints, {continent: group}); and the
    # fence group per client site, pointing into the latter.
    _nearest: Dict[ClientSite, Endpoint] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _groups: Optional[Tuple[WeightedGroup, Dict[str, WeightedGroup]]] = (
        field(default=None, init=False, repr=False, compare=False)
    )
    _fences: Dict[ClientSite, WeightedGroup] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.endpoints:
            raise DNSError(f"FQDN {self.fqdn} has no endpoints")
        if self.weights is not None and len(self.weights) != len(self.endpoints):
            raise DNSError(f"FQDN {self.fqdn}: weights/endpoints length mismatch")

    def _distances(self, client: ClientSite) -> List[float]:
        """Great-circle distance from ``client`` to each endpoint."""
        return great_circle_row_km(
            client.lat,
            client.lon,
            [row_point(e.lat, e.lon) for e in self.endpoints],
        )

    def select(
        self, client: ClientSite, rng: Optional[random.Random] = None
    ) -> Endpoint:
        """Pick the endpoint this authority answers with for ``client``."""
        if self.policy is SelectionPolicy.NEAREST:
            nearest = self._nearest.get(client)
            if nearest is None:
                # the closest endpoint; of equally close ones, the lowest IP
                distances = self._distances(client)
                closest = min(distances)
                nearest = min(
                    (
                        endpoint
                        for endpoint, d in zip(self.endpoints, distances)
                        if d == closest
                    ),
                    key=lambda e: int(e.ip),
                )
                self._nearest[client] = nearest
            return nearest
        if self.policy is SelectionPolicy.HOME:
            return self.endpoints[0]
        # WEIGHTED: continent-fenced load balancing.
        if rng is None:
            # Test-convenience default only: every runtime path injects
            # the shard's seeded stream through MappingService.
            rng = fixed_rng()  # reprolint: disable=S703
        if rng.random() < self.GEOFENCE_PROBABILITY:
            group = self._fences.get(client)
            if group is None:
                group = self._fence_group(client)
                self._fences[client] = group
        else:
            group = self._weighted_groups()[0]
        candidates, candidate_weights, total = group
        point = rng.random() * total
        cumulative = 0.0
        for endpoint, weight in zip(candidates, candidate_weights):
            cumulative += weight
            if point <= cumulative:
                return endpoint
        return candidates[-1]

    def _weighted_groups(
        self,
    ) -> Tuple[WeightedGroup, Dict[str, WeightedGroup]]:
        """The unfenced ``WEIGHTED`` group and one group per endpoint
        continent, both in endpoint order; built on the first call."""
        groups = self._groups
        if groups is None:
            pairs = list(
                zip(self.endpoints, self.weights or [1.0] * len(self.endpoints))
            )
            members: Dict[str, List[Tuple[Endpoint, float]]] = {}
            for endpoint, weight in pairs:
                members.setdefault(_continent_of(endpoint.country), []).append(
                    (endpoint, weight)
                )
            groups = (
                _weighted_group(pairs),
                {
                    continent: _weighted_group(fenced)
                    for continent, fenced in members.items()
                },
            )
            self._groups = groups
        return groups

    def _fence_group(self, client: ClientSite) -> WeightedGroup:
        """The group a fenced ``WEIGHTED`` answer for ``client`` draws
        from: the client's continent, or with no footprint there, the
        continent of the closest endpoint instead (e.g. South American
        clients ride the North American sites)."""
        by_continent = self._weighted_groups()[1]
        group = by_continent.get(_continent_of(client.country))
        if group is None:
            distances = self._distances(client)
            nearest = self.endpoints[distances.index(min(distances))]
            group = by_continent[_continent_of(nearest.country)]
        return group

    def countries(self) -> List[str]:
        """Distinct endpoint countries, sorted (used by what-if engines)."""
        return sorted({e.country for e in self.endpoints})


class Zone:
    """An organization's authoritative zone."""

    def __init__(self, apex: str, owner: str) -> None:
        if not apex or apex != apex.lower():
            raise DNSError(f"zone apex must be non-empty lowercase: {apex!r}")
        self.apex = apex
        self.owner = owner
        self._services: Dict[str, FqdnService] = {}

    def __contains__(self, fqdn: str) -> bool:
        return fqdn in self._services

    def __len__(self) -> int:
        return len(self._services)

    def add_service(self, service: FqdnService) -> None:
        name = service.fqdn
        if not (name == self.apex or name.endswith("." + self.apex)):
            raise DNSError(f"{name} is outside zone {self.apex}")
        self._services[name] = service

    def service(self, fqdn: str) -> FqdnService:
        try:
            return self._services[fqdn]
        except KeyError:
            raise NXDomainError(f"{fqdn} not found in zone {self.apex}") from None

    def services(self) -> List[FqdnService]:
        return [self._services[name] for name in sorted(self._services)]

    def answer(
        self, fqdn: str, client: ClientSite, rng: Optional[random.Random] = None
    ) -> Tuple[Endpoint, int]:
        """Authoritative answer: the selected endpoint and the TTL."""
        service = self.service(fqdn)
        return service.select(client, rng), service.ttl


def zone_apex_of(fqdn: str) -> str:
    """Derive the registrable domain (TLD+1) a name belongs to.

    The simulation only generates two-label apexes (``name.tld``), so the
    apex is simply the last two labels.
    """
    labels = fqdn.split(".")
    if len(labels) < 2 or not all(labels):
        raise DNSError(f"cannot derive zone apex of {fqdn!r}")
    return ".".join(labels[-2:])


class AuthorityDirectory:
    """All authoritative zones of the simulated world, indexed by apex."""

    def __init__(self, zones: Iterable[Zone] = ()) -> None:
        self._zones: Dict[str, Zone] = {}
        for zone in zones:
            self.add(zone)

    def __len__(self) -> int:
        return len(self._zones)

    def add(self, zone: Zone) -> None:
        if zone.apex in self._zones:
            raise DNSError(f"duplicate zone {zone.apex}")
        self._zones[zone.apex] = zone

    def zone_for(self, fqdn: str) -> Zone:
        apex = zone_apex_of(fqdn)
        zone = self._zones.get(apex)
        if zone is None:
            raise NXDomainError(f"no authority for {fqdn} (apex {apex})")
        return zone

    def zones(self) -> List[Zone]:
        return [self._zones[apex] for apex in sorted(self._zones)]
