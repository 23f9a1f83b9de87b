"""World builder: one seed → the complete simulated world.

Construction order matters and is fixed here:

1. address plan + cloud catalog pools,
2. organizations and their server fleets / DNS zones,
3. publishers and panel users,
4. passive DNS + the DNS mapping service,
5. ISP profiles and their traffic synthesizers (this also allocates the
   ISPs' eyeball address pools),
6. the geolocation substrate: probe mesh, ground-truth oracle and the
   two commercial databases (built *after* every prefix exists, so each
   has an entry for the whole world),
7. the synthetic filter lists,
8. background resolutions: the rest of the world's resolvers keep
   resolving tracking FQDNs before, during, and after the panel window,
   which is what gives passive DNS its completeness advantage and keeps
   the (domain, IP) validity windows alive through the ISP snapshot days.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.cloud.providers import CloudCatalog
from repro.config import SNAPSHOT_DAYS, WorldConfig
from repro.dnssim.passive import PassiveDNSDatabase
from repro.geodata.countries import CountryRegistry, default_registry
from repro.geoloc.commercial import CommercialGeoDatabase, derive_ip_api
from repro.geoloc.probes import ProbeMesh
from repro.geoloc.truth import GroundTruthOracle
from repro.netbase.allocator import AddressPlan
from repro.netbase.asn import ASRegistry
from repro.netflow.isps import ISPProfile, default_isps
from repro.netflow.traffic import TrafficSynthesizer
from repro.util.rng import RngStreams
from repro.web.browser import MappingService
from repro.web.deployment import Fleet, FleetBuilder
from repro.web.filterlists import FilterList, build_filter_lists
from repro.web.organizations import Organization, OrganizationFactory
from repro.web.publishers import Publisher, PublisherFactory
from repro.web.users import PanelUser, build_panel

#: background resolutions run through this simulation day, modelling the
#: continued collection (mid-Jan → July 2018) the paper describes.
BACKGROUND_END_DAY = max(SNAPSHOT_DAYS.values()) + 10.0


@dataclass
class World:
    """Everything the study pipeline needs, fully constructed."""

    config: WorldConfig
    registry: CountryRegistry
    streams: RngStreams
    plan: AddressPlan
    as_registry: ASRegistry
    clouds: CloudCatalog
    organizations: List[Organization]
    fleet: Fleet
    publishers: List[Publisher]
    users: List[PanelUser]
    pdns: PassiveDNSDatabase
    mapping: MappingService
    probes: ProbeMesh
    oracle: GroundTruthOracle
    maxmind: CommercialGeoDatabase
    ip_api: CommercialGeoDatabase
    easylist: FilterList
    easyprivacy: FilterList
    isps: List[ISPProfile]
    synthesizers: Dict[str, TrafficSynthesizer]


def build_world(config: Optional[WorldConfig] = None) -> World:
    """Construct the full simulated world for ``config`` (deterministic)."""
    config = config or WorldConfig.medium()
    registry = default_registry()
    streams = RngStreams(config.seed)

    plan = AddressPlan()
    as_registry = ASRegistry()
    clouds = CloudCatalog()
    clouds.attach_plan(plan)

    organizations = OrganizationFactory(config.ecosystem, streams).build()
    fleet = FleetBuilder(
        registry=registry,
        plan=plan,
        as_registry=as_registry,
        clouds=clouds,
        streams=streams,
        ipv6_share=config.ecosystem.ipv6_share,
    ).build(organizations)

    publishers = PublisherFactory(config.ecosystem, fleet, streams).build()
    users = build_panel(config.panel, registry, streams)

    pdns = PassiveDNSDatabase()
    mapping = MappingService(fleet, registry, pdns, streams)

    isps = default_isps()
    synthesizers = {
        isp.name: TrafficSynthesizer(
            isp=isp,
            fleet=fleet,
            plan=plan,
            config=config.isp,
        )
        for isp in isps
    }

    owner_seats: Dict[str, str] = {
        org.name: org.legal_country for org in organizations
    }
    for provider in clouds.providers():
        owner_seats[provider.name] = provider.legal_country
    for isp in isps:
        owner_seats[isp.name] = isp.country

    maxmind = CommercialGeoDatabase.build_maxmind_like(
        plan=plan,
        owner_seats=owner_seats,
        legal_seat_bias=config.geolocation.commercial_legal_seat_bias,
        streams=streams,
    )
    ip_api = derive_ip_api(
        primary=maxmind,
        plan=plan,
        agreement=config.geolocation.ip_api_agreement,
        streams=streams,
    )

    probes = ProbeMesh.build(registry, config.geolocation, streams)
    oracle = GroundTruthOracle(fleet, plan, registry)

    easylist, easyprivacy = build_filter_lists(fleet, streams)

    world = World(
        config=config,
        registry=registry,
        streams=streams,
        plan=plan,
        as_registry=as_registry,
        clouds=clouds,
        organizations=organizations,
        fleet=fleet,
        publishers=publishers,
        users=users,
        pdns=pdns,
        mapping=mapping,
        probes=probes,
        oracle=oracle,
        maxmind=maxmind,
        ip_api=ip_api,
        easylist=easylist,
        easyprivacy=easyprivacy,
        isps=isps,
        synthesizers=synthesizers,
    )
    run_background_resolutions(world)
    return world


#: per-process world memo: config digest → built world.  Worker processes
#: execute many shards against the same world; rebuilding it per shard
#: would dwarf the shard work itself.  Engines run on a library caller's
#: threads call this too, so the memo is lock-guarded.
_WORLD_MEMO: Dict[str, World] = {}
_WORLD_MEMO_LOCK = threading.Lock()


def cached_build_world(config: WorldConfig) -> World:
    """Build (or reuse) the world for ``config`` within this process.

    Keyed on the config's content digest, so two equal-but-distinct
    :class:`WorldConfig` objects share one world.  Runtime stage tasks
    treat the world as read-only (see :mod:`repro.runtime.graph`),
    which is what makes the sharing safe.
    """
    digest = config.digest()
    with _WORLD_MEMO_LOCK:
        world = _WORLD_MEMO.get(digest)
        if world is None:
            world = build_world(config)
            _WORLD_MEMO[digest] = world
    return world


def run_background_resolutions(
    world: World,
    epochs: int = 5,
    countries_per_epoch: int = 4,
    draws_per_country: int = 4,
    end_day: float = BACKGROUND_END_DAY,
) -> int:
    """Feed passive DNS with the rest of the world's resolutions.

    For each tracking FQDN, in each of ``epochs`` time slices spanning
    day 0 through ``end_day``, a handful of resolver vantages around the
    world resolve the name several times.  This (a) surfaces endpoint
    IPs the panel never received — the Sect. 3.3 completeness gain —
    and (b) keeps (domain, IP) validity windows alive through the ISP
    snapshot days.

    Returns the number of resolutions performed.
    """
    rng = world.streams.get("background-dns")
    codes = world.registry.codes()
    mapping = world.mapping
    performed = 0
    epoch_length = end_day / epochs
    for deployed in world.fleet.tracking_fqdns():
        for epoch in range(epochs):
            day_lo = epoch * epoch_length
            for _ in range(countries_per_epoch):
                country = codes[rng.randrange(len(codes))]
                vantage = mapping.country_site(country)
                for _ in range(draws_per_country):
                    at = day_lo + rng.random() * epoch_length
                    mapping.resolve(deployed.fqdn, vantage, at)
                    performed += 1
    return performed
