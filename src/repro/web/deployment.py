"""Server fleets and DNS deployment of the organizations.

For every organization the :class:`FleetBuilder`:

1. decides the PoP countries from the organization's deployment profile,
2. allocates server addresses — from the organization's own hosting
   pools, or from its cloud provider's published ranges when it has
   tenancy and the provider has a PoP in that country,
3. creates the FQDNs of each registrable domain according to the
   organization's kind (ad serving, RTB bidding, cookie sync, pixels,
   analytics tags, CDNs, clean widgets),
4. wires each FQDN to a subset of the fleet behind a DNS
   :class:`~repro.dnssim.authority.FqdnService` with the organization's
   mapping policy (cookie-sync and bid endpoints are load-balanced
   rather than latency-mapped, which is what creates the paper's DNS
   redirection potential in Table 5),
5. routes a fraction of cookie-sync FQDNs to shared *sync hub* servers
   operated by the ad exchanges — the multi-domain IPs of Figures 4/5.

The resulting :class:`Fleet` is the ground truth the rest of the
pipeline measures against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.cloud.providers import CloudCatalog
from repro.dnssim.authority import (
    AuthorityDirectory,
    FqdnService,
    SelectionPolicy,
    Zone,
)
from repro.errors import ConfigError
from repro.geodata.countries import CountryRegistry
from repro.netbase.allocator import AddressPlan
from repro.netbase.addr import IPAddress
from repro.netbase.asn import ASRegistry
from repro.util.rng import RngStreams, weighted_choice
from repro.web.organizations import (
    DeploymentProfile,
    EU_HUB_PRESENCE,
    EU_HUB_WEIGHTS,
    EU_HUBS_US_POP_PROB,
    GLOBAL_DENSE_EU_POP_PROB,
    GLOBAL_DENSE_OTHER_POP_PROB,
    Organization,
    OrgKind,
    ServiceRole,
)


@dataclass(frozen=True)
class Server:
    """One deployed server endpoint (satisfies the DNS Endpoint protocol)."""

    ip: IPAddress
    country: str
    lat: float
    lon: float
    org_name: str
    asn: int
    cloud_provider: Optional[str] = None


@dataclass(frozen=True)
class DeployedFqdn:
    """An FQDN with its owning organization, role, and DNS service."""

    fqdn: str
    domain: str
    org_name: str
    role: ServiceRole
    service: FqdnService


#: FQDN label pools per service role
_ROLE_LABELS: Dict[ServiceRole, Tuple[str, ...]] = {
    ServiceRole.AD_SERVING: ("ads", "ad", "serve", "delivery"),
    ServiceRole.RTB_BID: ("rtb", "bid", "bidder", "x"),
    ServiceRole.COOKIE_SYNC: ("sync", "match", "cs", "usersync", "cm"),
    ServiceRole.TRACKING_PIXEL: ("pixel", "px", "beacon", "t"),
    ServiceRole.ANALYTICS_TAG: ("stats", "analytics", "collect", "m"),
    ServiceRole.CDN: ("cdn", "static", "assets"),
    ServiceRole.CLEAN_WIDGET: ("widget", "chat", "embed", "api", "comments"),
}

#: which roles each organization kind deploys on its domains
_KIND_ROLES: Dict[OrgKind, Tuple[ServiceRole, ...]] = {
    OrgKind.HYPERSCALER: (
        ServiceRole.AD_SERVING, ServiceRole.RTB_BID, ServiceRole.CDN,
        ServiceRole.TRACKING_PIXEL, ServiceRole.COOKIE_SYNC,
        ServiceRole.ANALYTICS_TAG,
    ),
    OrgKind.AD_EXCHANGE: (
        ServiceRole.RTB_BID, ServiceRole.COOKIE_SYNC, ServiceRole.AD_SERVING,
    ),
    OrgKind.DSP: (
        ServiceRole.RTB_BID, ServiceRole.AD_SERVING, ServiceRole.COOKIE_SYNC,
    ),
    OrgKind.SSP: (ServiceRole.AD_SERVING, ServiceRole.RTB_BID),
    OrgKind.DMP: (ServiceRole.COOKIE_SYNC, ServiceRole.TRACKING_PIXEL),
    OrgKind.ANALYTICS: (ServiceRole.ANALYTICS_TAG, ServiceRole.TRACKING_PIXEL),
    OrgKind.TRACKER: (ServiceRole.TRACKING_PIXEL, ServiceRole.COOKIE_SYNC),
    OrgKind.ADULT_NETWORK: (
        ServiceRole.AD_SERVING, ServiceRole.COOKIE_SYNC,
        ServiceRole.TRACKING_PIXEL,
    ),
    OrgKind.CLEAN: (ServiceRole.CLEAN_WIDGET, ServiceRole.CDN),
}

#: servers per PoP country (min, max) by organization kind
_KIND_SERVERS_PER_POP: Dict[OrgKind, Tuple[int, int]] = {
    OrgKind.HYPERSCALER: (2, 5),
    OrgKind.AD_EXCHANGE: (1, 3),
    OrgKind.DSP: (1, 2),
    OrgKind.SSP: (1, 2),
    OrgKind.DMP: (1, 2),
    OrgKind.ANALYTICS: (1, 2),
    OrgKind.TRACKER: (1, 2),
    OrgKind.ADULT_NETWORK: (1, 2),
    OrgKind.CLEAN: (1, 2),
}

#: probability a cookie-sync FQDN is hosted on a shared exchange sync hub
SYNC_HUB_SHARE = 0.20


class Fleet:
    """The deployed world: servers, FQDNs, zones, and lookup indexes."""

    def __init__(self) -> None:
        self._orgs: Dict[str, Organization] = {}
        self._servers_by_org: Dict[str, List[Server]] = {}
        self._server_by_ip: Dict[IPAddress, Server] = {}
        self._fqdns: Dict[str, DeployedFqdn] = {}
        self.authorities = AuthorityDirectory()

    # -- registration (builder-facing) ----------------------------------
    def register_org(self, org: Organization) -> None:
        if org.name in self._orgs:
            raise ConfigError(f"duplicate organization {org.name}")
        self._orgs[org.name] = org
        self._servers_by_org[org.name] = []

    def register_server(self, server: Server) -> None:
        if server.ip in self._server_by_ip:
            raise ConfigError(f"duplicate server address {server.ip}")
        self._server_by_ip[server.ip] = server
        self._servers_by_org[server.org_name].append(server)

    def register_fqdn(self, deployed: DeployedFqdn) -> None:
        if deployed.fqdn in self._fqdns:
            raise ConfigError(f"duplicate FQDN {deployed.fqdn}")
        self._fqdns[deployed.fqdn] = deployed

    # -- queries ---------------------------------------------------------
    def organizations(self) -> List[Organization]:
        return [self._orgs[name] for name in sorted(self._orgs)]

    def org(self, name: str) -> Organization:
        try:
            return self._orgs[name]
        except KeyError:
            raise ConfigError(f"unknown organization {name!r}") from None

    def servers(self) -> List[Server]:
        return [self._server_by_ip[ip] for ip in sorted(self._server_by_ip)]

    def servers_of(self, org_name: str) -> List[Server]:
        return list(self._servers_by_org.get(org_name, ()))

    def server_for_ip(self, address: IPAddress) -> Optional[Server]:
        return self._server_by_ip.get(address)

    def fqdns(self) -> List[DeployedFqdn]:
        return [self._fqdns[name] for name in sorted(self._fqdns)]

    def fqdn(self, name: str) -> DeployedFqdn:
        try:
            return self._fqdns[name]
        except KeyError:
            raise ConfigError(f"unknown FQDN {name!r}") from None

    def find_fqdn(self, name: str) -> Optional[DeployedFqdn]:
        return self._fqdns.get(name)

    def fqdns_by_role(self, role: ServiceRole) -> List[DeployedFqdn]:
        return [d for d in self.fqdns() if d.role is role]

    def tracking_fqdns(self) -> List[DeployedFqdn]:
        return [
            d for d in self.fqdns() if self.org(d.org_name).is_tracking
        ]


class FleetBuilder:
    """Builds the :class:`Fleet` (servers + DNS) for an org population."""

    def __init__(
        self,
        registry: CountryRegistry,
        plan: AddressPlan,
        as_registry: ASRegistry,
        clouds: CloudCatalog,
        streams: RngStreams,
        ipv6_share: float = 0.025,
    ) -> None:
        self._registry = registry
        self._plan = plan
        self._as_registry = as_registry
        self._clouds = clouds
        self._rng = streams.get("deployment")
        self._ipv6_share = ipv6_share
        self._org_pools: Dict[Tuple[str, str, int], object] = {}
        self._sync_hubs: List[Server] = []

    # -- public API ---------------------------------------------------------
    def build(self, organizations: Sequence[Organization]) -> Fleet:
        fleet = Fleet()
        # Exchanges first so sync hubs exist before dependents deploy.
        ordered = sorted(
            organizations,
            key=lambda o: (o.kind is not OrgKind.AD_EXCHANGE, o.name),
        )
        for org in ordered:
            self._deploy_org(fleet, org)
        return fleet

    # -- per-organization deployment ------------------------------------
    def _deploy_org(self, fleet: Fleet, org: Organization) -> None:
        fleet.register_org(org)
        asn = self._as_registry.register(
            name=f"{org.name}-net",
            kind="hosting" if org.cloud_provider is None else "cloud",
            registered_country=org.legal_country,
        )
        pop_countries = self._pop_countries(org)
        zone_by_apex: Dict[str, Zone] = {}
        servers_by_domain: Dict[str, List[Server]] = {}
        lo, hi = _KIND_SERVERS_PER_POP[org.kind]
        for domain in org.domains:
            domain_servers: List[Server] = []
            for country in pop_countries:
                # US sites are disproportionately large (roughly half of
                # a US-seated operator's fleet sits at home) and
                # Amsterdam is Europe's biggest hosting hub; site sizes
                # shape the tracker-IP population (Table 3/4) and the
                # load-balanced share of each country, without changing
                # latency-mapped routing.
                multiplier = {"US": 6, "NL": 2, "DE": 1, "GB": 2}.get(
                    country, 1
                )
                for _ in range(multiplier * self._rng.randint(lo, hi)):
                    server = self._make_server(org, country, asn.number)
                    fleet.register_server(server)
                    domain_servers.append(server)
            servers_by_domain[domain] = domain_servers
            zone = Zone(apex=domain, owner=org.name)
            zone_by_apex[domain] = zone
            fleet.authorities.add(zone)

        for domain in org.domains:
            self._deploy_domain_fqdns(
                fleet, org, domain, servers_by_domain[domain],
                zone_by_apex[domain],
            )

        if org.kind is OrgKind.AD_EXCHANGE:
            self._designate_sync_hubs(org, servers_by_domain)

    def _pop_countries(self, org: Organization) -> List[str]:
        """PoP countries implied by the organization's deployment profile."""
        rng = self._rng
        if org.deployment is DeploymentProfile.GLOBAL_DENSE:
            # Near-certain markets are deterministic: every hyperscaler
            # operates in DE/GB/NL/IE/FR — with only a handful of such
            # organizations, a random miss on a top market would distort
            # the whole world.
            out = [
                country
                for country, prob in sorted(GLOBAL_DENSE_EU_POP_PROB.items())
                if prob >= 0.88 or rng.random() < prob
            ]
            out.extend(
                country
                for country, prob in sorted(GLOBAL_DENSE_OTHER_POP_PROB.items())
                if prob >= 0.88 or rng.random() < prob
            )
            if "US" not in out:
                out.append("US")
            return sorted(set(out))
        if org.deployment is DeploymentProfile.EU_HUBS:
            hubs: Set[str] = {
                country
                for country, prob in sorted(EU_HUB_PRESENCE.items())
                if rng.random() < prob
            }
            if not hubs:
                hubs.add("NL")
            seat_kind = "US" if org.legal_country == "US" else "EU"
            if rng.random() < EU_HUBS_US_POP_PROB[seat_kind]:
                hubs.add("US")
            return sorted(hubs)
        if org.deployment is DeploymentProfile.HOME_ONLY:
            return [org.legal_country]
        if org.deployment is DeploymentProfile.US_ONLY:
            return ["US"]
        if org.deployment is DeploymentProfile.REGIONAL:
            hubs = {org.legal_country}
            keys = sorted(EU_HUB_WEIGHTS)
            weights = [EU_HUB_WEIGHTS[k] for k in keys]
            for _ in range(rng.randint(1, 2)):
                hubs.add(weighted_choice(rng, keys, weights))
            return sorted(hubs)
        raise ConfigError(f"unknown deployment profile {org.deployment}")

    def _make_server(
        self, org: Organization, country_code: str, asn: int
    ) -> Server:
        country = self._registry.get(country_code)
        on_cloud = (
            org.cloud_provider is not None
            and self._clouds.get(org.cloud_provider).has_pop(country_code)
            and self._rng.random() < 0.8
        )
        if on_cloud:
            assert org.cloud_provider is not None
            ip = self._clouds.allocate_address(org.cloud_provider, country_code)
            cloud: Optional[str] = org.cloud_provider
        else:
            ip = self._allocate_own(org, country_code)
            cloud = None
        radius = 0.7 * country.jitter_radius_deg
        hub_lat, hub_lon = country.hosting_site
        lat = hub_lat + self._rng.uniform(-radius, radius)
        lon = hub_lon + self._rng.uniform(-1.5 * radius, 1.5 * radius)
        return Server(
            ip=ip, country=country_code, lat=lat, lon=lon,
            org_name=org.name, asn=asn, cloud_provider=cloud,
        )

    def _allocate_own(self, org: Organization, country: str) -> IPAddress:
        version = 6 if self._rng.random() < self._ipv6_share else 4
        key = (org.name, country, version)
        record = self._org_pools.get(key)
        if record is None:
            record = self._plan.create_pool(
                country=country,
                kind="hosting",
                owner=org.name,
                length=24 if version == 4 else 112,
                version=version,
            )
            self._org_pools[key] = record
        return self._plan.pool(record.prefix).allocate_address()  # type: ignore[attr-defined]

    # -- FQDN deployment -----------------------------------------------------
    def _deploy_domain_fqdns(
        self,
        fleet: Fleet,
        org: Organization,
        domain: str,
        domain_servers: List[Server],
        zone: Zone,
    ) -> None:
        roles = _KIND_ROLES[org.kind]
        rng = self._rng
        # Every domain carries 2..len(roles) of the organization's roles;
        # the first domain always carries the full set.
        if domain == org.primary_domain or len(roles) <= 2:
            chosen = list(roles)
        else:
            count = rng.randint(2, len(roles))
            chosen = sorted(
                rng.sample(list(roles), count), key=lambda r: r.value
            )
        for role in chosen:
            labels = _ROLE_LABELS[role]
            n_fqdns = 1 if rng.random() < 0.7 else 2
            for index in range(n_fqdns):
                label = labels[rng.randrange(len(labels))]
                fqdn = f"{label}{index if index else ''}.{domain}"
                if fleet.find_fqdn(fqdn) is not None:
                    fqdn = f"{label}{index + 2}.{domain}"
                endpoints = self._endpoints_for(
                    org, role, domain_servers
                )
                policy = self._policy_for(org, role)
                service = FqdnService(
                    fqdn=fqdn,
                    endpoints=endpoints,
                    policy=policy,
                    ttl=300 if org.kind is OrgKind.HYPERSCALER else 3600,
                )
                zone.add_service(service)
                fleet.register_fqdn(
                    DeployedFqdn(
                        fqdn=fqdn, domain=domain, org_name=org.name,
                        role=role, service=service,
                    )
                )

    def _endpoints_for(
        self,
        org: Organization,
        role: ServiceRole,
        domain_servers: List[Server],
    ) -> List[Server]:
        rng = self._rng
        if (
            role is ServiceRole.COOKIE_SYNC
            and org.kind in (OrgKind.DSP, OrgKind.DMP, OrgKind.TRACKER)
            and self._sync_hubs
            and rng.random() < SYNC_HUB_SHARE
        ):
            count = min(len(self._sync_hubs), rng.randint(2, 4))
            return sorted(
                rng.sample(self._sync_hubs, count), key=lambda s: s.ip
            )
        # Each FQDN uses a subset of the domain fleet: sampling countries
        # rather than servers keeps per-FQDN footprints geographically
        # meaningful and creates the TLD-over-FQDN redirect potential.
        # The anchor sites — the home country and the US mothership —
        # serve every FQDN.
        countries = sorted({s.country for s in domain_servers})
        keep_fraction = rng.uniform(0.75, 1.0)
        n_keep = max(1, round(len(countries) * keep_fraction))
        kept = set(rng.sample(countries, n_keep))
        anchors = [org.legal_country, "US"]
        if org.deployment is DeploymentProfile.GLOBAL_DENSE:
            # A globally dense operator never serves a top-tier market
            # from abroad: its major hubs carry every FQDN.
            anchors.extend(("DE", "GB", "NL", "FR", "IE"))
        for anchor in anchors:
            if anchor in countries:
                kept.add(anchor)
        endpoints = [s for s in domain_servers if s.country in kept]
        if not endpoints:
            endpoints = list(domain_servers)
        # Home-country endpoints first: the HOME policy answers with the
        # first endpoint, which must be the home deployment even when
        # the organization also keeps hub sites (those hub sites are
        # what make HOME-served flows DNS-redirectable in Table 5).
        return sorted(
            endpoints,
            key=lambda s: (s.country != org.legal_country, s.ip),
        )

    def _policy_for(
        self, org: Organization, role: ServiceRole
    ) -> SelectionPolicy:
        # Sync and bid endpoints are often load-balanced rather than
        # latency-mapped — the mapping investment goes to the serving
        # path, not the match path.
        if role in (ServiceRole.COOKIE_SYNC, ServiceRole.RTB_BID):
            if self._rng.random() < 0.7:
                return SelectionPolicy.WEIGHTED
        if role is ServiceRole.CDN:
            return SelectionPolicy.NEAREST
        return org.dns_policy

    def _designate_sync_hubs(
        self,
        org: Organization,
        servers_by_domain: Dict[str, List[Server]],
    ) -> None:
        """Mark one server of the exchange as a shared sync hub."""
        primary_servers = servers_by_domain.get(org.primary_domain, [])
        preferred = [
            s for s in primary_servers if s.country in ("US", "NL", "DE")
        ] or primary_servers
        for hub in sorted(preferred, key=lambda s: s.ip)[:2]:
            self._sync_hubs.append(hub)
