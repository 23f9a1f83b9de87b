"""Browser-extension simulator (Sect. 3.1).

Drives the panel users through their browsing sessions and emits the
dataset the real extension collected: one record per outgoing
third-party request with the first-party domain, the full third-party
URL, the referrer, and the server IP that answered.

DNS behaviour is faithful to the confinement mechanics:

* users on their ISP resolver are mapped from their own country;
* users on a third-party public resolver are mapped from the resolver
  site their queries are anycast-routed to (often a neighbouring
  country);
* latency-mapped (NEAREST/HOME) answers are cached per
  (FQDN, vantage country); load-balanced answers are drawn per query.
  The cache belongs to one :class:`MappingService` (the engine builds
  one per shard) and is part of the simulated resolver's behaviour: it
  hands the first answer computed for a country to every vantage site
  in that country.  Beneath it, each
  :class:`~repro.dnssim.authority.FqdnService` memoizes its world-fixed
  answer geometry per vantage site, which saves cost only and changes
  no answer.

Every resolution is reported to the passive-DNS collector, which is what
later makes the tracker-IP completeness step possible.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import BrowsingConfig, PanelConfig
from repro.dnssim.authority import ClientSite, FqdnService, SelectionPolicy
from repro.dnssim.passive import PassiveDNSDatabase
from repro.dnssim.resolver import PublicResolver, default_public_resolvers
from repro.errors import ConfigError
from repro.geodata.countries import CountryRegistry
from repro.util.rng import RngStreams, WeightedSampler, poisson
from repro.web.deployment import Fleet, Server
from repro.web.publishers import Publisher
from repro.web.requests import ThirdPartyRequest, Visit, build_url, tld1_of
from repro.web.rtb import RequestSpec, RTBEngine
from repro.web.users import PanelUser


class MappingService:
    """DNS resolution front-end with per-vantage caching.

    Answers the question "which server IP does this user get for this
    FQDN right now", recording every resolution into passive DNS.
    """

    def __init__(
        self,
        fleet: Fleet,
        registry: CountryRegistry,
        pdns: PassiveDNSDatabase,
        streams: RngStreams,
        public_resolvers: Optional[Sequence[PublicResolver]] = None,
    ) -> None:
        self._fleet = fleet
        self._registry = registry
        self._pdns = pdns
        self._rng = streams.get("dns-mapping")
        self.public_resolvers: List[PublicResolver] = list(
            public_resolvers
            if public_resolvers is not None
            else default_public_resolvers()
        )
        self._site_cache: Dict[str, ClientSite] = {}
        self._answer_cache: Dict[Tuple[str, str], Server] = {}
        #: FQDN -> (its service, whether its answer is fixed per vantage
        #: country), looked up in the fleet once per FQDN
        self._plans: Dict[str, Tuple[FqdnService, bool]] = {}

    def country_site(self, country: str) -> ClientSite:
        """The canonical query vantage for clients in ``country``.

        Resolver queries egress at the national interconnection hub
        (Frankfurt for Germany, not Berlin), which is where authorities
        actually see them coming from.
        """
        site = self._site_cache.get(country)
        if site is None:
            record = self._registry.get(country)
            lat, lon = record.hosting_site
            site = ClientSite(country, lat, lon)
            self._site_cache[country] = site
        return site

    def vantage_for(
        self,
        country: str,
        uses_public_resolver: bool,
        public_resolver_index: int = 0,
    ) -> ClientSite:
        """Where the authority sees the query coming from."""
        site = self.country_site(country)
        if not uses_public_resolver or not self.public_resolvers:
            return site
        resolver = self.public_resolvers[
            public_resolver_index % len(self.public_resolvers)
        ]
        return resolver.site_for(site)

    def resolve(self, fqdn: str, vantage: ClientSite, day: float) -> Server:
        """Resolve ``fqdn`` from ``vantage``; returns the serving endpoint.

        An FQDN the fleet does not deploy raises :class:`ConfigError`.
        """
        plan = self._plans.get(fqdn)
        if plan is None:
            service = self._fleet.fqdn(fqdn).service
            per_country = service.policy in (
                SelectionPolicy.NEAREST, SelectionPolicy.HOME,
            )
            plan = self._plans[fqdn] = (service, per_country)
        service, per_country = plan
        if per_country:
            key = (fqdn, vantage.country)
            server = self._answer_cache.get(key)
            if server is None:
                server = service.select(vantage, self._rng)  # type: ignore[assignment]
                self._answer_cache[key] = server  # type: ignore[assignment]
        else:
            server = service.select(vantage, self._rng)  # type: ignore[assignment]
        self._pdns.observe(fqdn, server.ip, day)
        return server  # type: ignore[return-value]


@dataclass
class VisitLog:
    """The panel dataset: visits plus all third-party requests."""

    visits: List[Visit] = field(default_factory=list)
    requests: List[ThirdPartyRequest] = field(default_factory=list)

    # -- Table 1 statistics -----------------------------------------------
    def n_users(self) -> int:
        return len({v.user_id for v in self.visits})

    def first_party_domains(self) -> int:
        return len({v.publisher_domain for v in self.visits})

    def first_party_requests(self) -> int:
        return len(self.visits)

    def third_party_fqdns(self) -> int:
        return len({r.fqdn for r in self.requests})

    def third_party_requests(self) -> int:
        return len(self.requests)

    def https_share(self) -> float:
        if not self.requests:
            return 0.0
        return sum(1 for r in self.requests if r.https) / len(self.requests)


class BrowserExtensionSimulator:
    """Simulates the panel's browsing and the extension's logging."""

    def __init__(
        self,
        fleet: Fleet,
        publishers: Sequence[Publisher],
        users: Sequence[PanelUser],
        panel_config: PanelConfig,
        browsing_config: BrowsingConfig,
        registry: CountryRegistry,
        mapping: MappingService,
        streams: RngStreams,
    ) -> None:
        if not publishers:
            raise ConfigError("no publishers to browse")
        self._fleet = fleet
        self._publishers = list(publishers)
        self._users = list(users)
        self._panel_config = panel_config
        self._browsing = browsing_config
        self._registry = registry
        self._mapping = mapping
        self._streams = streams
        self._rtb = RTBEngine(fleet, browsing_config)
        #: FQDN -> its TLD+1, derived once per FQDN this simulator renders
        self._tld1s: Dict[str, str] = {}
        self._home_samplers: Dict[str, WeightedSampler] = {}
        by_country: Dict[str, List[Publisher]] = {}
        for publisher in self._publishers:
            by_country.setdefault(publisher.country, []).append(publisher)
        for country, group in by_country.items():
            self._home_samplers[country] = WeightedSampler(
                group, [p.popularity for p in group]
            )
        self._foreign_samplers = self._build_foreign_samplers()

    #: how users weight foreign publishers by region group: browsing is
    #: language/market-bound — Latin-American users read US sites far
    #: more than European ones, which is what routes South-American
    #: tracking flows to North America (Fig. 6).
    _REGION_BROWSE_MATRIX: Dict[str, Dict[str, float]] = {
        "EU": {"EU": 1.0, "AMER": 0.6, "OTHER": 0.25},
        "AMER": {"AMER": 1.0, "EU": 0.12, "OTHER": 0.25},
        "OTHER": {"OTHER": 1.0, "AMER": 1.2, "EU": 0.35},
    }

    @staticmethod
    def _region_group(continent: str) -> str:
        if continent == "EU":
            return "EU"
        if continent in ("NA", "SA"):
            return "AMER"
        return "OTHER"

    def _build_foreign_samplers(self) -> Dict[str, WeightedSampler]:
        out: Dict[str, WeightedSampler] = {}
        groups = {
            p.domain: self._region_group(
                self._registry.get(p.country).continent
            )
            for p in self._publishers
        }
        for user_group, row in self._REGION_BROWSE_MATRIX.items():
            weights = [
                p.popularity * row[groups[p.domain]]
                for p in self._publishers
            ]
            out[user_group] = WeightedSampler(self._publishers, weights)
        return out

    # -- public API ---------------------------------------------------------
    def simulate(self) -> VisitLog:
        """Run the whole panel and return the collected dataset."""
        log = VisitLog()
        for user in self._users:
            rng = self._streams.fork(f"user-{user.user_id}")
            self._simulate_user(user, rng, log)
        return log

    # -- internals -----------------------------------------------------
    def _simulate_user(
        self, user: PanelUser, rng: random.Random, log: VisitLog
    ) -> None:
        n_visits = max(
            1, poisson(rng, self._panel_config.visits_per_user * user.activity)
        )
        # With EDNS-Client-Subnet the authority sees the user's country
        # even behind a third-party resolver.
        foreign_vantage = user.uses_public_resolver and not user.resolver_ecs
        vantage = self._mapping.vantage_for(
            user.country, foreign_vantage, user.public_resolver_index
        )
        for _ in range(n_visits):
            publisher = self._pick_publisher(user, rng)
            day = rng.uniform(0.0, self._panel_config.days)
            log.visits.append(
                Visit(
                    user_id=user.user_id,
                    user_country=user.country,
                    publisher_domain=publisher.domain,
                    day=day,
                )
            )
            self._render_visit(user, vantage, publisher, day, rng, log)

    def _pick_publisher(
        self, user: PanelUser, rng: random.Random
    ) -> Publisher:
        group = self._region_group(
            self._registry.get(user.country).continent
        )
        sampler = self._foreign_samplers[group]
        if rng.random() < user.home_bias:
            home = self._home_samplers.get(user.country)
            if home is not None:
                sampler = home
        publisher = sampler.sample(rng)
        if publisher.is_sensitive and rng.random() > min(
            1.0, user.sensitive_affinity
        ):
            # The user bounces off the sensitive site; redraw once.
            publisher = sampler.sample(rng)
        return publisher

    def _render_visit(
        self,
        user: PanelUser,
        vantage: ClientSite,
        publisher: Publisher,
        day: float,
        rng: random.Random,
        log: VisitLog,
    ) -> None:
        browsing = self._browsing
        user_token = f"u{user.user_id:05d}"
        specs_chains: List[List[RequestSpec]] = []

        n_slots = poisson(rng, browsing.mean_ad_slots)
        for _ in range(n_slots):
            partner = publisher.ad_partners[
                rng.randrange(len(publisher.ad_partners))
            ]
            specs_chains.append(
                self._rtb.ad_slot_chain(publisher, partner, user_token, rng)
            )

        n_tags = poisson(rng, browsing.mean_analytics_tags)
        for _ in range(n_tags):
            partner = publisher.analytics_partners[
                rng.randrange(len(publisher.analytics_partners))
            ]
            specs_chains.append(
                [self._rtb.analytics_request(partner, user_token, rng)]
            )

        n_clean = poisson(
            rng, browsing.mean_clean_widgets * browsing.mean_clean_requests
        )
        for _ in range(n_clean):
            partner = publisher.clean_partners[
                rng.randrange(len(publisher.clean_partners))
            ]
            specs_chains.append([self._rtb.clean_request(partner, rng)])

        # Each request's URL facts come from the spec its URL is built
        # from, so no URL is split again: the host is the spec's FQDN, and
        # the URL has arguments exactly when the spec does.  TLD+1s are
        # interned as a parsed request's are, so FQDNs under one domain
        # share one string and the panel pickles as it would parsed.
        tld1s = self._tld1s
        first_party_url = f"https://{publisher.domain}/"
        for chain in specs_chains:
            urls: List[str] = []
            depths: List[int] = []
            for spec in chain:
                fqdn = spec.fqdn
                server = self._mapping.resolve(fqdn, vantage, day)
                https = rng.random() < 0.834
                url = build_url(fqdn, spec.path, spec.args, https)
                urls.append(url)
                tld1 = tld1s.get(fqdn)
                if tld1 is None:
                    tld1 = tld1s[fqdn] = sys.intern(tld1_of(fqdn))
                if spec.parent is None:
                    referrer = first_party_url
                    depth = 0
                else:
                    referrer = urls[spec.parent]
                    depth = depths[spec.parent] + 1
                depths.append(depth)
                log.requests.append(
                    ThirdPartyRequest(
                        first_party=publisher.domain,
                        url=url,
                        referrer=referrer,
                        ip=server.ip,
                        user_id=user.user_id,
                        user_country=user.country,
                        day=day,
                        https=https,
                        truth_role=spec.role,
                        truth_org=spec.org_name,
                        truth_country=server.country,
                        chain_depth=depth,
                        facts=(fqdn, tld1, bool(spec.args)),
                    )
                )
