"""Per-ISP traffic synthesis for the snapshot days.

The synthesizer drives the *same* web ecosystem the panel browsed — the
same FQDNs, the same authoritative DNS, the same server fleet — from the
vantage of an ISP's subscriber population, and exports sampled NetFlow.
Per flow it:

1. draws a tracking FQDN weighted by organization market share (what an
   average subscriber's browser fetches),
2. chooses the subscriber's resolver path — the ISP resolver for mobile
   users and, with the configured probability, a third-party public
   resolver for broadband users (the provider-type effect of
   Sect. 7.3),
3. resolves the FQDN and emits a user→server flow with the paper's
   observed port/protocol mix (>83% on 443, QUIC's UDP share, <0.5%
   non-web).

A smaller stream of background (non-tracking) flows to clean-service
servers is mixed in so the join has realistic negatives.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    import random

from repro.config import ISPConfig
from repro.dnssim.authority import ClientSite
from repro.errors import NetFlowError
from repro.netbase.addr import IPAddress, Prefix
from repro.netbase.allocator import AddressPlan
from repro.netflow.exporter import FlowExporter, PacketSampler, RouterInterface
from repro.netflow.isps import ISPProfile
from repro.netflow.records import PROTO_TCP, PROTO_UDP, FlowRecord
from repro.util.rng import WeightedSampler
from repro.web.browser import MappingService
from repro.web.deployment import DeployedFqdn, Fleet
from repro.web.organizations import ServiceRole

#: relative request frequency by FQDN role (mirrors the browsing mix)
_ROLE_TRAFFIC_WEIGHT: Dict[ServiceRole, float] = {
    ServiceRole.AD_SERVING: 1.6,
    ServiceRole.RTB_BID: 0.4,
    ServiceRole.COOKIE_SYNC: 0.9,
    ServiceRole.TRACKING_PIXEL: 0.7,
    ServiceRole.ANALYTICS_TAG: 1.2,
    ServiceRole.CDN: 1.2,
}


class TrafficSynthesizer:
    """Synthesizes one ISP's sampled tracking (and background) flows."""

    def __init__(
        self,
        isp: ISPProfile,
        fleet: Fleet,
        plan: AddressPlan,
        config: ISPConfig,
        n_subscriber_ips: int = 512,
    ) -> None:
        self._isp = isp
        self._fleet = fleet
        self._config = config
        self._tracking_sampler = self._build_sampler(tracking=True)
        self._clean_sampler = self._build_sampler(tracking=False)
        self._local_share, self._local_sampler = self._build_local_sampler()
        subscriber_pool = plan.create_pool(
            country=isp.country,
            kind="eyeball",
            owner=isp.name,
            length=22,
        )
        pool = plan.pool(subscriber_pool.prefix)
        self._subscriber_ips: List[IPAddress] = [
            pool.allocate_address() for _ in range(n_subscriber_ips)
        ]
        self._subscriber_prefix: Prefix = subscriber_pool.prefix
        self.exporter = FlowExporter(
            interfaces=[
                RouterInterface(router_id=r, interface_id=i, internal_edge=(i % 2 == 0))
                for r in range(1, 5)
                for i in range(4)
            ],
            subscriber_space=[subscriber_pool.prefix],
            sampler=PacketSampler(config.sampling_rate),
        )

    @property
    def subscriber_prefix(self) -> Prefix:
        return self._subscriber_prefix

    def _build_sampler(self, tracking: bool) -> WeightedSampler:
        fleet = self._fleet
        items: List[DeployedFqdn] = []
        weights: List[float] = []
        for deployed in fleet.fqdns():
            org = fleet.org(deployed.org_name)
            if org.is_tracking != tracking:
                continue
            role_weight = _ROLE_TRAFFIC_WEIGHT.get(deployed.role, 0.5)
            items.append(deployed)
            weights.append(org.market_weight * role_weight)
        if not items:
            raise NetFlowError(
                f"fleet has no {'tracking' if tracking else 'clean'} FQDNs"
            )
        return WeightedSampler(items, weights)

    #: share of tracking traffic going to nationally-homed trackers
    #: before availability damping — subscribers browse national sites,
    #: which embed the national ad-tech scene (cf. RTBEngine affinity)
    LOCAL_AFFINITY = 0.72
    LOCAL_AVAILABILITY_K = 20.0

    def _build_local_sampler(
        self,
    ) -> Tuple[float, Optional[WeightedSampler]]:
        from repro.web.organizations import OrgKind

        fleet = self._fleet
        local_kinds = (OrgKind.TRACKER, OrgKind.DMP, OrgKind.ANALYTICS)
        items: List[DeployedFqdn] = []
        weights: List[float] = []
        for deployed in fleet.fqdns():
            org = fleet.org(deployed.org_name)
            if (
                org.is_tracking
                and org.kind in local_kinds
                and org.legal_country == self._isp.country
            ):
                items.append(deployed)
                weights.append(org.market_weight)
        if not items:
            return 0.0, None
        share = self.LOCAL_AFFINITY * len(items) / (
            len(items) + self.LOCAL_AVAILABILITY_K
        )
        return share, WeightedSampler(items, weights)

    # -- public API ---------------------------------------------------------
    def snapshot(
        self,
        day: float,
        *,
        rng: "random.Random",
        mapping: MappingService,
    ) -> List[FlowRecord]:
        """Synthesize the sampled flows of one 24h snapshot.

        Every draw comes from ``rng`` and every resolution goes through
        ``mapping``.  The runtime passes each ISP shard a stream derived
        from the shard and a private mapping clone, so shards depend on
        neither each other nor the shared world.
        """
        n_tracking = self._config.sampled_flows.get(self._isp.name)
        if n_tracking is None:
            raise NetFlowError(
                f"no sampled-flow budget configured for {self._isp.name}"
            )
        records: List[FlowRecord] = []
        for _ in range(n_tracking):
            sampler = self._tracking_sampler
            if (
                self._local_sampler is not None
                and rng.random() < self._local_share
            ):
                sampler = self._local_sampler
            records.append(self._make_flow(day, sampler, rng, mapping))
        for _ in range(self._config.background_flows):
            records.append(self._make_flow(day, self._clean_sampler, rng, mapping))
        records.sort(key=lambda r: r.timestamp)
        return [r for r in self.exporter.export(records)]

    # -- internals -----------------------------------------------------
    #: probability a public-resolver query carries EDNS-Client-Subnet,
    #: letting the authority see the subscriber's own country anyway
    ECS_SHARE = 0.75

    def _resolver_vantage(
        self, rng: "random.Random", mapping: MappingService
    ) -> ClientSite:
        if self._isp.is_mobile:
            public_share = self._config.mobile_public_resolver_share
        else:
            public_share = self._config.broadband_public_resolver_share
        uses_public = rng.random() < public_share
        if uses_public and rng.random() >= self.ECS_SHARE:
            return mapping.vantage_for(
                self._isp.country, True, rng.randrange(3)
            )
        # ISP resolver path: the authority sees the resolver's egress.
        mix = self._isp.resolved_egress_mix()
        countries = sorted(mix)
        point = rng.random() * sum(mix.values())
        cumulative = 0.0
        egress = countries[-1]
        for country in countries:
            cumulative += mix[country]
            if point <= cumulative:
                egress = country
                break
        return mapping.country_site(egress)

    def _make_flow(
        self,
        day: float,
        sampler: WeightedSampler,
        rng: "random.Random",
        mapping: MappingService,
    ) -> FlowRecord:
        deployed: DeployedFqdn = sampler.sample(rng)
        vantage = self._resolver_vantage(rng, mapping)
        server = mapping.resolve(deployed.fqdn, vantage, day)
        interface = self.exporter.pick_interface(rng)

        if rng.random() < self._config.non_web_share:
            dst_port = rng.randint(1024, 60000)
            protocol = PROTO_TCP
        elif rng.random() < self._config.https_share:
            dst_port = 443
            # QUIC rides UDP/443 (Sect. 7.2's UDP observation).
            protocol = PROTO_UDP if rng.random() < 0.3 else PROTO_TCP
        else:
            dst_port = 80
            protocol = PROTO_TCP

        packets = 1 + min(30, int(rng.expovariate(0.5)))
        return FlowRecord(
            timestamp=day + rng.random(),
            router_id=interface.router_id,
            interface_id=interface.interface_id,
            protocol=protocol,
            src_ip=self._subscriber_ips[
                rng.randrange(len(self._subscriber_ips))
            ],
            dst_ip=server.ip,
            src_port=rng.randint(32768, 60999),
            dst_port=dst_port,
            tos=0,
            sampled_packets=packets,
            sampled_bytes=packets * rng.randint(120, 1400),
        )
