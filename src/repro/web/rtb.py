"""RTB auction and cookie-sync chain generation (Fig. 1's message flow).

Rendering an ad slot triggers a chain of third-party requests:

1. the **initial ad call** to the SSP / ad network owning the slot
   (fired from the first-party context, referrer = the page URL);
2. a **bid request** to an ad exchange;
3. the **winning DSP's creative** delivery;
4. a **cookie-sync cascade**: user-matching redirects bouncing between
   DSPs, DMPs and long-tail trackers, each carrying identifiers in URL
   arguments and refering to the previous hop;
5. **impression / retargeting pixels** fired by the rendered creative.

Steps 1–3 hit domains list maintainers see every day; steps 4–5 mostly
hit domains that only ever appear *because nothing was blocked* — the
population the paper's semi-automatic classifier recovers (Sect. 3.2).
"""

from __future__ import annotations

import random
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.config import BrowsingConfig
from repro.errors import ConfigError
from repro.util.rng import WeightedSampler, poisson
from repro.web.deployment import DeployedFqdn, Fleet
from repro.web.organizations import OrgKind, ServiceRole
from repro.web.publishers import Publisher

#: the empirically-built tracking keyword list (paper Sect. 3.2); the
#: classifier's keyword stage matches these against URL paths.
TRACKING_KEYWORDS: Tuple[str, ...] = (
    "usermatch", "cookiesync", "rtb", "getuid", "usersync", "cookiematch",
    "bidswitch", "idsync",
)

#: cookie-sync path pool — roughly 60% carry a detector keyword, the rest
#: are opaque and only discoverable through the referrer closure.
_SYNC_PATHS: Tuple[str, ...] = (
    "/usermatch", "/cookiesync", "/cm/usersync", "/getuid/redir",
    "/idsync/pixel", "/rtb/match",
    "/p/r", "/d/px", "/u/1", "/x/m",
)

_PIXEL_PATHS: Tuple[str, ...] = (
    "/beacon/track", "/pixel/imp", "/t/conv", "/p/view",
)

_CREATIVE_PATHS: Tuple[str, ...] = (
    "/adserve/creative", "/ads/banner/render", "/delivery/show",
)

_BID_PATHS: Tuple[str, ...] = ("/rtb/bid", "/openrtb2/auction", "/bidder/br")

_INITIAL_PATHS: Tuple[str, ...] = ("/adserve/slot", "/ads/banner", "/tag/js")


class RequestSpec(NamedTuple):
    """A request blueprint before DNS resolution / URL materialization.

    ``parent`` is the index (within the chain) of the request whose URL
    becomes this request's referrer; ``None`` means the first-party page
    is the referrer (code executing in first-party context).

    A panel renders one spec per third-party request, so a spec is a
    named tuple built positionally: that costs about half a frozen
    dataclass's keyword construction.  Specs are in-memory blueprints
    that nothing pickles, hashes or stores; callers read attributes only.
    """

    fqdn: str
    org_name: str
    role: ServiceRole
    path: str
    args: Dict[str, str]
    parent: Optional[int]


class RTBEngine:
    """Generates per-ad-slot request chains against a deployed fleet."""

    def __init__(
        self,
        fleet: Fleet,
        config: BrowsingConfig,
    ) -> None:
        from repro.geodata.countries import default_registry

        self._fleet = fleet
        self._config = config
        self._registry = default_registry()
        # Per-stage organization-kind multipliers: hyperscalers dominate
        # the list-visible serving path, but user matching bounces mostly
        # between the RTB middle tier — the list-invisible population.
        self._exchange_bid = self._sampler(
            role=ServiceRole.RTB_BID,
            kind_weights={
                OrgKind.AD_EXCHANGE: 1.0,
                OrgKind.HYPERSCALER: 0.40,
            },
        )
        self._dsp_creative = self._sampler(
            role=ServiceRole.AD_SERVING,
            kind_weights={OrgKind.DSP: 1.0, OrgKind.HYPERSCALER: 0.45},
        )
        self._sync = self._sampler(
            role=ServiceRole.COOKIE_SYNC,
            kind_weights={
                OrgKind.DSP: 1.6,
                OrgKind.DMP: 2.8,
                OrgKind.TRACKER: 0.35,
                OrgKind.HYPERSCALER: 0.05,
                OrgKind.AD_EXCHANGE: 0.35,
            },
        )
        # Non-European publishers rarely embed the European tracker long
        # tail: same pool, EU-seated long-tail weight damped.
        self._sync_non_eu = self._sampler(
            role=ServiceRole.COOKIE_SYNC,
            kind_weights={
                OrgKind.DSP: 1.6,
                OrgKind.DMP: 2.8,
                OrgKind.TRACKER: 0.35,
                OrgKind.HYPERSCALER: 0.05,
                OrgKind.AD_EXCHANGE: 0.35,
            },
            eu_longtail_damp=0.05,
        )
        self._adult_sync = self._sampler(
            role=ServiceRole.COOKIE_SYNC,
            kind_weights={OrgKind.ADULT_NETWORK: 1.0},
            allow_empty=True,
        )
        self._pixel = self._sampler(
            role=ServiceRole.TRACKING_PIXEL,
            kind_weights={
                OrgKind.DMP: 1.6,
                OrgKind.TRACKER: 0.5,
                OrgKind.HYPERSCALER: 0.30,
                OrgKind.ANALYTICS: 0.6,
            },
        )
        self._local_sync = self._build_local_samplers()

    def _sampler(
        self,
        role: ServiceRole,
        kind_weights: Dict[OrgKind, float],
        allow_empty: bool = False,
        eu_longtail_damp: float = 1.0,
    ) -> Optional[WeightedSampler]:
        fleet = self._fleet
        candidates: List[DeployedFqdn] = []
        weights: List[float] = []
        for deployed in fleet.fqdns_by_role(role):
            org = fleet.org(deployed.org_name)
            multiplier = kind_weights.get(org.kind)
            if multiplier is not None:
                weight = org.market_weight * multiplier
                if (
                    eu_longtail_damp != 1.0
                    and org.kind in (OrgKind.TRACKER, OrgKind.DMP)
                    and org.legal_country != "US"
                ):
                    weight *= eu_longtail_damp
                candidates.append(deployed)
                weights.append(weight)
        if not candidates:
            if allow_empty:
                return None
            raise ConfigError(
                f"no FQDNs with role {role.value} among "
                f"{[k.value for k in kind_weights]}"
            )
        return WeightedSampler(candidates, weights)

    #: probability a publisher's user-matching traffic goes to a tracker
    #: homed in the publisher's own country (before availability damping)
    LOCAL_AFFINITY = 0.62
    #: availability damping half-size: a country with K local tracking
    #: FQDNs realizes LOCAL_AFFINITY * K / (K + this)
    LOCAL_AVAILABILITY_K = 10.0

    def _build_local_samplers(self) -> Dict[str, Tuple[float, WeightedSampler]]:
        """Per-country samplers over locally-homed user-matching FQDNs.

        Local trackers are the national ad-tech scene: analytics houses,
        retargeters and DMPs whose legal seat *and* (HOME deployments)
        servers sit in the publisher's country.  The effective local
        share is damped by how developed that scene is, which is what
        separates Germany's 69% national confinement from Poland's
        0.25% (Fig. 12).
        """
        fleet = self._fleet
        local_kinds = (OrgKind.TRACKER, OrgKind.DMP)
        grouped: Dict[str, List[DeployedFqdn]] = {}
        for role in (ServiceRole.COOKIE_SYNC, ServiceRole.TRACKING_PIXEL):
            for deployed in fleet.fqdns_by_role(role):
                org = fleet.org(deployed.org_name)
                if org.kind in local_kinds:
                    grouped.setdefault(org.legal_country, []).append(deployed)
        out: Dict[str, Tuple[float, WeightedSampler]] = {}
        for country, pool in grouped.items():
            share = self.LOCAL_AFFINITY * len(pool) / (
                len(pool) + self.LOCAL_AVAILABILITY_K
            )
            weights = [
                fleet.org(d.org_name).market_weight for d in pool
            ]
            out[country] = (share, WeightedSampler(pool, weights))
        return out

    def local_share(self, country: str) -> float:
        """Effective local-tracker share for publishers in ``country``."""
        entry = self._local_sync.get(country)
        return entry[0] if entry is not None else 0.0

    def _matching_endpoint(
        self, publisher: Publisher, rng: random.Random
    ) -> DeployedFqdn:
        """Pick a user-matching endpoint honouring local affinity."""
        entry = self._local_sync.get(publisher.country)
        if entry is not None and rng.random() < entry[0]:
            return entry[1].sample(rng)
        country = self._registry.find(publisher.country)
        if country is not None and country.continent != "EU":
            return self._sync_non_eu.sample(rng)
        return self._sync.sample(rng)

    # -- chain generation ---------------------------------------------------
    def ad_slot_chain(
        self,
        publisher: Publisher,
        initial_fqdn: str,
        user_token: str,
        rng: random.Random,
    ) -> List[RequestSpec]:
        """The full request chain triggered by rendering one ad slot."""
        fleet = self._fleet
        chain: List[RequestSpec] = []
        initial = fleet.fqdn(initial_fqdn)
        adult = publisher.sensitive_category == "porn"

        # 1. initial ad call, from first-party context
        chain.append(
            RequestSpec(
                initial.fqdn,
                initial.org_name,
                initial.role,
                rng.choice(_INITIAL_PATHS),
                {"pid": publisher.domain, "slot": str(rng.randint(1, 6))},
                None,
            )
        )

        # 2..  the list-visible auction part
        n_visible = poisson(rng, max(0.0, self._config.mean_chain_visible - 1.0))
        auction_id = f"a{rng.randrange(1 << 24):x}"
        last_visible = 0
        for index in range(n_visible):
            if index == 0:
                deployed = self._exchange_bid.sample(rng)
                path = rng.choice(_BID_PATHS)
                args = {"auc": auction_id, "uid": user_token}
                parent: Optional[int] = None  # fired from first-party context
            else:
                deployed = self._dsp_creative.sample(rng)
                path = rng.choice(_CREATIVE_PATHS)
                args = {
                    "auc": auction_id,
                    "price": f"{rng.uniform(0.1, 4.0):.2f}",
                }
                parent = len(chain) - 1
            chain.append(
                RequestSpec(
                    deployed.fqdn, deployed.org_name, deployed.role, path,
                    args, parent,
                )
            )
            last_visible = len(chain) - 1

        # 3. the cookie-sync cascade (list-invisible tail)
        n_descendants = poisson(rng, self._config.mean_chain_descendants)
        adult_sync = (
            adult and self._adult_sync is not None and rng.random() < 0.8
        )
        previous = last_visible
        for index in range(n_descendants):
            if index < max(1, n_descendants - 1) or self._pixel is None:
                if adult_sync:
                    deployed = self._adult_sync.sample(rng)
                else:
                    deployed = self._matching_endpoint(publisher, rng)
                path = rng.choice(_SYNC_PATHS)
                args = {
                    "uid": user_token,
                    "sid": str(rng.randrange(64)),
                }
                if rng.random() < 0.5:
                    args["r"] = "1"
            else:
                entry = self._local_sync.get(publisher.country)
                if entry is not None and rng.random() < entry[0]:
                    deployed = entry[1].sample(rng)
                else:
                    deployed = self._pixel.sample(rng)
                path = rng.choice(_PIXEL_PATHS)
                args = {"uid": user_token, "ev": "imp"}
            chain.append(
                RequestSpec(
                    deployed.fqdn, deployed.org_name, deployed.role, path,
                    args, previous,
                )
            )
            previous = len(chain) - 1

        return chain

    def analytics_request(
        self, fqdn: str, user_token: str, rng: random.Random
    ) -> RequestSpec:
        """One analytics-tag hit (fired from first-party context)."""
        deployed = self._fleet.fqdn(fqdn)
        return RequestSpec(
            deployed.fqdn,
            deployed.org_name,
            deployed.role,
            "/collect",
            {"ev": rng.choice(("pv", "sc", "cl")), "uid": user_token},
            None,
        )

    def clean_request(
        self, fqdn: str, rng: random.Random
    ) -> RequestSpec:
        """One clean-widget hit: chat, comments, fonts, static assets."""
        deployed = self._fleet.fqdn(fqdn)
        args: Dict[str, str] = {}
        if rng.random() < 0.2:
            args = {"v": str(rng.randint(1, 9))}
        return RequestSpec(
            deployed.fqdn,
            deployed.org_name,
            deployed.role,
            rng.choice(
                ("/embed/widget.js", "/chat/frame", "/comments/load",
                 "/fonts/pack.css", "/static/app.js")
            ),
            args,
            None,
        )
