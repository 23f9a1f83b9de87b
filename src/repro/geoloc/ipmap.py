"""Active-measurement IP geolocation (the RIPE IPmap substitute).

For every target IP the engine runs a *campaign* (Sect. 3.4): it selects
~100 probes, has each measure a minimum RTT to the target, and combines
the measurements by constraint-based multilateration:

1. Every RTT implies a hard distance upper bound (speed of light in
   fibre) and an *expected* distance (the bound deflated by the typical
   path stretch).
2. Candidate **sites** are the locations of all probes in the mesh plus
   every country centroid; the campaign shortlist keeps the sites
   feasible under the best (smallest-RTT) probe's hard bound.  Probe-
   to-site distances are fixed per world, so campaigns index them in
   the mesh's shared distance rows (:meth:`ProbeMesh.distance_rows`).
3. The estimate is the shortlisted site minimizing the joint misfit
   over the closest probes: hard-bound violations are heavily
   penalized, residual ring misfit |distance − expected| is summed.
4. Each close probe also casts a **vote** — its own best-fitting
   shortlisted site's country — reproducing the paper's observation
   that votes agree on the continent essentially always and on the
   country with a >90% majority, with residual disagreement between
   neighbouring countries.

The engine never reads the target's true country — only RTTs generated
from physics against the ground-truth coordinates.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.config import GeolocationConfig
from repro.errors import GeolocationError
from repro.geodata.countries import CountryRegistry
from repro.geodata.distance import (
    BASE_OVERHEAD_MS,
    DEFAULT_PATH_STRETCH,
    great_circle_row_km,
    min_rtt_ms,
    rtt_upper_bound_km,
)
from repro.geodata.regions import Region, region_of_country
from repro.geoloc.probes import Probe, ProbeMesh
from repro.geoloc.truth import GroundTruthOracle
from repro.netbase.addr import IPAddress
from repro.obs import metrics as obs_metrics
from repro.obs import names as obs_names
from repro.util.rng import RngStreams, seeded_rng, spawn_rng


@dataclass(frozen=True)
class GeolocationEstimate:
    """The outcome of one geolocation campaign."""

    address: IPAddress
    country: Optional[str]
    #: fraction of voting probes agreeing with the winning country
    country_agreement: float
    #: fraction of voting probes agreeing with the winning region
    region_agreement: float
    votes: Tuple[Tuple[str, int], ...]

    @property
    def region(self) -> Region:
        return region_of_country(self.country)


@dataclass(frozen=True)
class _Site:
    country: str
    lat: float
    lon: float


class IPmapEngine:
    """Runs active-geolocation campaigns and caches per-IP estimates."""

    #: probes contributing to the joint fit and casting votes
    N_VOTERS = 24
    #: jointly-plausible finalist sites the votes are cast among
    N_FINALISTS = 6
    #: slack (km) added to hard bounds: candidate sites are discrete
    #: landmarks, the true server can sit a few hundred km from one
    SITE_SLACK_KM = 300.0
    #: penalty weight per km of hard-bound violation in the joint fit
    VIOLATION_WEIGHT = 50.0

    def __init__(
        self,
        mesh: ProbeMesh,
        oracle: GroundTruthOracle,
        registry: CountryRegistry,
        config: GeolocationConfig,
        streams: RngStreams,
        campaign_seed: Optional[int] = None,
    ) -> None:
        self._mesh = mesh
        self._oracle = oracle
        self._registry = registry
        self._config = config
        self._rng = streams.get("ipmap")
        # With a campaign seed set, each address gets an RNG derived from
        # (seed, address) alone — campaigns are then independent of the
        # order addresses are geolocated in, which lets the runtime shard
        # the IP axis across workers without changing any estimate.
        self._campaign_seed = campaign_seed
        self._cache: Dict[IPAddress, GeolocationEstimate] = {}
        self._sites: List[_Site] = [
            _Site(probe.country, probe.lat, probe.lon)
            for probe in mesh.probes()
        ]
        self._sites.extend(
            _Site(c.iso2, c.lat, c.lon) for c in registry
        )
        # Known datacenter cities are first-class candidates: inference
        # engines encode where hosting actually clusters (Frankfurt,
        # Ashburn, Milan, ...).
        self._sites.extend(
            _Site(c.iso2, *c.hosting_site)
            for c in registry
            if c.hosting_site != (c.lat, c.lon)
        )
        self._site_coords = tuple((site.lat, site.lon) for site in self._sites)
        # the mesh's distance rows over ``_sites``, fetched at the first
        # campaign so that building an engine costs no geometry
        self._rows: Optional[Mapping[Probe, Sequence[float]]] = None
        # Hosting prior: when two candidate sites fit the rings equally
        # well (border metros like Vienna/Bratislava), the engine leans
        # toward the country with the denser datacenter footprint — the
        # kind of side information real inference engines encode.
        self._infra_bonus_km: Dict[str, float] = {
            c.iso2: 1.2 * c.infra_index for c in registry
        }

    # -- public API ---------------------------------------------------------
    def geolocate(self, address: IPAddress) -> GeolocationEstimate:
        """Geolocate one address (cached across calls)."""
        estimate = self._cache.get(address)
        if estimate is None:
            estimate = self._run_campaign(address)
            self._cache[address] = estimate
        return estimate

    def locate(self, address: IPAddress) -> Optional[str]:
        """Country-level answer with the paper's majority acceptance rule."""
        estimate = self.geolocate(address)
        if estimate.country_agreement < self._config.country_majority:
            obs_metrics.inc(obs_names.IPMAP_LOCATE, verdict="rejected")
            return None
        obs_metrics.inc(obs_names.IPMAP_LOCATE, verdict="accepted")
        return estimate.country

    # -- campaign internals ----------------------------------------------
    def _run_campaign(self, address: IPAddress) -> GeolocationEstimate:
        target = self._oracle.coordinates(address)
        if target is None:
            raise GeolocationError(f"no physical location for {address}")
        lat, lon = target
        if self._campaign_seed is not None:
            campaign_rng = seeded_rng(
                self._campaign_seed, f"campaign:{address}"
            )
        else:
            campaign_rng = spawn_rng(self._rng)
        probes = self._mesh.sample(
            campaign_rng, self._config.probes_per_campaign
        )
        # ``Probe.rtt_to`` per probe, with the target's trig taken once:
        # one row from the target to the probes, then each probe's RTT
        # sample drawn in probe order.
        probe_distances = great_circle_row_km(
            lat, lon, [probe.point for probe in probes]
        )
        measured: List[Tuple[float, Probe]] = [
            (min_rtt_ms(distance, campaign_rng), probe)
            for distance, probe in zip(probe_distances, probes)
        ]
        measured.sort(key=lambda pair: pair[0])
        voters = measured[: self.N_VOTERS]

        if self._rows is None:
            self._rows = self._mesh.distance_rows(self._site_coords)
        rows = self._rows
        # Shortlist the sites feasible under the best probe's hard
        # distance bound.  Never empty: the best probe's own location is
        # a site, at distance 0.0.
        best_rtt, best_probe = voters[0]
        radius = rtt_upper_bound_km(best_rtt) + self.SITE_SLACK_KM
        indexes = [
            index
            for index, distance in enumerate(rows[best_probe])
            if distance <= radius
        ]
        shortlist = [self._sites[index] for index in indexes]
        # Per-voter distances to every shortlisted site.
        pick = itemgetter(*indexes)
        distances = [pick(rows[probe]) for _, probe in voters]
        if len(indexes) == 1:
            # one index: itemgetter returns the item, not a 1-tuple
            distances = [(distance,) for distance in distances]
        bounds = [rtt_upper_bound_km(rtt) for rtt, _ in voters]
        # Expected ring: deflate the hard bound by the typical path
        # stretch *after* removing the fixed per-measurement overhead —
        # otherwise every ring systematically overshoots by tens of km,
        # dragging estimates toward the far side of small countries.
        expected = [
            rtt_upper_bound_km(max(0.0, rtt - BASE_OVERHEAD_MS))
            / DEFAULT_PATH_STRETCH
            for rtt, _ in voters
        ]

        scores = self._joint_scores(shortlist, distances, bounds, expected)
        winner_index = min(range(len(shortlist)), key=scores.__getitem__)
        winner_country = shortlist[winner_index].country

        # Votes are cast among the jointly-plausible finalists: each
        # close probe backs the finalist its own measurement fits best.
        finalist_indexes = sorted(
            range(len(shortlist)), key=scores.__getitem__
        )[: self.N_FINALISTS]
        votes = Counter(
            self._voter_vote(
                v, shortlist, distances, bounds, expected, finalist_indexes
            )
            for v in range(len(voters))
        )
        total = sum(votes.values())
        winner_count = votes.get(winner_country, 0)
        winner_region = region_of_country(winner_country, self._registry)
        region_count = sum(
            count
            for country, count in votes.items()
            if region_of_country(country, self._registry) is winner_region
        )
        # Ambient campaign metrics (no-ops outside a collection scope):
        # the vote-margin histogram reproduces the paper's ">90% of
        # campaigns reach a country majority" observation per run.
        obs_metrics.inc(obs_names.IPMAP_CAMPAIGNS)
        obs_metrics.observe(
            obs_names.IPMAP_COUNTRY_AGREEMENT,
            winner_count / total if total else 0.0,
        )
        return GeolocationEstimate(
            address=address,
            country=winner_country,
            country_agreement=winner_count / total if total else 0.0,
            region_agreement=region_count / total if total else 0.0,
            votes=tuple(
                sorted(votes.items(), key=lambda kv: (-kv[1], kv[0]))
            ),
        )

    def _joint_scores(
        self,
        shortlist: Sequence[_Site],
        distances: Sequence[Sequence[float]],
        bounds: Sequence[float],
        expected: Sequence[float],
    ) -> List[float]:
        """Joint misfit of every shortlisted site over all voters.

        One pass per voter over all sites: each site adds the voter's
        hard-bound violation penalty, then its ring misfit
        ``|distance - expected|``, so every site's sum runs in voter
        order and each score is the same float a site-by-site loop
        gives.  A ring lies inside its hard bound (``expected <=
        bound``), so a distance past ``bound + SITE_SLACK_KM`` is past
        the ring too, and its misfit is ``distance - ring``.
        """
        slack = self.SITE_SLACK_KM
        weight = self.VIOLATION_WEIGHT
        scores = [0.0] * len(shortlist)
        for row, bound, ring in zip(distances, bounds, expected):
            limit = bound + slack
            scores = [
                score + (distance - limit) * weight + (distance - ring)
                if distance > limit
                else score + (
                    distance - ring if distance >= ring else ring - distance
                )
                for score, distance in zip(scores, row)
            ]
        voters = len(distances)
        bonus = self._infra_bonus_km
        return [
            score - voters * bonus.get(site.country, 0.0)
            for score, site in zip(scores, shortlist)
        ]

    def _voter_vote(
        self,
        voter_index: int,
        shortlist: Sequence[_Site],
        distances: Sequence[Sequence[float]],
        bounds: Sequence[float],
        expected: Sequence[float],
        finalist_indexes: Sequence[int],
    ) -> str:
        """One probe's country vote: its best-fitting finalist site."""
        bound = bounds[voter_index] + self.SITE_SLACK_KM
        best_country: Optional[str] = None
        best_score = float("inf")
        for site_index in finalist_indexes:
            distance = distances[voter_index][site_index]
            if distance > bound:
                continue
            score = abs(
                distance - expected[voter_index]
            ) - self._infra_bonus_km.get(
                shortlist[site_index].country, 0.0
            )
            if score < best_score:
                best_score = score
                best_country = shortlist[site_index].country
        if best_country is None:
            # The voter's own ring excludes every finalist (noisy
            # measurement); it backs the closest finalist instead.
            site_index = min(
                finalist_indexes,
                key=lambda i: distances[voter_index][i],
            )
            best_country = shortlist[site_index].country
        return best_country
