"""The pipeline's stages as runtime graph nodes.

Each stage gets four module-level functions — ``plan`` / ``run`` /
``merge`` / ``index`` — registered into :data:`STAGE_GRAPH`.  Shard axes
follow the natural unit of independence in the paper's pipeline:

========================  =================  =================================
stage                     axis               shard product
========================  =================  =================================
``panel``                 users              visits, requests, pdns pairs
``classification``        users              per-request stage labels; the
                                             merge adds the tracking list
``inventory``             (single shard)     the :class:`TrackerIPInventory`
``geolocation``           IPs                address → country table
``confinement``           flows              Sankey count matrices
``localization``          flows              per-scenario, per-country
                                             (n, ok, ok) counts
``sensitive_domains``     (single shard)     identified sensitive domains
``sensitive``             flows              category / region / country counts
``ispscale``              ISPs               per-snapshot reports
========================  =================  =================================

Every ``run`` treats the world as **read-only**: randomness comes from
``world.streams.spawn("runtime:...")`` derivations keyed on the shard,
DNS resolution goes through shard-local :class:`MappingService` clones
writing into shard-local passive-DNS collectors, and the active
geolocation engine runs with a per-address campaign seed.  That is what
makes shard products — and therefore the merged stage products —
independent of worker count and of execution order.

Every ``plan`` reads upstream *indexes* only (record counts, each
panel shard's request count, the tracking-flow count), never an
upstream body, so a warm run plans every stage without decoding the
panel's requests.  Indexes also carry the headline counts, as plain
data: the classification index Table 2's, the confinement index each
tool's Fig. 7 shares, the localization index the counts behind Tables
5 and 6, and the sensitive index those behind Sect. 6.
"""

from __future__ import annotations

import contextlib
import itertools
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

from repro.config import SNAPSHOT_DAYS
from repro.core.classify import (
    ClassificationResult,
    ClassificationStage,
    RequestClassifier,
    StageStats,
)
from repro.core.confinement import (
    ConfinementAnalyzer,
    eu28_destination_shares,
)
from repro.core.ispscale import ISPScaleStudy
from repro.core.localization import (
    TABLE5_SCENARIOS,
    LocalizationAnalyzer,
    LocalizationScenario,
)
from repro.core.sensitive import SensitiveStudy
from repro.core.tracker_ips import TrackerIPInventory
from repro.datasets.builder import BACKGROUND_END_DAY, World
from repro.dnssim.passive import PassiveDNSDatabase
from repro.errors import ExecutionError
from repro.geodata.regions import Region, region_of_country
from repro.geoloc.ipmap import IPmapEngine
from repro.netbase.addr import IPAddress
from repro.obs import metrics as obs_metrics
from repro.obs import names as obs_names
from repro.runtime.graph import StageGraph, StageSpec, partition
from repro.util.rng import RngStreams, derive_seed
from repro.util.sankey import Sankey
from repro.web.browser import BrowserExtensionSimulator, MappingService
from repro.web.requests import ThirdPartyRequest

#: canonical shard fan-out per stage; a pure constant (never derived from
#: worker count) so the shard set is identical for any parallelism level
DEFAULT_SHARDS = 8

#: the geolocation tools whose confinement views the engine materializes
GEO_TOOLS = ("RIPE IPmap", "MaxMind", "ip-api")

#: the inventory's passive-DNS completion window
_PDNS_WINDOW = (0.0, BACKGROUND_END_DAY)


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def campaign_engine(world: World) -> IPmapEngine:
    """A fresh active-geolocation engine over the world's probe mesh.

    Campaigns are seeded by ``(config seed, address)``, so every
    estimate is a pure function of the world and the IP axis can be
    sharded freely.
    """
    return IPmapEngine(
        mesh=world.probes,
        oracle=world.oracle,
        registry=world.registry,
        config=world.config.geolocation,
        campaign_seed=derive_seed(world.config.seed, "runtime:ipmap-campaign"),
    )


class GeoTableLocator:
    """Reference locator backed by the geolocation stage's table.

    Inventory addresses resolve via dictionary lookup (the persisted
    stage product); anything outside the table falls back to a live
    engine seeded identically to the one that built the table, so the
    answer is the same one the geolocation stage would have produced.
    """

    def __init__(self, world: World, table: Mapping[IPAddress, Optional[str]]) -> None:
        self._world = world
        self._table = dict(table)
        self._engine: Optional[IPmapEngine] = None

    def locate(self, address: IPAddress) -> Optional[str]:
        if address in self._table:
            return self._table[address]
        if self._engine is None:
            self._engine = campaign_engine(self._world)
        return self._engine.locate(address)

    def __call__(self, address: IPAddress) -> Optional[str]:
        return self.locate(address)


def _locator_for(world: World, products: Mapping[str, Any], tool: str):
    """The per-tool locator runtime stages evaluate flows against."""
    if tool == "RIPE IPmap":
        return GeoTableLocator(world, products["geolocation"]["table"])
    if tool == "MaxMind":
        return world.maxmind.locate
    if tool == "ip-api":
        return world.ip_api.locate
    raise ExecutionError(f"unknown geolocation tool {tool!r}")


def _tracking_requests(products: Mapping[str, Any]) -> List[ThirdPartyRequest]:
    """The run's tracking flows, in panel order (built once, at the
    classification merge)."""
    return products["classification"]["tracking"]


@contextlib.contextmanager
def _shard_mapping(
    world: World, streams: RngStreams, shard_key: str
) -> Iterator[Tuple[MappingService, PassiveDNSDatabase]]:
    """A shard-local DNS mapping clone and its passive-DNS collector.

    The clone has a fresh answer cache and draws from ``streams``; it
    records into the collector, never into the world's mapping or
    passive DNS, so shards cannot observe each other.  When the block
    ends, the collector's resolution and new-pair totals are added to
    the shard's counters, once each and only when non-zero, so a shard
    that resolves nothing creates no ``pdns.*`` key.
    """
    pdns = PassiveDNSDatabase(name=f"runtime-{shard_key}")
    yield MappingService(world.fleet, world.registry, pdns, streams), pdns
    if pdns.observations:
        obs_metrics.inc(obs_names.PDNS_OBSERVATIONS, pdns.observations)
    if pdns.pairs_new:
        obs_metrics.inc(obs_names.PDNS_PAIRS_NEW, pdns.pairs_new)


def _records_index(**records: int) -> Dict[str, Any]:
    """An index that holds record counts and nothing else."""
    return {"records": records}


# ---------------------------------------------------------------------------
# stage 1: panel
# ---------------------------------------------------------------------------

def panel_plan(world: World, indexes: Mapping[str, Any]) -> List[Tuple[str, Any]]:
    return [
        (f"users[{lo}:{hi}]", (lo, hi))
        for lo, hi in partition(world.users, DEFAULT_SHARDS)
    ]


def panel_run(
    world: World, products: Mapping[str, Any], shard_key: str, payload: Any
) -> Any:
    lo, hi = payload
    streams = world.streams.spawn(f"runtime:{shard_key}")
    with _shard_mapping(world, streams, shard_key) as (mapping, pdns):
        simulator = BrowserExtensionSimulator(
            fleet=world.fleet,
            publishers=world.publishers,
            users=world.users[lo:hi],
            panel_config=world.config.panel,
            browsing_config=world.config.browsing,
            registry=world.registry,
            mapping=mapping,
            streams=world.streams,  # per-user forks are stateless derivations
        )
        log = simulator.simulate()
    return {
        "visits": log.visits,
        "requests": log.requests,
        "pdns_pairs": pdns.pairs(),
    }


def panel_merge(
    world: World,
    products: Mapping[str, Any],
    results: List[Tuple[str, Any]],
) -> Any:
    visits: List[Any] = []
    requests: List[ThirdPartyRequest] = []
    pairs: List[Tuple[Any, ...]] = []
    for _, shard in results:
        visits.extend(shard["visits"])
        requests.extend(shard["requests"])
        pairs.extend(shard["pdns_pairs"])
    return {"visits": visits, "requests": requests, "pdns_pairs": pairs}


def panel_index(product: Any) -> Dict[str, Any]:
    """Record counts, and each plan shard's request count in plan order.

    Every user makes at least one visit, so the visits list the panel's
    users in plan order, and partitioning them gives the plan's user
    blocks.  The merge keeps each block's requests contiguous, so the
    classification plan turns these counts into each shard's slice of
    the request list.
    """
    users = list(dict.fromkeys(visit.user_id for visit in product["visits"]))
    blocks = partition(users, DEFAULT_SHARDS)
    block_of = {
        user: number
        for number, (lo, hi) in enumerate(blocks)
        for user in users[lo:hi]
    }
    shard_requests = [0] * len(blocks)
    for request in product["requests"]:
        shard_requests[block_of[request.user_id]] += 1
    index = _records_index(
        visits=len(product["visits"]),
        requests=len(product["requests"]),
        pdns_pairs=len(product["pdns_pairs"]),
    )
    index["shard_requests"] = shard_requests
    return index


# ---------------------------------------------------------------------------
# stage 2: classification
# ---------------------------------------------------------------------------

def classification_plan(
    world: World, indexes: Mapping[str, Any]
) -> List[Tuple[str, Any]]:
    # Same user partition as the panel: referrer chains never span users
    # (URLs carry per-user tokens), so the closure is complete per shard.
    # Each shard's requests are one contiguous block of the merged panel
    # list, so its payload is that block's slice.
    counts = indexes["panel"]["shard_requests"]
    starts = itertools.accumulate([0] + counts)
    return [
        (f"users[{lo}:{hi}]", (start, start + count))
        for (lo, hi), start, count in zip(
            partition(world.users, DEFAULT_SHARDS), starts, counts
        )
    ]


def classification_run(
    world: World, products: Mapping[str, Any], shard_key: str, payload: Any
) -> Any:
    start, stop = payload
    subset = products["panel"]["requests"][start:stop]
    classifier = RequestClassifier(world.easylist, world.easyprivacy)
    result = classifier.classify(subset)
    return {"stages": result.stages, "n_requests": len(subset)}


def classification_merge(
    world: World,
    products: Mapping[str, Any],
    results: List[Tuple[str, Any]],
) -> Any:
    stages: List[ClassificationStage] = []
    for _, shard in results:
        stages.extend(shard["stages"])
    requests = products["panel"]["requests"]
    if len(stages) != len(requests):
        raise ExecutionError(
            f"classification produced {len(stages)} labels for "
            f"{len(requests)} panel requests"
        )
    # Every flow-axis plan and shard reads the tracking set; deriving it
    # here, once per run, keeps them from re-zipping the label vector.
    tracking = [
        request
        for request, stage in zip(requests, stages)
        if stage.is_tracking
    ]
    return {"stages": stages, "tracking": tracking}


def _stats_counts(stats: StageStats) -> Dict[str, int]:
    """Collapse a :class:`StageStats` into its four headline counts."""
    return {
        "fqdns": len(stats.fqdns),
        "tlds": len(stats.tlds),
        "unique_urls": len(stats.unique_urls),
        "total_requests": stats.total_requests,
    }


def classification_index(product: Any) -> Dict[str, Any]:
    """Record counts, Table 2's counts, and what the flow-axis plans
    partition: the tracking-flow count.

    Table 2 reads only tracking flows (its list and semi-automatic
    rows partition them), so the tracking list and its labels, both in
    panel order, give the same rows as the whole request log, and the
    total row's FQDNs are every tracking FQDN.
    """
    tracking = product["tracking"]
    by_list, semi, total = ClassificationResult(
        requests=tracking,
        stages=[stage for stage in product["stages"] if stage.is_tracking],
    ).table2_stats()
    return {
        "records": {"stages": len(product["stages"])},
        "table2": {
            "list": _stats_counts(by_list),
            "semi_automatic": _stats_counts(semi),
            "total": _stats_counts(total),
        },
        "tracking_flows": len(tracking),
    }


# ---------------------------------------------------------------------------
# stage 3: tracker-IP inventory
# ---------------------------------------------------------------------------

def inventory_plan(
    world: World, indexes: Mapping[str, Any]
) -> List[Tuple[str, Any]]:
    # One shard: every step reads the whole passive-DNS view, which a
    # shard would otherwise rebuild for itself.
    return [("all", None)]


def inventory_run(
    world: World, products: Mapping[str, Any], shard_key: str, payload: Any
) -> Any:
    # the complete passive-DNS view: background + panel observations
    pdns = PassiveDNSDatabase(name="runtime-pdns")
    pdns.merge(world.pdns)
    pdns.observe_pairs(products["panel"]["pdns_pairs"])
    inventory = TrackerIPInventory()
    inventory.ingest_panel(_tracking_requests(products))
    inventory.complete_from_pdns(pdns, _PDNS_WINDOW)
    inventory.annotate_windows(pdns)
    inventory.annotate_dedication(pdns, _PDNS_WINDOW)
    return inventory


def inventory_merge(
    world: World,
    products: Mapping[str, Any],
    results: List[Tuple[str, Any]],
) -> Any:
    return results[0][1]


def inventory_index(product: Any) -> Dict[str, Any]:
    return _records_index(tracker_ips=len(product))


# ---------------------------------------------------------------------------
# stage 4: geolocation
# ---------------------------------------------------------------------------

def geolocation_plan(
    world: World, indexes: Mapping[str, Any]
) -> List[Tuple[str, Any]]:
    addresses = range(indexes["inventory"]["records"]["tracker_ips"])
    return [
        (f"ips[{lo}:{hi}]", (lo, hi))
        for lo, hi in partition(addresses, DEFAULT_SHARDS)
    ]


def geolocation_run(
    world: World, products: Mapping[str, Any], shard_key: str, payload: Any
) -> Any:
    lo, hi = payload
    addresses = products["inventory"].addresses()[lo:hi]
    engine = campaign_engine(world)
    table: Dict[IPAddress, Optional[str]] = {}
    agreement: Dict[IPAddress, float] = {}
    for address in addresses:
        estimate = engine.geolocate(address)
        table[address] = engine.locate(address)
        agreement[address] = estimate.country_agreement
    return {"table": table, "agreement": agreement}


def geolocation_merge(
    world: World,
    products: Mapping[str, Any],
    results: List[Tuple[str, Any]],
) -> Any:
    table: Dict[IPAddress, Optional[str]] = {}
    agreement: Dict[IPAddress, float] = {}
    for _, shard in results:
        table.update(shard["table"])
        agreement.update(shard["agreement"])
    return {"table": table, "agreement": agreement}


def geolocation_index(product: Any) -> Dict[str, Any]:
    return _records_index(addresses=len(product["table"]))


# ---------------------------------------------------------------------------
# stages 5-6: confinement / localization (flow axes)
# ---------------------------------------------------------------------------

def _flow_plan(world: World, indexes: Mapping[str, Any]) -> List[Tuple[str, Any]]:
    flows = range(indexes["classification"]["tracking_flows"])
    return [
        (f"flows[{lo}:{hi}]", (lo, hi))
        for lo, hi in partition(flows, DEFAULT_SHARDS)
    ]


def confinement_plan(
    world: World, indexes: Mapping[str, Any]
) -> List[Tuple[str, Any]]:
    return _flow_plan(world, indexes)


def confinement_run(
    world: World, products: Mapping[str, Any], shard_key: str, payload: Any
) -> Any:
    lo, hi = payload
    subset = _tracking_requests(products)[lo:hi]
    eu28 = [
        r
        for r in subset
        if region_of_country(r.user_country, world.registry) is Region.EU28
    ]
    eu28_by_tool: Dict[str, Sankey] = {}
    for tool in GEO_TOOLS:
        analyzer = ConfinementAnalyzer(
            _locator_for(world, products, tool), world.registry
        )
        eu28_by_tool[tool] = analyzer.continent_sankey(eu28)
    reference = ConfinementAnalyzer(
        _locator_for(world, products, "RIPE IPmap"), world.registry
    )
    return {
        "eu28": eu28_by_tool,
        "regions": reference.continent_sankey(subset),
        "countries": reference.country_sankey(subset, Region.EU28),
    }


def confinement_merge(
    world: World,
    products: Mapping[str, Any],
    results: List[Tuple[str, Any]],
) -> Any:
    eu28 = {tool: Sankey() for tool in GEO_TOOLS}
    regions = Sankey()
    countries = Sankey()
    for _, shard in results:
        for tool in GEO_TOOLS:
            eu28[tool].merge(shard["eu28"][tool])
        regions.merge(shard["regions"])
        countries.merge(shard["countries"])
    return {"eu28": eu28, "regions": regions, "countries": countries}


def confinement_index(product: Any) -> Dict[str, Any]:
    """Record counts, and each tool's Fig. 7 shares as plain data."""
    index = _records_index(
        region_flows=int(product["regions"].total),
        eu28_country_flows=int(product["countries"].total),
    )
    index["eu28_shares"] = {
        tool: eu28_destination_shares(product["eu28"], tool)
        for tool in product["eu28"]
    }
    return index


#: Table 5's scenarios plus the extreme migration case Table 6 reads
_SCENARIOS = TABLE5_SCENARIOS + (LocalizationScenario.CLOUD_MIGRATION,)


def localization_plan(
    world: World, indexes: Mapping[str, Any]
) -> List[Tuple[str, Any]]:
    return _flow_plan(world, indexes)


def localization_run(
    world: World, products: Mapping[str, Any], shard_key: str, payload: Any
) -> Any:
    lo, hi = payload
    subset = _tracking_requests(products)[lo:hi]
    analyzer = LocalizationAnalyzer(
        inventory=products["inventory"],
        locate=_locator_for(world, products, "RIPE IPmap"),
        clouds=world.clouds,
        registry=world.registry,
    )
    return {
        scenario.name: analyzer.scenario_counts(subset, scenario)
        for scenario in _SCENARIOS
    }


def localization_merge(
    world: World,
    products: Mapping[str, Any],
    results: List[Tuple[str, Any]],
) -> Any:
    counts: Dict[str, Dict[str, Tuple[int, int, int]]] = {
        scenario.name: {} for scenario in _SCENARIOS
    }
    for _, shard in results:
        for name, per_country in shard.items():
            merged = counts[name]
            for country, (n, country_ok, region_ok) in per_country.items():
                base = merged.get(country, (0, 0, 0))
                merged[country] = (
                    base[0] + n,
                    base[1] + country_ok,
                    base[2] + region_ok,
                )
    return {
        "counts": {
            name: dict(sorted(per_country.items()))
            for name, per_country in counts.items()
        }
    }


def localization_index(product: Any) -> Dict[str, Any]:
    """Record counts, and the per-scenario, per-country counts behind
    Tables 5 and 6."""
    counts = product["counts"]
    default = counts.get(LocalizationScenario.DEFAULT.name, {})
    index = _records_index(
        scenarios=len(counts),
        default_flows=sum(n for n, _, _ in default.values()),
    )
    index["counts"] = {
        name: dict(per_country) for name, per_country in counts.items()
    }
    return index


# ---------------------------------------------------------------------------
# stage 7a: sensitive-domain identification (single shard)
# ---------------------------------------------------------------------------

def sensitive_domains_plan(
    world: World, indexes: Mapping[str, Any]
) -> List[Tuple[str, Any]]:
    return [("all", None)]


def sensitive_domains_run(
    world: World, products: Mapping[str, Any], shard_key: str, payload: Any
) -> Any:
    study = SensitiveStudy(
        publishers=world.publishers,
        streams=world.streams.spawn("runtime:sensitive"),
        registry=world.registry,
    )
    identified = study.identify(
        visit.publisher_domain for visit in products["panel"]["visits"]
    )
    return {"identified": identified}


def sensitive_domains_merge(
    world: World,
    products: Mapping[str, Any],
    results: List[Tuple[str, Any]],
) -> Any:
    return results[0][1]


def sensitive_domains_index(product: Any) -> Dict[str, Any]:
    return _records_index(identified_domains=len(product["identified"]))


# ---------------------------------------------------------------------------
# stage 7b: sensitive flow analyses (flow axis)
# ---------------------------------------------------------------------------

def sensitive_plan(
    world: World, indexes: Mapping[str, Any]
) -> List[Tuple[str, Any]]:
    return _flow_plan(world, indexes)


def sensitive_run(
    world: World, products: Mapping[str, Any], shard_key: str, payload: Any
) -> Any:
    lo, hi = payload
    subset = _tracking_requests(products)[lo:hi]
    study = SensitiveStudy.from_identified(
        world.publishers,
        products["sensitive_domains"]["identified"],
        registry=world.registry,
    )
    return study.flow_counts(
        subset, _locator_for(world, products, "RIPE IPmap")
    )


def sensitive_merge(
    world: World,
    products: Mapping[str, Any],
    results: List[Tuple[str, Any]],
) -> Any:
    n_tracking = 0
    n_sensitive = 0
    categories: Dict[str, int] = {}
    category_regions: Dict[Tuple[str, str], int] = {}
    leakage: Dict[str, Tuple[int, int]] = {}
    for _, shard in results:
        n_tracking += shard["n_tracking"]
        n_sensitive += shard["n_sensitive"]
        for category, count in sorted(shard["categories"].items()):
            categories[category] = categories.get(category, 0) + count
        for key, count in sorted(shard["category_regions"].items()):
            category_regions[key] = category_regions.get(key, 0) + count
        for country, (leaked, total) in sorted(shard["leakage"].items()):
            base = leakage.get(country, (0, 0))
            leakage[country] = (base[0] + leaked, base[1] + total)
    return {
        "n_tracking": n_tracking,
        "n_sensitive": n_sensitive,
        "categories": categories,
        "category_regions": category_regions,
        "leakage": leakage,
        "identified": products["sensitive_domains"]["identified"],
    }


def sensitive_index(product: Any) -> Dict[str, Any]:
    """Record counts, and the flow counts behind Sect. 6 (what
    :func:`sensitive_flow_shares` reads)."""
    index = _records_index(
        tracking_flows=product["n_tracking"],
        sensitive_flows=product["n_sensitive"],
    )
    index["flow_counts"] = {
        "n_tracking": product["n_tracking"],
        "n_sensitive": product["n_sensitive"],
        "categories": dict(product["categories"]),
        "category_regions": dict(product["category_regions"]),
        "leakage": dict(product["leakage"]),
    }
    return index


# ---------------------------------------------------------------------------
# stage 8: ISP scale
# ---------------------------------------------------------------------------

def ispscale_plan(
    world: World, indexes: Mapping[str, Any]
) -> List[Tuple[str, Any]]:
    return [
        (f"isp:{name}", name) for name in sorted(world.synthesizers)
    ]


def ispscale_run(
    world: World, products: Mapping[str, Any], shard_key: str, payload: Any
) -> Any:
    isp_name = payload
    study = ISPScaleStudy(
        synthesizers=world.synthesizers,
        isps=world.isps,
        inventory=products["inventory"],
        locate=_locator_for(world, products, "RIPE IPmap"),
        config=world.config.isp,
        registry=world.registry,
    )
    shard_streams = world.streams.spawn(f"runtime:{shard_key}")
    reports = {}
    with _shard_mapping(world, shard_streams, shard_key) as (mapping, _):
        for snapshot in SNAPSHOT_DAYS:
            reports[(isp_name, snapshot)] = study.run_snapshot(
                isp_name,
                snapshot,
                rng=shard_streams.fork(f"snapshot:{snapshot}"),
                mapping=mapping,
            )
    return reports


def ispscale_merge(
    world: World,
    products: Mapping[str, Any],
    results: List[Tuple[str, Any]],
) -> Any:
    merged = {}
    for _, shard in results:
        merged.update(shard)
    return merged


def ispscale_index(product: Any) -> Dict[str, Any]:
    return _records_index(snapshot_reports=len(product))


# ---------------------------------------------------------------------------
# the graph
# ---------------------------------------------------------------------------

def build_stage_graph() -> StageGraph:
    """The paper pipeline as a declarative stage graph."""
    graph = StageGraph()
    graph.add(StageSpec(
        name="panel",
        inputs=(),
        plan=panel_plan,
        run=panel_run,
        merge=panel_merge,
        index=panel_index,
    ))
    graph.add(StageSpec(
        name="classification",
        inputs=("panel",),
        plan=classification_plan,
        run=classification_run,
        merge=classification_merge,
        index=classification_index,
    ))
    graph.add(StageSpec(
        name="inventory",
        inputs=("panel", "classification"),
        plan=inventory_plan,
        run=inventory_run,
        merge=inventory_merge,
        index=inventory_index,
    ))
    graph.add(StageSpec(
        name="geolocation",
        inputs=("inventory",),
        plan=geolocation_plan,
        run=geolocation_run,
        merge=geolocation_merge,
        index=geolocation_index,
    ))
    graph.add(StageSpec(
        name="confinement",
        inputs=("classification", "geolocation"),
        plan=confinement_plan,
        run=confinement_run,
        merge=confinement_merge,
        index=confinement_index,
    ))
    graph.add(StageSpec(
        name="localization",
        inputs=("classification", "inventory", "geolocation"),
        plan=localization_plan,
        run=localization_run,
        merge=localization_merge,
        index=localization_index,
    ))
    graph.add(StageSpec(
        name="sensitive_domains",
        inputs=("panel",),
        plan=sensitive_domains_plan,
        run=sensitive_domains_run,
        merge=sensitive_domains_merge,
        index=sensitive_domains_index,
    ))
    graph.add(StageSpec(
        name="sensitive",
        inputs=("classification", "geolocation", "sensitive_domains"),
        plan=sensitive_plan,
        run=sensitive_run,
        merge=sensitive_merge,
        index=sensitive_index,
    ))
    graph.add(StageSpec(
        name="ispscale",
        inputs=("inventory", "geolocation"),
        plan=ispscale_plan,
        run=ispscale_run,
        merge=ispscale_merge,
        index=ispscale_index,
    ))
    return graph


#: the canonical graph instance used by the engine and the CLI
STAGE_GRAPH = build_stage_graph()

#: stage names in topological order
STAGE_NAMES = tuple(spec.name for spec in STAGE_GRAPH.stages)
