"""Hot kernels of a cold run, timed on their own on the small world.

Five timings, none gated:

* one panel shard (``panel_run``): a fresh shard-local DNS mapping and
  browser simulator, then ``BrowserExtensionSimulator.simulate`` over
  the shard's users, which renders and logs every third-party request;
* ``RequestClassifier.classify`` over the whole small panel (39,276
  requests): filter lists, referrer closure and keywords;
* the probe mesh's distance rows, built on a fresh mesh: every probe's
  great-circle row to every candidate site (752 × 827 pairs);
* 300 active-geolocation campaigns with the rows already built: the
  probes' RTT samples, the shortlist, the joint fit and the votes;
* the Table 5 scenario counts, all six scenarios over the tracking
  flows.

The first two are the kernels behind perfbench's ``cold`` workload
(``panel_s`` and ``classification_s``); the others feed its ``warm``
set-up layers (see the "Measuring" section of ``docs/runtime.md``).
``make bench`` runs them with the paper benchmarks;
``pytest benchmarks/test_kernels.py --benchmark-only`` runs them alone,
and with ``--benchmark-disable`` each runs once with its asserts.
"""

from __future__ import annotations

import pytest

from repro import Study, WorldConfig
from repro.core.classify import ClassificationStage, RequestClassifier
from repro.core.localization import LocalizationScenario
from repro.geoloc.probes import ProbeMesh
from repro.runtime import run_study
from repro.runtime.stages import campaign_engine, panel_plan, panel_run

N_CAMPAIGNS = 300


@pytest.fixture(scope="module")
def small_study() -> Study:
    return run_study(WorldConfig.small()).study()


def test_panel_shard(benchmark, small_study):
    world = small_study.world
    shard_key, payload = panel_plan(world, {})[0]

    def shard():
        return panel_run(world, {}, shard_key, payload)

    product = benchmark(shard)
    lo, hi = payload
    users = {user.user_id for user in world.users[lo:hi]}
    assert product["requests"]
    assert {request.user_id for request in product["requests"]} <= users


def test_classify(benchmark, small_study):
    requests = small_study.visit_log.requests
    classifier = RequestClassifier(
        small_study.world.easylist, small_study.world.easyprivacy
    )

    def classify():
        return classifier.classify(requests)

    result = benchmark(classify)
    assert result.stages == small_study.classification.stages
    assert ClassificationStage.LIST in result.stages


def test_distance_rows(benchmark, small_study):
    world = small_study.world
    sites = campaign_engine(world)._site_coords
    probes = world.probes.probes()

    def fresh_rows():
        return ProbeMesh(probes).distance_rows(sites)

    rows = benchmark(fresh_rows)
    assert len(rows) == len(probes)
    assert all(len(row) == len(sites) for row in rows.values())


def test_campaigns(benchmark, small_study):
    world = small_study.world
    addresses = sorted({server.ip for server in world.fleet.servers()})
    addresses = addresses[:N_CAMPAIGNS]
    # the rows are world-fixed and built once: keep them out of the timing
    world.probes.distance_rows(campaign_engine(world)._site_coords)

    def campaigns():
        engine = campaign_engine(world)
        return [engine.geolocate(address) for address in addresses]

    estimates = benchmark(campaigns)
    assert len(estimates) == N_CAMPAIGNS


def test_scenario_counts(benchmark, small_study):
    analyzer = small_study.localization
    flows = small_study.tracking_requests()

    def counts():
        return [
            analyzer.scenario_counts(flows, scenario)
            for scenario in LocalizationScenario
        ]

    table = benchmark(counts)
    assert all(n > 0 for n, _, _ in table)
