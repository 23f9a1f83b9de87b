"""Hot kernels of a cold run, timed on their own on the small world.

Three timings, none gated:

* the probe mesh's distance rows, built on a fresh mesh: every probe's
  great-circle row to every candidate site (752 × 827 pairs);
* 300 active-geolocation campaigns with the rows already built: the
  probes' RTT samples, the shortlist, the joint fit and the votes;
* the Table 5 scenario counts, all six scenarios over the tracking
  flows.

``make bench`` runs them with the paper benchmarks;
``pytest benchmarks/test_kernels.py --benchmark-only`` runs them alone.
The end-to-end numbers these kernels feed are perfbench's ``setup_``
layers (see the "Measuring" section of ``docs/runtime.md``).
"""

from __future__ import annotations

import pytest

from repro import Study, WorldConfig
from repro.core.localization import LocalizationScenario
from repro.geoloc.probes import ProbeMesh
from repro.runtime.stages import campaign_engine

N_CAMPAIGNS = 300


@pytest.fixture(scope="module")
def small_study() -> Study:
    return Study(WorldConfig.small())


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
