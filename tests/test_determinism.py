"""Whole-system determinism: the same seed must reproduce the identical
world and study products; a different seed must not."""

import pytest

import repro.runtime.engine as engine_module
from repro import WorldConfig
from repro.datasets.builder import build_world
from repro.runtime import run_study
from repro.runtime.stages import campaign_engine


@pytest.fixture(scope="module")
def twin_worlds():
    config = WorldConfig.small(seed=4242)
    return build_world(config), build_world(WorldConfig.small(seed=4242))


class TestSameSeed:
    def test_organizations_identical(self, twin_worlds):
        first, second = twin_worlds
        assert first.organizations == second.organizations

    def test_server_addresses_identical(self, twin_worlds):
        first, second = twin_worlds
        assert [s.ip for s in first.fleet.servers()] == [
            s.ip for s in second.fleet.servers()
        ]

    def test_publishers_identical(self, twin_worlds):
        first, second = twin_worlds
        assert first.publishers == second.publishers

    def test_users_identical(self, twin_worlds):
        first, second = twin_worlds
        assert first.users == second.users

    def test_filter_lists_identical(self, twin_worlds):
        first, second = twin_worlds
        assert (
            first.easylist.anchor_domains()
            == second.easylist.anchor_domains()
        )
        assert (
            first.easyprivacy.anchor_domains()
            == second.easyprivacy.anchor_domains()
        )

    def test_pdns_contents_identical(self, twin_worlds):
        first, second = twin_worlds
        assert len(first.pdns) == len(second.pdns)
        assert list(first.pdns.names()) == list(second.pdns.names())

    def test_probe_mesh_identical(self, twin_worlds):
        first, second = twin_worlds
        assert first.probes.probes() == second.probes.probes()

    def test_study_products_identical(self, twin_worlds, monkeypatch):
        runs = []
        for world in twin_worlds:
            # each run over its own twin, not the process-wide world
            monkeypatch.setattr(
                engine_module, "cached_build_world",
                lambda config, digest: world,
            )
            runs.append(run_study(world.config, targets=("inventory",)))
        run_a, run_b = (run.products for run in runs)
        assert run_a["panel"]["requests"] == run_b["panel"]["requests"]
        assert run_a["classification"]["stages"] == (
            run_b["classification"]["stages"]
        )
        assert (
            run_a["inventory"].addresses() == run_b["inventory"].addresses()
        )

    def test_geolocation_identical(self, twin_worlds):
        first, second = twin_worlds
        engine_a, engine_b = campaign_engine(first), campaign_engine(second)
        for server in first.fleet.servers()[:30]:
            assert engine_a.locate(server.ip) == engine_b.locate(server.ip)


class TestDifferentSeed:
    def test_worlds_differ(self):
        first = build_world(WorldConfig.small(seed=1))
        second = build_world(WorldConfig.small(seed=2))
        assert [s.ip for s in first.fleet.servers()] != [
            s.ip for s in second.fleet.servers()
        ]
        assert first.organizations != second.organizations

    def test_headline_shape_stable_across_seeds(self):
        """The calibrated shape must not be a single-seed artifact."""
        from repro.geodata.regions import Region

        for seed in (11, 22):
            run = run_study(
                WorldConfig.small(seed=seed), targets=("confinement",)
            )
            ipmap = run.eu28_destination_regions("RIPE IPmap")
            maxmind = run.eu28_destination_regions("MaxMind")
            assert ipmap[Region.EU28.value] > 70.0
            assert (
                maxmind[Region.EU28.value] < ipmap[Region.EU28.value] - 15.0
            )
