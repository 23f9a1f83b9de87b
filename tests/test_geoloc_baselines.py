"""Tests for the baseline geolocators and their relation to the main
engine's accuracy."""

import pytest

from repro.errors import GeolocationError
from repro.geoloc.baselines import CBGLocator, ShortestPingLocator
from repro.netbase.addr import IPAddress
from repro.runtime.stages import campaign_engine


@pytest.fixture(scope="module")
def locators(small_study):
    world = small_study.world
    shortest = ShortestPingLocator(
        mesh=world.probes,
        oracle=world.oracle,
        config=world.config.geolocation,
        streams=world.streams.spawn("bl-sp"),
    )
    cbg = CBGLocator(
        mesh=world.probes,
        oracle=world.oracle,
        registry=world.registry,
        config=world.config.geolocation,
        streams=world.streams.spawn("bl-cbg"),
    )
    return shortest, cbg


def _accuracy(locate, servers):
    correct = sum(1 for s in servers if locate(s.ip) == s.country)
    return correct / len(servers)


class TestBaselines:
    def test_shortest_ping_reasonable_but_imperfect(
        self, small_study, locators
    ):
        shortest, _ = locators
        servers = small_study.world.fleet.servers()[:150]
        accuracy = _accuracy(shortest.locate, servers)
        assert 0.4 < accuracy < 1.0

    def test_cbg_beats_nothing_burger(self, small_study, locators):
        _, cbg = locators
        servers = small_study.world.fleet.servers()[:150]
        accuracy = _accuracy(cbg.locate, servers)
        assert accuracy > 0.5

    def test_main_engine_at_least_matches_baselines(
        self, small_study, locators
    ):
        """The paper's tool choice: the inference engine should not be
        worse than the classic techniques it builds on."""
        shortest, cbg = locators
        servers = small_study.world.fleet.servers()[:150]
        engine_accuracy = _accuracy(
            campaign_engine(small_study.world).locate, servers
        )
        assert engine_accuracy >= _accuracy(shortest.locate, servers) - 0.02
        assert engine_accuracy >= _accuracy(cbg.locate, servers) - 0.02

    def test_caching(self, small_study, locators):
        shortest, cbg = locators
        address = small_study.world.fleet.servers()[0].ip
        assert shortest.locate(address) == shortest.locate(address)
        assert cbg.locate(address) == cbg.locate(address)

    def test_unknown_address_raises(self, small_study, locators):
        shortest, cbg = locators
        ghost = IPAddress.parse("203.0.113.9")
        with pytest.raises(GeolocationError):
            shortest.locate(ghost)
        with pytest.raises(GeolocationError):
            cbg.locate(ghost)
