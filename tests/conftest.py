"""Shared fixtures.

The small world / study are expensive enough (seconds) that they are
built once per test session and shared read-only across test modules.
Tests that mutate state build their own objects.
"""

from __future__ import annotations

import gc

import pytest

from repro import Study, WorldConfig
from repro.datasets.builder import World, build_world
from repro.geodata.countries import default_registry


@pytest.fixture(autouse=True)
def collector_left_enabled():
    """Fail any test that leaves the cyclic garbage collector disabled.

    The artifact cache pauses the collector while it decodes; a path
    that skipped the restore would leave the whole process without
    cycle collection, which no result would show.
    """
    yield
    if not gc.isenabled():
        gc.enable()
        pytest.fail("test left the cyclic garbage collector disabled")


@pytest.fixture(scope="session")
def small_config() -> WorldConfig:
    return WorldConfig.small()


@pytest.fixture(scope="session")
def synthetic_locate():
    """A deterministic, call-order-independent locator.

    Spreads destinations over the country registry by address value and
    leaves every ninth address unlocatable (the ``unknown`` bucket).
    The columnar equivalence tests need call-order independence — the
    real serial geolocation engine's draws are order-dependent by
    design, which would conflate locator state with record-path
    behavior.
    """
    codes = sorted(default_registry().codes())

    def locate(address):
        if address.value % 9 == 0:
            return None
        return codes[address.value % len(codes)]

    return locate


@pytest.fixture(scope="session")
def small_world(small_config: WorldConfig) -> World:
    return build_world(small_config)


@pytest.fixture(scope="session")
def small_study(small_world: World) -> Study:
    study = Study(world=small_world)
    study.run_all()
    return study
