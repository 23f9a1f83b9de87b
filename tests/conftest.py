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
def small_world(small_config: WorldConfig) -> World:
    return build_world(small_config)


@pytest.fixture(scope="session")
def small_study(small_world: World) -> Study:
    study = Study(world=small_world)
    study.run_all()
    return study
