"""Tests for repro.config and the error hierarchy."""

import pytest

from repro import errors
from repro.config import (
    EcosystemConfig,
    ISPConfig,
    PanelConfig,
    SNAPSHOT_DAYS,
    WorldConfig,
)
from repro.errors import ConfigError


class TestPanelConfig:
    def test_defaults_are_consistent(self):
        config = PanelConfig()
        assert config.n_users == 350
        assert sum(config.users_per_region.values()) == 350
        assert sum(config.eu28_user_counts.values()) == 183

    def test_region_sum_validated(self):
        with pytest.raises(ConfigError):
            PanelConfig(n_users=10, users_per_region={"EU28": 5})

    def test_eu28_sum_validated(self):
        with pytest.raises(ConfigError):
            PanelConfig(
                n_users=5,
                users_per_region={"EU28": 5},
                eu28_user_counts={"DE": 3},
            )


class TestEcosystemConfig:
    def test_scaled_minimums(self):
        scaled = EcosystemConfig().scaled(0.01)
        assert scaled.n_hyperscalers >= 3
        assert scaled.n_publishers >= 1

    def test_scaled_proportional(self):
        scaled = EcosystemConfig().scaled(2.0)
        assert scaled.n_publishers == 2800
        assert scaled.n_dsps == 80

    def test_bad_factor(self):
        with pytest.raises(ConfigError):
            EcosystemConfig().scaled(0.0)


class TestISPConfig:
    def test_scaled_floor(self):
        scaled = ISPConfig().scaled(0.0001)
        assert all(v >= 200 for v in scaled.sampled_flows.values())
        assert scaled.background_flows >= 100

    def test_bad_factor(self):
        with pytest.raises(ConfigError):
            ISPConfig().scaled(-1)


class TestWorldConfig:
    def test_presets_construct(self):
        for preset in (WorldConfig.small(), WorldConfig.medium(),
                       WorldConfig.paper_scale()):
            assert preset.panel.n_users > 0

    def test_small_is_smaller_than_medium(self):
        small, medium = WorldConfig.small(), WorldConfig.medium()
        assert small.panel.n_users < medium.panel.n_users
        assert small.ecosystem.n_publishers < medium.ecosystem.n_publishers

    def test_snapshot_days_chronological(self):
        days = list(SNAPSHOT_DAYS.values())
        assert days == sorted(days)
        assert list(SNAPSHOT_DAYS) == ["Nov 8", "April 4", "May 16", "June 20"]


class TestErrorHierarchy:
    def test_all_derive_from_repro_error(self):
        for name in ("ConfigError", "AddressError", "AllocationError",
                     "GeoDataError", "DNSError", "NXDomainError",
                     "GeolocationError", "ClassificationError",
                     "NetFlowError", "ExecutionError"):
            cls = getattr(errors, name)
            assert issubclass(cls, errors.ReproError)

    def test_specializations(self):
        assert issubclass(errors.AllocationError, errors.AddressError)
        assert issubclass(errors.NXDomainError, errors.DNSError)
