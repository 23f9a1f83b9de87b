"""Failure-injection tests: the package must fail loudly and precisely
on malformed inputs, not corrupt results silently."""

import json

import pytest

from repro.core.classify import RequestClassifier
from repro.core.confinement import ConfinementAnalyzer
from repro.core.localization import LocalizationAnalyzer
from repro.core.tracker_ips import TrackerIPInventory
from repro.dnssim.passive import PassiveDNSDatabase
from repro.errors import (
    ClassificationError,
    ConfigError,
    DNSError,
    NXDomainError,
    ReproError,
)
from repro.netbase.addr import IPAddress
from repro.web.browser import BrowserExtensionSimulator
from repro.web.filterlists import FilterList, FilterRule
from repro.web.organizations import ServiceRole
from repro.web.requests import ThirdPartyRequest, tld1_of


class TestClassifierRobustness:
    def _classifier(self):
        return RequestClassifier(FilterList("a"), FilterList("b"))

    def test_empty_log(self):
        result = self._classifier().classify([])
        assert result.requests == [] and result.stages == []

    def test_request_with_hostless_url_fails_loudly(self):
        request = ThirdPartyRequest(
            first_party="s.example", url="not-a-url",
            referrer="https://s.example/", ip=IPAddress.v4(1), user_id=1,
            user_country="DE", day=0.0, https=True,
            truth_role=ServiceRole.COOKIE_SYNC, truth_org="o",
            truth_country="DE", chain_depth=0,
        )
        with pytest.raises(ClassificationError):
            self._classifier().classify([request])

    def test_bad_tld1(self):
        with pytest.raises(ClassificationError):
            tld1_of("")

    def test_malformed_rule_lines_rejected(self):
        filter_list = FilterList("x")
        with pytest.raises(ClassificationError):
            filter_list.add_lines(["||bad/rule^"])
        with pytest.raises(ClassificationError):
            FilterRule.parse("")


class TestWorldConstructionGuards:
    def test_browser_requires_publishers(self, small_world):
        with pytest.raises(ConfigError):
            BrowserExtensionSimulator(
                fleet=small_world.fleet,
                publishers=[],
                users=small_world.users,
                panel_config=small_world.config.panel,
                browsing_config=small_world.config.browsing,
                registry=small_world.registry,
                mapping=small_world.mapping,
                streams=small_world.streams,
            )

    def test_mapping_unknown_fqdn(self, small_world):
        site = small_world.mapping.country_site("DE")
        with pytest.raises(ConfigError):
            small_world.mapping.resolve("missing.example", site, 0.0)

    def test_authority_unknown_zone(self, small_world):
        with pytest.raises(NXDomainError):
            small_world.fleet.authorities.zone_for("x.notreal.zz")

    def test_duplicate_zone_rejected(self, small_world):
        from repro.dnssim.authority import Zone

        existing = small_world.fleet.authorities.zones()[0]
        with pytest.raises(DNSError):
            small_world.fleet.authorities.add(
                Zone(existing.apex, owner="impostor")
            )


class TestAnalysisRobustness:
    def test_confinement_on_empty_log(self):
        analyzer = ConfinementAnalyzer(lambda ip: "DE")
        assert analyzer.continent_sankey([]).total == 0
        assert analyzer.country_sankey([]).origins() == []
        assert analyzer.continent_sankey([]).destination_shares() == {}

    def test_localization_on_empty_inventory(self):
        from repro.cloud.providers import CloudCatalog
        from repro.core.localization import LocalizationScenario

        analyzer = LocalizationAnalyzer(
            inventory=TrackerIPInventory(),
            locate=lambda ip: None,
            clouds=CloudCatalog(),
        )
        outcome = analyzer.evaluate([], LocalizationScenario.DEFAULT)
        assert outcome.n_flows == 0
        assert outcome.country_pct == 0.0

    def test_inventory_queries_on_empty(self):
        inventory = TrackerIPInventory()
        assert inventory.additional_share_pct() == 0.0
        assert inventory.ipv4_share_pct() == 0.0
        assert inventory.single_domain_request_share_pct() == 0.0
        assert inventory.heavy_multi_domain_ips() == []

    def test_pdns_unknown_queries_return_empty(self):
        pdns = PassiveDNSDatabase()
        assert pdns.forward("ghost.example") == []
        assert pdns.reverse(IPAddress.v4(99)) == []
        assert pdns.domains_behind(IPAddress.v4(99)) == set()


class TestSerializationRobustness:
    def test_truncated_json_inventory(self, tmp_path):
        from repro.io import inventory_from_json

        path = tmp_path / "broken.json"
        path.write_text('{"format_version": 1, "records": [{"address":')
        with pytest.raises(json.JSONDecodeError):
            inventory_from_json(path)

    def test_request_record_with_bad_ip(self, tmp_path):
        from repro.io import requests_from_jsonl

        record = {
            "first_party": "s", "url": "https://x.example/", "referrer": "r",
            "ip": "999.999.1.1", "user_id": 1, "user_country": "DE",
            "day": 0.0, "https": True, "truth_role": "cookie_sync",
            "truth_org": "o", "truth_country": "DE", "chain_depth": 0,
        }
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(ReproError):
            requests_from_jsonl(path)

    def test_request_record_with_bad_role(self, tmp_path):
        from repro.io import requests_from_jsonl

        record = {
            "first_party": "s", "url": "https://x.example/", "referrer": "r",
            "ip": "1.2.3.4", "user_id": 1, "user_country": "DE",
            "day": 0.0, "https": True, "truth_role": "mind_reading",
            "truth_org": "o", "truth_country": "DE", "chain_depth": 0,
        }
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(ReproError):
            requests_from_jsonl(path)
