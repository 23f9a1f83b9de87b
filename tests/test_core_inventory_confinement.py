"""Tests for tracker-IP inventory (Sect. 3.3) and confinement (Sect. 4)."""

import pytest

from repro.core.confinement import ConfinementAnalyzer
from repro.core.tracker_ips import TrackerIPInventory
from repro.dnssim.passive import PassiveDNSDatabase
from repro.geodata.regions import Region, region_of_country
from repro.netbase.addr import IPAddress
from repro.web.organizations import ServiceRole
from repro.web.requests import ThirdPartyRequest


def make_request(ip_text: str, fqdn: str = "sync.t.example",
                 user_country: str = "DE", user_id: int = 1):
    return ThirdPartyRequest(
        first_party="site.example",
        url=f"https://{fqdn}/p?uid=1",
        referrer="https://site.example/",
        ip=IPAddress.parse(ip_text),
        user_id=user_id,
        user_country=user_country,
        day=1.0,
        https=True,
        truth_role=ServiceRole.COOKIE_SYNC,
        truth_org="org",
        truth_country="DE",
        chain_depth=1,
    )


class TestTrackerIPInventory:
    def test_panel_ingestion(self):
        inventory = TrackerIPInventory()
        inventory.ingest_panel(
            [make_request("1.0.0.1"), make_request("1.0.0.1"),
             make_request("1.0.0.2")]
        )
        assert len(inventory) == 2
        assert inventory.record(IPAddress.parse("1.0.0.1")).request_count == 2
        assert inventory.record(IPAddress.parse("1.0.0.1")).seen_by_panel

    def test_pdns_completion_finds_unseen_ips(self):
        pdns = PassiveDNSDatabase()
        pdns.observe("sync.t.example", IPAddress.parse("1.0.0.1"), 1.0)
        pdns.observe("sync.t.example", IPAddress.parse("1.0.0.9"), 2.0)
        inventory = TrackerIPInventory()
        inventory.ingest_panel([make_request("1.0.0.1")])
        added = inventory.complete_from_pdns(pdns)
        assert added == 1
        additional = inventory.additional_addresses()
        assert additional == [IPAddress.parse("1.0.0.9")]
        assert not inventory.record(additional[0]).seen_by_panel

    def test_additional_share(self):
        pdns = PassiveDNSDatabase()
        pdns.observe("sync.t.example", IPAddress.parse("1.0.0.9"), 2.0)
        inventory = TrackerIPInventory()
        inventory.ingest_panel([make_request("1.0.0.1")])
        inventory.complete_from_pdns(pdns)
        assert inventory.additional_share_pct() == pytest.approx(100.0)

    def test_window_annotation(self):
        pdns = PassiveDNSDatabase()
        ip = IPAddress.parse("1.0.0.1")
        pdns.observe("sync.t.example", ip, 3.0)
        pdns.observe("sync.t.example", ip, 9.0)
        inventory = TrackerIPInventory()
        inventory.ingest_panel([make_request("1.0.0.1")])
        inventory.annotate_windows(pdns)
        assert inventory.record(ip).window == (3.0, 9.0)

    def test_dedication_from_reverse_pdns(self):
        pdns = PassiveDNSDatabase()
        ip = IPAddress.parse("1.0.0.1")
        pdns.observe("sync.t.example", ip, 1.0)
        pdns.observe("px.other.example", ip, 1.0)
        inventory = TrackerIPInventory()
        inventory.ingest_panel([make_request("1.0.0.1")])
        inventory.annotate_dedication(pdns)
        record = inventory.record(ip)
        assert record.domains_behind == {"t.example", "other.example"}
        assert record.n_domains_behind == 2

    def test_dedication_fallback_without_pdns(self):
        inventory = TrackerIPInventory()
        inventory.ingest_panel([make_request("1.0.0.1")])
        inventory.annotate_dedication(PassiveDNSDatabase())
        record = inventory.record(IPAddress.parse("1.0.0.1"))
        assert record.domains_behind == {"t.example"}

    def test_ipv4_share(self):
        inventory = TrackerIPInventory()
        inventory.ingest_panel(
            [make_request("1.0.0.1"), make_request("1.0.0.2")]
        )
        assert inventory.ipv4_share_pct() == 100.0

    def test_figure4_metrics(self):
        pdns = PassiveDNSDatabase()
        hub = IPAddress.parse("1.0.0.1")
        for index in range(12):
            pdns.observe(f"sync.org{index}.example", hub, 1.0)
        inventory = TrackerIPInventory()
        inventory.ingest_panel(
            [make_request("1.0.0.1"), make_request("1.0.0.2"),
             make_request("1.0.0.2")]
        )
        inventory.annotate_dedication(pdns)
        assert inventory.heavy_multi_domain_ips(10)[0].address == hub
        assert inventory.multi_domain_ip_share_pct() == pytest.approx(50.0)
        # 2 of 3 panel requests hit the dedicated IP.
        assert inventory.single_domain_request_share_pct() == pytest.approx(
            100.0 * 2 / 3
        )

    def test_on_study(self, small_study):
        inventory = small_study.inventory
        assert len(inventory) > 0
        assert inventory.ipv4_share_pct() > 90.0
        # Additional IPs exist but are a small minority (Sect. 3.3).
        assert 0.0 < inventory.additional_share_pct() < 25.0
        # Every panel-seen IP belongs to a real server.
        fleet = small_study.world.fleet
        for address in inventory.panel_addresses()[:100]:
            assert fleet.server_for_ip(address) is not None


class FakeLocator:
    """ip.value even → DE, odd → US, value 999 → unknown."""

    def __init__(self):
        self.calls = 0

    def __call__(self, address):
        self.calls += 1
        if address.value == 999:
            return None
        return "DE" if address.value % 2 == 0 else "US"


class TestConfinementAnalyzer:
    def _requests(self):
        return [
            make_request("0.0.0.2", user_country="DE"),  # DE → DE
            make_request("0.0.0.2", user_country="DE"),  # DE → DE
            make_request("0.0.0.3", user_country="DE"),  # DE → US
            make_request("0.0.0.3", user_country="FR"),  # FR → US
            make_request("0.0.3.231", user_country="BR", fqdn="x.t.example"),
        ]

    def test_continent_sankey(self):
        analyzer = ConfinementAnalyzer(FakeLocator())
        sankey = analyzer.continent_sankey(self._requests())
        assert sankey.edge(Region.EU28.value, Region.EU28.value) == 2
        assert sankey.edge(Region.EU28.value, Region.NORTH_AMERICA.value) == 2
        assert sankey.edge(
            Region.SOUTH_AMERICA.value, Region.UNKNOWN.value
        ) == 1  # 0.0.3.231 has value 999 → locator abstains → unknown

    def test_destination_regions_restricted_to_origin(self):
        analyzer = ConfinementAnalyzer(FakeLocator())
        sankey = analyzer.continent_sankey(self._requests())
        shares = sankey.origin_shares(Region.EU28.value)
        assert shares[Region.EU28.value] == pytest.approx(50.0)
        assert shares[Region.NORTH_AMERICA.value] == pytest.approx(50.0)

    def test_country_sankey_eu_only(self):
        analyzer = ConfinementAnalyzer(FakeLocator())
        sankey = analyzer.country_sankey(self._requests(), Region.EU28)
        assert "BR" not in sankey.origins()
        assert sankey.confinement("DE") == pytest.approx(100 * 2 / 3)

    def test_unknown_destination_bucket(self):
        analyzer = ConfinementAnalyzer(FakeLocator())
        requests = [make_request("0.0.3.231", user_country="DE")]
        sankey = analyzer.country_sankey(requests, Region.EU28)
        assert sankey.edge("DE", "unknown") == 1

    def test_locator_cached_per_ip(self):
        locator = FakeLocator()
        analyzer = ConfinementAnalyzer(locator)
        requests = [make_request("0.0.0.2") for _ in range(50)]
        analyzer.continent_sankey(requests)
        assert locator.calls == 1

    def test_per_region_confinement_user_counts(self, small_study):
        from repro.analysis.figures import figure6

        per_region = figure6(small_study)["per_region_confinement"]
        users = {}
        for request in small_study.tracking_requests():
            region = region_of_country(request.user_country).value
            users.setdefault(region, set()).add(request.user_id)
        regions = small_study.products["confinement"]["regions"]
        assert per_region == {
            region: (regions.confinement(region), len(ids))
            for region, ids in sorted(users.items())
        }
        assert sum(n for _, n in per_region.values()) == len(
            small_study.world.users
        )

    def test_national_confinement(self):
        analyzer = ConfinementAnalyzer(FakeLocator())
        sankey = analyzer.country_sankey(self._requests(), Region.EU28)
        assert sankey.confinement("DE") == pytest.approx(100 * 2 / 3)
        assert sankey.confinement("FR") == 0.0

    def test_study_region_confinement_matches_fig7(self, small_study):
        shares = small_study.eu28_destination_regions()
        # The headline result: most EU28 flows stay inside EU28.
        assert shares[Region.EU28.value] > 70.0
