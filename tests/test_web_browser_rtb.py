"""Tests for the browsing simulation: RTB chains, the browser extension
simulator, and the filter lists."""

import random

import pytest

from repro.errors import ClassificationError
from repro.web.filterlists import FilterList, FilterRule, RuleAction
from repro.web.organizations import OrgKind, ServiceRole
from repro.web.requests import (
        build_url,
    tld1_of,
    url_args,
    url_fqdn,
    url_has_args)
from repro.web.rtb import RTBEngine, TRACKING_KEYWORDS


class TestRequestHelpers:
    def test_tld1(self):
        assert tld1_of("a.b.example.com") == "example.com"
        assert tld1_of("example.com") == "example.com"
        with pytest.raises(ClassificationError):
            tld1_of("nodots")

    def test_build_url_sorted_args(self):
        url = build_url("x.example", "p", {"b": "2", "a": "1"})
        assert url == "https://x.example/p?a=1&b=2"

    def test_build_url_http(self):
        assert build_url("x.example", "/p", None, https=False).startswith(
            "http://"
        )

    def test_url_fqdn(self):
        assert url_fqdn("https://x.example/p?a=1") == "x.example"
        with pytest.raises(ClassificationError):
            url_fqdn("not-a-url")

    def test_url_has_args(self):
        assert url_has_args("https://x.example/p?a=1")
        assert not url_has_args("https://x.example/p")

    def test_url_args(self):
        assert url_args("https://x.example/p?a=1&b=2") == {"a": "1", "b": "2"}


class TestRTBEngine:
    @pytest.fixture()
    def engine(self, small_world):
        return RTBEngine(small_world.fleet, small_world.config.browsing)

    def _publisher(self, small_world, sensitive=None):
        candidates = [
            p
            for p in small_world.publishers
            if p.sensitive_category == sensitive
        ]
        return candidates[0]

    def test_chain_starts_with_initial_ad_call(self, small_world, engine):
        publisher = self._publisher(small_world)
        chain = engine.ad_slot_chain(
            publisher, publisher.ad_partners[0], "u001", random.Random(0)
        )
        assert chain[0].fqdn == publisher.ad_partners[0]
        assert chain[0].parent is None

    def test_chain_parents_are_earlier_requests(self, small_world, engine):
        publisher = self._publisher(small_world)
        rng = random.Random(1)
        for _ in range(20):
            chain = engine.ad_slot_chain(
                publisher, publisher.ad_partners[0], "u001", rng
            )
            for index, spec in enumerate(chain):
                if spec.parent is not None:
                    assert 0 <= spec.parent < index

    def test_descendants_carry_identifier_args(self, small_world, engine):
        publisher = self._publisher(small_world)
        rng = random.Random(2)
        sync_specs = []
        for _ in range(30):
            chain = engine.ad_slot_chain(
                publisher, publisher.ad_partners[0], "u007", rng
            )
            sync_specs.extend(
                s for s in chain if s.role is ServiceRole.COOKIE_SYNC
            )
        assert sync_specs
        assert all("uid" in spec.args for spec in sync_specs)

    def test_some_sync_paths_carry_keywords(self, small_world, engine):
        publisher = self._publisher(small_world)
        rng = random.Random(3)
        paths = []
        for _ in range(50):
            chain = engine.ad_slot_chain(
                publisher, publisher.ad_partners[0], "u007", rng
            )
            paths.extend(
                s.path for s in chain if s.role is ServiceRole.COOKIE_SYNC
            )
        keyword_hits = sum(
            1
            for path in paths
            if any(k in path for k in TRACKING_KEYWORDS)
        )
        assert 0 < keyword_hits < len(paths)  # some but not all

    def test_local_affinity_prefers_local_trackers(self, small_world, engine):
        """German publishers' matching traffic leans on German-homed
        organizations more than Cypriot publishers' does."""
        fleet = small_world.fleet
        assert engine.local_share("DE") > engine.local_share("CY")

    def test_analytics_request_shape(self, small_world, engine):
        publisher = self._publisher(small_world)
        spec = engine.analytics_request(
            publisher.analytics_partners[0], "u001", random.Random(0)
        )
        assert spec.role in (
            ServiceRole.ANALYTICS_TAG, ServiceRole.TRACKING_PIXEL,
        )
        assert spec.parent is None
        assert "uid" in spec.args

    def test_clean_request_mostly_argless(self, small_world, engine):
        publisher = self._publisher(small_world)
        rng = random.Random(4)
        specs = [
            engine.clean_request(publisher.clean_partners[0], rng)
            for _ in range(100)
        ]
        argless = sum(1 for s in specs if not s.args)
        assert argless > 60


class TestVisitLog:
    def test_table1_statistics_consistent(self, small_study):
        log = small_study.visit_log
        assert log.n_users() == len(small_study.world.users)
        assert log.first_party_requests() == len(log.visits)
        assert log.third_party_requests() == len(log.requests)
        assert 0 < log.first_party_domains() <= len(
            small_study.world.publishers
        )

    def test_https_share_near_config(self, small_study):
        assert abs(small_study.visit_log.https_share() - 0.834) < 0.03

    def test_requests_reference_real_servers(self, small_study):
        fleet = small_study.world.fleet
        for request in small_study.visit_log.requests[:300]:
            server = fleet.server_for_ip(request.ip)
            assert server is not None
            assert server.country == request.truth_country
            # truth_org is the FQDN owner; the serving server may belong
            # to a shared sync hub operated by an ad exchange.
            assert fleet.fqdn(request.fqdn).org_name == request.truth_org
            assert server in fleet.fqdn(request.fqdn).service.endpoints

    def test_requests_within_panel_window(self, small_study):
        days = small_study.config.panel.days
        for request in small_study.visit_log.requests[:300]:
            assert 0.0 <= request.day <= days

    def test_referrers_are_first_party_or_chain_urls(self, small_study):
        log = small_study.visit_log
        urls = {r.url for r in log.requests}
        first_parties = {f"https://{v.publisher_domain}/" for v in log.visits}
        for request in log.requests[:500]:
            assert request.referrer in urls or request.referrer in first_parties

    def test_pdns_saw_every_panel_mapping(self, small_run, small_study):
        # Panel shards record into shard-local collectors, never into
        # the world's passive DNS; the panel product carries the pairs.
        pairs = {
            (fqdn, address)
            for fqdn, address, *_ in small_run.products["panel"]["pdns_pairs"]
        }
        for request in small_study.visit_log.requests[:200]:
            assert (request.fqdn, request.ip) in pairs

    def test_deterministic_rerun(self, small_config, small_study):
        """The same seed reproduces the identical panel log."""
        from repro.runtime import run_study

        other = run_study(small_config, targets=("panel",))
        first = small_study.visit_log
        second = other.products["panel"]["requests"]
        assert first.third_party_requests() == len(second)
        assert first.requests[0] == second[0]
        assert first.requests[-1] == second[-1]


class TestFilterRules:
    def test_parse_anchor(self):
        rule = FilterRule.parse("||tracker.example^$third-party")
        assert rule.anchor_domain == "tracker.example"
        assert rule.third_party_only

    def test_parse_substring(self):
        rule = FilterRule.parse("/cookiesync.")
        assert rule.substring == "/cookiesync."

    def test_parse_exception(self):
        rule = FilterRule.parse("@@||good.example^")
        assert rule.action is RuleAction.ALLOW

    def test_parse_rejects_comment(self):
        with pytest.raises(ClassificationError):
            FilterRule.parse("! comment")

    def test_parse_rejects_unknown_option(self):
        with pytest.raises(ClassificationError):
            FilterRule.parse("||x.example^$popup")

    def test_resource_type_options_tolerated(self):
        rule = FilterRule.parse("||x.example^$image,third-party")
        assert rule.anchor_domain == "x.example"

    def test_anchor_matches_subdomains_only_at_boundaries(self):
        rule = FilterRule.parse("||ads.example^")
        assert rule.matches("https://ads.example/x", "ads.example")
        assert rule.matches("https://sub.ads.example/x", "sub.ads.example")
        assert not rule.matches("https://badads.example/x", "badads.example")


class TestFilterList:
    def _list(self):
        filter_list = FilterList("test")
        filter_list.add_lines(
            [
                "! easylist-style comment",
                "",
                "||ads.example^",
                "/adserve/",
                "@@||ads.example^$third-party",
            ]
        )
        return filter_list

    def test_exception_overrides_block(self):
        filter_list = self._list()
        assert not filter_list.matches("https://ads.example/x", "ads.example")

    def test_substring_match(self):
        filter_list = self._list()
        assert filter_list.matches(
            "https://other.example/adserve/banner", "other.example"
        )

    def test_len_counts_rules(self):
        assert len(self._list()) == 3

    def test_anchor_domains_listing(self):
        assert self._list().anchor_domains() == ["ads.example"]

    def test_generated_lists_cover_hyperscalers(self, small_world):
        hyper_domains = [
            d
            for o in small_world.organizations
            if o.kind is OrgKind.HYPERSCALER
            for d in o.domains
        ]
        covered = set(small_world.easylist.anchor_domains())
        assert all(domain in covered for domain in hyper_domains)

    def test_generated_lists_undercover_dmps(self, small_world):
        """The curation gap: DMP domains are mostly absent from the lists."""
        dmp_domains = [
            d
            for o in small_world.organizations
            if o.kind is OrgKind.DMP
            for d in o.domains
        ]
        covered = set(small_world.easyprivacy.anchor_domains()) | set(
            small_world.easylist.anchor_domains()
        )
        uncovered_share = sum(
            1 for d in dmp_domains if d not in covered
        ) / len(dmp_domains)
        assert uncovered_share > 0.6

    def test_clean_orgs_never_listed(self, small_world):
        clean_domains = {
            d
            for o in small_world.organizations
            if o.kind is OrgKind.CLEAN
            for d in o.domains
        }
        covered = set(small_world.easylist.anchor_domains()) | set(
            small_world.easyprivacy.anchor_domains()
        )
        assert not clean_domains & covered
