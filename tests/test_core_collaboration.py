"""Tests for the inter-tracker collaboration analysis."""

import pytest

from repro.core.classify import ClassificationResult, ClassificationStage
from repro.core.collaboration import CollaborationAnalyzer, HandOff
from repro.netbase.addr import IPAddress
from repro.web.organizations import ServiceRole
from repro.web.requests import ThirdPartyRequest


def make_request(url, referrer, ip_text, truth_country="DE"):
    return ThirdPartyRequest(
        first_party="site.example",
        url=url,
        referrer=referrer,
        ip=IPAddress.parse(ip_text),
        user_id=1,
        user_country="DE",
        day=1.0,
        https=True,
        truth_role=ServiceRole.COOKIE_SYNC,
        truth_org="org",
        truth_country=truth_country,
        chain_depth=1,
    )


def locator(mapping):
    return lambda ip: mapping.get(str(ip))


class TestHandOff:
    def test_cross_border_detection(self):
        hand_off = HandOff("a.example", "b.example", "DE", "US")
        assert hand_off.crosses_country
        assert hand_off.leaves_gdpr

    def test_within_country(self):
        hand_off = HandOff("a.example", "b.example", "DE", "DE")
        assert not hand_off.crosses_country
        assert not hand_off.leaves_gdpr

    def test_intra_eu_crossing_stays_in_gdpr(self):
        hand_off = HandOff("a.example", "b.example", "DE", "FR")
        assert hand_off.crosses_country
        assert not hand_off.leaves_gdpr

    def test_unknown_location(self):
        hand_off = HandOff("a.example", "b.example", None, "US")
        assert not hand_off.crosses_country
        assert not hand_off.leaves_gdpr


def chain_classification():
    """root (DE) → mid (US) → leaf (DE); plus an orphan."""
    root = make_request(
        "https://sync.a.example/usermatch?uid=1",
        "https://site.example/",
        "1.0.0.1",
    )
    mid = make_request(
        "https://cs.b.example/p?uid=1", root.url, "1.0.0.2"
    )
    leaf = make_request(
        "https://m.c.example/q?uid=1", mid.url, "1.0.0.3"
    )
    orphan = make_request(
        "https://x.d.example/r?uid=1", "https://other.example/", "1.0.0.4"
    )
    requests = [root, mid, leaf, orphan]
    stages = [ClassificationStage.KEYWORD, ClassificationStage.REFERRER,
              ClassificationStage.REFERRER, ClassificationStage.KEYWORD]
    return ClassificationResult(requests=requests, stages=stages)


LOCATIONS = {
    "1.0.0.1": "DE", "1.0.0.2": "US", "1.0.0.3": "DE", "1.0.0.4": "FR",
}


def split_classification():
    """Two weakly connected islands: a → b (twice) ← c, and x → y."""
    a = make_request(
        "https://sync.a.example/usermatch?uid=1",
        "https://site.example/",
        "1.0.0.1",
    )
    c = make_request(
        "https://sync.c.example/usermatch?uid=1",
        "https://site.example/",
        "1.0.0.3",
    )
    x = make_request(
        "https://sync.x.example/usermatch?uid=1",
        "https://site.example/",
        "1.0.0.5",
    )
    requests = [
        a,
        c,
        x,
        make_request("https://cs.b.example/p?uid=1", a.url, "1.0.0.2"),
        make_request("https://cs.b.example/p?uid=2", a.url, "1.0.0.2"),
        make_request("https://cs.b.example/p?uid=3", c.url, "1.0.0.2"),
        make_request("https://cs.y.example/p?uid=1", x.url, "1.0.0.6"),
    ]
    stages = [ClassificationStage.KEYWORD] * 3 + [
        ClassificationStage.REFERRER
    ] * 4
    return ClassificationResult(requests=requests, stages=stages)


SPLIT_LOCATIONS = {
    "1.0.0.1": "DE", "1.0.0.2": "US", "1.0.0.3": "FR",
    "1.0.0.5": "DE", "1.0.0.6": "DE",
}


class TestCollaborationAnalyzer:
    def test_hand_offs_extracted_from_chains(self):
        analyzer = CollaborationAnalyzer(
            chain_classification(), locator(LOCATIONS)
        )
        hand_offs = analyzer.hand_offs()
        pairs = {(h.source_domain, h.target_domain) for h in hand_offs}
        assert pairs == {("a.example", "b.example"),
                         ("b.example", "c.example")}

    def test_first_party_referrers_excluded(self):
        analyzer = CollaborationAnalyzer(
            chain_classification(), locator(LOCATIONS)
        )
        domains = {h.source_domain for h in analyzer.hand_offs()}
        assert "site.example" not in domains
        assert "other.example" not in domains

    def test_graph_weights(self):
        analyzer = CollaborationAnalyzer(
            chain_classification(), locator(LOCATIONS)
        )
        graph = analyzer.graph()
        assert graph == {
            "a.example": {"b.example": 1},
            "b.example": {"c.example": 1},
            "c.example": {},
        }

    def test_geography(self):
        analyzer = CollaborationAnalyzer(
            chain_classification(), locator(LOCATIONS)
        )
        # DE→US and US→DE: both cross a border, one leaves GDPR.
        assert analyzer.cross_border_share_pct() == pytest.approx(100.0)
        assert analyzer.gdpr_exit_share_pct() == pytest.approx(50.0)

    def test_summary_keys(self):
        analyzer = CollaborationAnalyzer(
            chain_classification(), locator(LOCATIONS)
        )
        summary = analyzer.summary()
        assert summary["hand_offs"] == 2
        assert summary["domains"] == 3
        assert summary["components"] == 1
        assert summary["giant_component_share"] == pytest.approx(1.0)

    def test_two_components_and_a_sender_only_domain(self):
        analyzer = CollaborationAnalyzer(
            split_classification(), locator(SPLIT_LOCATIONS)
        )
        assert analyzer.graph() == {
            "a.example": {"b.example": 2},
            "b.example": {},
            "c.example": {"b.example": 1},
            "x.example": {"y.example": 1},
            "y.example": {},
        }
        assert analyzer.n_components() == 2
        assert analyzer.giant_component_share() == pytest.approx(3 / 5)
        # Every domain is ranked, the three that only send with 0.
        assert analyzer.hubs() == [
            ("b.example", 2), ("y.example", 1),
            ("a.example", 0), ("c.example", 0), ("x.example", 0),
        ]
        assert analyzer.top_collaborations(2) == [
            ("a.example", "b.example", 2), ("c.example", "b.example", 1),
        ]

    def test_empty_log(self):
        analyzer = CollaborationAnalyzer(
            ClassificationResult(requests=[], stages=[]),
            locator({}),
        )
        assert analyzer.hand_offs() == []
        assert analyzer.n_components() == 0
        assert analyzer.giant_component_share() == 0.0
        assert analyzer.cross_border_share_pct() == 0.0

    def test_on_study(self, small_study):
        """The simulated RTB ecosystem produces a rich, mostly-connected
        collaboration graph with substantial cross-border hand-offs."""
        analyzer = CollaborationAnalyzer(
            small_study.classification, small_study.geolocation.reference
        )
        summary = analyzer.summary()
        assert summary["hand_offs"] > 1000
        assert summary["domains"] > 20
        assert summary["giant_component_share"] > 0.5
        assert 10.0 < summary["cross_border_share_pct"] <= 100.0
        hubs = analyzer.hubs(5)
        assert hubs and hubs[0][1] >= hubs[-1][1]
        top = analyzer.top_collaborations(5)
        assert all(weight >= 1 for _, _, weight in top)
