"""Tests for the sensitive-category study (Sect. 6)."""

import pytest

from repro.core.sensitive import (
    ExaminerPanel,
    SensitiveStudy,
    sensitive_flow_shares,
)
from repro.util.rng import RngStreams
from repro.web.publishers import SENSITIVE_CATEGORIES, Publisher


def make_publisher(domain, category=None, topics=("News",), country="DE"):
    return Publisher(
        domain=domain,
        country=country,
        popularity=1.0,
        topics=tuple(topics),
        sensitive_category=category,
        ad_partners=("ads.x.example",),
        analytics_partners=("m.x.example",),
        clean_partners=("w.x.example",),
    )


class TestExaminerPanel:
    def test_agreement_bounds_validated(self):
        with pytest.raises(ValueError):
            ExaminerPanel(RngStreams(0), n_examiners=2, required_agreement=3)

    def test_sensitive_sites_mostly_caught(self):
        panel = ExaminerPanel(RngStreams(1))
        publisher = make_publisher("p.example", "health", topics=("Health",))
        caught = sum(
            1 for _ in range(300) if panel.review(publisher) is not None
        )
        assert caught / 300 > 0.8

    def test_benign_sites_rarely_flagged(self):
        panel = ExaminerPanel(RngStreams(2))
        publisher = make_publisher("p.example", None)
        flagged = sum(
            1 for _ in range(500) if panel.review(publisher) is not None
        )
        assert flagged / 500 < 0.02

    def test_verdict_category_matches_truth(self):
        panel = ExaminerPanel(RngStreams(3), sensitivity=1.0)
        publisher = make_publisher("p.example", "gambling")
        assert panel.review(publisher) == "gambling"


class TestSensitiveFunnel:
    def _study(self, publishers):
        return SensitiveStudy(publishers, RngStreams(7))

    def test_tagger_catches_unmasked_topics(self):
        publishers = [
            make_publisher("a.example", "health", topics=("health", "News")),
        ]
        study = self._study(publishers)
        identified = study.identify(["a.example"])
        assert identified["a.example"].identified_by == "tagger"
        assert identified["a.example"].category == "health"

    def test_masked_category_refined_to_truth(self):
        """A pregnancy site tagged as "Health" is caught by the tagger
        (health is itself a sensitive term) and refined by inspection."""
        publishers = [
            make_publisher(
                "b.example", "pregnancy", topics=("Health", "News")
            ),
        ]
        study = self._study(publishers)
        identified = study.identify(["b.example"])
        assert identified["b.example"].identified_by == "tagger"
        assert identified["b.example"].category in ("pregnancy", "health")

    def test_manual_review_recovers_fully_masked(self):
        """A gambling site tagged only as "Games" escapes the tagger and
        is recovered by the examiner panel."""
        publishers = [
            make_publisher(
                "c.example", "gambling", topics=("Games", "News")
            ),
        ]
        study = self._study(publishers)
        identified = study.identify(["c.example"])
        if "c.example" in identified:
            assert identified["c.example"].identified_by == "manual"
            assert identified["c.example"].category == "gambling"

    def test_unknown_domains_skipped(self):
        study = self._study([make_publisher("a.example")])
        assert study.identify(["nope.example"]) == {}

    def test_identify_required_before_queries(self):
        study = self._study([make_publisher("a.example")])
        with pytest.raises(RuntimeError):
            study.identified_domains()


class TestOnStudy:
    @pytest.fixture
    def shares(self, small_study):
        return sensitive_flow_shares(small_study.products["sensitive"])

    def test_sensitive_share_in_band(self, shares):
        share = shares["sensitive_share_pct"]
        # Paper: 2.89%; the small world is noisy but stays low-single-digit.
        assert 0.2 < share < 15.0

    def test_category_shares_sum_to_100(self, shares):
        if shares["category_shares"]:
            assert sum(shares["category_shares"].values()) == pytest.approx(
                100.0
            )
            assert set(shares["category_shares"]) <= set(SENSITIVE_CATEGORIES)

    def test_identified_domains_mostly_truly_sensitive(self, small_study):
        publishers = {p.domain: p for p in small_study.world.publishers}
        identified = small_study.sensitive.identified_domains()
        if not identified:
            pytest.skip("no sensitive domains visited in this small world")
        truly = sum(
            1
            for domain in identified
            if publishers[domain].sensitive_category is not None
        )
        assert truly / len(identified) > 0.9

    def test_destination_regions_per_category(self, shares):
        assert shares["category_regions"]
        for per_destination in shares["category_regions"].values():
            assert sum(per_destination.values()) == pytest.approx(100.0)

    def test_per_country_leakage_consistent(self, small_study, shares):
        assert shares["leakage"]
        for country, (leaked, total) in shares["leakage"].items():
            assert 0 <= leaked <= total
            assert country in small_study.world.registry
