"""Tests for the two-stage classifier (repro.core.classify)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.classify import (
    ClassificationResult,
    ClassificationStage,
    RequestClassifier,
    StageStats,
)
from repro.netbase.addr import IPAddress
from repro.web.filterlists import FilterList, FilterRule, RuleAction
from repro.web.organizations import ServiceRole
from repro.web.requests import ThirdPartyRequest


def make_request(
    url: str,
    referrer: str = "https://site.example/",
    first_party: str = "site.example",
    role: ServiceRole = ServiceRole.COOKIE_SYNC,
) -> ThirdPartyRequest:
    return ThirdPartyRequest(
        first_party=first_party,
        url=url,
        referrer=referrer,
        ip=IPAddress.parse("1.0.0.1"),
        user_id=1,
        user_country="DE",
        day=1.0,
        https=True,
        truth_role=role,
        truth_org="org",
        truth_country="DE",
        chain_depth=0,
    )


def classifier_with(*rules: str) -> RequestClassifier:
    easylist = FilterList("easylist")
    for rule in rules:
        easylist.add(FilterRule.parse(rule))
    return RequestClassifier(easylist, FilterList("easyprivacy"))


class TestStage1Lists:
    def test_anchor_match(self):
        classifier = classifier_with("||ads.example^")
        result = classifier.classify([make_request("https://ads.example/x")])
        assert result.stages == [ClassificationStage.LIST]

    def test_no_match(self):
        classifier = classifier_with("||ads.example^")
        result = classifier.classify([make_request("https://clean.example/x")])
        assert result.stages == [ClassificationStage.NONE]


class TestStage2ReferrerClosure:
    def test_direct_promotion(self):
        classifier = classifier_with("||ads.example^")
        root = make_request("https://ads.example/slot")
        child = make_request(
            "https://dmp.example/p?uid=7", referrer=root.url
        )
        result = classifier.classify([root, child])
        assert result.stages == [
            ClassificationStage.LIST, ClassificationStage.REFERRER,
        ]

    def test_transitive_closure_to_fixpoint(self):
        classifier = classifier_with("||ads.example^")
        root = make_request("https://ads.example/slot")
        mid = make_request("https://dmp.example/p?uid=7", referrer=root.url)
        leaf = make_request("https://tr.example/q?sid=9", referrer=mid.url)
        # Order should not matter: present leaf before mid.
        result = classifier.classify([leaf, root, mid])
        assert result.stages[0] is ClassificationStage.REFERRER  # leaf
        assert result.stages[1] is ClassificationStage.LIST      # root
        assert result.stages[2] is ClassificationStage.REFERRER  # mid

    def test_requires_args(self):
        classifier = classifier_with("||ads.example^")
        root = make_request("https://ads.example/slot")
        child = make_request("https://dmp.example/noargs", referrer=root.url)
        result = classifier.classify([root, child])
        assert result.stages[1] is ClassificationStage.NONE

    def test_requires_tracking_referrer(self):
        classifier = classifier_with("||ads.example^")
        orphan = make_request(
            "https://dmp.example/p?uid=7",
            referrer="https://innocent.example/page",
        )
        result = classifier.classify([orphan])
        assert result.stages == [ClassificationStage.NONE]


class TestStage3Keywords:
    def test_keyword_with_args_promoted(self):
        classifier = classifier_with("||ads.example^")
        request = make_request("https://x.example/usermatch?uid=1")
        result = classifier.classify([request])
        assert result.stages == [ClassificationStage.KEYWORD]

    def test_keyword_without_args_not_promoted(self):
        classifier = classifier_with("||ads.example^")
        request = make_request("https://x.example/usermatch")
        result = classifier.classify([request])
        assert result.stages == [ClassificationStage.NONE]

    def test_list_match_takes_precedence(self):
        classifier = classifier_with("||x.example^")
        request = make_request("https://x.example/usermatch?uid=1")
        result = classifier.classify([request])
        assert result.stages == [ClassificationStage.LIST]


class TestClassificationResult:
    def _result(self):
        classifier = classifier_with("||ads.example^")
        requests = [
            make_request("https://ads.example/slot"),
            make_request("https://clean.example/x"),
        ]
        requests.append(
            make_request("https://dmp.example/p?uid=1",
                         referrer=requests[0].url)
        )
        return classifier.classify(requests)

    def test_views_partition(self):
        result = self._result()
        assert len(result.tracking_requests()) == 2
        assert len(result.non_tracking_requests()) == 1
        assert result.n_tracking() == 2

    def test_stats_split(self):
        result = self._result()
        assert result.list_stats().total_requests == 1
        assert result.semi_automatic_stats().total_requests == 1
        assert result.total_stats().total_requests == 2

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ClassificationResult(
                requests=[make_request("https://a.example/x")], stages=[]
            )

    def test_top_tlds(self):
        result = self._result()
        top = result.top_tlds(5)
        tlds = [t for t, _, _ in top]
        assert "ads.example" in tlds and "dmp.example" in tlds

    def test_per_site_counts(self):
        result = self._result()
        tracking, clean = result.per_site_counts()["site.example"]
        assert (tracking, clean) == (2, 1)

    def test_stage_stats_merge(self):
        first, second = StageStats(), StageStats()
        first.absorb(make_request("https://a.example/x"))
        second.absorb(make_request("https://b.example/y"))
        merged = first.merge(second)
        assert merged.total_requests == 2
        assert merged.fqdns == {"a.example", "b.example"}


class TestOnRealLog:
    def test_classifier_finds_most_tracking(self, small_study):
        """Completeness against ground truth on the simulated panel."""
        result = small_study.classification
        truth = [r.is_tracking_truth for r in result.requests]
        found = [s.is_tracking for s in result.stages]
        true_positives = sum(1 for t, f in zip(truth, found) if t and f)
        false_positives = sum(1 for t, f in zip(truth, found) if not t and f)
        recall = true_positives / sum(truth)
        precision = true_positives / (true_positives + false_positives)
        assert recall > 0.9
        assert precision > 0.97

    def test_semi_stage_mostly_middle_tier(self, small_study):
        """The semi-automatic discoveries skew to chain-only organizations
        (Fig. 3's observation)."""
        fleet = small_study.world.fleet
        from repro.web.organizations import OrgKind

        semi_kinds = set()
        for request, stage in zip(
            small_study.classification.requests,
            small_study.classification.stages,
        ):
            if stage.is_semi_automatic:
                semi_kinds.add(fleet.org(request.truth_org).kind)
        assert OrgKind.DMP in semi_kinds or OrgKind.DSP in semi_kinds

    def test_ablation_toggles(self, small_study):
        """Disabling a semi-automatic stage only ever removes its own
        labels; lists-only classification is exactly the LIST set."""
        requests = small_study.visit_log.requests
        classifier = RequestClassifier(
            small_study.world.easylist, small_study.world.easyprivacy
        )
        stages = {
            (referrer, keyword): classifier.classify(
                requests,
                enable_referrer_stage=referrer,
                enable_keyword_stage=keyword,
            ).stages
            for referrer in (True, False)
            for keyword in (True, False)
        }

        def listed(labels):
            return {
                i for i, stage in enumerate(labels)
                if stage is ClassificationStage.LIST
            }

        def tracking(labels):
            return {i for i, stage in enumerate(labels) if stage.is_tracking}

        all_on = stages[True, True]
        assert ClassificationStage.REFERRER in all_on
        assert ClassificationStage.KEYWORD in all_on
        for (referrer, keyword), labels in stages.items():
            assert listed(labels) == listed(all_on)
            if not referrer:
                assert ClassificationStage.REFERRER not in labels
            if not keyword:
                assert ClassificationStage.KEYWORD not in labels
            assert tracking(labels) <= tracking(all_on)
        assert tracking(stages[False, False]) == listed(all_on)


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_adding_rules_is_monotone_property(data):
    """More list rules never classify fewer requests as tracking."""
    domains = ["a.example", "b.example", "c.example"]
    urls = [
        f"https://{domain}/p{'?uid=1' if data.draw(st.booleans()) else ''}"
        for domain in data.draw(
            st.lists(st.sampled_from(domains), min_size=1, max_size=8)
        )
    ]
    requests = [make_request(url) for url in urls]
    subset = data.draw(st.sets(st.sampled_from(domains), max_size=2))
    superset = subset | data.draw(st.sets(st.sampled_from(domains), max_size=3))

    def count(rule_domains):
        classifier = classifier_with(
            *(f"||{domain}^" for domain in sorted(rule_domains))
        )
        return classifier.classify(requests).n_tracking()

    assert count(superset) >= count(subset)


#: hosts at three depths under two registrable domains, so anchors on a
#: parent cover its subdomains
MEMO_HOSTS = (
    "a.example", "ads.a.example", "x.ads.a.example", "b.test", "t.b.test",
)
#: every host is requested on every path and query, so one host verdict
#: meets URLs that do and do not hit each substring rule
MEMO_PATHS = ("/clean", "/ads/banner", "/beacon/track", "/static/ads.js")
MEMO_QUERIES = ("", "?uid=1", "?uid=1&slot=2")
MEMO_SUBSTRINGS = ("/ads/", "track", "uid=", "&slot=")

memo_rule = st.tuples(
    st.booleans(),  # an @@ exception
    st.one_of(
        st.sampled_from(MEMO_HOSTS).map(lambda host: f"||{host}^"),
        st.sampled_from(MEMO_SUBSTRINGS),
    ),
).map(lambda rule: ("@@" if rule[0] else "") + rule[1])


def _rule_by_rule(rules, url: str, fqdn: str) -> bool:
    """ABP semantics one rule at a time: blocked, and no exception."""
    hits = [rule.action for rule in rules if rule.matches(url, fqdn)]
    return RuleAction.BLOCK in hits and RuleAction.ALLOW not in hits


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_host_verdict_memo_labels_as_matches_property(data):
    """Stage 1 derives each host's anchor verdicts once per
    classification; every label must still be the per-request verdict
    of ``FilterList.matches`` (``matches_lists``), exceptions included,
    and that verdict the rules' taken one at a time."""
    lines = {
        name: data.draw(st.lists(memo_rule, max_size=6), label=name)
        for name in ("easylist", "easyprivacy")
    }
    easylist, easyprivacy = FilterList("easylist"), FilterList("easyprivacy")
    easylist.add_lines(lines["easylist"])
    easyprivacy.add_lines(lines["easyprivacy"])
    hosts = data.draw(
        st.lists(st.sampled_from(MEMO_HOSTS), min_size=1, unique=True)
    )
    urls = data.draw(st.permutations([
        f"https://{host}{path}{query}"
        for host in hosts
        for path in MEMO_PATHS
        for query in MEMO_QUERIES
    ]))
    requests = [make_request(url) for url in urls]

    classifier = RequestClassifier(easylist, easyprivacy)
    stages = classifier.classify(requests).stages

    rules = {
        name: [FilterRule.parse(line) for line in lines[name]]
        for name in lines
    }
    for request, stage in zip(requests, stages):
        listed = classifier.matches_lists(request)
        assert (stage is ClassificationStage.LIST) == listed, request.url
        url, fqdn = request.url, request.fqdn
        for name, filter_list in (
            ("easylist", easylist), ("easyprivacy", easyprivacy),
        ):
            assert filter_list.matches(url, fqdn) == _rule_by_rule(
                rules[name], url, fqdn
            ), (name, url)
