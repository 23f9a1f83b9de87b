"""The URL facts a request stores at construction, and the one-pass
Table 2 that reads them.

``ThirdPartyRequest`` splits its URL once, when it is built, and keeps
host, TLD+1 and has-args as attributes.  These tests hold the stored
facts to the parsing functions they replace (over every small-world
panel request), check that they follow a request through ``pickle`` —
the artifact cache's format — and ``dataclasses.replace``, and that a
malformed URL still fails loudly on access.  The one-pass Table 2 is
held to the three per-predicate rows it replaces.
"""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.core.classify import ClassificationStage
from repro.errors import ClassificationError
from repro.netbase.addr import IPAddress
from repro.web.organizations import ServiceRole
from repro.web.requests import (
    ThirdPartyRequest,
    tld1_of,
    url_fqdn,
    url_has_args,
)


def _request(url: str) -> ThirdPartyRequest:
    return ThirdPartyRequest(
        first_party="s.example", url=url, referrer="https://s.example/",
        ip=IPAddress.v4(1), user_id=1, user_country="DE", day=0.0,
        https=True, truth_role=ServiceRole.COOKIE_SYNC, truth_org="o",
        truth_country="DE", chain_depth=0,
    )


def _facts(request: ThirdPartyRequest):
    return request.fqdn, request.tld1, request.has_args


def _parsed(url: str):
    fqdn = url_fqdn(url)
    return fqdn, tld1_of(fqdn), url_has_args(url)


class TestStoredFacts:
    def test_match_the_parsers_on_every_panel_request(self, small_study):
        requests = small_study.visit_log.requests
        assert requests
        for request in requests:
            assert _facts(request) == _parsed(request.url), request.url

    def test_survive_pickle(self, small_study):
        requests = small_study.visit_log.requests
        restored = pickle.loads(
            pickle.dumps(requests, protocol=pickle.HIGHEST_PROTOCOL)
        )
        assert restored == requests
        for original, copy in zip(requests, restored):
            assert vars(copy) == vars(original)

    def test_follow_dataclasses_replace(self, small_study):
        requests = small_study.visit_log.requests
        for request in requests:
            same = dataclasses.replace(request)
            assert same == request and vars(same) == vars(request)
        moved = dataclasses.replace(
            requests[0], url="https://a.other.example/p"
        )
        assert _facts(moved) == ("a.other.example", "other.example", False)

    def test_are_not_fields(self):
        request = _request("https://t.example.com/sync?uid=1")
        assert _facts(request) == ("t.example.com", "example.com", True)
        names = {field.name for field in dataclasses.fields(request)}
        assert not names & {"fqdn", "tld1", "has_args", "_host"}
        assert "_host" not in dataclasses.asdict(request)
        assert request == _request("https://t.example.com/sync?uid=1")
        assert hash(request) == hash(
            _request("https://t.example.com/sync?uid=1")
        )

    def test_hostless_url_fails_on_access_not_construction(self):
        request = _request("not-a-url")
        with pytest.raises(ClassificationError):
            request.fqdn
        with pytest.raises(ClassificationError):
            request.tld1
        assert request.has_args is False

    def test_underivable_tld1_fails_on_access(self):
        request = _request("https://localhost/x")
        assert request.fqdn == "localhost"
        with pytest.raises(ClassificationError):
            request.tld1

    def test_unparseable_url_raises_as_the_parser_does(self):
        request = _request("https://[::1/x")
        with pytest.raises(ValueError):
            request.fqdn
        with pytest.raises(ValueError):
            request.has_args


def test_one_pass_table2_on_small_world(small_study):
    result = small_study.classification
    stages = set(result.stages)
    assert ClassificationStage.LIST in stages
    assert stages & {ClassificationStage.REFERRER, ClassificationStage.KEYWORD}
    assert result.table2_stats() == (
        result.list_stats(),
        result.semi_automatic_stats(),
        result.total_stats(),
    )
