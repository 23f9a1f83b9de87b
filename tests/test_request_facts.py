"""The URL facts a request stores at construction, and the one-pass
Table 2 that reads them.

``ThirdPartyRequest`` keeps host, TLD+1 and has-args as attributes: the
panel renderer passes them in from the spec it builds the URL from, and
any other caller's request splits its URL once, when it is built.  These
tests hold the stored facts to the parsing functions they replace (over
every request of the small world's engine panel), check that a
request built with renderer facts is indistinguishable from one built by
parsing, that the hand-written constructor takes the fields in order and
then ``facts``, that the facts follow a request through ``pickle`` — the
artifact cache's format — and ``dataclasses.replace``, and that a
malformed URL still fails loudly on access.  The one-pass Table 2 is
held to the three per-predicate rows it replaces.
"""

from __future__ import annotations

import dataclasses
import inspect
import pickle
from typing import Optional

import pytest

from repro.core.classify import ClassificationStage
from repro.errors import ClassificationError
from repro.netbase.addr import IPAddress
from repro.web.organizations import ServiceRole
from repro.web.requests import (
    ThirdPartyRequest,
    UrlFacts,
    tld1_of,
    url_fqdn,
    url_has_args,
)

URL = "https://t.example.com/sync?uid=1"
#: the facts the panel renderer passes for URL
RENDERED = ("t.example.com", "example.com", True)


def _request(url: str, facts: Optional[UrlFacts] = None) -> ThirdPartyRequest:
    return ThirdPartyRequest(
        first_party="s.example", url=url, referrer="https://s.example/",
        ip=IPAddress.v4(1), user_id=1, user_country="DE", day=0.0,
        https=True, truth_role=ServiceRole.COOKIE_SYNC, truth_org="o",
        truth_country="DE", chain_depth=0, facts=facts,
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
        names = [field.name for field in dataclasses.fields(ThirdPartyRequest)]
        layout = names + ["_host", "_tld1", "_has_args"]
        for requests in (
            small_study.visit_log.requests,
            [_request(URL, RENDERED)],
        ):
            data = pickle.dumps(requests, protocol=pickle.HIGHEST_PROTOCOL)
            # Renderer facts share strings as parsed ones do, and both
            # constructions set the attributes in one order, so the
            # requests pickle byte for byte as the same ones rebuilt by
            # parsing, one by one and as a list.
            parsed = [dataclasses.replace(request) for request in requests]
            assert data == pickle.dumps(
                parsed, protocol=pickle.HIGHEST_PROTOCOL
            )
            for rendered, reparsed in zip(requests, parsed):
                assert list(vars(rendered)) == list(vars(reparsed)) == layout
                assert pickle.dumps(rendered) == pickle.dumps(reparsed)
            restored = pickle.loads(data)
            assert restored == requests
            for original, copy in zip(requests, restored):
                assert vars(copy) == vars(original)
                assert list(vars(copy)) == layout

    def test_follow_dataclasses_replace(self, small_study):
        requests = small_study.visit_log.requests
        for request in requests:
            same = dataclasses.replace(request)
            assert same == request and vars(same) == vars(request)
        moved = dataclasses.replace(
            requests[0], url="https://a.other.example/p"
        )
        assert _facts(moved) == ("a.other.example", "other.example", False)

    def test_constructor_takes_the_fields_then_facts(self):
        parameters = inspect.signature(ThirdPartyRequest).parameters
        names = [field.name for field in dataclasses.fields(ThirdPartyRequest)]
        assert list(parameters) == names + ["facts"]
        assert [
            name for name, parameter in parameters.items()
            if parameter.default is not inspect.Parameter.empty
        ] == ["facts"]
        assert parameters["facts"].default is None

    def test_are_not_fields(self):
        parsed = _request(URL)
        # built by parsing its URL, and with the facts the renderer passes
        for request in (parsed, _request(URL, RENDERED)):
            assert _facts(request) == RENDERED
            names = {field.name for field in dataclasses.fields(request)}
            assert not names & {"fqdn", "tld1", "has_args", "_host", "facts"}
            assert not {"_host", "facts"} & set(dataclasses.asdict(request))
            assert dataclasses.asdict(request) == dataclasses.asdict(parsed)
            assert request == parsed and hash(request) == hash(parsed)
            assert repr(request) == repr(parsed)
            assert vars(request) == vars(parsed)

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
