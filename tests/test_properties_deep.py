"""Deeper hypothesis property tests across subsystem boundaries."""

import random
import string

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.classify import RequestClassifier
from repro.netbase.addr import IPAddress, Prefix
from repro.netbase.allocator import AddressPlan
from repro.util.sankey import Sankey
from repro.web.filterlists import FilterList, FilterRule
from repro.web.requests import build_url, url_args, url_fqdn, url_has_args

label = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=8)
domain = st.builds(lambda a, b: f"{a}.{b}", label, label)


@given(
    domain,
    st.text(alphabet=string.ascii_lowercase + "/", min_size=0, max_size=20),
    st.dictionaries(label, label, max_size=4),
    st.booleans(),
)
def test_url_build_parse_roundtrip(fqdn, path, args, https):
    url = build_url(fqdn, path, args, https)
    assert url_fqdn(url) == fqdn
    assert url_has_args(url) == bool(args)
    assert url_args(url) == args


@given(st.lists(domain, min_size=1, max_size=8, unique=True))
def test_anchor_rules_match_exactly_their_subtrees(domains):
    """A ``||d^`` rule matches d and subdomains of d, nothing else."""
    filter_list = FilterList("t")
    covered = domains[: len(domains) // 2 + 1]
    for item in covered:
        filter_list.add(FilterRule.parse(f"||{item}^"))
    for item in domains:
        url = f"https://sub.{item}/x"
        expected = item in covered
        assert filter_list.matches(url, f"sub.{item}") == expected
        assert filter_list.matches(f"https://{item}/x", item) == expected
        # Prefix-sharing lookalikes never match.
        lookalike = f"evil{item}"
        assert not filter_list.matches(
            f"https://{lookalike}/x", lookalike
        ) or lookalike in covered


#: request logs of referrer chains: per request, whether it chains off
#: the previous request and whether its URL carries arguments
chain_flags = st.lists(
    st.tuples(st.booleans(), st.booleans()), min_size=1, max_size=30
)


def _chain_classifier():
    filter_list = FilterList("easylist")
    filter_list.add(FilterRule.parse("||root.example^"))
    return RequestClassifier(filter_list, FilterList("easyprivacy"))


def _chain_log(flags):
    """A log whose first request is list-matched and whose later ones
    chain off their predecessor (or off the site) per ``flags``."""
    from repro.web.organizations import ServiceRole
    from repro.web.requests import ThirdPartyRequest

    requests = []
    previous_url = None
    for index, (chain_off_root, with_args) in enumerate(flags):
        if chain_off_root and previous_url is not None:
            referrer = previous_url
        else:
            referrer = "https://site.example/"
        url = build_url(
            "root.example" if index == 0 else f"d{index}.example",
            f"/p{index}",
            {"uid": "1"} if with_args else None,
        )
        requests.append(
            ThirdPartyRequest(
                first_party="site.example", url=url, referrer=referrer,
                ip=IPAddress.v4(index + 1), user_id=1, user_country="DE",
                day=1.0, https=True, truth_role=ServiceRole.COOKIE_SYNC,
                truth_org="o", truth_country="DE", chain_depth=0,
            )
        )
        previous_url = url
    return requests


@given(chain_flags, st.integers(min_value=0, max_value=2**31))
@settings(max_examples=40)
def test_referrer_closure_order_invariance(flags, seed):
    """Classification must not depend on the order of the request log."""
    classifier = _chain_classifier()
    requests = _chain_log(flags)
    baseline = classifier.classify(requests)
    shuffled = list(requests)
    random.Random(seed).shuffle(shuffled)
    permuted = classifier.classify(shuffled)
    by_url_baseline = {
        r.url: s for r, s in zip(baseline.requests, baseline.stages)
    }
    by_url_permuted = {
        r.url: s for r, s in zip(permuted.requests, permuted.stages)
    }
    assert by_url_baseline == by_url_permuted


@given(chain_flags)
@settings(max_examples=40)
def test_one_pass_table2_matches_per_predicate_rows(flags):
    """``table2_stats`` equals ``list_stats``/``semi_automatic_stats``/
    ``total_stats`` on the referrer-chain logs."""
    result = _chain_classifier().classify(_chain_log(flags))
    assert result.table2_stats() == (
        result.list_stats(),
        result.semi_automatic_stats(),
        result.total_stats(),
    )


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["DE", "FR", "US"]),
            st.sampled_from(["hosting", "eyeball", "cloud"]),
            st.integers(min_value=24, max_value=28),
        ),
        min_size=1,
        max_size=25,
    )
)
@settings(max_examples=30)
def test_address_plan_pools_never_overlap(pool_specs):
    plan = AddressPlan()
    prefixes = []
    for index, (country, kind, length) in enumerate(pool_specs):
        record = plan.create_pool(country, kind, f"owner-{index}", length)
        prefixes.append(record.prefix)
    for i, first in enumerate(prefixes):
        for second in prefixes[i + 1:]:
            assert not first.overlaps(second)
    # Every allocated address resolves back to exactly its own pool.
    for index, prefix in enumerate(prefixes):
        address = plan.pool(prefix).allocate_address()
        assert plan.lookup(address).owner == f"owner-{index}"


@given(
    st.lists(
        st.tuples(
            st.sampled_from("abcd"), st.sampled_from("wxyz"),
            st.integers(min_value=1, max_value=50),
        ),
        min_size=1,
        max_size=40,
    )
)
def test_sankey_confinement_bounds(edges):
    sankey = Sankey()
    for origin, destination, weight in edges:
        sankey.add(origin, destination, weight)
    for origin in sankey.origins():
        confinement = sankey.confinement(origin)
        assert 0.0 <= confinement <= 100.0
        shares = sankey.origin_shares(origin)
        assert sum(shares.values()) == pytest.approx(100.0)
        assert confinement == pytest.approx(shares.get(origin, 0.0))


@given(st.integers(min_value=0, max_value=(1 << 32) - 1),
       st.integers(min_value=1, max_value=31))
def test_prefix_subnet_supernet_inverse(value, length):
    prefix = Prefix.of(IPAddress.v4(value), length)
    for subnet in list(prefix.subnets(length + 1))[:4]:
        assert subnet.supernet(length) == prefix
        assert subnet in prefix
