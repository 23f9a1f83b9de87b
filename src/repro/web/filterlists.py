"""AdBlockPlus-style filter lists and the rule engine (Sect. 3.2).

The paper classifies third-party requests with the *easylist* (ads) and
*easyprivacy* (tracking) lists.  We implement the subset of the ABP rule
language those lists actually lean on for request classification:

* ``||domain.example^`` — domain-anchor rules matching the domain and
  all of its subdomains at label boundaries;
* plain substring rules (``/cookiesync.``, ``&adslot=``) matched against
  the full URL;
* ``@@||domain.example^`` — exception rules that override matches;
* the ``$third-party`` option (all our classified requests are
  third-party, so it is accepted and recorded, but never excludes).

The synthetic lists are *generated from the ecosystem the way the real
lists are curated*: list maintainers see the requests that fire directly
on publisher pages (initial ad calls, analytics tags), so domains of
organizations reachable only through post-auction chains (DMP cookie
syncs, DSP creatives, long-tail pixels) are systematically
under-covered.  That curation gap is exactly what the paper's
semi-automatic second stage (and ours, in ``repro.core.classify``)
recovers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.errors import ClassificationError
from repro.util.rng import RngStreams
from repro.web.deployment import Fleet
from repro.web.organizations import OrgKind


#: one list's anchor-rule verdict on a host: (blocked, excepted)
HostVerdict = Tuple[bool, bool]


class RuleAction(enum.Enum):
    BLOCK = "block"
    ALLOW = "allow"  # @@ exception


@dataclass(frozen=True)
class FilterRule:
    """One parsed filter rule."""

    raw: str
    action: RuleAction
    #: domain for ``||domain^`` rules, else None
    anchor_domain: Optional[str]
    #: substring for plain rules, else None
    substring: Optional[str]
    third_party_only: bool

    @classmethod
    def parse(cls, raw: str) -> "FilterRule":
        """Parse one line of ABP-subset syntax."""
        text = raw.strip()
        if not text or text.startswith("!"):
            raise ClassificationError(f"not a rule: {raw!r}")
        action = RuleAction.BLOCK
        if text.startswith("@@"):
            action = RuleAction.ALLOW
            text = text[2:]
        third_party = False
        if "$" in text:
            text, options = text.split("$", 1)
            for option in options.split(","):
                if option == "third-party":
                    third_party = True
                elif option in ("image", "script", "subdocument", "xmlhttprequest"):
                    # resource-type options don't affect our URL-level match
                    continue
                else:
                    raise ClassificationError(
                        f"unsupported rule option {option!r} in {raw!r}"
                    )
        if text.startswith("||"):
            body = text[2:]
            if body.endswith("^"):
                body = body[:-1]
            if not body or "/" in body:
                raise ClassificationError(f"malformed anchor rule {raw!r}")
            return cls(
                raw=raw, action=action, anchor_domain=body.lower(),
                substring=None, third_party_only=third_party,
            )
        if not text:
            raise ClassificationError(f"empty rule body in {raw!r}")
        return cls(
            raw=raw, action=action, anchor_domain=None,
            substring=text, third_party_only=third_party,
        )

    def matches(self, url: str, fqdn: str) -> bool:
        """Does this rule match the request URL / host?"""
        if self.anchor_domain is not None:
            return fqdn == self.anchor_domain or fqdn.endswith(
                "." + self.anchor_domain
            )
        assert self.substring is not None
        return self.substring in url


def _contains_any(url: str, texts: List[str]) -> bool:
    # A plain loop: ``any()`` over a generator costs about three times
    # as much per request, and every request is matched against both
    # lists.
    for text in texts:
        if text in url:
            return True
    return False


class FilterList:
    """A named, ordered collection of filter rules with fast matching."""

    def __init__(self, name: str, rules: Iterable[FilterRule] = ()) -> None:
        self.name = name
        self._block_anchors: Set[str] = set()
        self._allow_anchors: Set[str] = set()
        self._block_substrings: List[str] = []
        self._allow_substrings: List[str] = []
        self._n_rules = 0
        for rule in rules:
            self.add(rule)

    def __len__(self) -> int:
        return self._n_rules

    def add(self, rule: FilterRule) -> None:
        self._n_rules += 1
        if rule.anchor_domain is not None:
            target = (
                self._block_anchors
                if rule.action is RuleAction.BLOCK
                else self._allow_anchors
            )
            target.add(rule.anchor_domain)
        else:
            target_list = (
                self._block_substrings
                if rule.action is RuleAction.BLOCK
                else self._allow_substrings
            )
            assert rule.substring is not None
            target_list.append(rule.substring)

    def add_lines(self, lines: Iterable[str]) -> None:
        """Parse and add rule lines, skipping comments and blanks."""
        for line in lines:
            stripped = line.strip()
            if not stripped or stripped.startswith("!"):
                continue
            self.add(FilterRule.parse(stripped))

    # -- matching -----------------------------------------------------
    def _anchor_hit(self, fqdn: str, anchors: Set[str]) -> bool:
        # Walk suffixes of the host: a.b.c.d -> b.c.d -> c.d
        labels = fqdn.split(".")
        for start in range(len(labels) - 1):
            if ".".join(labels[start:]) in anchors:
                return True
        return False

    def host_verdict(self, fqdn: str) -> HostVerdict:
        """The anchor rules' verdict on a host: ``(blocked, excepted)``
        by ``||d^`` and ``@@||d^`` rules, matched case-insensitively.

        Anchor rules read the host alone, so one verdict serves every
        URL on that host (see :meth:`url_matches`).
        """
        fqdn = fqdn.lower()
        return (
            self._anchor_hit(fqdn, self._block_anchors),
            self._anchor_hit(fqdn, self._allow_anchors),
        )

    def url_matches(self, url: str, host: HostVerdict) -> bool:
        """ABP semantics given the URL host's :meth:`host_verdict`: any
        block match, unless an exception matches.  What is left to match
        are the substring rules, which read the URL alone."""
        blocked, excepted = host
        if excepted or not (
            blocked or _contains_any(url, self._block_substrings)
        ):
            return False
        return not _contains_any(url, self._allow_substrings)

    def matches(self, url: str, fqdn: str) -> bool:
        """Does the list match a request to ``url`` on host ``fqdn``?"""
        return self.url_matches(url, self.host_verdict(fqdn))

    def anchor_domains(self) -> List[str]:
        return sorted(self._block_anchors)


#: probability that a list maintainer has a domain of this organization
#: kind in the lists — initial-request surfaces are well covered, the
#: chain-only middle tier is not.
LIST_COVERAGE_BY_KIND: Dict[OrgKind, Tuple[float, str]] = {
    # (coverage probability, which list: "easylist" ads / "easyprivacy")
    OrgKind.HYPERSCALER: (1.00, "easylist"),
    OrgKind.SSP: (0.95, "easylist"),
    OrgKind.AD_EXCHANGE: (0.85, "easylist"),
    OrgKind.ADULT_NETWORK: (0.55, "easylist"),
    OrgKind.DSP: (0.20, "easylist"),
    OrgKind.ANALYTICS: (0.92, "easyprivacy"),
    OrgKind.DMP: (0.08, "easyprivacy"),
    OrgKind.TRACKER: (0.22, "easyprivacy"),
}

#: generic substring rules the real lists carry (path patterns)
GENERIC_EASYLIST_SUBSTRINGS = ("/adserve/", "/ads/banner", "&placement=")
GENERIC_EASYPRIVACY_SUBSTRINGS = ("/beacon/track", "/collect?ev=")


def build_filter_lists(
    fleet: Fleet, streams: RngStreams
) -> Tuple[FilterList, FilterList]:
    """Generate synthetic easylist / easyprivacy against a fleet.

    Coverage is decided per *registrable domain* with the per-kind
    probabilities above; anchor rules then cover all FQDNs under the
    domain (as real ``||domain^`` rules do).
    """
    rng = streams.get("filterlists")
    easylist = FilterList("easylist")
    easyprivacy = FilterList("easyprivacy")
    for org in fleet.organizations():
        coverage = LIST_COVERAGE_BY_KIND.get(org.kind)
        if coverage is None:
            continue
        probability, list_name = coverage
        target = easylist if list_name == "easylist" else easyprivacy
        for domain in org.domains:
            if rng.random() < probability:
                target.add(FilterRule.parse(f"||{domain}^$third-party"))
    for substring in GENERIC_EASYLIST_SUBSTRINGS:
        easylist.add(FilterRule.parse(substring))
    for substring in GENERIC_EASYPRIVACY_SUBSTRINGS:
        easyprivacy.add(FilterRule.parse(substring))
    return easylist, easyprivacy
