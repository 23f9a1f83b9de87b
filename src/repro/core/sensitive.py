"""Sensitive-category tracking study (Sect. 6).

The multi-stage identification funnel mirrors the paper:

1. **Automated tagging** — each first-party domain's AdWords-style
   interest topics (5–15 per domain) are matched against the GDPR
   sensitive terms.  Taggers mask many sensitive sites behind benign
   topics ("pregnancy" → "Health", "gambling" → "Games", ...), so this
   stage has high precision but limited recall.
2. **Manual inspection** — the remaining domains are reviewed by
   independent examiners; a domain enters the study when at least two
   examiners agree it is relevant to a GDPR sensitive term.  We model
   each examiner as a noisy classifier over the site's true content.

The study then counts, over the identified sensitive domains' flows,
what Figs. 9–11 show (:meth:`SensitiveStudy.flow_counts`): the
per-category flow shares (Fig. 9), the per-category destination regions
(Fig. 10), and the per-country leakage of sensitive flows (Fig. 11);
:func:`sensitive_flow_shares` turns the counts into the figures'
percentages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple,
)

from repro.core.confinement import ConfinementAnalyzer, Locator
from repro.errors import StateError, ValidationError
from repro.geodata.countries import CountryRegistry, default_registry
from repro.geodata.regions import Region, region_of_country
from repro.util.rng import RngStreams
from repro.web.publishers import SENSITIVE_CATEGORIES, Publisher
from repro.web.requests import ThirdPartyRequest


@dataclass(frozen=True)
class SensitiveDomain:
    """One first-party domain identified as sensitive."""

    domain: str
    category: str
    #: 'tagger' when the automated stage caught it, 'manual' otherwise
    identified_by: str


class ExaminerPanel:
    """The manual-inspection stage: independent noisy examiners.

    Each examiner flags a truly sensitive site with probability
    ``sensitivity`` and a benign site with probability
    ``false_positive``; a domain is accepted when at least
    ``required_agreement`` examiners flag it (the paper used two).
    """

    def __init__(
        self,
        streams: RngStreams,
        n_examiners: int = 3,
        sensitivity: float = 0.88,
        false_positive: float = 0.01,
        required_agreement: int = 2,
    ) -> None:
        if not 1 <= required_agreement <= n_examiners:
            raise ValidationError("required_agreement out of range")
        self._rng = streams.get("examiners")
        self.n_examiners = n_examiners
        self.sensitivity = sensitivity
        self.false_positive = false_positive
        self.required_agreement = required_agreement

    def review(self, publisher: Publisher) -> Optional[str]:
        """The panel's verdict for one domain (category or None)."""
        probability = (
            self.sensitivity
            if publisher.sensitive_category is not None
            else self.false_positive
        )
        flags = sum(
            1
            for _ in range(self.n_examiners)
            if self._rng.random() < probability
        )
        if flags < self.required_agreement:
            return None
        if publisher.sensitive_category is not None:
            return publisher.sensitive_category
        # A false positive gets filed under the closest-looking category.
        names = sorted(SENSITIVE_CATEGORIES)
        return names[self._rng.randrange(len(names))]


class SensitiveStudy:
    """The full Sect. 6 pipeline over a classified request log."""

    def __init__(
        self,
        publishers: Sequence[Publisher],
        streams: RngStreams,
        examiners: Optional[ExaminerPanel] = None,
        registry: Optional[CountryRegistry] = None,
    ) -> None:
        self._publishers = {p.domain: p for p in publishers}
        self._registry = registry or default_registry()
        self._examiners = examiners or ExaminerPanel(streams)
        self._identified: Optional[Dict[str, SensitiveDomain]] = None

    @classmethod
    def from_identified(
        cls,
        publishers: Sequence[Publisher],
        identified: Dict[str, SensitiveDomain],
        registry: Optional[CountryRegistry] = None,
    ) -> "SensitiveStudy":
        """Hydrate a study from an already-run identification funnel.

        The runtime persists the funnel's output (the identified-domain
        map) as a stage artifact; this constructor rebuilds a study
        around it without spinning up an examiner panel, so the flow
        analyses run identically on cache replay.
        """
        study = cls(publishers, RngStreams(0), registry=registry)
        study._identified = dict(identified)
        return study

    # -- identification funnel ---------------------------------------------
    def identify(
        self, visited_domains: Iterable[str]
    ) -> Dict[str, SensitiveDomain]:
        """Run the two-stage funnel over the visited first parties."""
        identified: Dict[str, SensitiveDomain] = {}
        needs_review: List[Publisher] = []
        for domain in sorted(set(visited_domains)):
            publisher = self._publishers.get(domain)
            if publisher is None:
                continue
            category = self._tagger_category(publisher)
            if category is not None:
                # The paper manually inspected every candidate domain,
                # refining coarse tagger labels ("Health") into precise
                # categories (pregnancy, cancer, death).
                refined = self._examiners.review(publisher)
                identified[domain] = SensitiveDomain(
                    domain=domain,
                    category=refined or category,
                    identified_by="tagger",
                )
            else:
                needs_review.append(publisher)
        for publisher in needs_review:
            category = self._examiners.review(publisher)
            if category is not None:
                identified[publisher.domain] = SensitiveDomain(
                    domain=publisher.domain,
                    category=category,
                    identified_by="manual",
                )
        self._identified = identified
        return identified

    @staticmethod
    def _tagger_category(publisher: Publisher) -> Optional[str]:
        """Stage 1: does any AdWords topic name a sensitive term?"""
        topic_set = {topic.lower() for topic in publisher.topics}
        for category in sorted(SENSITIVE_CATEGORIES):
            if category.lower() in topic_set:
                return category
        return None

    def identified_domains(self) -> Dict[str, SensitiveDomain]:
        if self._identified is None:
            raise StateError("identify() has not been run yet")
        return dict(self._identified)

    # -- flow analyses ---------------------------------------------------
    def sensitive_requests(
        self, tracking_requests: Sequence[ThirdPartyRequest]
    ) -> List[ThirdPartyRequest]:
        identified = self.identified_domains()
        return [r for r in tracking_requests if r.first_party in identified]

    def category_of(self, request: ThirdPartyRequest) -> Optional[str]:
        identified = self.identified_domains()
        record = identified.get(request.first_party)
        return record.category if record is not None else None

    def flow_counts(
        self,
        tracking_requests: Sequence[ThirdPartyRequest],
        locate: Locator,
    ) -> Dict[str, Any]:
        """The counts behind Figs. 9–11 over ``tracking_requests``.

        ``n_tracking`` and ``n_sensitive`` flows; sensitive flows per
        category; and, for EU28 users' sensitive flows, the flows per
        (category, destination region) and per user country the
        ``(leaving the country, total)`` pair.  Counts over disjoint
        flow subsets sum to the counts over their union, so the
        sensitive stage counts shard by shard and merges.
        """
        identified = self.identified_domains()
        registry = self._registry
        analyzer = ConfinementAnalyzer(locate, registry)
        categories: Dict[str, int] = {}
        category_regions: Dict[Tuple[str, str], int] = {}
        leakage: Dict[str, Tuple[int, int]] = {}
        sensitive_requests = self.sensitive_requests(tracking_requests)
        for request in sensitive_requests:
            category = identified[request.first_party].category
            categories[category] = categories.get(category, 0) + 1
            if (
                region_of_country(request.user_country, registry)
                is not Region.EU28
            ):
                continue
            destination_country = analyzer.destination_country(request.ip)
            destination = (
                region_of_country(destination_country, registry).value
                if destination_country is not None
                else Region.UNKNOWN.value
            )
            key = (category, destination)
            category_regions[key] = category_regions.get(key, 0) + 1
            leaked, total = leakage.get(request.user_country, (0, 0))
            leakage[request.user_country] = (
                leaked + (destination_country != request.user_country),
                total + 1,
            )
        return {
            "n_tracking": len(tracking_requests),
            "n_sensitive": len(sensitive_requests),
            "categories": categories,
            "category_regions": category_regions,
            "leakage": leakage,
        }


def sensitive_flow_shares(counts: Mapping[str, Any]) -> Dict[str, Any]:
    """Figs. 9–11's numbers from :meth:`SensitiveStudy.flow_counts`' counts.

    ``sensitive_share_pct``: sensitive flows as a share of all tracking
    flows (~3%); ``category_shares``: each category's share of the
    sensitive flows (Fig. 9); ``category_regions``: per category, the
    destination-region shares of EU28 users' flows (Fig. 10);
    ``leakage``: per EU28 country, ``(flows leaving the country, total
    flows)`` (Fig. 11).  Categories and countries are in sorted order.
    """
    n_tracking = counts["n_tracking"]
    categories = counts["categories"]
    total = sum(categories.values())
    per_category: Dict[str, Dict[str, int]] = {}
    for (category, destination), count in sorted(
        counts["category_regions"].items()
    ):
        per_category.setdefault(category, {})[destination] = count
    category_regions: Dict[str, Dict[str, float]] = {}
    for category, destinations in per_category.items():
        flows = sum(destinations.values())
        category_regions[category] = {
            destination: 100.0 * count / flows
            for destination, count in destinations.items()
        }
    return {
        "sensitive_share_pct": (
            100.0 * counts["n_sensitive"] / n_tracking if n_tracking else 0.0
        ),
        "category_shares": {
            category: 100.0 * count / total
            for category, count in sorted(categories.items())
        } if total else {},
        "category_regions": category_regions,
        "leakage": dict(sorted(counts["leakage"].items())),
    }
