"""Inter-tracker collaboration analysis (the paper's future work).

The paper closes with: *"We also plan to extend our methodology to go
beyond the terminating end-point of tracking to capture inter-tracker
collaboration and data exchange."*  This module implements that
extension over the data the pipeline already collects.

Cookie syncing leaves a visible trail: a sync request's *referrer* names
the tracker that initiated the hand-off, and the request URL names the
tracker receiving the identifier.  Folding every classified chain edge
to the registrable-domain level yields the **collaboration graph**: a
directed graph whose nodes are tracking domains and whose edges count
observed identifier hand-offs, kept as a plain ``{source: {target:
weight}}`` mapping in which every domain is a key.

On top of the graph the analyzer reports the paper-style geographic
angle: how many hand-offs cross national borders or leave the GDPR
jurisdiction *between trackers* (the user's data now sits with both
endpoints), which neither endpoint-confinement analysis captures.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.classify import ClassificationResult
from repro.core.confinement import Locator
from repro.geodata.regions import Region, region_of_country
from repro.netbase.addr import IPAddress
from repro.web.requests import tld1_of, url_fqdn


@dataclass(frozen=True)
class HandOff:
    """One observed identifier hand-off between two tracking domains."""

    source_domain: str
    target_domain: str
    source_country: Optional[str]
    target_country: Optional[str]

    @property
    def crosses_country(self) -> bool:
        return (
            self.source_country is not None
            and self.target_country is not None
            and self.source_country != self.target_country
        )

    @property
    def leaves_gdpr(self) -> bool:
        """Data held inside EU28 handed to a tracker outside it."""
        return (
            region_of_country(self.source_country) is Region.EU28
            and region_of_country(self.target_country) is not Region.EU28
        )


class CollaborationAnalyzer:
    """Builds and analyzes the tracker collaboration graph."""

    def __init__(
        self,
        classification: ClassificationResult,
        locate: Locator,
    ) -> None:
        self._classification = classification
        self._locate = locate
        self._location_cache: Dict[IPAddress, Optional[str]] = {}
        self._hand_offs: Optional[List[HandOff]] = None
        self._graph: Optional[Dict[str, Dict[str, int]]] = None

    # -- construction -----------------------------------------------------
    def _located(self, address: IPAddress) -> Optional[str]:
        if address not in self._location_cache:
            self._location_cache[address] = self._locate(address)
        return self._location_cache[address]

    def hand_offs(self) -> List[HandOff]:
        """Extract every domain→domain identifier hand-off.

        An edge exists when a *tracking* request's referrer is itself a
        third-party tracking URL of a different registrable domain —
        the visible part of a sync chain.  Location of the source side
        uses the serving IP of the referrer request when observed.
        """
        if self._hand_offs is not None:
            return self._hand_offs
        url_server: Dict[str, IPAddress] = {}
        for request, stage in zip(
            self._classification.requests, self._classification.stages
        ):
            if stage.is_tracking:
                url_server.setdefault(request.url, request.ip)
        out: List[HandOff] = []
        for request, stage in zip(
            self._classification.requests, self._classification.stages
        ):
            if not stage.is_tracking:
                continue
            referrer_ip = url_server.get(request.referrer)
            if referrer_ip is None:
                continue  # first-party referrer or unobserved URL
            source_domain = tld1_of(url_fqdn(request.referrer))
            target_domain = request.tld1
            if source_domain == target_domain:
                continue
            out.append(
                HandOff(
                    source_domain=source_domain,
                    target_domain=target_domain,
                    source_country=self._located(referrer_ip),
                    target_country=self._located(request.ip),
                )
            )
        self._hand_offs = out
        return out

    def graph(self) -> Dict[str, Dict[str, int]]:
        """The weighted directed collaboration graph: source domain →
        target domain → hand-off count; domains that only receive map to
        an empty dict."""
        if self._graph is not None:
            return self._graph
        graph: Dict[str, Dict[str, int]] = {}
        for hand_off in self.hand_offs():
            targets = graph.setdefault(hand_off.source_domain, {})
            targets[hand_off.target_domain] = (
                targets.get(hand_off.target_domain, 0) + 1
            )
            graph.setdefault(hand_off.target_domain, {})
        self._graph = graph
        return graph

    def _components(self) -> List[int]:
        """Sizes of the weakly connected components (union-find over
        the edges, direction ignored)."""
        graph = self.graph()
        parent = {domain: domain for domain in graph}

        def root(domain: str) -> str:
            while parent[domain] != domain:
                parent[domain] = parent[parent[domain]]
                domain = parent[domain]
            return domain

        for source, targets in graph.items():
            for target in targets:
                parent[root(source)] = root(target)
        return list(Counter(root(domain) for domain in parent).values())

    # -- structure metrics ---------------------------------------------------
    def top_collaborations(self, k: int = 10) -> List[Tuple[str, str, int]]:
        """The k heaviest domain→domain hand-off edges."""
        edges = sorted(
            (
                (source, target, weight)
                for source, targets in self.graph().items()
                for target, weight in targets.items()
            ),
            key=lambda edge: (-edge[2], edge[0], edge[1]),
        )
        return edges[:k]

    def hubs(self, k: int = 10) -> List[Tuple[str, int]]:
        """Domains receiving identifiers from the most partners."""
        graph = self.graph()
        in_degree = {domain: 0 for domain in graph}
        for targets in graph.values():
            for target in targets:
                in_degree[target] += 1
        ranked = sorted(
            in_degree.items(), key=lambda pair: (-pair[1], pair[0])
        )
        return ranked[:k]

    def n_components(self) -> int:
        """Weakly connected components of the collaboration graph."""
        return len(self._components())

    def giant_component_share(self) -> float:
        """Fraction of domains in the largest component (ecosystem
        cohesion — cookie syncing binds most of the industry together)."""
        sizes = self._components()
        if not sizes:
            return 0.0
        return max(sizes) / len(self.graph())

    # -- geographic metrics ---------------------------------------------------
    def cross_border_share_pct(self) -> float:
        """Percent of hand-offs whose two trackers sit in different
        countries."""
        hand_offs = self.hand_offs()
        if not hand_offs:
            return 0.0
        crossing = sum(1 for h in hand_offs if h.crosses_country)
        return 100.0 * crossing / len(hand_offs)

    def gdpr_exit_share_pct(self) -> float:
        """Percent of hand-offs moving data from inside EU28 to outside."""
        hand_offs = self.hand_offs()
        if not hand_offs:
            return 0.0
        leaving = sum(1 for h in hand_offs if h.leaves_gdpr)
        return 100.0 * leaving / len(hand_offs)

    def country_exchange_matrix(self) -> Dict[Tuple[str, str], int]:
        """(source country, target country) → hand-off counts."""
        matrix: Counter = Counter()
        for hand_off in self.hand_offs():
            matrix[
                (hand_off.source_country or "unknown",
                 hand_off.target_country or "unknown")
            ] += 1
        return dict(matrix)

    def summary(self) -> Dict[str, float]:
        """Headline numbers for reports and tests."""
        graph = self.graph()
        return {
            "hand_offs": float(len(self.hand_offs())),
            "domains": float(len(graph)),
            "edges": float(sum(len(targets) for targets in graph.values())),
            "components": float(self.n_components()),
            "giant_component_share": self.giant_component_share(),
            "cross_border_share_pct": self.cross_border_share_pct(),
            "gdpr_exit_share_pct": self.gdpr_exit_share_pct(),
        }
