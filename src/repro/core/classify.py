"""Two-stage tracking-flow classification (Sect. 3.2).

Stage 1 — **filter lists**: every third-party request matching the
easylist or easyprivacy rules is a tracking flow (the LTF set); the rest
form the non-tracking set (NTF).

Stage 2 — **semi-automatic referrer closure**: an NTF request is
promoted to tracking when (a) its referrer URL is already in the LTF set
and (b) its URL carries arguments (URL-argument passing is the standard
identifier-relay mechanism between trackers).  Promotion is applied to a
fixpoint, so whole post-auction chains are recovered from a single
list-matched root.

Stage 3 — **keyword rule**: remaining NTF requests whose URL carries
arguments and whose path contains one of the empirically-built tracking
keywords ("usermatch", "rtb", "cookiesync", ...) are promoted as well.

The paper reports stages 2+3 together as the "semi-automatic"
classification (Table 2); we keep the split for diagnostics.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple

from repro.errors import ValidationError
from repro.obs import metrics as obs_metrics
from repro.obs import names as obs_names
from repro.web.filterlists import FilterList
from repro.web.requests import ThirdPartyRequest
from repro.web.rtb import TRACKING_KEYWORDS


class ClassificationStage(enum.Enum):
    """How (whether) a request was classified as tracking."""

    LIST = "list"          # stage 1: easylist / easyprivacy match
    REFERRER = "referrer"  # stage 2: referrer-in-LTF + args closure
    KEYWORD = "keyword"    # stage 3: tracking keyword + args
    NONE = "none"          # not classified as tracking

    @property
    def is_tracking(self) -> bool:
        return self is not ClassificationStage.NONE

    @property
    def is_semi_automatic(self) -> bool:
        return self in (
            ClassificationStage.REFERRER, ClassificationStage.KEYWORD,
        )


@dataclass
class StageStats:
    """Per-stage aggregates (one Table 2 row)."""

    fqdns: Set[str] = field(default_factory=set)
    tlds: Set[str] = field(default_factory=set)
    unique_urls: Set[str] = field(default_factory=set)
    total_requests: int = 0

    def absorb(self, request: ThirdPartyRequest) -> None:
        self.fqdns.add(request.fqdn)
        self.tlds.add(request.tld1)
        self.unique_urls.add(request.url)
        self.total_requests += 1

    def merge(self, other: "StageStats") -> "StageStats":
        merged = StageStats(
            fqdns=self.fqdns | other.fqdns,
            tlds=self.tlds | other.tlds,
            unique_urls=self.unique_urls | other.unique_urls,
            total_requests=self.total_requests + other.total_requests,
        )
        return merged


@dataclass
class ClassificationResult:
    """The classifier's verdict over a request log."""

    requests: List[ThirdPartyRequest]
    stages: List[ClassificationStage]

    def __post_init__(self) -> None:
        if len(self.requests) != len(self.stages):
            raise ValidationError("requests/stages length mismatch")

    # -- views ---------------------------------------------------------
    def tracking_requests(self) -> List[ThirdPartyRequest]:
        return [
            request
            for request, stage in zip(self.requests, self.stages)
            if stage.is_tracking
        ]

    def non_tracking_requests(self) -> List[ThirdPartyRequest]:
        return [
            request
            for request, stage in zip(self.requests, self.stages)
            if not stage.is_tracking
        ]

    def stage_of(self, index: int) -> ClassificationStage:
        return self.stages[index]

    def n_tracking(self) -> int:
        return sum(1 for stage in self.stages if stage.is_tracking)

    # -- Table 2 ---------------------------------------------------------
    def table2_stats(self) -> Tuple[StageStats, StageStats, StageStats]:
        """Table 2's rows — list, semi-automatic, total — in one pass.

        Equal to :meth:`list_stats`, :meth:`semi_automatic_stats` and
        :meth:`total_stats`, which stay as the per-predicate reference:
        the list and semi-automatic flows partition the tracking set, so
        the total row is their union and each request is read once.
        """
        by_list = StageStats()
        semi = StageStats()
        for request, stage in zip(self.requests, self.stages):
            if stage is ClassificationStage.LIST:
                by_list.absorb(request)
            elif stage.is_semi_automatic:
                semi.absorb(request)
        return by_list, semi, by_list.merge(semi)

    def list_stats(self) -> StageStats:
        return self._stats(lambda s: s is ClassificationStage.LIST)

    def semi_automatic_stats(self) -> StageStats:
        return self._stats(lambda s: s.is_semi_automatic)

    def total_stats(self) -> StageStats:
        return self._stats(lambda s: s.is_tracking)

    def _stats(self, predicate) -> StageStats:
        stats = StageStats()
        for request, stage in zip(self.requests, self.stages):
            if predicate(stage):
                stats.absorb(request)
        return stats

    # -- Figure 3 ---------------------------------------------------------
    def top_tlds(self, k: int = 20) -> List[Tuple[str, int, int]]:
        """Top-k tracking TLDs: (tld, list_count, semi_count) by total."""
        list_counts: Dict[str, int] = defaultdict(int)
        semi_counts: Dict[str, int] = defaultdict(int)
        for request, stage in zip(self.requests, self.stages):
            if stage is ClassificationStage.LIST:
                list_counts[request.tld1] += 1
            elif stage.is_semi_automatic:
                semi_counts[request.tld1] += 1
        totals = {
            tld: list_counts.get(tld, 0) + semi_counts.get(tld, 0)
            for tld in sorted(set(list_counts) | set(semi_counts))
        }
        ranked = sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
        return [
            (tld, list_counts.get(tld, 0), semi_counts.get(tld, 0))
            for tld, _ in ranked
        ]

    # -- Figure 2 ---------------------------------------------------------
    def per_site_counts(self) -> Dict[str, Tuple[int, int]]:
        """first-party domain → (tracking count, clean count)."""
        out: Dict[str, List[int]] = defaultdict(lambda: [0, 0])
        for request, stage in zip(self.requests, self.stages):
            slot = 0 if stage.is_tracking else 1
            out[request.first_party][slot] += 1
        return {site: (t, c) for site, (t, c) in out.items()}


class RequestClassifier:
    """The three-stage classifier."""

    def __init__(
        self,
        easylist: FilterList,
        easyprivacy: FilterList,
        keywords: Sequence[str] = TRACKING_KEYWORDS,
    ) -> None:
        self._easylist = easylist
        self._easyprivacy = easyprivacy
        self._keywords = tuple(k.lower() for k in keywords)

    # -- single-request predicates ---------------------------------------
    def matches_lists(self, request: ThirdPartyRequest) -> bool:
        """Stage-1 predicate: does either filter list match the request?

        Raises :class:`repro.errors.ClassificationError` when the
        request URL carries no derivable host (propagated from
        :attr:`ThirdPartyRequest.fqdn`).
        """
        return self.matches_lists_url(request.url, request.fqdn)

    def matches_keywords(self, request: ThirdPartyRequest) -> bool:
        """Stage-3 predicate: URL arguments plus a tracking keyword."""
        return self.matches_keywords_url(request.url, request.has_args)

    # -- URL-component predicates (columnar kernels) ----------------------
    def matches_lists_url(self, url: str, fqdn: str) -> bool:
        """Stage-1 predicate over pre-split URL components.

        The columnar kernels store ``fqdn`` as a column, so they call
        this form directly, without request objects.
        """
        return self._easylist.matches(url, fqdn) or self._easyprivacy.matches(
            url, fqdn
        )

    def matches_keywords_url(self, url: str, has_args: bool) -> bool:
        """Stage-3 predicate over pre-split URL components."""
        if not has_args:
            return False
        lowered = url.lower()
        return any(keyword in lowered for keyword in self._keywords)

    # -- full-log classification ------------------------------------------
    def classify(
        self,
        requests: Sequence[ThirdPartyRequest],
        enable_referrer_stage: bool = True,
        enable_keyword_stage: bool = True,
    ) -> ClassificationResult:
        """Classify a request log.

        The stage toggles support ablation studies: disabling the
        referrer closure and keyword heuristic reduces the classifier to
        the naive lists-only approach the paper improves upon.

        This is the **reference implementation** of the record path:
        :func:`repro.core.kernels.classify_table` reproduces it column-
        at-a-time over a :class:`~repro.columnar.table.ColumnarTable`,
        and the equivalence tests lock both to identical stage labels.

        Raises :class:`repro.errors.ValidationError` when the produced
        label vector misaligns with the request log, and propagates
        :class:`repro.errors.ClassificationError` from malformed URLs.
        """
        stages: List[ClassificationStage] = [ClassificationStage.NONE] * len(
            requests
        )
        ltf_urls: Set[str] = set()
        by_referrer: Dict[str, List[int]] = defaultdict(list)

        # Stage 1: filter lists.
        frontier: List[str] = []
        for index, request in enumerate(requests):
            if self.matches_lists(request):
                stages[index] = ClassificationStage.LIST
                if request.url not in ltf_urls:
                    ltf_urls.add(request.url)
                    frontier.append(request.url)
            else:
                by_referrer[request.referrer].append(index)

        # Stage 2: referrer closure to a fixpoint (BFS over the URL graph).
        if not enable_referrer_stage:
            frontier = []
        while frontier:
            url = frontier.pop()
            for index in by_referrer.get(url, ()):  # pragma: no branch
                if stages[index] is not ClassificationStage.NONE:
                    continue
                request = requests[index]
                if not request.has_args:
                    continue
                stages[index] = ClassificationStage.REFERRER
                if request.url not in ltf_urls:
                    ltf_urls.add(request.url)
                    frontier.append(request.url)

        # Stage 3: keyword heuristic on the remainder.
        if enable_keyword_stage:
            for index, request in enumerate(requests):
                if stages[
                    index
                ] is ClassificationStage.NONE and self.matches_keywords(
                    request
                ):
                    stages[index] = ClassificationStage.KEYWORD

        # Ambient per-pass flow counters (no-ops outside a collection
        # scope): a pure function of the input log, so the counts merge
        # identically whatever sharding executed the classification.
        if obs_metrics.active():
            for stage in ClassificationStage:
                count = sum(1 for s in stages if s is stage)
                if count:
                    obs_metrics.inc(
                        obs_names.CLASSIFY_FLOWS, count, stage=stage.value
                    )

        return ClassificationResult(requests=list(requests), stages=stages)
