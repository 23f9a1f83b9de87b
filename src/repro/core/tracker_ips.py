"""Tracker IP inventory with passive-DNS completion (Sect. 3.3).

From the classified tracking flows we collect every server IP the panel
was actually served from; passive DNS then *completes* the set with IPs
that served the same tracking FQDNs but were never handed to a panel
user, and annotates every (domain, IP) pair with its validity window.
Finally, reverse passive DNS answers the *dedication* question: how many
registrable domains sit behind each tracking IP (Figures 4 and 5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.dnssim.passive import PassiveDNSDatabase
from repro.netbase.addr import IPAddress
from repro.web.requests import ThirdPartyRequest, tld1_of


@dataclass
class TrackerIPRecord:
    """Everything known about one tracking IP."""

    address: IPAddress
    #: tracking FQDNs observed (panel or pDNS) on this IP
    fqdns: Set[str] = field(default_factory=set)
    #: panel requests served by this IP (0 for pDNS-only IPs)
    request_count: int = 0
    #: True when the IP was seen by panel users (vs pDNS-only)
    seen_by_panel: bool = False
    #: validity window over all tracking (domain, IP) associations
    first_seen: Optional[float] = None
    last_seen: Optional[float] = None
    #: distinct registrable domains behind the IP per reverse pDNS
    domains_behind: Set[str] = field(default_factory=set)

    @property
    def window(self) -> Optional[Tuple[float, float]]:
        if self.first_seen is None or self.last_seen is None:
            return None
        return (self.first_seen, self.last_seen)

    @property
    def n_domains_behind(self) -> int:
        return len(self.domains_behind)

    def widen_window(self, first: float, last: float) -> None:
        self.first_seen = (
            first if self.first_seen is None else min(self.first_seen, first)
        )
        self.last_seen = (
            last if self.last_seen is None else max(self.last_seen, last)
        )


class TrackerIPInventory:
    """The tracker IP set and its completeness / dedication analysis."""

    def __init__(self) -> None:
        self._records: Dict[IPAddress, TrackerIPRecord] = {}
        self._tracking_fqdns: Set[str] = set()

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, address: IPAddress) -> bool:
        return address in self._records

    # -- construction -----------------------------------------------------
    def ingest_panel(
        self, tracking_requests: Iterable[ThirdPartyRequest]
    ) -> None:
        """Step 1: IPs that actually served panel users."""
        for request in tracking_requests:
            self._tracking_fqdns.add(request.fqdn)
            record = self._records.get(request.ip)
            if record is None:
                record = TrackerIPRecord(address=request.ip)
                self._records[request.ip] = record
            record.fqdns.add(request.fqdn)
            record.request_count += 1
            record.seen_by_panel = True

    def complete_from_pdns(
        self,
        pdns: PassiveDNSDatabase,
        window: Optional[Tuple[float, float]] = None,
    ) -> int:
        """Step 2: forward pDNS over every tracking FQDN; returns the
        number of *additional* IPs discovered."""
        added = 0
        for fqdn in sorted(self._tracking_fqdns):
            for passive in pdns.forward(fqdn, window):
                record = self._records.get(passive.address)
                if record is None:
                    record = TrackerIPRecord(address=passive.address)
                    self._records[passive.address] = record
                    added += 1
                record.fqdns.add(fqdn)
        return added

    def annotate_windows(self, pdns: PassiveDNSDatabase) -> None:
        """Step 3: per-IP validity windows from the pDNS associations."""
        for record in self._records.values():
            for fqdn in sorted(record.fqdns):
                passive = pdns.record(fqdn, record.address)
                if passive is not None:
                    record.widen_window(passive.first_seen, passive.last_seen)

    def annotate_dedication(
        self,
        pdns: PassiveDNSDatabase,
        window: Optional[Tuple[float, float]] = None,
    ) -> None:
        """Step 4: reverse pDNS — registrable domains behind each IP."""
        for record in self._records.values():
            behind = pdns.domains_behind(record.address, window)
            if not behind:
                behind = {tld1_of(fqdn) for fqdn in sorted(record.fqdns)}
            record.domains_behind = behind

    def merge_from(self, other: "TrackerIPInventory") -> None:
        """Fold another (partial) inventory into this one.

        Used by the runtime to combine per-shard inventories built over
        disjoint tracking-FQDN groups.  All fields fold commutatively
        (set union, sum, logical OR, window min/max), so the merged
        inventory is independent of shard order.
        """
        self._tracking_fqdns.update(other._tracking_fqdns)
        for address in sorted(other._records):
            theirs = other._records[address]
            record = self._records.get(address)
            if record is None:
                record = TrackerIPRecord(address=address)
                self._records[address] = record
            record.fqdns.update(theirs.fqdns)
            record.request_count += theirs.request_count
            record.seen_by_panel = record.seen_by_panel or theirs.seen_by_panel
            if theirs.first_seen is not None and theirs.last_seen is not None:
                record.widen_window(theirs.first_seen, theirs.last_seen)
            record.domains_behind.update(theirs.domains_behind)

    # -- queries ---------------------------------------------------------
    def records(self) -> List[TrackerIPRecord]:
        return [self._records[ip] for ip in sorted(self._records)]

    def record(self, address: IPAddress) -> Optional[TrackerIPRecord]:
        return self._records.get(address)

    def addresses(self) -> List[IPAddress]:
        return sorted(self._records)

    def panel_addresses(self) -> List[IPAddress]:
        return sorted(
            ip for ip, record in self._records.items() if record.seen_by_panel
        )

    def additional_addresses(self) -> List[IPAddress]:
        """pDNS-only IPs — the completeness gain of Sect. 3.3."""
        return sorted(
            ip
            for ip, record in self._records.items()
            if not record.seen_by_panel
        )

    def additional_share_pct(self) -> float:
        panel = len(self.panel_addresses())
        if panel == 0:
            return 0.0
        return 100.0 * len(self.additional_addresses()) / panel

    def ipv4_share_pct(self) -> float:
        if not self._records:
            return 0.0
        v4 = sum(1 for ip in self._records if ip.version == 4)
        return 100.0 * v4 / len(self._records)

    def request_counts(self) -> Dict[IPAddress, int]:
        return {
            ip: record.request_count for ip, record in self._records.items()
        }

    def tracking_fqdns(self) -> Set[str]:
        return set(self._tracking_fqdns)

    # -- Figure 4 / Figure 5 ------------------------------------------------
    def domains_per_ip_sample(self) -> List[int]:
        """Per-IP distinct-domain counts (Fig. 4's CDF input)."""
        return [record.n_domains_behind for record in self.records()]

    def single_domain_request_share_pct(self) -> float:
        """Share of panel requests served by single-TLD IPs (Fig. 4)."""
        total = sum(r.request_count for r in self._records.values())
        if total == 0:
            return 0.0
        single = sum(
            r.request_count
            for r in self._records.values()
            if r.n_domains_behind <= 1
        )
        return 100.0 * single / total

    def multi_domain_ip_share_pct(self, threshold: int = 2) -> float:
        """Share of IPs serving at least ``threshold`` domains."""
        if not self._records:
            return 0.0
        multi = sum(
            1
            for r in self._records.values()
            if r.n_domains_behind >= threshold
        )
        return 100.0 * multi / len(self._records)

    def heavy_multi_domain_ips(
        self, threshold: int = 10
    ) -> List[TrackerIPRecord]:
        """IPs hosting ``threshold``+ domains — the Fig. 5 population."""
        return [
            record
            for record in self.records()
            if record.n_domains_behind >= threshold
        ]
