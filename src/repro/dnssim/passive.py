"""Passive-DNS replication database (the Robtex substitute, Sect. 3.3).

The database ingests (name, address, timestamp) observations from
production resolvers and maintains, per (name, address) pair, the first
and last time the association was seen.  It answers the two queries the
paper's completeness step needs:

* **forward**: all addresses ever associated with a name (optionally
  restricted to a time window) — used to find tracker IPs the panel
  users never received;
* **reverse**: all names ever served by an address — used to check
  whether a tracking IP is dedicated to tracking or shared with other
  services (Fig. 4 / Fig. 5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.errors import DNSError
from repro.netbase.addr import IPAddress
from repro.obs import metrics as obs_metrics
from repro.obs import names as obs_names


@dataclass(frozen=True)
class PassiveRecord:
    """An aggregated (name, address) association with its active window."""

    name: str
    address: IPAddress
    first_seen: float
    last_seen: float
    observations: int

    def active_during(self, start: float, end: float) -> bool:
        """True when the association window overlaps ``[start, end]``."""
        if end < start:
            raise DNSError("window end precedes start")
        return self.first_seen <= end and self.last_seen >= start

    def active_at(self, at: float) -> bool:
        return self.first_seen <= at <= self.last_seen


class PassiveDNSDatabase:
    """Time-windowed forward and reverse DNS association store."""

    def __init__(self, name: str = "pdns") -> None:
        self.name = name
        self._pairs: Dict[Tuple[str, IPAddress], List[float]] = {}
        # _pairs maps pair -> [first_seen, last_seen, count]
        self._forward: Dict[str, Set[IPAddress]] = {}
        self._reverse: Dict[IPAddress, Set[str]] = {}
        #: resolutions :meth:`observe` ingested, and the pairs it saw
        #: first; the runtime shard that owns a collector adds both to
        #: the run's counters once, when the shard ends
        self.observations = 0
        self.pairs_new = 0

    def __len__(self) -> int:
        return len(self._pairs)

    # -- ingestion -----------------------------------------------------
    def observe(self, fqdn: str, address: IPAddress, at: float) -> None:
        """Record one resolution of ``fqdn`` to ``address`` at time ``at``."""
        if not fqdn:
            raise DNSError("cannot observe an empty name")
        self.observations += 1
        key = (fqdn, address)
        entry = self._pairs.get(key)
        if entry is None:
            self.pairs_new += 1
            self._pairs[key] = [at, at, 1]
            self._forward.setdefault(fqdn, set()).add(address)
            self._reverse.setdefault(address, set()).add(fqdn)
        else:
            entry[0] = min(entry[0], at)
            entry[1] = max(entry[1], at)
            entry[2] += 1

    def merge(self, other: "PassiveDNSDatabase") -> None:
        """Fold another collector's observations into this database."""
        for (fqdn, address), (first, last, count) in other._pairs.items():
            key = (fqdn, address)
            entry = self._pairs.get(key)
            if entry is None:
                self._pairs[key] = [first, last, count]
                self._forward.setdefault(fqdn, set()).add(address)
                self._reverse.setdefault(address, set()).add(fqdn)
            else:
                entry[0] = min(entry[0], first)
                entry[1] = max(entry[1], last)
                entry[2] += count

    def pairs(self) -> List[Tuple[str, IPAddress, float, float, int]]:
        """Export all observations as sorted (name, addr, first, last, count).

        The sorted tuple form is picklable and order-canonical, which
        makes it the exchange format for runtime shards: a worker ships
        its local collector back as pairs and the merge folds them with
        :meth:`observe_pairs` — commutative min/max/sum, so the result
        is independent of merge order.
        """
        return sorted(
            (fqdn, address, entry[0], entry[1], entry[2])
            for (fqdn, address), entry in self._pairs.items()
        )

    def observe_pairs(
        self, pairs: List[Tuple[str, IPAddress, float, float, int]]
    ) -> None:
        """Fold exported :meth:`pairs` tuples into this database."""
        obs_metrics.inc(obs_names.PDNS_PAIRS_FOLDED, len(pairs))
        for fqdn, address, first, last, count in pairs:
            if not fqdn:
                raise DNSError("cannot observe an empty name")
            key = (fqdn, address)
            entry = self._pairs.get(key)
            if entry is None:
                self._pairs[key] = [first, last, count]
                self._forward.setdefault(fqdn, set()).add(address)
                self._reverse.setdefault(address, set()).add(fqdn)
            else:
                entry[0] = min(entry[0], first)
                entry[1] = max(entry[1], last)
                entry[2] += count

    # -- queries ---------------------------------------------------------
    def record(self, fqdn: str, address: IPAddress) -> Optional[PassiveRecord]:
        entry = self._pairs.get((fqdn, address))
        if entry is None:
            return None
        return PassiveRecord(fqdn, address, entry[0], entry[1], entry[2])

    def forward(
        self,
        fqdn: str,
        window: Optional[Tuple[float, float]] = None,
    ) -> List[PassiveRecord]:
        """All addresses associated with ``fqdn`` (within ``window``)."""
        out = []
        for address in sorted(self._forward.get(fqdn, ())):  # pragma: no branch
            record = self.record(fqdn, address)
            assert record is not None
            if window is None or record.active_during(*window):
                out.append(record)
        return sorted(out, key=lambda r: (r.address, r.first_seen))

    def reverse(
        self,
        address: IPAddress,
        window: Optional[Tuple[float, float]] = None,
    ) -> List[PassiveRecord]:
        """All names served by ``address`` (within ``window``)."""
        out = []
        for fqdn in sorted(self._reverse.get(address, ())):  # pragma: no branch
            record = self.record(fqdn, address)
            assert record is not None
            if window is None or record.active_during(*window):
                out.append(record)
        return sorted(out, key=lambda r: (r.name, r.first_seen))

    def names(self) -> Iterator[str]:
        return iter(sorted(self._forward))

    def addresses(self) -> Iterator[IPAddress]:
        return iter(sorted(self._reverse))

    def domains_behind(
        self,
        address: IPAddress,
        window: Optional[Tuple[float, float]] = None,
    ) -> Set[str]:
        """Distinct registrable domains (TLD+1) served by ``address``."""
        from repro.dnssim.authority import zone_apex_of

        return {
            zone_apex_of(record.name)
            for record in self.reverse(address, window)
        }
