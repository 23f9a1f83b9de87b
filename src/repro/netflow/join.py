"""Privacy-preserving tracker-IP join over NetFlow (Sect. 7.2).

The paper matches flows against the tracker IP list with a hash
function, counting per-tracker-IP hits without retaining user IPs; user
addresses are replaced by the ISP's country code.  The join here does
exactly that:

* :class:`HashedIPMatcher` stores salted hashes of the tracker IPs and
  matches candidate addresses by hashing them — the raw tracker set is
  not consulted at match time;
* :class:`TrackerFlowJoin` walks a snapshot's flow records, checks both
  endpoints, honours each tracker IP's domain-association validity
  window, and accumulates per-IP counters plus the per-flow origin
  (anonymized to the ISP country) → destination country pairs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Optional, Tuple

from repro.errors import NetFlowError
from repro.netbase.addr import IPAddress
from repro.netflow.records import FlowRecord


class HashedIPMatcher:
    """Salted-hash membership test over the tracker IP set.

    ``window_slack_days`` extends each validity window on both sides:
    passive-DNS windows only record *observed* resolutions, so an
    association is considered live for a grace period beyond its last
    sighting (absence of observation is not evidence of reassignment).
    """

    def __init__(
        self, salt: str = "repro-join", window_slack_days: float = 75.0
    ) -> None:
        if window_slack_days < 0:
            raise NetFlowError("window slack must be non-negative")
        self._salt = salt.encode("utf-8")
        self.window_slack_days = window_slack_days
        self._hashes: Dict[bytes, IPAddress] = {}
        #: per-IP validity window; None means always valid
        self._windows: Dict[IPAddress, Optional[Tuple[float, float]]] = {}
        #: candidate-address memo: snapshots re-probe the same few
        #: thousand subscriber/server addresses millions of times, so
        #: the blake2b digest is paid once per *distinct* address and
        #: every later probe is a dict hit (invalidated on add())
        self._probe_memo: Dict[IPAddress, Optional[IPAddress]] = {}

    def __len__(self) -> int:
        return len(self._hashes)

    def _digest(self, address: IPAddress) -> bytes:
        return hashlib.blake2b(
            str(address).encode("ascii"), key=self._salt, digest_size=16
        ).digest()

    def add(
        self,
        address: IPAddress,
        window: Optional[Tuple[float, float]] = None,
    ) -> None:
        """Register a tracker IP, optionally with its validity window.

        Raises :class:`repro.errors.NetFlowError` when the window's end
        precedes its start.
        """
        if window is not None and window[1] < window[0]:
            raise NetFlowError("validity window end precedes start")
        self._hashes[self._digest(address)] = address
        self._probe_memo.clear()
        existing = self._windows.get(address)
        if window is None or existing is None and address in self._windows:
            self._windows[address] = None
        elif existing is None:
            self._windows[address] = window
        else:
            self._windows[address] = (
                min(existing[0], window[0]),
                max(existing[1], window[1]),
            )

    def probe(
        self, address: IPAddress
    ) -> Tuple[Optional[IPAddress], Optional[Tuple[float, float]]]:
        """Time-independent half of a match: ``(tracker_ip, window)``.

        ``tracker_ip`` is ``None`` for non-tracker addresses; a
        ``None`` window means always valid.  The digest is memoized per
        distinct address, so repeated probes of one address (per-flow
        matching) cost one dict lookup.
        """
        if address in self._probe_memo:
            found = self._probe_memo[address]
        else:
            found = self._hashes.get(self._digest(address))
            self._probe_memo[address] = found
        if found is None:
            return None, None
        return found, self._windows.get(found)

    def window_valid(
        self, window: Optional[Tuple[float, float]], at: float
    ) -> bool:
        """Is ``at`` inside ``window`` widened by the configured slack?"""
        if window is None:
            return True
        slack = self.window_slack_days
        return window[0] - slack <= at <= window[1] + slack

    def match(self, address: IPAddress, at: float) -> Optional[IPAddress]:
        """Return the tracker IP when ``address`` matches and is valid."""
        found, window = self.probe(address)
        if found is None or not self.window_valid(window, at):
            return None
        return found


@dataclass
class JoinResult:
    """Aggregated outcome of joining one snapshot."""

    isp_name: str
    origin_country: str
    day: float
    matched_flows: int = 0
    unmatched_flows: int = 0
    web_flows: int = 0
    encrypted_flows: int = 0
    per_tracker_ip: Dict[IPAddress, int] = field(default_factory=dict)
    #: destination country → matched flow count
    destinations: Dict[str, int] = field(default_factory=dict)

    def web_share(self) -> float:
        return self.web_flows / self.matched_flows if self.matched_flows else 0.0

    def encrypted_share(self) -> float:
        return (
            self.encrypted_flows / self.matched_flows
            if self.matched_flows
            else 0.0
        )


class TrackerFlowJoin:
    """Joins flow records against the tracker matcher with geolocation."""

    def __init__(
        self,
        matcher: HashedIPMatcher,
        locate: Callable[[IPAddress], Optional[str]],
    ) -> None:
        self._matcher = matcher
        self._locate = locate
        self._location_cache: Dict[IPAddress, Optional[str]] = {}

    def _located(self, address: IPAddress) -> Optional[str]:
        if address not in self._location_cache:
            self._location_cache[address] = self._locate(address)
        return self._location_cache[address]

    def join(
        self,
        isp_name: str,
        origin_country: str,
        day: float,
        records: Iterable[FlowRecord],
    ) -> JoinResult:
        """Aggregate one snapshot.  User IPs are never retained — the
        origin is the ISP's country code, per the paper's ethics setup."""
        result = JoinResult(
            isp_name=isp_name, origin_country=origin_country, day=day
        )
        for record in records:
            tracker_ip = self._matcher.match(record.dst_ip, record.timestamp)
            if tracker_ip is None:
                tracker_ip = self._matcher.match(
                    record.src_ip, record.timestamp
                )
            if tracker_ip is None:
                result.unmatched_flows += 1
                continue
            result.matched_flows += 1
            if record.is_web:
                result.web_flows += 1
            if record.is_encrypted:
                result.encrypted_flows += 1
            result.per_tracker_ip[tracker_ip] = (
                result.per_tracker_ip.get(tracker_ip, 0) + 1
            )
            destination = self._located(tracker_ip) or "unknown"
            result.destinations[destination] = (
                result.destinations.get(destination, 0) + 1
            )
        return result
