"""Packet-sampled flow export.

Routers export NetFlow with 1-in-N packet sampling at a constant rate
(Sect. 7.2).  Two pieces live here:

* :class:`PacketSampler` — samples a packet stream (or an already
  flow-aggregated stream) at 1-in-N and provides the standard inverse-
  probability estimator for scaling sampled counts back up.  The
  estimator's unbiasedness is covered by property tests.
* :class:`FlowExporter` — the router/interface model: assigns router and
  interface identifiers, keeps only user-facing (internal-edge)
  interfaces as the paper does, and applies ingress filtering (BCP38):
  flows whose subscriber-side address is outside the ISP's own address
  space are dropped as spoofed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro.errors import NetFlowError
from repro.netbase.addr import IPAddress, Prefix
from repro.netflow.records import FlowRecord


class PacketSampler:
    """1-in-N packet sampling with inverse-probability estimation."""

    def __init__(self, rate: int) -> None:
        if rate < 1:
            raise NetFlowError("sampling rate must be >= 1")
        self.rate = rate

    def sample_count(self, packets: int, rng: random.Random) -> int:
        """Sampled packet count for a flow of ``packets`` true packets.

        Each packet is independently kept with probability ``1/rate``
        (binomial thinning) — the exact model behind router packet
        sampling.
        """
        if packets < 0:
            raise NetFlowError("packet count must be non-negative")
        if self.rate == 1:
            return packets
        p = 1.0 / self.rate
        # Direct Bernoulli thinning for small flows; normal approximation
        # would distort the (common) 0/1-sample regime.
        if packets <= 64:
            return sum(1 for _ in range(packets) if rng.random() < p)
        mean = packets * p
        variance = packets * p * (1.0 - p)
        return max(0, int(round(rng.gauss(mean, variance ** 0.5))))

    def estimate_total(self, sampled: int) -> int:
        """Inverse-probability (Horvitz–Thompson) estimate of the truth."""
        return sampled * self.rate


@dataclass(frozen=True)
class RouterInterface:
    """One (router, interface) pair with its position in the network."""

    router_id: int
    interface_id: int
    internal_edge: bool  # carries user traffic (vs. peering edge)


class FlowExporter:
    """The ISP's exporting edge: interface filter + ingress filtering."""

    def __init__(
        self,
        interfaces: Sequence[RouterInterface],
        subscriber_space: Sequence[Prefix],
        sampler: PacketSampler,
    ) -> None:
        if not interfaces:
            raise NetFlowError("exporter needs at least one interface")
        self._interfaces = list(interfaces)
        self._internal = [i for i in interfaces if i.internal_edge]
        if not self._internal:
            raise NetFlowError("exporter needs an internal-edge interface")
        self._subscriber_space = list(subscriber_space)
        self.sampler = sampler

    def pick_interface(self, rng: random.Random) -> RouterInterface:
        return self._internal[rng.randrange(len(self._internal))]

    def is_subscriber_address(self, address: IPAddress) -> bool:
        return any(address in prefix for prefix in self._subscriber_space)

    def admit(self, record: FlowRecord) -> bool:
        """Ingress filtering (BCP38 / RFC2827): drop spoofed sources.

        A flow observed on an internal edge must have a subscriber-side
        address inside the ISP's own space.
        """
        return self.is_subscriber_address(
            record.src_ip
        ) or self.is_subscriber_address(record.dst_ip)

    def export(
        self, records: Iterable[FlowRecord]
    ) -> Iterator[FlowRecord]:
        """Filter a record stream through ingress filtering."""
        for record in records:
            if self.admit(record):
                yield record
