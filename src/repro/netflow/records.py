"""NetFlow v9-style flow records (Sect. 7.2).

The paper's daily snapshots carry, per flow: collection timestamp,
exporting router and interface, layer-4 protocol, source and destination
IPs and ports, type-of-service, and the *sampled* packet and byte
counts.  :class:`FlowRecord` carries exactly those fields.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import NetFlowError
from repro.netbase.addr import IPAddress

PROTO_TCP = 6
PROTO_UDP = 17

WEB_PORTS = (80, 443)


@dataclass(frozen=True)
class FlowRecord:
    """One exported (sampled) flow.

    Raises :class:`repro.errors.NetFlowError` on construction for an
    unsupported layer-4 protocol, an out-of-range port, or non-positive
    sampled counters.
    """

    timestamp: float          # day number + fraction
    router_id: int
    interface_id: int
    protocol: int
    src_ip: IPAddress
    dst_ip: IPAddress
    src_port: int
    dst_port: int
    tos: int
    sampled_packets: int
    sampled_bytes: int

    def __post_init__(self) -> None:
        if self.protocol not in (PROTO_TCP, PROTO_UDP):
            raise NetFlowError(f"unsupported protocol {self.protocol}")
        for port in (self.src_port, self.dst_port):
            if not 0 <= port <= 65535:
                raise NetFlowError(f"port {port} out of range")
        if self.sampled_packets <= 0 or self.sampled_bytes <= 0:
            raise NetFlowError("sampled counters must be positive")

    @property
    def is_web(self) -> bool:
        """Web traffic: port 80 or 443 on either side."""
        return self.src_port in WEB_PORTS or self.dst_port in WEB_PORTS

    @property
    def is_encrypted(self) -> bool:
        """Port-443 traffic (TLS, or QUIC over UDP)."""
        return 443 in (self.src_port, self.dst_port)
