"""RIR-style address-plan allocator.

The simulated world needs a coherent address plan: every eyeball user and
every server gets an address from a prefix whose metadata records the
*true* country and the *kind* of network (eyeball access, hosting /
datacenter, or cloud).  The geolocation substrate consults this metadata
as ground truth; the commercial-database emulation deliberately ignores
parts of it (that is the paper's Table 3/4 effect).

Layout: the IPv4 space region ``10.0.0.0/8`` ... is NOT used; instead we
carve the full unicast space abstractly — the simulation never talks to a
real network, so we simply hand out /16s from ``1.0.0.0`` upward and tag
them.  IPv6 pools are carved from ``2001:db8::/32`` (the documentation
prefix) for the ~3% of tracker IPs the paper reports as IPv6.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.errors import AllocationError
from repro.netbase.addr import IPAddress, Prefix

#: network kinds recorded on allocated prefixes
KINDS = ("eyeball", "hosting", "cloud")


@dataclass(frozen=True)
class PrefixRecord:
    """Metadata attached to an allocated prefix."""

    prefix: Prefix
    country: str
    kind: str
    owner: str

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise AllocationError(f"unknown prefix kind {self.kind!r}")


class PrefixPool:
    """Sequential allocator of sub-prefixes and addresses from one prefix."""

    def __init__(self, prefix: Prefix) -> None:
        self.prefix = prefix
        self._cursor = prefix.network
        self._end = prefix.network + prefix.num_addresses

    @property
    def remaining(self) -> int:
        return self._end - self._cursor

    def allocate_prefix(self, length: int) -> Prefix:
        """Carve the next aligned sub-prefix of the given mask length."""
        if length < self.prefix.length:
            raise AllocationError(
                f"cannot allocate /{length} from {self.prefix}"
            )
        size = 1 << (
            (32 if self.prefix.version == 4 else 128) - length
        )
        # Align the cursor up to the subnet size.
        aligned = (self._cursor + size - 1) & ~(size - 1)
        if aligned + size > self._end:
            raise AllocationError(f"pool {self.prefix} exhausted")
        self._cursor = aligned + size
        return Prefix(self.prefix.version, aligned, length)

    def allocate_address(self) -> IPAddress:
        """Hand out the next single address."""
        if self._cursor >= self._end:
            raise AllocationError(f"pool {self.prefix} exhausted")
        address = IPAddress(self.prefix.version, self._cursor)
        self._cursor += 1
        return address


@dataclass
class AddressPlan:
    """The world's address plan: tagged pools per (country, kind, owner).

    ``lookup(ip)`` recovers the :class:`PrefixRecord` covering an
    address, which is how ground-truth location and network kind are
    attached to every endpoint in the simulation.
    """

    v4_root: Prefix = field(
        default_factory=lambda: Prefix.parse("1.0.0.0/8")
    )
    v6_root: Prefix = field(
        default_factory=lambda: Prefix.parse("2001:db8::/32")
    )

    def __post_init__(self) -> None:
        self._v4_super = PrefixPool(self.v4_root)
        self._v6_super = PrefixPool(self.v6_root)
        self._records: List[PrefixRecord] = []
        self._pools: Dict[Prefix, PrefixPool] = {}
        # Exact index: version -> netmask -> {network: record}, one map
        # per pool length in use.  Pools are carved from one super-pool
        # per version and never overlap, so at most one map holds an
        # address's masked network.
        self._index: Dict[int, Dict[int, Dict[int, PrefixRecord]]] = {
            4: {},
            6: {},
        }

    # -- pool creation -----------------------------------------------------
    def create_pool(
        self,
        country: str,
        kind: str,
        owner: str,
        length: int = 20,
        version: int = 4,
    ) -> PrefixRecord:
        """Allocate and register a fresh tagged pool.

        Returns the :class:`PrefixRecord`; use :meth:`pool` to draw
        addresses from it.
        """
        superpool = self._v4_super if version == 4 else self._v6_super
        try:
            prefix = superpool.allocate_prefix(length)
        except AllocationError as exc:
            raise AllocationError(
                f"address space exhausted creating pool for {owner}"
            ) from exc
        record = PrefixRecord(prefix=prefix, country=country, kind=kind, owner=owner)
        self._records.append(record)
        self._pools[prefix] = PrefixPool(prefix)
        self._index[prefix.version].setdefault(prefix.netmask(), {})[
            prefix.network
        ] = record
        return record

    def pool(self, prefix: Prefix) -> PrefixPool:
        """The live allocator behind a registered pool prefix."""
        try:
            return self._pools[prefix]
        except KeyError:
            raise AllocationError(f"unregistered pool {prefix}") from None

    # -- queries ---------------------------------------------------------
    def lookup(self, address: IPAddress) -> Optional[PrefixRecord]:
        """Find the registered prefix covering ``address``, if any."""
        value = address.value
        for netmask, networks in self._index[address.version].items():
            record = networks.get(value & netmask)
            if record is not None:
                return record
        return None

    def records(self) -> Iterator[PrefixRecord]:
        return iter(self._records)

    def records_for(
        self, country: Optional[str] = None, kind: Optional[str] = None,
        owner: Optional[str] = None,
    ) -> List[PrefixRecord]:
        """Filter registered pools by any combination of attributes."""
        out = []
        for record in self._records:
            if country is not None and record.country != country:
                continue
            if kind is not None and record.kind != kind:
                continue
            if owner is not None and record.owner != owner:
                continue
            out.append(record)
        return out
