"""Exception hierarchy for the ``repro`` package.

Every error raised by the package derives from :class:`ReproError`, so
callers can catch one base class at an API boundary.  Subclasses are
organized by subsystem, mirroring the package layout.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigError(ReproError):
    """Raised when an experiment configuration is inconsistent or invalid."""


class AddressError(ReproError):
    """Raised for malformed IP addresses or prefixes."""


class AllocationError(AddressError):
    """Raised when an address pool cannot satisfy an allocation request."""


class GeoDataError(ReproError):
    """Raised for unknown countries, regions, or malformed geo queries."""


class DNSError(ReproError):
    """Raised for DNS simulation failures (unknown zone, no answer, ...)."""


class NXDomainError(DNSError):
    """Raised when a queried name does not exist in any authoritative zone."""


class GeolocationError(ReproError):
    """Raised when a geolocation engine cannot produce an estimate."""


class ClassificationError(ReproError):
    """Raised for malformed request records or filter-list rules."""


class NetFlowError(ReproError):
    """Raised for malformed flow records or exporter misconfiguration."""


class ValidationError(ReproError, ValueError):
    """Raised when a caller passes an invalid argument.

    Also a :class:`ValueError`, so call sites that predate the taxonomy
    (and external callers following stdlib idiom) keep working.
    """


class StateError(ReproError, RuntimeError):
    """Raised when an operation is invoked in an unusable object state
    (e.g. querying results before the computation ran).

    Also a :class:`RuntimeError` for stdlib-idiom compatibility.
    """


class UnknownKeyError(ReproError, KeyError):
    """Raised when a lookup by name/key has no match.

    Also a :class:`KeyError` for stdlib-idiom compatibility; note the
    usual ``KeyError`` quirk that ``str()`` quotes the message.
    """


class LintError(ReproError):
    """Raised by :mod:`repro.lint` for rule registration conflicts."""


class ExecutionError(ReproError):
    """Raised by :mod:`repro.runtime` when sharded execution produces
    inconsistent results (shard loss, misaligned merges) or the engine
    is misconfigured."""


class ObservabilityError(ReproError):
    """Raised by :mod:`repro.obs` for malformed manifests, mismatched
    span nesting, or metric type conflicts."""
