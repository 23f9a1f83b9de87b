"""Third-party request records — the unit of observation of the study.

The browser extension (Sect. 3.1) logs, for every outgoing third-party
request: the first-party domain being visited, the third-party URL, the
referrer, and the server IP that ultimately answered.  We keep exactly
those fields, plus simulation-only ground truth (the true serving
country, organization, and service role) that the *evaluation* uses but
the measurement pipeline itself never reads.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Dict, Optional
from urllib.parse import parse_qsl, urlsplit

from repro.errors import ClassificationError
from repro.netbase.addr import IPAddress
from repro.web.organizations import ServiceRole


def tld1_of(fqdn: str) -> str:
    """The registrable domain (TLD+1) of an FQDN.

    The simulated namespace only mints two-label registrable domains, so
    this is the last two labels.  Mirrors the paper's use of "TLD" for
    aggregation in Table 2 and Fig. 3.
    """
    labels = fqdn.split(".")
    if len(labels) < 2 or not all(labels):
        raise ClassificationError(f"cannot derive TLD+1 of {fqdn!r}")
    return ".".join(labels[-2:])


def build_url(
    fqdn: str,
    path: str,
    args: Optional[Dict[str, str]] = None,
    https: bool = True,
) -> str:
    """Assemble a URL from components (deterministic arg order)."""
    scheme = "https" if https else "http"
    if not path.startswith("/"):
        path = "/" + path
    query = ""
    if args:
        query = "?" + "&".join(
            f"{key}={value}" for key, value in sorted(args.items())
        )
    return f"{scheme}://{fqdn}{path}{query}"


def url_fqdn(url: str) -> str:
    """Extract the host of a URL."""
    host = urlsplit(url).hostname
    if not host:
        raise ClassificationError(f"URL has no host: {url!r}")
    return host


def url_has_args(url: str) -> bool:
    """True when the URL carries a non-empty query string."""
    return bool(urlsplit(url).query)


def url_path(url: str) -> str:
    return urlsplit(url).path


def url_args(url: str) -> Dict[str, str]:
    return dict(parse_qsl(urlsplit(url).query))


@dataclass(frozen=True)
class ThirdPartyRequest:
    """One observed third-party request.

    Measurement-visible fields (what the real extension logged):
    ``first_party``, ``url``, ``referrer``, ``ip``, ``user_country``,
    ``day``, ``https``.  The remaining fields are simulation ground
    truth used only for evaluation and calibration.
    """

    # -- measurement-visible ------------------------------------------------
    first_party: str
    url: str
    referrer: str
    ip: IPAddress
    user_id: int
    user_country: str
    day: float
    https: bool
    # -- ground truth (evaluation only) ----------------------------------
    truth_role: ServiceRole
    truth_org: str
    truth_country: str
    chain_depth: int

    def __post_init__(self) -> None:
        # The URL is split once, here, and its facts are kept as plain
        # attributes: the record path reads ``fqdn``/``tld1``/``has_args``
        # per request in every stage and report.  They are not fields, so
        # equality, hashing, ``asdict`` and the export see the logged
        # fields only; pickles carry them, so replayed shard artifacts
        # never re-parse.  A URL without a derivable host or TLD+1 stores
        # ``None`` and the accessor re-derives it, which raises: malformed
        # logs still fail loudly, on access rather than at construction.
        host: Optional[str] = None
        tld1: Optional[str] = None
        has_args: Optional[bool] = None
        try:
            parts = urlsplit(self.url)
            host, has_args = parts.hostname, bool(parts.query)
        except ValueError:
            pass  # unparseable: the accessors re-raise the parser's error
        if host is not None:
            host = sys.intern(host)
            try:
                tld1 = sys.intern(tld1_of(host))
            except ClassificationError:
                pass  # no TLD+1: the accessor raises on access
        object.__setattr__(self, "_host", host)
        object.__setattr__(self, "_tld1", tld1)
        object.__setattr__(self, "_has_args", has_args)

    @property
    def fqdn(self) -> str:
        host = self._host  # type: ignore[attr-defined]
        return url_fqdn(self.url) if host is None else host

    @property
    def tld1(self) -> str:
        tld1 = self._tld1  # type: ignore[attr-defined]
        return tld1_of(self.fqdn) if tld1 is None else tld1

    @property
    def has_args(self) -> bool:
        has_args = self._has_args  # type: ignore[attr-defined]
        return url_has_args(self.url) if has_args is None else has_args

    @property
    def is_tracking_truth(self) -> bool:
        return self.truth_role is not ServiceRole.CLEAN_WIDGET


@dataclass(frozen=True)
class Visit:
    """One first-party page visit by a panel user."""

    user_id: int
    user_country: str
    publisher_domain: str
    day: float
