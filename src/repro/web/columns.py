"""Columnar batches of third-party requests.

The measurement-visible fields of :class:`~repro.web.requests.
ThirdPartyRequest` as a :class:`~repro.columnar.table.ColumnarTable`:
low-cardinality fields (first party, FQDN, TLD+1, user country, server
IP) dictionary-encode to four bytes per row, URLs stay as strings, and
the derived properties the classifier hammers (``fqdn``, ``tld1``,
``has_args``) are stored as columns.

Ground-truth fields (``truth_role``, ``truth_org``, ``truth_country``,
``chain_depth``) are deliberately *absent*: the columnar path carries
exactly what the real extension logged, so nothing downstream of it can
accidentally read simulation truth — the same layering the README
demands of the object path, enforced here by construction.

Raises
------
:class:`repro.errors.ColumnarError` via the underlying table on any
schema misuse.
"""

from __future__ import annotations

from typing import Iterable

from repro.columnar.schema import ColumnKind, Schema
from repro.columnar.table import ColumnarTable
from repro.web.requests import ThirdPartyRequest

#: the measurement-visible request schema, in canonical column order
REQUEST_SCHEMA = Schema.of(
    ("first_party", ColumnKind.DICT),
    ("url", ColumnKind.STR),
    ("referrer", ColumnKind.STR),
    ("fqdn", ColumnKind.DICT),
    ("tld1", ColumnKind.DICT),
    ("has_args", ColumnKind.BOOL),
    ("ip", ColumnKind.DICT),
    ("user_id", ColumnKind.U32),
    ("user_country", ColumnKind.DICT),
    ("day", ColumnKind.F64),
    ("https", ColumnKind.BOOL),
)


def request_table(requests: Iterable[ThirdPartyRequest]) -> ColumnarTable:
    """Pack an iterable of request records into a columnar batch.

    The URL-derived columns (``fqdn``/``tld1``/``has_args``) are copied
    from the facts each request stored when it was built.

    Raises :class:`repro.errors.ClassificationError` when a request
    carries a URL whose host cannot be derived (propagated from
    :meth:`ThirdPartyRequest.fqdn`).
    """
    table = ColumnarTable(REQUEST_SCHEMA)
    for request in requests:
        fqdn = request.fqdn
        table.append((
            request.first_party,
            request.url,
            request.referrer,
            fqdn,
            request.tld1,
            request.has_args,
            request.ip,
            request.user_id,
            request.user_country,
            request.day,
            request.https,
        ))
    return table
