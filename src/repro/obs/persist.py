"""Crash-safe persistence primitives shared by the obs artifacts.

Manifests, ledgers and trace-event exports all live next to the cache
artifacts they describe, and all follow the same discipline the
artifact cache established: **a reader must never see a half-written
document**.  Two primitives cover every obs writer:

* :func:`atomic_write_json` — whole-document replace through a
  ``.tmp.<pid>`` sibling and ``os.replace``; a crashed writer leaves
  the previous complete document (or nothing), never a truncated one;
* :func:`append_jsonl_line` — append-only journal write: the record is
  serialized first, then written with a *single* ``write`` call on a
  file opened in append mode, so concurrent readers see whole lines.
  (Appenders that derive anything from the journal's current contents —
  the ledger's seq — hold :func:`exclusive_lock` around read and write,
  which serializes processes as well as threads.)

Reading the journal back goes through :func:`read_jsonl_lines`, which
converts any decoding failure into an :class:`ObservabilityError`
carrying the offending **line number**: a truncated tail or a corrupted
middle line is a diagnosable event, never a raw
``json.JSONDecodeError`` escaping to the caller.
"""

from __future__ import annotations

import fcntl
import json
import os
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Mapping, Tuple, Union

from repro.errors import ObservabilityError

PathLike = Union[str, "os.PathLike[str]"]


def atomic_write_json(payload: Mapping[str, Any], path: PathLike) -> None:
    """Write ``payload`` as indented JSON via temp file + ``os.replace``."""
    path = os.fspath(path)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)


def append_jsonl_line(path: PathLike, payload: Mapping[str, Any]) -> None:
    """Append one JSON record as a single line (one ``write`` call).

    The record is rendered compactly (no internal newlines, sorted
    keys) before the file is even opened, so the append is one
    contiguous line or nothing.
    """
    line = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    path = os.fspath(path)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(line + "\n")
        handle.flush()


@contextmanager
def exclusive_lock(path: PathLike) -> Iterator[None]:
    """Hold an exclusive ``flock`` on ``path`` (created empty if absent)
    for the ``with`` block.

    ``flock`` locks belong to an open file description, so the lock
    excludes other processes and other ``open`` calls of this one alike;
    it is released when the block exits, or by the kernel when the
    holding process dies.
    """
    path = os.fspath(path)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "a", encoding="utf-8") as handle:
        fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(handle.fileno(), fcntl.LOCK_UN)


def count_jsonl_lines(path: PathLike) -> int:
    """Number of newline-terminated records in a JSONL file (0 if absent)."""
    try:
        with open(path, "rb") as handle:
            return sum(chunk.count(b"\n") for chunk in iter(
                lambda: handle.read(1 << 16), b""
            ))
    except FileNotFoundError:
        return 0


def read_jsonl_lines(path: PathLike) -> Iterator[Tuple[int, Dict[str, Any]]]:
    """Yield ``(line_number, record)`` pairs from a JSONL file.

    Line numbers are 1-based.  Blank lines are skipped; any line that
    fails to decode — including a truncated final line left by a killed
    writer — raises :class:`ObservabilityError` naming the file and the
    line number.  A missing file raises too: callers that want to treat
    absence as empty should test for existence first.
    """
    path = os.fspath(path)
    try:
        handle = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise ObservabilityError(f"cannot read {path!r}: {exc}") from exc
    with handle:
        for number, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                record = json.loads(stripped)
            except ValueError as exc:
                raise ObservabilityError(
                    f"{path!r} line {number}: corrupt JSONL record ({exc})"
                ) from exc
            if not isinstance(record, dict):
                raise ObservabilityError(
                    f"{path!r} line {number}: record must be a JSON "
                    f"object, got {type(record).__name__}"
                )
            yield number, record


def load_jsonl(path: PathLike) -> List[Dict[str, Any]]:
    """All records of a JSONL file, in file order (see
    :func:`read_jsonl_lines` for the error contract)."""
    return [record for _, record in read_jsonl_lines(path)]
