"""Crash-safe persistence primitives shared by the obs artifacts.

The run ledger lives in the cache directory, and manifests and
trace-event exports go wherever ``--trace`` and ``--trace-events``
point; all follow the same discipline the artifact cache established:
**a reader must never see a half-written document**.  Two primitives
cover every obs writer:

* :func:`atomic_write_json` — whole-document replace through a
  ``.tmp.<pid>`` sibling and ``os.replace``; a crashed writer leaves
  the previous complete document (or nothing), never a truncated one;
* :func:`append_jsonl_line` — append-only journal write: the record is
  serialized first, then written with a *single* ``write`` call on a
  file opened in append mode, so concurrent readers see whole lines.
  So bytes after the journal's last newline can only be a killed
  writer's unfinished record.  The ledger's appender holds
  :func:`exclusive_lock` (which serializes processes as well as
  threads) while it reads the last record with
  :func:`last_jsonl_record`, drops such a torn tail, and appends.

Reading the journal back goes through :func:`read_jsonl_lines`, which
converts any decoding failure into an :class:`ObservabilityError`
carrying the offending **line number**: a truncated tail that no append
has healed yet, or a corrupted middle line, is a diagnosable event,
never a raw ``json.JSONDecodeError`` escaping to the caller.
"""

from __future__ import annotations

import fcntl
import json
import os
from contextlib import contextmanager
from typing import Any, Dict, Iterator, Mapping, Optional, Tuple, Union

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


def last_jsonl_record(
    path: PathLike,
) -> Tuple[Optional[Dict[str, Any]], int]:
    """The last newline-terminated record of a JSONL file, read back
    from its end, and the byte length of the file's whole lines.

    Blank lines are skipped, and so is a torn final fragment (no
    newline: a killed writer), which starts at the returned length.
    The record is ``None`` when the file holds none; the length is 0
    for a missing file.
    """
    path = os.fspath(path)
    try:
        handle = open(path, "rb")
    except FileNotFoundError:
        return None, 0
    with handle:
        end = handle.seek(0, os.SEEK_END)
        tail = b""
        whole = 0
        while end > 0:
            start = max(0, end - (1 << 16))
            handle.seek(start)
            tail = handle.read(end - start) + tail
            end = start
            # Whole lines only: drop the fragment after the last newline
            # and, unless the file's head was reached, the line the
            # chunk boundary may have cut.
            whole = tail.rfind(b"\n") + 1
            lines = tail[:whole].split(b"\n")[:-1]
            for line in reversed(lines[1:] if end else lines):
                if line.strip():
                    record = _decode_record(
                        f"{path!r} last record", line.decode("utf-8")
                    )
                    return record, end + whole
    return None, whole


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
            if line.strip():
                yield number, _decode_record(f"{path!r} line {number}", line)


def _decode_record(where: str, line: str) -> Dict[str, Any]:
    """One JSONL line as a record; ``where`` names it in errors."""
    try:
        record = json.loads(line)
    except ValueError as exc:
        raise ObservabilityError(
            f"{where}: corrupt JSONL record ({exc})"
        ) from exc
    if not isinstance(record, dict):
        raise ObservabilityError(
            f"{where}: record must be a JSON object, got "
            f"{type(record).__name__}"
        )
    return record
