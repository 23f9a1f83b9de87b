"""Standard-format trace export: span trees as Chrome trace events.

The text flamegraph (:meth:`~repro.obs.trace.Tracer.report`) is fine in
a terminal, but the ecosystem's trace viewers — ``chrome://tracing``
and `Perfetto <https://ui.perfetto.dev>`_ — speak the Chrome
trace-event JSON format.  This module converts a recorded span tree
into that format so a run can be inspected interactively:
``repro run --trace-events out.json`` then *Open trace file* in
Perfetto.

Every span becomes one **complete event** (``"ph": "X"``): a name, a
category (the prefix before ``:`` in the span name), a start timestamp
``ts`` and duration ``dur`` in integer microseconds.  A span that
carries its own pid/tid stamp (a worker span grafted back into the
parent trace) lands on *that* track; unstamped spans land on the
caller's default track — so a fanned-out run renders with one process
lane per worker, and when more than one pid appears the exporter emits
``process_name`` metadata events naming each lane.  Events are emitted
sorted by ``ts``, and :func:`validate_trace_events` checks that a
document has the form the exporter writes, with non-decreasing
timestamps **per (pid, tid) track**.

Wall-clock origins are rebased to the earliest span start, so exported
timestamps are small, stable offsets rather than epoch seconds.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Mapping, Sequence, Union

from repro.errors import ObservabilityError
from repro.obs.persist import atomic_write_json
from repro.obs.trace import Span

#: schema marker embedded in the exported document's otherData
TRACE_EVENTS_SCHEMA = "repro.obs/trace-events/v1"

#: the trace-event phases the exporter writes, and the validator accepts:
#: complete events and process-name metadata
_PHASES = ("X", "M")

PathLike = Union[str, "os.PathLike[str]"]


def _category(name: str) -> str:
    """The span-name prefix before ``:``, or the name itself."""
    colon = name.find(":")
    return name if colon < 0 else name[:colon]


def trace_events(
    spans: Sequence[Span], pid: int = 1, tid: int = 1
) -> List[Dict[str, Any]]:
    """One complete (``X``) trace event per span, sorted by ``ts``.

    ``pid``/``tid`` are the *default* track for spans without their own
    stamp; a span carrying :attr:`~repro.obs.trace.Span.pid` (a grafted
    worker span) keeps its real process/thread identity, so fan-out
    renders as distinct lanes.  When more than one pid appears, leading
    ``process_name`` metadata events label each lane.
    """
    if not spans:
        return []
    origin = min(span.wall_start for span in spans)
    events: List[Dict[str, Any]] = []
    pids: List[int] = []
    for span in spans:
        if span.wall_end < span.wall_start:
            raise ObservabilityError(
                f"span {span.name!r} closes before it opens "
                f"({span.wall_end} < {span.wall_start}); "
                "was the tracer's clock monotonic?"
            )
        args: Dict[str, Any] = dict(sorted(span.attrs.items()))
        args["depth"] = span.depth
        args["cpu_ms"] = round(span.cpu_s * 1000.0, 3)
        span_pid = span.pid if span.pid is not None else pid
        span_tid = span.tid if span.tid is not None else tid
        if span_pid not in pids:
            pids.append(span_pid)
        events.append({
            "name": span.name,
            "cat": _category(span.name),
            "ph": "X",
            "ts": int(round((span.wall_start - origin) * 1e6)),
            "dur": int(round(span.wall_s * 1e6)),
            "pid": span_pid,
            "tid": span_tid,
            "args": args,
        })
    # Grafted worker spans land in the list after their stage's sibling
    # spans but carry earlier timestamps; viewers want (and the
    # validator checks) per-track ts order, so sort globally by ts.
    events.sort(key=lambda event: event["ts"])
    if len(pids) > 1:
        metadata = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": track_pid,
                "args": {
                    "name": (
                        "engine" if track_pid == pid
                        else f"worker {track_pid}"
                    ),
                },
            }
            for track_pid in pids
        ]
        events = metadata + events
    return events


def trace_document(
    spans: Sequence[Span], pid: int = 1, tid: int = 1
) -> Dict[str, Any]:
    """The full JSON-object-format trace document for a span tree."""
    return {
        "traceEvents": trace_events(spans, pid=pid, tid=tid),
        "displayTimeUnit": "ms",
        "otherData": {"schema": TRACE_EVENTS_SCHEMA},
    }


def write_trace_events(
    spans: Sequence[Span], path: PathLike, pid: int = 1, tid: int = 1
) -> int:
    """Validate and atomically write the trace document; returns the
    event count."""
    document = trace_document(spans, pid=pid, tid=tid)
    validate_trace_events(document)
    atomic_write_json(document, path)
    return len(document["traceEvents"])


def load_trace_events(path: PathLike) -> Dict[str, Any]:
    """Load and validate a trace document written by
    :func:`write_trace_events`."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError) as exc:
        raise ObservabilityError(
            f"cannot read trace events {os.fspath(path)!r}: {exc}"
        ) from exc
    validate_trace_events(payload)
    return payload


def validate_trace_events(payload: Any) -> None:
    """Check a document against the form :func:`trace_document` writes.

    Enforced invariants: the JSON-object form with a ``traceEvents``
    list; every event a mapping whose phase is ``X`` (complete) or
    ``M`` (metadata) — any other phase is unsupported; non-decreasing
    ``ts`` in emission order **per (pid, tid) track** (tracks from
    different processes interleave freely); non-negative integer
    ``ts``/``dur`` on every complete event.
    """
    if not isinstance(payload, Mapping):
        raise ObservabilityError(
            f"trace document must be an object, got {type(payload).__name__}"
        )
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        raise ObservabilityError(
            "trace document carries no 'traceEvents' list"
        )
    last_ts: Dict[Any, int] = {}
    for position, event in enumerate(events):
        where = f"trace event #{position}"
        if not isinstance(event, Mapping):
            raise ObservabilityError(f"{where} must be a mapping")
        phase = event.get("ph")
        if phase not in _PHASES:
            raise ObservabilityError(
                f"{where} has unsupported phase {phase!r}"
            )
        if phase == "M":
            continue  # metadata events carry no timestamp contract
        ts = event.get("ts")
        if not isinstance(ts, int) or isinstance(ts, bool) or ts < 0:
            raise ObservabilityError(
                f"{where} needs a non-negative integer 'ts', got {ts!r}"
            )
        track = (event.get("pid"), event.get("tid"))
        if track in last_ts and ts < last_ts[track]:
            raise ObservabilityError(
                f"{where} breaks timestamp ordering on track {track} "
                f"({ts} < {last_ts[track]})"
            )
        last_ts[track] = ts
        duration = event.get("dur")
        if not isinstance(duration, int) or duration < 0:
            raise ObservabilityError(
                f"{where} is a complete event without a "
                f"non-negative integer 'dur' (got {duration!r})"
            )
