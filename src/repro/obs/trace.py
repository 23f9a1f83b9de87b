"""Hierarchical span tracing with an injected clock.

A :class:`Tracer` records a tree of :class:`Span` records:
``tracer.span("stage:geolocate", shard="ips[0:12]")`` opens a child of
whatever span is currently open, stamps wall and CPU time from the
tracer's injected clock (see :mod:`repro.obs.clock`), and closes on
context exit.  Spans are stored flat, in *opening* order, each carrying
its parent index and depth — a form that serializes directly into the
run manifest and renders as a text flame report.

Tracers are passed explicitly: the engine opens its spans on the tracer
a run was given, and the executor gives each shard its own.  An
untraced run passes :data:`NULL_TRACER` (null clock, records
discarded), so it pays almost nothing and — crucially — a traced and an
untraced run execute the exact same pipeline code.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

from repro.errors import ObservabilityError
from repro.obs.clock import NullClock, SystemClock


@dataclass
class Span:
    """One timed, attributed section of a run."""

    name: str
    index: int
    parent: Optional[int]
    depth: int
    attrs: Dict[str, Any] = field(default_factory=dict)
    wall_start: float = 0.0
    wall_end: float = 0.0
    cpu_start: float = 0.0
    cpu_end: float = 0.0
    #: recording process / thread identity, stamped only on spans that
    #: crossed a process boundary (worker spans grafted back into the
    #: parent trace); ``None`` means "the recording tracer's own track"
    pid: Optional[int] = None
    tid: Optional[int] = None

    @property
    def wall_s(self) -> float:
        """Wall-clock duration in seconds."""
        return self.wall_end - self.wall_start

    @property
    def cpu_s(self) -> float:
        """CPU-time duration in seconds."""
        return self.cpu_end - self.cpu_start

    def to_row(self) -> Dict[str, Any]:
        """The span as a JSON-able manifest row."""
        row = {
            "name": self.name,
            "index": self.index,
            "parent": self.parent,
            "depth": self.depth,
            "attrs": dict(sorted(self.attrs.items())),
            "wall_s": round(self.wall_s, 6),
            "cpu_s": round(self.cpu_s, 6),
        }
        if self.pid is not None:
            row["pid"] = self.pid
            row["tid"] = self.tid
        return row


class Tracer:
    """Collects a span tree against an injected clock."""

    def __init__(self, clock: Optional[NullClock] = None) -> None:
        self.clock = clock if clock is not None else SystemClock()
        self.spans: List[Span] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        """Open a child span for the ``with`` scope and time it."""
        record = Span(
            name=name,
            index=len(self.spans),
            parent=self._stack[-1] if self._stack else None,
            depth=len(self._stack),
            attrs=dict(attrs),
        )
        self.spans.append(record)
        self._stack.append(record.index)
        record.wall_start = self.clock.wall()
        record.cpu_start = self.clock.cpu()
        try:
            yield record
        finally:
            record.wall_end = self.clock.wall()
            record.cpu_end = self.clock.cpu()
            popped = self._stack.pop()
            if popped != record.index:
                raise ObservabilityError(
                    f"span nesting corrupted: closed {record.name!r} "
                    f"but span #{popped} was on top"
                )

    def rows(self) -> List[Dict[str, Any]]:
        """Every span as a JSON-able row, in opening order."""
        return [span.to_row() for span in self.spans]

    def find(self, name: str) -> List[Span]:
        """All spans with the given name, in opening order."""
        return [span for span in self.spans if span.name == name]

    def graft(
        self, rows: List[Dict[str, Any]], parent: Optional[int] = None
    ) -> List[Span]:
        """Append spans another tracer recorded, re-parented under ours.

        ``rows`` is a :func:`spans_to_payload` export (a worker
        process's span tree); indices inside it are local, so parents
        are rebased onto this tracer's index space and the whole tree
        hangs off ``parent`` (an index into :attr:`spans`, or ``None``
        for top level).  Timestamps are kept as recorded: a worker
        tracer on the system clock and a :class:`SystemClock` tracer
        read one clock, so the grafted spans sit where they ran.  CPU
        timestamps are process-local; their difference is still the
        recording process's CPU cost.
        """
        if parent is not None and not 0 <= parent < len(self.spans):
            raise ObservabilityError(
                f"cannot graft under span #{parent}: "
                f"only {len(self.spans)} spans recorded"
            )
        base = len(self.spans)
        base_depth = self.spans[parent].depth + 1 if parent is not None else 0
        grafted: List[Span] = []
        for position, row in enumerate(rows):
            if not isinstance(row, dict) or "name" not in row:
                raise ObservabilityError(
                    f"grafted span #{position} must be a mapping "
                    f"with a 'name', got {row!r:.120}"
                )
            local_parent = row.get("parent")
            if local_parent is not None and not (
                isinstance(local_parent, int)
                and 0 <= local_parent < position
            ):
                raise ObservabilityError(
                    f"grafted span #{position} has parent "
                    f"{local_parent!r} outside the rows before it"
                )
            span = Span(
                name=str(row["name"]),
                index=base + position,
                parent=(
                    parent if local_parent is None else base + local_parent
                ),
                depth=base_depth + int(row.get("depth", 0)),
                attrs=dict(row.get("attrs") or {}),
                wall_start=float(row.get("wall_start", 0.0)),
                wall_end=float(row.get("wall_end", 0.0)),
                cpu_start=float(row.get("cpu_start", 0.0)),
                cpu_end=float(row.get("cpu_end", 0.0)),
                pid=row.get("pid"),
                tid=row.get("tid"),
            )
            self.spans.append(span)
            grafted.append(span)
        return grafted

    def report(self) -> str:
        """A text flamegraph: one line per span, indented by depth.

        Durations are wall seconds; the percentage is of the *root*
        span's wall time, so hot stages stand out at a glance::

            run                                3.214s 100.0%
              world:build                      1.002s  31.2%
              stage:panel  shards=8            0.911s  28.3%
                execute                        0.874s  27.2%
        """
        if not self.spans:
            return "(no spans recorded)"
        root_wall = self.spans[0].wall_s
        lines = []
        for span in self.spans:
            attrs = " ".join(
                f"{key}={value}" for key, value in sorted(span.attrs.items())
            )
            label = "  " * span.depth + span.name + (f"  {attrs}" if attrs else "")
            share = 100.0 * span.wall_s / root_wall if root_wall > 0 else 0.0
            lines.append(f"{label:<48} {span.wall_s:>9.3f}s {share:>5.1f}%")
        return "\n".join(lines)


class NullTracer(Tracer):
    """A tracer that keeps the nesting discipline but records nothing.

    An untraced run's tracer: the engine can always open spans, and
    the only cost is one context-manager frame and a throwaway record —
    no clock reads, nothing retained.
    """

    def __init__(self) -> None:
        super().__init__(clock=NullClock())

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        # A fresh record so callers may set attrs on it; it is simply
        # never stored.
        yield Span(name=name, index=-1, parent=None, depth=0, attrs=dict(attrs))

    def rows(self) -> List[Dict[str, Any]]:
        return []

    def graft(
        self, rows: List[Dict[str, Any]], parent: Optional[int] = None
    ) -> List[Span]:
        return []

    def report(self) -> str:
        return "(tracing disabled)"


def spans_to_payload(spans: List[Span]) -> List[Dict[str, Any]]:
    """Full-fidelity, JSON/pickle-able span rows for cross-process
    shipping.

    Unlike :meth:`Span.to_row` (rounded durations, a *report* shape),
    this keeps the raw wall/CPU start and end readings and the pid/tid
    stamps, which is what :meth:`Tracer.graft` needs to place a worker
    tree in the parent timeline.  Parent indices stay local to the
    list, so the payload is self-contained.
    """
    return [
        {
            "name": span.name,
            "parent": span.parent,
            "depth": span.depth,
            "attrs": dict(sorted(span.attrs.items())),
            "wall_start": span.wall_start,
            "wall_end": span.wall_end,
            "cpu_start": span.cpu_start,
            "cpu_end": span.cpu_end,
            "pid": span.pid,
            "tid": span.tid,
        }
        for span in spans
    ]


#: the process-wide no-op tracer
NULL_TRACER = NullTracer()
