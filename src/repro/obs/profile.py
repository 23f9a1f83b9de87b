"""Zero-dependency sampling profiler with mergeable collapsed stacks.

The span tracer answers "which stage was slow"; this module answers
"which *function* inside it".  A :class:`SamplingProfiler` walks
``sys._current_frames()`` from a daemon thread at a configurable rate
and folds every observed call stack into a :class:`Profile` — a flat
``{stack: microseconds}`` table whose :meth:`Profile.merge` is exact,
commutative and associative, mirroring the
:class:`~repro.obs.metrics.MetricsRegistry` fold discipline.  That is
what lets shard workers profile themselves independently and ship their
profiles home in the cache envelope: the engine folds them in canonical
plan order and the merged profile is invariant to worker count and to
completion order, and a warm replay reports the cold run's profile.

Both the frame source and the clock are injected, so tests drive the
sampler off hand-built frame objects and a
:class:`~repro.obs.clock.TickClock` and get byte-identical profiles.

Two export formats:

* **collapsed stacks** (:func:`collapsed_text`) — the classic
  one-line-per-stack ``frame;frame;frame weight`` text that every
  flamegraph tool ingests; weights are integer microseconds;
* **speedscope JSON** (:func:`speedscope_document`, schema marker
  :data:`PROFILE_SCHEMA`) — load the file at https://www.speedscope.app
  for an interactive flame view.  :func:`decode_speedscope` inverts the
  encoder exactly.

The ledger fold (:func:`report_gauges`) turns a per-stage profile
report into ``profile.self_s{func=...,stage=...}`` gauges — top-K hot
functions per stage plus an always-present ``func=_total`` row, so
budget envelopes on profiles are deterministic even when the hot set
shifts.  The diff engine classifies every ``profile.*`` delta as
*timing*, never drift.
"""

from __future__ import annotations

import json
import os
import sys
import threading
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import ObservabilityError
from repro.obs.clock import NullClock, SystemClock
from repro.obs.metrics import metric_key
from repro.obs.names import PROFILE_SELF_S
from repro.obs.persist import atomic_write_json

#: schema marker stamped into every speedscope export ("exporter" field)
PROFILE_SCHEMA = "repro.obs/profile/v1"

#: schema of the per-stage profile report the runtime assembles
PROFILE_REPORT_SCHEMA = "repro.obs/profile-report/v1"

#: the speedscope file-format schema URL viewers key on
SPEEDSCOPE_SCHEMA_URL = "https://www.speedscope.app/file-format-schema.json"

#: default sampling rate; a prime, so the sampler cannot phase-lock
#: onto periodic work and systematically miss (or always hit) it
DEFAULT_HZ = 97.0

#: frames deeper than this are truncated — runaway recursion must not
#: turn one sample into an unbounded stack tuple
MAX_STACK_DEPTH = 128

#: hot functions folded into the ledger per stage (plus ``_total``)
TOP_FUNCTIONS = 5

#: one frame: (function name, shortened file path, first line number)
Frame = Tuple[str, str, int]

#: a frame source: ``{thread_id: outermost frame}``, the shape of
#: ``sys._current_frames()``
FrameSource = Callable[[], Mapping[int, Any]]


def shorten_path(path: str) -> str:
    """A stable, machine-independent rendering of a source path.

    Paths inside the repo collapse to their ``repro/...`` suffix
    (``/srv/checkout/src/repro/core/classify.py`` →
    ``repro/core/classify.py``); everything else keeps its last two
    components, so stdlib frames stay recognizable without leaking
    absolute install prefixes into profiles.
    """
    parts = [part for part in path.replace("\\", "/").split("/") if part]
    if "repro" in parts:
        last = len(parts) - 1 - parts[::-1].index("repro")
        return "/".join(parts[last:])
    return "/".join(parts[-2:]) if parts else path


def frame_label(frame: Frame) -> str:
    """The ``func`` label value of one frame: ``file:name``."""
    name, path, _line = frame
    return f"{path}:{name}"


def walk_stack(frame: Any, limit: int = MAX_STACK_DEPTH) -> Tuple[Frame, ...]:
    """One thread's call stack as frames, outermost (root) first.

    ``frame`` is the *innermost* frame (what ``sys._current_frames()``
    yields); only ``f_code.co_name`` / ``co_filename`` /
    ``co_firstlineno`` and ``f_back`` are touched, so tests can pass
    hand-built stand-ins.
    """
    stack: List[Frame] = []
    while frame is not None and len(stack) < limit:
        code = frame.f_code
        stack.append((
            code.co_name,
            shorten_path(code.co_filename),
            int(code.co_firstlineno),
        ))
        frame = frame.f_back
    stack.reverse()
    return tuple(stack)


class Profile:
    """Folded stack samples: ``{stack: integer microseconds}``.

    Weights are integer microseconds on purpose — integer addition is
    exactly commutative *and* associative, so any merge order over any
    partition of the samples produces the same profile, the property
    the worker-fan-out fold relies on (float seconds would drift under
    re-association).
    """

    def __init__(self) -> None:
        self._weights: Dict[Tuple[Frame, ...], int] = {}

    def __len__(self) -> int:
        return len(self._weights)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Profile):
            return NotImplemented
        return self._weights == other._weights

    def add_stack(
        self, frames: Sequence[Frame], weight_us: int
    ) -> None:
        """Fold one observed stack (root first) in with ``weight_us``."""
        if weight_us < 0:
            raise ObservabilityError(
                f"stack weight must be >= 0 microseconds, got {weight_us}"
            )
        if not frames:
            return
        key = tuple(
            (str(name), str(path), int(line)) for name, path, line in frames
        )
        self._weights[key] = self._weights.get(key, 0) + int(weight_us)

    def merge(self, other: "Profile") -> "Profile":
        """Fold another profile in; exact, commutative, associative."""
        for stack, weight in other._weights.items():
            self._weights[stack] = self._weights.get(stack, 0) + weight
        return self

    @property
    def weight_us(self) -> int:
        """Total sampled weight in microseconds."""
        return sum(self._weights.values())

    @property
    def seconds(self) -> float:
        """Total sampled weight in seconds."""
        return self.weight_us / 1e6

    def stacks(self) -> List[Tuple[Tuple[Frame, ...], int]]:
        """``(stack, weight_us)`` pairs in canonical (sorted) order."""
        return sorted(self._weights.items())

    # -- serialization ---------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-able snapshot (the cache-envelope form)."""
        return {
            "schema": PROFILE_SCHEMA,
            "stacks": [
                {
                    "frames": [list(frame) for frame in stack],
                    "weight_us": weight,
                }
                for stack, weight in self.stacks()
            ],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Profile":
        """Rebuild a profile from a :meth:`to_dict` snapshot."""
        if payload.get("schema") != PROFILE_SCHEMA:
            raise ObservabilityError(
                f"profile snapshot carries schema "
                f"{payload.get('schema')!r} (expected {PROFILE_SCHEMA!r})"
            )
        stacks = payload.get("stacks")
        if not isinstance(stacks, list):
            raise ObservabilityError("profile snapshot carries no 'stacks'")
        profile = cls()
        for entry in stacks:
            frames = entry.get("frames") if isinstance(entry, Mapping) else None
            weight = entry.get("weight_us") if isinstance(entry, Mapping) else None
            if not isinstance(frames, list) or not isinstance(weight, int):
                raise ObservabilityError(
                    f"malformed profile stack entry: {entry!r:.120}"
                )
            profile.add_stack(
                [tuple(frame) for frame in frames], weight
            )
        return profile

    # -- aggregation -----------------------------------------------------
    def self_us(self) -> Dict[Frame, int]:
        """Per-function *self* time: weight of stacks it leads (µs)."""
        totals: Dict[Frame, int] = {}
        for stack, weight in self._weights.items():
            leaf = stack[-1]
            totals[leaf] = totals.get(leaf, 0) + weight
        return totals

    def total_us(self) -> Dict[Frame, int]:
        """Per-function *total* time: weight of stacks containing it."""
        totals: Dict[Frame, int] = {}
        for stack, weight in self._weights.items():
            for frame in sorted(set(stack)):
                totals[frame] = totals.get(frame, 0) + weight
        return totals

    def function_table(
        self, top: Optional[int] = None
    ) -> List[Dict[str, Any]]:
        """Per-function rows sorted by self time (descending).

        Each row carries ``func`` (the ``file:name`` label), ``line``,
        ``self_s``, ``total_s`` and ``share`` (self time as a fraction
        of the whole profile).
        """
        total_weight = self.weight_us
        totals = self.total_us()
        rows = [
            {
                "func": frame_label(frame),
                "line": frame[2],
                "self_s": weight / 1e6,
                "total_s": totals[frame] / 1e6,
                "share": weight / total_weight if total_weight else 0.0,
            }
            for frame, weight in self.self_us().items()
        ]
        rows.sort(key=lambda row: (-row["self_s"], row["func"]))
        return rows[:top] if top is not None else rows

    def render_table(self, top: int = 10) -> str:
        """A fixed-width top-N self-time table for terminal output."""
        rows = self.function_table(top=top)
        if not rows:
            return "(no samples recorded)"
        lines = [f"{'function':<56} {'self':>9} {'total':>9} {'share':>6}"]
        for row in rows:
            lines.append(
                f"{row['func']:<56} {row['self_s']:>8.3f}s "
                f"{row['total_s']:>8.3f}s {100.0 * row['share']:>5.1f}%"
            )
        return "\n".join(lines)

    def render_flame(self) -> str:
        """A text flame view: the stack tree, hottest branches first."""
        if not self._weights:
            return "(no samples recorded)"
        root: Dict[Frame, Any] = {}
        for stack, weight in self._weights.items():
            node = root
            for frame in stack:
                entry = node.setdefault(frame, {"weight": 0, "children": {}})
                entry["weight"] += weight
                node = entry["children"]
        total = self.weight_us
        lines: List[str] = []

        def render(node: Dict[Frame, Any], depth: int) -> None:
            ordered = sorted(
                node.items(), key=lambda item: (-item[1]["weight"], item[0])
            )
            for frame, entry in ordered:
                label = "  " * depth + frame_label(frame)
                share = 100.0 * entry["weight"] / total if total else 0.0
                lines.append(
                    f"{label:<64} {entry['weight'] / 1e6:>8.3f}s "
                    f"{share:>5.1f}%"
                )
                render(entry["children"], depth + 1)

        render(root, 0)
        return "\n".join(lines)


class SamplingProfiler:
    """Samples thread stacks from an injected frame source.

    ``start()`` launches a daemon thread that samples every
    ``1/hz`` seconds (excluding itself) until ``stop()``;
    ``sample_for(seconds)`` samples synchronously on the calling
    thread (the serve layer's executor-offload path);
    ``sample_once()`` takes exactly one sample — the deterministic-test
    entry point.  Every sample folds each thread's stack into
    :attr:`profile` with the sampling period as its weight, so the
    profile's total weight approximates wall time spent per stack.
    """

    def __init__(
        self,
        hz: float = DEFAULT_HZ,
        frame_source: Optional[FrameSource] = None,
        clock: Optional[NullClock] = None,
    ) -> None:
        if not hz > 0:
            raise ObservabilityError(f"sampling hz must be > 0, got {hz}")
        self.hz = float(hz)
        self.period_us = max(1, int(round(1e6 / self.hz)))
        self._frame_source: FrameSource = (
            frame_source if frame_source is not None else sys._current_frames
        )
        self.clock = clock if clock is not None else SystemClock()
        self.profile = Profile()
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def sample_once(self, exclude: Iterable[int] = ()) -> int:
        """Take one sample of every thread not in ``exclude``.

        Threads are visited in sorted id order so a multi-thread sample
        folds deterministically; returns the number of stacks folded.
        """
        excluded = frozenset(exclude)
        folded = 0
        for thread_id, frame in sorted(self._frame_source().items()):
            if thread_id in excluded:
                continue
            stack = walk_stack(frame)
            if not stack:
                continue
            with self._lock:
                self.profile.add_stack(stack, self.period_us)
            folded += 1
        return folded

    def start(self) -> None:
        """Launch the daemon sampler thread."""
        if self._thread is not None:
            raise ObservabilityError("profiler is already running")
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-profiler", daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        me = threading.get_ident()
        # Event.wait doubles as the sampling sleep AND the stop signal,
        # so stop() never waits longer than one period.
        while not self._stop.wait(self.period_us / 1e6):
            self.sample_once(exclude=(me,))

    def stop(self) -> Profile:
        """Stop the sampler thread (if running); returns a snapshot."""
        thread, self._thread = self._thread, None
        if thread is not None:
            self._stop.set()
            thread.join()
        return self.snapshot()

    def sample_for(self, seconds: float) -> Profile:
        """Sample synchronously for ``seconds`` on the calling thread.

        The calling thread excludes itself (its stack is just this
        loop); the injected clock decides when the deadline passes, so
        tests with a :class:`~repro.obs.clock.TickClock` take an exact,
        deterministic number of samples.
        """
        if not seconds > 0:
            raise ObservabilityError(
                f"sampling duration must be > 0 seconds, got {seconds}"
            )
        me = threading.get_ident()
        deadline = self.clock.wall() + seconds
        while self.clock.wall() < deadline:
            self.sample_once(exclude=(me,))
            if self._stop.wait(self.period_us / 1e6):
                break
        return self.snapshot()

    def snapshot(self) -> Profile:
        """A consistent copy of the profile collected so far."""
        with self._lock:
            return Profile().merge(self.profile)


# -- collapsed-stack text ----------------------------------------------------

def collapsed_text(profile: Profile) -> str:
    """The profile as classic collapsed stacks, one line per stack.

    Frames render as ``file:name`` joined by ``;``; the trailing field
    is the stack's integer weight in microseconds.  Lines are sorted,
    so equal profiles serialize identically.
    """
    lines = []
    for stack, weight in profile.stacks():
        frames = ";".join(frame_label(frame) for frame in stack)
        lines.append(f"{frames} {weight}")
    return "\n".join(lines) + ("\n" if lines else "")


def validate_collapsed(text: str) -> None:
    """Check collapsed-stack text: every non-blank line must be
    ``frame(;frame)* <non-negative integer>``."""
    if not isinstance(text, str):
        raise ObservabilityError(
            f"collapsed stacks must be text, got {type(text).__name__}"
        )
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        frames, _, weight = line.rpartition(" ")
        if not frames or not weight.isdigit():
            raise ObservabilityError(
                f"collapsed line {number} needs 'stack weight', "
                f"got {line!r:.120}"
            )
        if any(not part for part in frames.split(";")):
            raise ObservabilityError(
                f"collapsed line {number} has an empty frame: {line!r:.120}"
            )


def parse_collapsed(text: str) -> Profile:
    """Invert :func:`collapsed_text` (weights read as microseconds).

    Frame line numbers are not representable in the collapsed format
    and parse back as ``0``.
    """
    validate_collapsed(text)
    profile = Profile()
    for line in text.splitlines():
        if not line.strip():
            continue
        frames, _, weight = line.rpartition(" ")
        stack = []
        for part in frames.split(";"):
            path, _, name = part.rpartition(":")
            stack.append((name, path, 0))
        profile.add_stack(stack, int(weight))
    return profile


# -- speedscope JSON ---------------------------------------------------------

def speedscope_document(
    profile: Profile, name: str = "repro profile"
) -> Dict[str, Any]:
    """The profile as a speedscope *sampled* profile document.

    Frames land in ``shared.frames`` sorted; each stack becomes one
    sample (a root-first frame-index list) with its weight in seconds.
    The document validates against :func:`validate_speedscope` by
    construction and decodes back exactly via :func:`decode_speedscope`
    (weights are microsecond-exact).
    """
    frames = sorted({
        frame for stack, _ in profile.stacks() for frame in stack
    })
    index = {frame: position for position, frame in enumerate(frames)}
    samples = []
    weights = []
    for stack, weight in profile.stacks():
        samples.append([index[frame] for frame in stack])
        weights.append(weight / 1e6)
    return {
        "$schema": SPEEDSCOPE_SCHEMA_URL,
        "exporter": PROFILE_SCHEMA,
        "name": name,
        "activeProfileIndex": 0,
        "shared": {
            "frames": [
                {"name": frame[0], "file": frame[1], "line": frame[2]}
                for frame in frames
            ],
        },
        "profiles": [
            {
                "type": "sampled",
                "name": name,
                "unit": "seconds",
                "startValue": 0,
                "endValue": profile.seconds,
                "samples": samples,
                "weights": weights,
            },
        ],
    }


def validate_speedscope(payload: Any) -> None:
    """Check a document against the speedscope sampled-profile format.

    Enforced invariants: the ``$schema`` URL; a ``shared.frames`` list
    of named frames; at least one profile of ``type: "sampled"`` whose
    ``samples`` are lists of in-range frame indices and whose
    ``weights`` list is the same length with non-negative numbers.
    """
    if not isinstance(payload, Mapping):
        raise ObservabilityError(
            f"speedscope document must be an object, "
            f"got {type(payload).__name__}"
        )
    if payload.get("$schema") != SPEEDSCOPE_SCHEMA_URL:
        raise ObservabilityError(
            f"speedscope document carries $schema "
            f"{payload.get('$schema')!r} (expected "
            f"{SPEEDSCOPE_SCHEMA_URL!r})"
        )
    shared = payload.get("shared")
    frames = shared.get("frames") if isinstance(shared, Mapping) else None
    if not isinstance(frames, list):
        raise ObservabilityError(
            "speedscope document carries no 'shared.frames' list"
        )
    for position, frame in enumerate(frames):
        if not isinstance(frame, Mapping) or not isinstance(
            frame.get("name"), str
        ):
            raise ObservabilityError(
                f"speedscope frame #{position} needs a string 'name'"
            )
    profiles = payload.get("profiles")
    if not isinstance(profiles, list) or not profiles:
        raise ObservabilityError(
            "speedscope document carries no 'profiles'"
        )
    for which, entry in enumerate(profiles):
        where = f"speedscope profile #{which}"
        if not isinstance(entry, Mapping):
            raise ObservabilityError(f"{where} must be an object")
        if entry.get("type") != "sampled":
            raise ObservabilityError(
                f"{where} has type {entry.get('type')!r} "
                "(expected 'sampled')"
            )
        samples = entry.get("samples")
        weights = entry.get("weights")
        if not isinstance(samples, list) or not isinstance(weights, list):
            raise ObservabilityError(
                f"{where} needs 'samples' and 'weights' lists"
            )
        if len(samples) != len(weights):
            raise ObservabilityError(
                f"{where} has {len(samples)} samples "
                f"but {len(weights)} weights"
            )
        for position, stack in enumerate(samples):
            if not isinstance(stack, list) or not stack:
                raise ObservabilityError(
                    f"{where} sample #{position} must be a non-empty "
                    "frame-index list"
                )
            for frame_index in stack:
                if (
                    not isinstance(frame_index, int)
                    or isinstance(frame_index, bool)
                    or not 0 <= frame_index < len(frames)
                ):
                    raise ObservabilityError(
                        f"{where} sample #{position} references "
                        f"frame {frame_index!r} outside shared.frames"
                    )
        for position, weight in enumerate(weights):
            if (
                not isinstance(weight, (int, float))
                or isinstance(weight, bool)
                or weight < 0
            ):
                raise ObservabilityError(
                    f"{where} weight #{position} must be a "
                    f"non-negative number, got {weight!r}"
                )


def decode_speedscope(payload: Mapping[str, Any]) -> Profile:
    """Rebuild a :class:`Profile` from a validated speedscope document.

    Every ``sampled`` profile in the document folds in (they merge
    commutatively), so a multi-profile export decodes to the union.
    """
    validate_speedscope(payload)
    frames = payload["shared"]["frames"]
    profile = Profile()
    for entry in payload["profiles"]:
        for stack, weight in zip(entry["samples"], entry["weights"]):
            profile.add_stack(
                [
                    (
                        frames[index]["name"],
                        str(frames[index].get("file", "")),
                        int(frames[index].get("line", 0)),
                    )
                    for index in stack
                ],
                int(round(float(weight) * 1e6)),
            )
    return profile


def write_speedscope(
    profile: Profile, path: Any, name: str = "repro profile"
) -> int:
    """Validate and atomically write the speedscope document; returns
    the stack count."""
    document = speedscope_document(profile, name=name)
    validate_speedscope(document)
    atomic_write_json(document, path)
    return len(document["profiles"][0]["samples"])


def load_speedscope(path: Any) -> Profile:
    """Load, validate and decode a speedscope export."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError) as exc:
        raise ObservabilityError(
            f"cannot read speedscope profile {os.fspath(path)!r}: {exc}"
        ) from exc
    return decode_speedscope(payload)


# -- the ledger fold ---------------------------------------------------------

def build_report(
    profiles: Mapping[str, Profile],
    hz: float,
    top: int = TOP_FUNCTIONS,
) -> Dict[str, Any]:
    """The per-stage profile report (:data:`PROFILE_REPORT_SCHEMA`).

    Every stage carries its total sampled seconds and a ``self_s``
    table: the top-``top`` hot functions by self time plus the
    always-present ``_total`` row — the deterministic anchor budget
    envelopes gate on even when the hot set is empty or shifting.
    """
    stages: Dict[str, Any] = {}
    for name in sorted(profiles):
        profile = profiles[name]
        self_s = {"_total": round(profile.seconds, 6)}
        for row in profile.function_table(top=top):
            self_s[row["func"]] = round(row["self_s"], 6)
        stages[name] = {
            "seconds": round(profile.seconds, 6),
            "stacks": len(profile),
            "self_s": self_s,
        }
    return {"schema": PROFILE_REPORT_SCHEMA, "hz": float(hz), "stages": stages}


def report_gauges(report: Mapping[str, Any]) -> Dict[str, Dict[str, Any]]:
    """``profile.self_s{func=...,stage=...}`` gauges from a report.

    The inverse consumer of :func:`build_report`: provenance folds
    these into every profiled run's ledger record, and
    ``scripts/bench_to_ledger.py --profile-report`` folds a standalone
    report the same way — one shared fold, one metric shape.
    """
    if report.get("schema") != PROFILE_REPORT_SCHEMA:
        raise ObservabilityError(
            f"profile report carries schema {report.get('schema')!r} "
            f"(expected {PROFILE_REPORT_SCHEMA!r})"
        )
    stages = report.get("stages")
    if not isinstance(stages, Mapping):
        raise ObservabilityError("profile report carries no 'stages'")
    gauges: Dict[str, Dict[str, Any]] = {}
    for stage in sorted(stages):
        self_s = stages[stage].get("self_s")
        if not isinstance(self_s, Mapping) or "_total" not in self_s:
            raise ObservabilityError(
                f"profile report stage {stage!r} carries no 'self_s' "
                "table with a '_total' row"
            )
        for func in sorted(self_s):
            value = self_s[func]
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ObservabilityError(
                    f"profile report stage {stage!r} function {func!r} "
                    "carries no numeric self time"
                )
            key = metric_key(PROFILE_SELF_S, {"stage": stage, "func": func})
            gauges[key] = {"kind": "gauge", "value": float(value)}
    return gauges
