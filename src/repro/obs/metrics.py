"""Typed metrics: counters, gauges and histograms with exact merges.

A :class:`MetricsRegistry` holds named instruments keyed by a canonical
``name{label=value,...}`` string.  Three properties make the registry
safe for the runtime's sharded execution:

* **no timing inside** — wall/CPU time lives in spans
  (:mod:`repro.obs.trace`), never in metrics, so a registry snapshot is
  a pure function of the work performed and can be compared exactly
  across worker counts;
* **plain-dict snapshots** — :meth:`MetricsRegistry.to_dict` /
  :meth:`MetricsRegistry.from_dict` round-trip through JSON-able dicts,
  which is how a pool worker ships its shard-local registry back to the
  parent;
* **commutative merges** — counters add, histograms add bucket-wise and
  fold min/max, gauges fold by max, so folding shard snapshots in any
  order yields the same registry.

Nothing in the package writes a gauge any more; :class:`Gauge` stays so
that older snapshots and ledger records carrying one (``bench.time_s``,
``lint.time_s``, ``serve.requests_per_s``) still load, merge and diff.

Instrumented library code (the classifier, the geolocation engine, the
passive-DNS store) does not receive a registry argument — it writes
through the module-level ambient helpers :func:`inc` and
:func:`observe`, which are no-ops unless a collection scope
(:func:`collecting`) is active.  That keeps instrumentation zero-cost
and invisible on the legacy serial path.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from repro.errors import ObservabilityError

#: default histogram bucket upper bounds (the last bucket is +inf);
#: chosen for ratios/margins (0..1) and small counts alike
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.1, 0.25, 0.5, 0.75, 0.9, 1.0, 2.0, 5.0, 10.0, 100.0,
)


def metric_key(name: str, labels: Mapping[str, Any]) -> str:
    """Canonical instrument key: ``name`` or ``name{k=v,...}``.

    Labels are sorted by key, so two call sites naming the same labels
    in different order address the same instrument.
    """
    if not name:
        raise ObservabilityError("metric name must be non-empty")
    if not labels:
        return name
    rendered = ",".join(
        f"{key}={labels[key]}" for key in sorted(labels)
    )
    return f"{name}{{{rendered}}}"


def base_name(key: str) -> str:
    """The instrument name with any ``{label=...}`` suffix stripped."""
    brace = key.find("{")
    return key if brace < 0 else key[:brace]


class Counter:
    """A monotonically increasing integer-ish total."""

    kind = "counter"

    def __init__(self, value: float = 0) -> None:
        self.value = value

    def inc(self, amount: Union[int, float] = 1) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ObservabilityError(
                f"counters only go up; got increment {amount!r}"
            )
        self.value += amount

    def merge(self, other: "Counter") -> None:
        self.value += other.value

    def to_value(self) -> float:
        return self.value

    @classmethod
    def from_value(cls, payload: Any) -> "Counter":
        return cls(payload)


class Gauge:
    """A point-in-time level; merges by taking the maximum.

    Max is the only fold of a last-write value that is commutative and
    associative without extra bookkeeping, so that is the contract:
    a merged gauge reports the *highest* level any shard observed.
    """

    kind = "gauge"

    def __init__(self, value: float = 0.0) -> None:
        self.value = value

    def merge(self, other: "Gauge") -> None:
        self.value = max(self.value, other.value)

    def to_value(self) -> float:
        return self.value

    @classmethod
    def from_value(cls, payload: Any) -> "Gauge":
        return cls(payload)


class Histogram:
    """A distribution: bucket counts plus count/total/min/max.

    Buckets are cumulative-style upper bounds (the implicit final
    bucket is +inf).  Two histograms merge exactly iff their bounds
    agree — the registry enforces that.
    """

    kind = "histogram"

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        bounds = tuple(float(b) for b in buckets)
        if list(bounds) != sorted(set(bounds)):
            raise ObservabilityError(
                f"histogram bounds must be strictly increasing: {bounds}"
            )
        self.bounds = bounds
        self.counts: List[int] = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: Union[int, float]) -> None:
        """Record one sample."""
        value = float(value)
        index = 0
        while index < len(self.bounds) and value > self.bounds[index]:
            index += 1
        self.counts[index] += 1
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    @property
    def mean(self) -> float:
        """Arithmetic mean of all samples (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """The ``q``-quantile estimated by linear interpolation within
        buckets.

        Samples are only known up to their bucket, so the estimate
        assumes a uniform spread inside each bucket — the standard
        histogram-quantile trade-off.  The recorded exact ``min`` and
        ``max`` tighten the edges: the first populated bucket starts at
        ``min``, the overflow bucket ends at ``max``, and the result is
        clamped into ``[min, max]``.  An empty histogram reports 0.0.
        """
        if not 0.0 <= q <= 1.0:
            raise ObservabilityError(
                f"quantile must be in [0, 1], got {q!r}"
            )
        if not self.count:
            return 0.0
        assert self.min is not None and self.max is not None
        target = q * self.count
        cumulative = 0.0
        for index, bucket_count in enumerate(self.counts):
            if not bucket_count:
                continue
            if cumulative + bucket_count < target:
                cumulative += bucket_count
                continue
            lower = self.min if index == 0 else self.bounds[index - 1]
            upper = (
                self.max if index == len(self.bounds)
                else self.bounds[index]
            )
            lower = max(lower, self.min)
            upper = min(upper, self.max)
            if upper <= lower:
                return float(lower)
            fraction = (target - cumulative) / bucket_count
            value = lower + fraction * (upper - lower)
            return float(min(max(value, self.min), self.max))
        return float(self.max)

    def merge(self, other: "Histogram") -> None:
        if self.bounds != other.bounds:
            raise ObservabilityError(
                "cannot merge histograms with different bounds: "
                f"{self.bounds} vs {other.bounds}"
            )
        self.counts = [a + b for a, b in zip(self.counts, other.counts)]
        self.count += other.count
        self.total += other.total
        for bound in ("min", "max"):
            mine, theirs = getattr(self, bound), getattr(other, bound)
            if theirs is None:
                continue
            fold = min if bound == "min" else max
            setattr(self, bound, theirs if mine is None else fold(mine, theirs))

    def to_value(self) -> Dict[str, Any]:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
        }

    @classmethod
    def from_value(cls, payload: Mapping[str, Any]) -> "Histogram":
        histogram = cls(payload["bounds"])
        histogram.counts = list(payload["counts"])
        histogram.count = payload["count"]
        histogram.total = payload["total"]
        histogram.min = payload["min"]
        histogram.max = payload["max"]
        return histogram


_KINDS = {cls.kind: cls for cls in (Counter, Gauge, Histogram)}


class MetricsRegistry:
    """A named collection of counters, gauges and histograms.

    Instrument creation and merging are guarded by a lock: a library
    caller may read one registry on one thread while engine runs on
    other threads create instruments in it.  Looking up an instrument
    that already exists takes no lock.  That is safe because nothing
    removes or replaces a stored instrument: creation, :meth:`merge`
    and :meth:`from_dict` only add absent keys, so a key once seen
    maps to the same instrument for the registry's lifetime.
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, Any] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._instruments)

    def _get(self, kind: str, key: str, factory) -> Any:
        instrument = self._instruments.get(key)
        if instrument is not None and instrument.kind == kind:
            return instrument
        with self._lock:
            instrument = self._instruments.get(key)
            if instrument is None:
                instrument = factory()
                self._instruments[key] = instrument
            elif instrument.kind != kind:
                raise ObservabilityError(
                    f"metric {key!r} is a {instrument.kind}, "
                    f"requested as {kind}"
                )
            return instrument

    def counter(self, name: str, **labels: Any) -> Counter:
        """The counter at ``name{labels}``, created on first use."""
        return self._get("counter", metric_key(name, labels), Counter)

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        **labels: Any,
    ) -> Histogram:
        """The histogram at ``name{labels}``, created on first use."""
        return self._get(
            "histogram",
            metric_key(name, labels),
            lambda: Histogram(buckets),
        )

    # -- aggregation -----------------------------------------------------
    def sum_counters(self, name: str) -> float:
        """Total across every counter whose base name equals ``name``.

        This is the registry-owned replacement for ad-hoc per-stage
        summation at call sites: ``sum_counters("runtime.cache.hits")``
        folds the per-stage labelled counters into the run total.
        """
        return sum(
            instrument.value
            for key, instrument in self._instruments.items()
            if instrument.kind == "counter" and base_name(key) == name
        )

    def value(self, name: str, **labels: Any) -> Any:
        """The raw value of one instrument (0 for an absent counter)."""
        instrument = self._instruments.get(metric_key(name, labels))
        return 0 if instrument is None else instrument.to_value()

    def histograms(self) -> List[Tuple[str, Histogram]]:
        """Every histogram instrument as ``(key, histogram)``, sorted by
        key — the iteration surface for quantile summaries."""
        return [
            (key, instrument)
            for key, instrument in sorted(self._instruments.items())
            if instrument.kind == "histogram"
        ]

    # -- snapshots and merging -------------------------------------------
    def to_dict(self) -> Dict[str, Dict[str, Any]]:
        """JSON-able snapshot: ``{key: {"kind": ..., "value": ...}}``.

        Keys are emitted in sorted order so two equal registries always
        serialize identically — the property the runtime's byte-identity
        guarantees lean on.
        """
        with self._lock:
            return {
                key: {
                    "kind": instrument.kind,
                    "value": instrument.to_value(),
                }
                for key, instrument in sorted(self._instruments.items())
            }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Mapping[str, Any]]) -> "MetricsRegistry":
        """Rebuild a registry from a :meth:`to_dict` snapshot."""
        registry = cls()
        for key in sorted(payload):
            entry = payload[key]
            kind = entry.get("kind")
            if kind not in _KINDS:
                raise ObservabilityError(
                    f"metric {key!r} has unknown kind {kind!r}"
                )
            registry._instruments[key] = _KINDS[kind].from_value(entry["value"])
        return registry

    def merge(
        self, other: Union["MetricsRegistry", Mapping[str, Mapping[str, Any]]]
    ) -> "MetricsRegistry":
        """Fold another registry (or snapshot dict) into this one."""
        if not isinstance(other, MetricsRegistry):
            other = MetricsRegistry.from_dict(other)
        with self._lock:
            for key in sorted(other._instruments):
                theirs = other._instruments[key]
                mine = self._instruments.get(key)
                if mine is None:
                    self._instruments[key] = type(theirs).from_value(
                        theirs.to_value()
                    )
                elif mine.kind != theirs.kind:
                    raise ObservabilityError(
                        f"metric {key!r} kind mismatch on merge: "
                        f"{mine.kind} vs {theirs.kind}"
                    )
                else:
                    mine.merge(theirs)
        return self


# -- ambient collection ------------------------------------------------------
#: per-thread stacks of active registries; instrumented code writes into
#: the top of its own thread's stack.  Thread-local on purpose: two
#: engine runs collecting concurrently on different threads of one
#: process must never see (or pop) each other's registries.
_AMBIENT = threading.local()


def _stack() -> List[MetricsRegistry]:
    try:
        return _AMBIENT.stack
    except AttributeError:
        stack: List[MetricsRegistry] = []
        _AMBIENT.stack = stack
        return stack


def active() -> bool:
    """True when a collection scope is open (instrumentation is live)."""
    return bool(_stack())


def current() -> Optional[MetricsRegistry]:
    """The registry instrumented code is currently writing into."""
    stack = _stack()
    return stack[-1] if stack else None


@contextmanager
def collecting(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Route the ambient helpers into ``registry`` for the scope."""
    stack = _stack()
    stack.append(registry)
    try:
        yield registry
    finally:
        stack.pop()


def inc(name: str, amount: Union[int, float] = 1, **labels: Any) -> None:
    """Increment a counter in the active registry (no-op when inactive)."""
    stack = _stack()
    if stack:
        stack[-1].counter(name, **labels).inc(amount)


def observe(name: str, value: Union[int, float], **labels: Any) -> None:
    """Record a histogram sample in the active registry (no-op when
    inactive)."""
    stack = _stack()
    if stack:
        stack[-1].histogram(name, **labels).observe(value)

