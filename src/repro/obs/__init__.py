"""repro.obs — zero-dependency observability for pipeline runs.

Three small, composable pieces:

* :mod:`repro.obs.trace` — hierarchical span tracing against an
  *injected* clock (``tracer.span("stage:geolocate", shard=...)``),
  with an ambient no-op default so instrumented code is free when
  nobody is tracing;
* :mod:`repro.obs.metrics` — typed counters/gauges/histograms with
  exact, commutative merges, built to fold per-shard snapshots into a
  worker-count-invariant run registry;
* :mod:`repro.obs.manifest` — the per-run provenance manifest schema,
  validator and atomic writer.

On top of those, the persistent layer added for longitudinal work:

* :mod:`repro.obs.ledger` — the append-only JSONL **run ledger**
  (schema ``repro.obs/ledger/v1``) with selectors
  (``latest``/``latest~N``/``baseline``/seq/run-id prefix);
* :mod:`repro.obs.diff` — the regression **diff engine** classifying
  every metric delta as config-driven, code-driven or unexplained
  drift;
* :mod:`repro.obs.export` — span trees as Chrome **trace-event JSON**
  (Perfetto / ``chrome://tracing`` loadable, with real pid/tid tracks
  for stitched worker spans) plus the Prometheus text exposition of a
  registry snapshot;
* :mod:`repro.obs.persist` — the shared crash-safe write primitives.

Layering: this package sits below every simulation and runtime layer
(it imports only :mod:`repro.errors`), so core/dnssim/geoloc/runtime
may all instrument themselves through it without cycles.
"""

from repro.obs.clock import NullClock, SystemClock, TickClock
from repro.obs.diff import (
    LedgerDiff,
    MetricDelta,
    diff_records,
    render_diff_text,
)
from repro.obs.export import (
    PROMETHEUS_CONTENT_TYPE,
    TRACE_EVENTS_SCHEMA,
    load_trace_events,
    parse_prometheus_text,
    prometheus_text,
    trace_document,
    trace_events,
    validate_trace_events,
    write_trace_events,
)
from repro.obs.ledger import (
    LEDGER_FILENAME,
    LEDGER_SCHEMA,
    append_record,
    ledger_path,
    load_ledger,
    read_baseline,
    select_record,
    validate_record,
    write_baseline,
)
from repro.obs.manifest import (
    MANIFEST_SCHEMA,
    load_manifest,
    validate_manifest,
    write_manifest,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    collecting,
    inc,
    observe,
    set_gauge,
)
from repro.obs.trace import (
    NULL_TRACER,
    CallbackTracer,
    NullTracer,
    Span,
    Tracer,
    current_tracer,
    spans_to_payload,
    tracing,
)

__all__ = [
    "NullClock",
    "SystemClock",
    "TickClock",
    "LedgerDiff",
    "MetricDelta",
    "diff_records",
    "render_diff_text",
    "PROMETHEUS_CONTENT_TYPE",
    "TRACE_EVENTS_SCHEMA",
    "load_trace_events",
    "parse_prometheus_text",
    "prometheus_text",
    "trace_document",
    "trace_events",
    "validate_trace_events",
    "write_trace_events",
    "LEDGER_FILENAME",
    "LEDGER_SCHEMA",
    "append_record",
    "ledger_path",
    "load_ledger",
    "read_baseline",
    "select_record",
    "validate_record",
    "write_baseline",
    "MANIFEST_SCHEMA",
    "load_manifest",
    "validate_manifest",
    "write_manifest",
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "collecting",
    "inc",
    "observe",
    "set_gauge",
    "NULL_TRACER",
    "CallbackTracer",
    "NullTracer",
    "Span",
    "Tracer",
    "current_tracer",
    "spans_to_payload",
    "tracing",
]
