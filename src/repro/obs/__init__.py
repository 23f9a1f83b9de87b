"""repro.obs — zero-dependency observability for pipeline runs.

Three small, composable pieces:

* :mod:`repro.obs.trace` — hierarchical span tracing against an
  *injected* clock (``tracer.span("stage:geolocate", shard=...)``) on
  an explicitly passed tracer, with a no-op tracer for untraced runs;
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
  for stitched worker spans);
* :mod:`repro.obs.persist` — the shared crash-safe write primitives.

Layering: this package sits below every simulation and runtime layer
(it imports only :mod:`repro.errors`), so core/dnssim/geoloc/runtime
may all instrument themselves through it without cycles.

The package re-exports nothing: callers import the submodule they use
(``from repro.obs.trace import Tracer``).  Stage code reaches
:mod:`~repro.obs.metrics` and :mod:`~repro.obs.names`, and every module
a stage can reach folds into its cache salt, so re-exports here would
put the tooling modules above into every salt as well.
"""
