"""repro.runtime — sharded parallel execution with artifact caching.

The paper's pipeline is embarrassingly shardable: panel users browse
independently, tracker IPs are geolocated one campaign at a time, flows
aggregate by counting, ISPs are analyzed in isolation.  This subsystem
exploits that structure:

* :mod:`repro.runtime.graph` — the **stage graph**: the pipeline
  stages as declarative nodes, each a name, the stages it reads and
  its plan / run / merge / index functions;
* :mod:`repro.runtime.stages` — per-stage plan / run / merge / index
  implementations with per-shard seeded RNG, so every shard is
  independent of every other and of the worker that executes it;
* :mod:`repro.runtime.executor` — the parallel executor fanning shards
  over ``concurrent.futures`` process workers (or running them inline
  for ``workers=1``), with a deterministic, order-independent merge;
* :mod:`repro.runtime.cache` — the content-addressed on-disk artifact
  cache keyed on (config digest, code-version salt, stage, shard), plus
  one index entry per stage, so a warm run decodes only the bodies its
  caller reads;
* :mod:`repro.runtime.engine` — the orchestrator tying the four
  together, recording spans/metrics through :mod:`repro.obs` and
  reporting per-stage wall-time / cache-hit counters;
* :mod:`repro.runtime.provenance` — assembly of the per-run provenance
  manifest (config digest, code salts, record counts, spans);
* :mod:`repro.runtime.facade` — the high-level entry point
  (:func:`run_study`); a run's :meth:`~RuntimeRun.study` is the
  read-only :class:`repro.Study` view that the tables and figures read.

The engine is the only record path: every table, figure, export and
example reads one run's products.

Results are invariant to the worker count and to cache replay: the
shard partition is a pure function of the world (never of ``workers``),
each shard draws from RNG streams derived from its own key, and merges
fold shard products in shard order.

Typical use::

    from repro import WorldConfig
    from repro.analysis.tables import table5
    from repro.runtime import run_study

    run = run_study(WorldConfig.small(), workers=4, cache_dir=".repro-cache")
    print(run.eu28_destination_regions())   # Fig. 7(b), engine-backed
    print(run.metrics_report())             # per-stage wall/cache stats
    print(table5(run.study())["text"])      # any table, from the view
"""

from repro.runtime.cache import ArtifactCache, config_digest
from repro.runtime.engine import (
    ExecutionEngine,
    RunResult,
    StageMetrics,
)
from repro.runtime.facade import RuntimeRun, run_study
from repro.runtime.graph import StageGraph, StageSpec, partition
from repro.runtime.provenance import build_manifest
from repro.runtime.stages import STAGE_GRAPH, STAGE_NAMES

__all__ = [
    "ArtifactCache",
    "ExecutionEngine",
    "RunResult",
    "RuntimeRun",
    "StageGraph",
    "StageMetrics",
    "StageSpec",
    "STAGE_GRAPH",
    "STAGE_NAMES",
    "build_manifest",
    "config_digest",
    "partition",
    "run_study",
]
