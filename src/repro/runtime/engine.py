"""The execution engine: cache → execute → merge, stage by stage.

For every stage in topological order the engine

1. asks the stage to **plan** its shard list (a pure function of the
   world and upstream indexes),
2. probes the **artifact cache**: first the stage's index entry, then
   each shard's content key,
3. fans the missing shards out through the :class:`ShardExecutor`,
4. persists each fresh shard product as it arrives, and
5. **merges** hits and fresh results in canonical shard order into the
   stage's *body*, and summarizes the body into its *index*.

Index and body
--------------

Each stage's index (:attr:`StageSpec.index`) is stored in one cache
entry with its shards' metrics snapshots, keyed by the stage's shard
keys in plan order.  A stage whose index entry is present and whose
shard files all exist (a ``stat``, no decode) is a hit on every shard:
the engine replays its metrics from the entry, executes nothing and
leaves its body **lazy**.  :attr:`RunResult.products` decodes a lazy
body — shard artifacts, then ``merge`` — on first access and keeps it;
a shard found missing or corrupt then is recomputed and stored again.
A stage that misses its index entry and a lazy body share one path,
:meth:`ExecutionEngine._load_or_execute`: load each shard, execute the
missing ones and store each as it arrives.  A fully warm run therefore
decodes only the bodies its caller reads (the headline accessors read
indexes), and editing one stage's code invalidates exactly that stage
and its dependents, because cache keys fold the dependency chain's
code salts (see :mod:`repro.runtime.cache`).

Observability rides along without touching determinism:

* every run carries a :class:`repro.obs.metrics.MetricsRegistry`;
  shard-local snapshots (produced inside the executor) are folded into
  it in canonical plan order, so the merged registry is identical for
  any worker count — and cached shards replay their snapshots from the
  shard files and index entries, so a warm run reports the same shard
  metrics as the cold run that produced it;
* an injected :class:`repro.obs.trace.Tracer` (default: the no-op
  :data:`~repro.obs.trace.NULL_TRACER`) records ``run`` →
  ``world:build`` / ``stage:<name>`` → ``plan`` / ``cache:probe`` /
  ``execute`` / ``merge`` spans; timing lives **only** in spans, never
  in the registry, which is what keeps registry snapshots comparable;
* the span tree of every shard this run executed ships home in the
  shard result and is **grafted** under its stage's ``execute`` span
  at its recorded timestamps, with its real pid/tid track, so a traced
  ``--workers N`` run exports one Chrome trace with N worker process
  tracks inside the engine timeline (workers read ``perf_counter``,
  the clock a :class:`~repro.obs.clock.SystemClock` tracer reads; a
  shard run inline reads the run tracer's own clock).
  The cache holds no spans: a stage replayed from it ran nothing in
  this run and grafts nothing, and a cold run's timings stay in its
  own trace and ledger record;
* after the root span closes, the engine assembles a provenance
  manifest (:mod:`repro.runtime.provenance`) into
  :attr:`RunResult.manifest` and — when a cache directory is
  configured — appends one record to the run ledger.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.config import WorldConfig
from repro.datasets.builder import World, cached_build_world
from repro.obs import names as obs_names
from repro.obs.ledger import append_record, ledger_path
from repro.obs.metrics import MetricsRegistry, collecting
from repro.obs.trace import NULL_TRACER, Tracer
from repro.runtime.cache import ArtifactCache, config_digest
from repro.runtime.executor import ShardExecutor
from repro.runtime.footprint import stage_salts
from repro.runtime.graph import StageGraph, StageSpec
from repro.runtime.provenance import build_ledger_record, build_manifest
from repro.runtime.stages import STAGE_GRAPH


class StageProducts(Mapping[str, Any]):
    """Stage bodies by stage name, in run order.

    A body is held, or *deferred* behind a loader that decodes it on
    first access (a stage replayed from its index entry).  Membership,
    iteration and length never decode; a lookup decodes once and keeps
    the body, so a second access returns the same object.  The lock
    lets a library caller's threads read one run's products safely; it
    is re-entrant because one body's loader may read another's.
    """

    def __init__(self) -> None:
        self._bodies: Dict[str, Any] = {}
        self._loaders: Dict[str, Callable[[], Any]] = {}
        self._order: List[str] = []
        self._lock = threading.RLock()

    def put(self, name: str, body: Any) -> None:
        self._enter(name)
        self._bodies[name] = body

    def defer(self, name: str, loader: Callable[[], Any]) -> None:
        self._enter(name)
        self._loaders[name] = loader

    def _enter(self, name: str) -> None:
        if name not in self:
            self._order.append(name)

    def __getitem__(self, name: str) -> Any:
        # A held body is read without the lock, so a reader never waits
        # on another body's decode.
        if name in self._bodies:
            return self._bodies[name]
        with self._lock:
            if name not in self._bodies:
                # KeyError for a stage this run did not reach
                self._bodies[name] = self._loaders[name]()
                del self._loaders[name]
            return self._bodies[name]

    def __contains__(self, name: object) -> bool:
        return name in self._bodies or name in self._loaders

    def __iter__(self) -> Iterator[str]:
        return iter(self._order)

    def __len__(self) -> int:
        return len(self._order)


@dataclass
class StageMetrics:
    """Wall-time, cache behaviour and record flow of one stage in one run."""

    name: str
    n_shards: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    shard_keys: List[str] = field(default_factory=list)
    records_in: Dict[str, Any] = field(default_factory=dict)
    records_out: Dict[str, int] = field(default_factory=dict)
    #: metric keys this stage's shard snapshots touched — the ownership
    #: evidence the ledger diff engine attributes metric deltas with
    metric_keys: List[str] = field(default_factory=list)

    @property
    def executed_shards(self) -> int:
        return self.n_shards - self.cache_hits


@dataclass
class RunResult:
    """Everything one engine run produced."""

    config: WorldConfig
    workers: int
    #: stage bodies; a replayed stage's body decodes on first access
    products: StageProducts = field(default_factory=StageProducts)
    #: stage indexes (:attr:`StageSpec.index`), always in memory
    indexes: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    metrics: Dict[str, StageMetrics] = field(default_factory=dict)
    world_build_s: float = 0.0
    registry: MetricsRegistry = field(default_factory=MetricsRegistry)
    tracer: Tracer = NULL_TRACER
    manifest: Optional[Dict[str, Any]] = None
    #: the ledger record appended for this run (None without a cache dir)
    ledger_record: Optional[Dict[str, Any]] = None

    @property
    def total_wall_s(self) -> float:
        return self.world_build_s + sum(
            m.wall_s for m in self.metrics.values()
        )

    @property
    def cache_hits(self) -> int:
        """Run-total cache hits, aggregated by the metrics registry.

        The registry owns the fold (:meth:`MetricsRegistry.sum_counters`
        over the per-stage ``runtime.cache.hits`` counters) — callers
        must not re-sum per-stage numbers themselves.
        """
        return int(self.registry.sum_counters(obs_names.RUNTIME_CACHE_HITS))

    @property
    def cache_misses(self) -> int:
        """Run-total cache misses (see :attr:`cache_hits`)."""
        return int(
            self.registry.sum_counters(obs_names.RUNTIME_CACHE_MISSES)
        )

    def metrics_rows(self) -> List[Dict[str, Any]]:
        """Per-stage counters as plain rows (for reports and JSON export)."""
        return [
            {
                "stage": m.name,
                "shards": m.n_shards,
                "cache_hits": m.cache_hits,
                "cache_misses": m.cache_misses,
                "wall_s": round(m.wall_s, 4),
            }
            for m in self.metrics.values()
        ]

    def metrics_report(self) -> str:
        """A fixed-width per-stage counter table for terminal output."""
        lines = [
            f"{'stage':<18} {'shards':>6} {'hits':>5} {'miss':>5} {'wall':>9}"
        ]
        for m in self.metrics.values():
            lines.append(
                f"{m.name:<18} {m.n_shards:>6} {m.cache_hits:>5} "
                f"{m.cache_misses:>5} {m.wall_s:>8.3f}s"
            )
        lines.append(
            f"{'world+total':<18} {'':>6} {self.cache_hits:>5} "
            f"{self.cache_misses:>5} {self.total_wall_s:>8.3f}s"
        )
        return "\n".join(lines)

    def trace_report(self) -> str:
        """The tracer's text flamegraph plus histogram quantiles.

        Stage summaries gain a distribution block: every histogram in
        the run registry is rendered with its sample count, p50 and p95
        (:meth:`~repro.obs.metrics.Histogram.quantile`), so the report
        answers "how skewed was it?" and not just "how long did it
        take?".
        """
        flame = self.tracer.report()
        if not self.tracer.spans:
            return flame  # untraced runs stay "(tracing disabled)"
        lines = [flame]
        histograms = self.registry.histograms()
        if histograms:
            lines.append("")
            lines.append(
                f"{'histogram':<42} {'count':>7} {'p50':>9} {'p95':>9}"
            )
            for key, histogram in histograms:
                lines.append(
                    f"{key:<42} {histogram.count:>7} "
                    f"{histogram.quantile(0.5):>9.4f} "
                    f"{histogram.quantile(0.95):>9.4f}"
                )
        return "\n".join(lines)


class ExecutionEngine:
    """Runs the stage graph for a config with workers and a cache."""

    def __init__(
        self,
        workers: int = 1,
        cache_dir: Optional[str] = None,
        graph: Optional[StageGraph] = None,
    ) -> None:
        self.graph = graph if graph is not None else STAGE_GRAPH
        self.executor = ShardExecutor(workers)
        self.cache = ArtifactCache(cache_dir)
        # Module footprints close the stale-cache hazard: a stage's salt
        # folds the definitions and modules its code can reach, and the
        # world's code, so editing a helper (core/classify.py, ...)
        # invalidates exactly the stages that can execute it.  Salts
        # are memoized per process; stages whose roles lie outside the
        # source tree (ad-hoc test graphs) fold no footprint of their
        # own.
        self._footprints, self._salts = stage_salts(self.graph)

    @property
    def workers(self) -> int:
        return self.executor.workers

    def run(
        self,
        config: WorldConfig,
        targets: Sequence[str] = (),
        tracer: Optional[Tracer] = None,
    ) -> RunResult:
        """Execute the graph (or the sub-graph reaching ``targets``).

        ``tracer`` selects the observability level: ``None`` (the no-op
        default) records nothing; a real
        :class:`~repro.obs.trace.Tracer` receives the engine's span
        tree.  Traced and untraced runs execute identical pipeline code
        — the study products cannot differ.
        """
        tracer = tracer if tracer is not None else NULL_TRACER
        registry = MetricsRegistry()
        digest = config_digest(config)
        result = RunResult(
            config=config,
            workers=self.workers,
            registry=registry,
            tracer=tracer,
        )
        with tracer.span(
            obs_names.SPAN_RUN, digest=digest[:12], workers=self.workers
        ):
            build_start = time.perf_counter()
            # World construction stays OUTSIDE the collection scope
            # on purpose: cached_build_world is memoized in-process,
            # so its instrumented internals fire on the first run
            # and not on later ones — collecting them would make
            # otherwise-identical runs disagree on their registries.
            with tracer.span(obs_names.SPAN_WORLD_BUILD):
                world = cached_build_world(config, digest)
            result.world_build_s = time.perf_counter() - build_start
            # The ambient scope makes engine-side instrumentation
            # (e.g. the cache's corrupt-artifact counter) land in
            # the run registry; shard bodies still collect into
            # shard-local registries the executor opens on top.
            with collecting(registry):
                for name in self.graph.topological_order(targets):
                    result.metrics[name] = self._run_stage(
                        name, world, digest, result, tracer
                    )
        result.manifest = build_manifest(
            result, digest, self._salts, self._footprints
        )
        if self.cache.enabled:
            # Every cached run appends one ledger record (config digest,
            # salts, footprints, registry snapshot, per-stage timings),
            # which is what `repro obs diff` compares across runs.
            result.ledger_record = append_record(
                ledger_path(str(self.cache.root)),
                build_ledger_record(
                    result, digest, self._salts, self._footprints
                ),
            )
        return result

    def _run_stage(
        self,
        name: str,
        world: World,
        digest: str,
        result: RunResult,
        tracer: Tracer,
    ) -> StageMetrics:
        spec = self.graph[name]
        products, indexes, registry = (
            result.products, result.indexes, result.registry,
        )
        metrics = StageMetrics(name=name)
        metrics.records_in = {
            dep: dict(indexes[dep]["records"]) for dep in spec.inputs
        }
        start = time.perf_counter()
        cpu_start = time.process_time()
        with tracer.span(f"stage:{name}") as stage_span:
            with tracer.span(obs_names.SPAN_PLAN, stage=name):
                shards = spec.plan(world, indexes)
            metrics.n_shards = len(shards)
            metrics.shard_keys = [shard_key for shard_key, _ in shards]

            salt = self._salts[name]
            keys: Dict[str, str] = {
                shard_key: self.cache.key(digest, salt, name, shard_key)
                for shard_key, _ in shards
            }
            index_key = self.cache.index_key(
                digest, salt, name, [keys[key] for key, _ in shards]
            )
            with tracer.span(obs_names.SPAN_CACHE_PROBE, stage=name):
                entry = self._index_entry(name, index_key, keys)
            if entry is not None:
                # Shard-local metrics replay from the entry; the body
                # decodes on first access, under the run registry so a
                # corrupt shard file still counts.
                indexes[name], snapshots = entry
                executed = 0

                def load_body() -> Any:
                    with collecting(registry):
                        artifacts, _, _ = self._load_or_execute(
                            spec, world, products, shards, keys, NULL_TRACER
                        )
                        return spec.merge(world, products, artifacts)

                products.defer(name, load_body)
            else:
                artifacts, snapshots, executed = self._load_or_execute(
                    spec, world, products, shards, keys, tracer
                )
                with tracer.span(obs_names.SPAN_MERGE, stage=name):
                    body = spec.merge(world, products, artifacts)
                    indexes[name] = spec.index(body)
                products.put(name, body)
                self.cache.store(
                    name, index_key, (indexes[name], snapshots), index=True
                )
            metrics.cache_misses = executed
            metrics.cache_hits = metrics.n_shards - executed
            registry.counter(
                obs_names.RUNTIME_SHARDS_PLANNED, stage=name
            ).inc(metrics.n_shards)
            registry.counter(
                obs_names.RUNTIME_SHARDS_EXECUTED, stage=name
            ).inc(executed)
            registry.counter(
                obs_names.RUNTIME_CACHE_HITS, stage=name
            ).inc(metrics.cache_hits)
            registry.counter(
                obs_names.RUNTIME_CACHE_MISSES, stage=name
            ).inc(metrics.cache_misses)
            # Fold shard snapshots in plan order — NOT completion order —
            # so the merged registry is invariant to worker count.
            for shard_key, _ in shards:
                registry.merge(snapshots[shard_key])
            metrics.metric_keys = sorted({
                key for snapshot in snapshots.values() for key in snapshot
            })
            metrics.records_out = dict(indexes[name]["records"])
            stage_span.attrs.update(
                shards=metrics.n_shards,
                hits=metrics.cache_hits,
                misses=metrics.cache_misses,
            )
        metrics.wall_s = time.perf_counter() - start
        # Parent-process CPU only: worker CPU is deliberately excluded
        # (it would make cpu_s depend on the worker count), so cpu_s
        # reads as "coordination cost" under fan-out and as true stage
        # cost on the inline workers=1 path.
        metrics.cpu_s = time.process_time() - cpu_start
        return metrics

    def _index_entry(
        self, name: str, index_key: str, keys: Mapping[str, str]
    ) -> Optional[Tuple[Dict[str, Any], Dict[str, Dict[str, Any]]]]:
        """The stage's ``(index, snapshots)`` entry when the whole stage
        can replay from it: the entry decodes and every shard file
        exists."""
        if not self.cache.enabled or not all(
            self.cache.exists(name, key) for key in keys.values()
        ):
            return None
        hit, entry = self.cache.load(name, index_key, index=True)
        return entry if hit else None

    def _load_or_execute(
        self,
        spec: StageSpec,
        world: World,
        products: StageProducts,
        shards: List[Tuple[str, Any]],
        keys: Mapping[str, str],
        tracer: Tracer,
    ) -> Tuple[List[Tuple[str, Any]], Dict[str, Dict[str, Any]], int]:
        """The shards' artifacts in plan order, their metrics snapshots
        by shard key, and how many shards executed.

        Each shard loads from its cache file (a ``cache:probe`` span
        with the shard count, after the stage's probe of its index
        entry); the missing or corrupt ones execute, and each is stored
        as soon as it and every shard before it are done, so a run that
        dies mid-stage keeps them.  The span tree of each executed
        shard is grafted under the ``execute`` span at its recorded
        timestamps.
        """
        # shard key -> (artifact, snapshot), what its cache file holds
        found: Dict[str, Tuple[Any, Dict[str, Any]]] = {}
        pending: List[Tuple[str, Any]] = []
        with tracer.span(
            obs_names.SPAN_CACHE_PROBE, stage=spec.name, shards=len(shards)
        ):
            for shard_key, payload in shards:
                hit, stored = self.cache.load(spec.name, keys[shard_key])
                if hit:
                    found[shard_key] = stored
                else:
                    pending.append((shard_key, payload))
        with tracer.span(
            obs_names.SPAN_EXECUTE, stage=spec.name, shards=len(pending)
        ) as execute_span:
            for shard_key, (artifact, snapshot, rows) in self.executor.execute(
                spec, world, products, pending, tracer.clock
            ):
                found[shard_key] = (artifact, snapshot)
                self.cache.store(spec.name, keys[shard_key], found[shard_key])
                tracer.graft(rows, parent=execute_span.index)
        artifacts = [(key, found[key][0]) for key, _ in shards]
        snapshots = {key: found[key][1] for key, _ in shards}
        return artifacts, snapshots, len(pending)
