"""The execution engine: cache → execute → merge, stage by stage.

For every stage in topological order the engine

1. asks the stage to **plan** its shard list (a pure function of the
   world and upstream products),
2. probes the **artifact cache** for each shard's content key,
3. fans the missing shards out through the :class:`ShardExecutor`,
4. persists fresh shard products, and
5. **merges** hits and fresh results in canonical shard order.

A warm re-run therefore executes zero shard work — every shard is a
cache hit and only the (cheap) merges replay — and editing one stage's
code invalidates exactly that stage and its dependents, because cache
keys fold the dependency chain's code salts (see
:mod:`repro.runtime.cache`).

Observability rides along without touching determinism:

* every run carries a :class:`repro.obs.MetricsRegistry`; shard-local
  snapshots (produced inside the executor) are folded into it in
  canonical plan order, so the merged registry is identical for any
  worker count — and cached shards replay their snapshots from the
  cache envelope, so a warm run reports the same shard metrics as the
  cold run that produced it;
* an injected :class:`repro.obs.Tracer` (default: the no-op
  :data:`~repro.obs.NULL_TRACER`) records ``run`` → ``world:build`` /
  ``stage:<name>`` → ``plan`` / ``cache:probe`` / ``execute`` /
  ``merge`` spans; timing lives **only** in spans, never in the
  registry, which is what keeps registry snapshots comparable;
* worker span trees ship home in the shard results and are **grafted**
  under each stage's ``execute`` span with their real pid/tid tracks,
  so a traced ``--workers N`` run exports one Chrome trace with N
  worker process tracks stitched into the engine timeline;
* with ``profile_hz`` set, every shard samples its own stacks
  (:mod:`repro.obs.profile`) and the engine folds the per-shard
  profiles in canonical plan order — profiles ride the cache envelope
  next to the metrics snapshot, so a warm replay reports the cold
  run's profile and the fold is invariant to worker count;
* after the root span closes, the engine assembles a provenance
  manifest (:mod:`repro.runtime.provenance`) and — when a cache
  directory is configured — writes it atomically next to the artifacts.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.config import WorldConfig
from repro.datasets.builder import World, cached_build_world
from repro.obs import names as obs_names
from repro.obs.ledger import append_record, ledger_path
from repro.obs.manifest import write_manifest
from repro.obs.metrics import MetricsRegistry, collecting
from repro.obs.profile import (
    DEFAULT_HZ,
    TOP_FUNCTIONS,
    Profile,
    build_report,
)
from repro.obs.trace import NULL_TRACER, Tracer, tracing
from repro.runtime.cache import ArtifactCache, config_digest, effective_salts
from repro.runtime.executor import ShardExecutor
from repro.runtime.footprint import footprint_salts, stage_footprints
from repro.runtime.graph import StageGraph
from repro.runtime.provenance import build_ledger_record, build_manifest
from repro.runtime.stages import STAGE_GRAPH, product_record_counts

#: filename of the per-run provenance manifest inside the cache dir
MANIFEST_FILENAME = "manifest.json"

#: marker key of the cache envelope that pairs an artifact with the
#: shard-local observability recorded while producing it: the metrics
#: snapshot, the worker span rows, and the stack profile (if sampled)
_ENVELOPE_MARK = "__shard_envelope__"


def _wrap_envelope(
    artifact: Any,
    metrics: Dict[str, Any],
    spans: Optional[List[Dict[str, Any]]] = None,
    profile: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    envelope: Dict[str, Any] = {
        _ENVELOPE_MARK: 1,
        "artifact": artifact,
        "metrics": metrics,
    }
    if spans:
        envelope["spans"] = spans
    if profile is not None:
        envelope["profile"] = profile
    return envelope


def _unwrap_envelope(
    obj: Any,
) -> Tuple[
    Any,
    Dict[str, Any],
    List[Dict[str, Any]],
    Optional[Dict[str, Any]],
]:
    """Split a cached object into (artifact, metrics, spans, profile).

    Artifacts written before the envelope existed load as themselves
    with empty observability — a warm run over a legacy cache stays
    correct, it just cannot replay shard metrics, spans or profiles.
    Envelopes written before spans/profiles existed replay their
    metrics and nothing else (``.get`` fallbacks, same reasoning).
    """
    if isinstance(obj, dict) and obj.get(_ENVELOPE_MARK) == 1:
        return (
            obj["artifact"],
            obj["metrics"],
            obj.get("spans") or [],
            obj.get("profile"),
        )
    return obj, {}, [], None


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
    products: Dict[str, Any]
    metrics: Dict[str, StageMetrics] = field(default_factory=dict)
    world_build_s: float = 0.0
    registry: MetricsRegistry = field(default_factory=MetricsRegistry)
    tracer: Tracer = NULL_TRACER
    manifest: Optional[Dict[str, Any]] = None
    #: the ledger record appended for this run (None without a cache dir)
    ledger_record: Optional[Dict[str, Any]] = None
    #: per-stage folded stack profiles — fresh samples on misses, cold
    #: replays from the cache envelope on hits (empty when neither)
    profiles: Dict[str, Profile] = field(default_factory=dict)
    #: the sampling rate the engine ran with (None = not profiling)
    profile_hz: Optional[float] = None

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

    def merged_profile(self) -> Profile:
        """All stage profiles folded into one (canonical stage order)."""
        merged = Profile()
        for name in sorted(self.profiles):
            merged.merge(self.profiles[name])
        return merged

    def profile_report(
        self, top: int = TOP_FUNCTIONS
    ) -> Optional[Dict[str, Any]]:
        """The per-stage profile report, or ``None`` when the run
        neither sampled nor replayed any profiles.

        A warm run that replays cold profiles without sampling itself
        reports them under :data:`~repro.obs.profile.DEFAULT_HZ` (the
        envelope ships stacks, not the rate that produced them).
        """
        if not self.profiles and self.profile_hz is None:
            return None
        hz = self.profile_hz if self.profile_hz is not None else DEFAULT_HZ
        return build_report(self.profiles, hz=hz, top=top)

    def profile_table(self, top: int = 10) -> str:
        """The merged profile's top-N self-time table (terminal form)."""
        return self.merged_profile().render_table(top=top)

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
        profile_hz: Optional[float] = None,
    ) -> None:
        self.graph = graph if graph is not None else STAGE_GRAPH
        self.executor = ShardExecutor(workers, profile_hz=profile_hz)
        self.cache = ArtifactCache(cache_dir)
        # Module footprints close the stale-cache hazard: a stage's salt
        # folds the digest of every module its code can transitively
        # reach, so editing a helper (core/classify.py, ...) invalidates
        # exactly the stages that can execute it.  The underlying
        # program model is memoized per process; stages whose callables
        # the model cannot see (ad-hoc test graphs) fold no footprint.
        self._footprints = stage_footprints(self.graph)
        self._salts = effective_salts(
            self.graph, footprint_salts(self._footprints)
        )

    @property
    def workers(self) -> int:
        return self.executor.workers

    @property
    def profile_hz(self) -> Optional[float]:
        return self.executor.profile_hz

    def run(
        self,
        config: WorldConfig,
        targets: Sequence[str] = (),
        tracer: Optional[Tracer] = None,
    ) -> RunResult:
        """Execute the graph (or the sub-graph reaching ``targets``).

        ``tracer`` selects the observability level: ``None`` (the no-op
        default) records nothing; a real :class:`~repro.obs.Tracer` is
        installed as the ambient tracer for the run and receives the
        engine's span tree.  Traced and untraced runs execute identical
        pipeline code — the study products cannot differ.
        """
        tracer = tracer if tracer is not None else NULL_TRACER
        registry = MetricsRegistry()
        digest = config_digest(config)
        result = RunResult(
            config=config,
            workers=self.workers,
            products={},
            registry=registry,
            tracer=tracer,
            profile_hz=self.profile_hz,
        )
        with tracing(tracer):
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
                    world = cached_build_world(config)
                result.world_build_s = time.perf_counter() - build_start
                # The ambient scope makes engine-side instrumentation
                # (e.g. the cache's corrupt-artifact counter) land in
                # the run registry; shard bodies still collect into
                # shard-local registries the executor opens on top.
                with collecting(registry):
                    for name in self.graph.topological_order(targets):
                        result.metrics[name] = self._run_stage(
                            name, world, digest, result.products, tracer,
                            registry, result.profiles,
                        )
        result.manifest = build_manifest(
            result, digest, self._salts, self._footprints
        )
        if self.cache.enabled:
            write_manifest(
                result.manifest,
                os.path.join(str(self.cache.root), MANIFEST_FILENAME),
            )
            # The run ledger accumulates where the manifest overwrites:
            # every cached run appends one record (config digest, salts,
            # footprints, registry snapshot, per-stage timings), which
            # is what `repro obs diff` compares across runs.
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
        products: Dict[str, Any],
        tracer: Tracer,
        registry: MetricsRegistry,
        profiles: Dict[str, Profile],
    ) -> StageMetrics:
        spec = self.graph[name]
        metrics = StageMetrics(name=name)
        metrics.records_in = {
            dep: product_record_counts(dep, products[dep])
            for dep in spec.inputs
        }
        start = time.perf_counter()
        cpu_start = time.process_time()
        with tracer.span(f"stage:{name}") as stage_span:
            with tracer.span(obs_names.SPAN_PLAN, stage=name):
                shards = spec.plan(world, products)
            metrics.n_shards = len(shards)
            metrics.shard_keys = [shard_key for shard_key, _ in shards]

            keys: Dict[str, str] = {
                shard_key: self.cache.key(
                    digest, self._salts[name], name, shard_key
                )
                for shard_key, _ in shards
            }
            # Shard-local observability, keyed by shard — replayed from
            # the cache envelope on hits, fresh from the executor on
            # misses, folded below in canonical plan order.
            snapshots: Dict[str, Dict[str, Any]] = {}
            span_rows: Dict[str, List[Dict[str, Any]]] = {}
            profile_payloads: Dict[str, Optional[Dict[str, Any]]] = {}
            cached: Dict[str, Any] = {}
            pending: List[Tuple[str, Any]] = []
            with tracer.span(obs_names.SPAN_CACHE_PROBE, stage=name):
                for shard_key, payload in shards:
                    hit, obj = self.cache.load(name, keys[shard_key])
                    if hit:
                        artifact, snapshot, rows, prof = _unwrap_envelope(obj)
                        cached[shard_key] = artifact
                        snapshots[shard_key] = snapshot
                        span_rows[shard_key] = rows
                        profile_payloads[shard_key] = prof
                        metrics.cache_hits += 1
                    else:
                        pending.append((shard_key, payload))
                        metrics.cache_misses += 1

            with tracer.span(
                obs_names.SPAN_EXECUTE, stage=name, shards=len(pending)
            ) as execute_span:
                fresh: Dict[str, Any] = {}
                for shard_key, (
                    artifact, snapshot, rows, prof,
                ) in self.executor.execute(spec, world, products, pending):
                    fresh[shard_key] = artifact
                    snapshots[shard_key] = snapshot
                    span_rows[shard_key] = rows
                    profile_payloads[shard_key] = prof
                    self.cache.store(
                        name,
                        keys[shard_key],
                        _wrap_envelope(artifact, snapshot, rows, prof),
                    )
            # Stitch the worker span trees under the execute span —
            # plan order, each shard's tree re-anchored so its root
            # opens at the execute span's own start (worker clocks are
            # process-local and replayed trees carry a past run's
            # timeline).  pid/tid stamps ride along, so the exported
            # trace shows real worker process tracks.
            if tracer.enabled:
                for shard_key, _ in shards:
                    rows = span_rows.get(shard_key) or []
                    if not rows:
                        continue
                    origin = min(
                        float(row.get("wall_start", 0.0)) for row in rows
                    )
                    tracer.graft(
                        rows,
                        parent=execute_span.index,
                        offset=execute_span.wall_start - origin,
                    )
            # Fold shard profiles in plan order.  When the engine is
            # profiling, every stage owns a Profile even if no samples
            # landed — the report's `_total` row must exist for budget
            # envelopes to gate deterministically.
            stage_profile = (
                Profile() if self.profile_hz is not None else None
            )
            for shard_key, _ in shards:
                payload = profile_payloads.get(shard_key)
                if not payload:
                    continue
                if stage_profile is None:
                    stage_profile = Profile()
                stage_profile.merge(Profile.from_dict(payload))
            if stage_profile is not None:
                profiles[name] = stage_profile

            registry.counter(
                obs_names.RUNTIME_SHARDS_PLANNED, stage=name
            ).inc(metrics.n_shards)
            registry.counter(
                obs_names.RUNTIME_SHARDS_EXECUTED, stage=name
            ).inc(len(pending))
            registry.counter(
                obs_names.RUNTIME_CACHE_HITS, stage=name
            ).inc(metrics.cache_hits)
            registry.counter(
                obs_names.RUNTIME_CACHE_MISSES, stage=name
            ).inc(metrics.cache_misses)
            # Fold shard snapshots in plan order — NOT completion order —
            # so the merged registry is invariant to worker count.
            for shard_key, _ in shards:
                registry.merge(snapshots.get(shard_key, {}))
            metrics.metric_keys = sorted({
                key
                for snapshot in snapshots.values()
                for key in (snapshot or {})
            })

            # Merge in canonical plan order, mixing hits and fresh results.
            ordered: List[Tuple[str, Any]] = [
                (
                    shard_key,
                    cached[shard_key]
                    if shard_key in cached
                    else fresh[shard_key],
                )
                for shard_key, _ in shards
            ]
            with tracer.span(obs_names.SPAN_MERGE, stage=name):
                products[name] = spec.merge(world, products, ordered)
            metrics.records_out = product_record_counts(name, products[name])
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
