"""Parallel shard executor.

Fans a stage's shards over ``concurrent.futures`` process workers and
returns the shard products in canonical (plan) order, so the caller's
merge is independent of completion order and of the worker count.

Two dispatch paths:

* **fork** (Linux default): the pool is created per stage, after the
  parent has built the world and materialized the stage's input bodies
  (a body replayed from the cache decodes lazily, and it must decode
  once, in the parent, not once per child) — workers inherit them and
  the stage spec copy-on-write, and the submitted task carries only the
  shard key and payload.
* **spawn/forkserver** (portability fallback): tasks ship the config and
  the stage's input products; workers rebuild the world once per process
  via :func:`repro.datasets.builder.cached_build_world`.

``workers=1`` (or a single shard) executes inline in the calling
process — the engine's "serial path" — through the exact same stage
functions, which is what makes worker-count invariance testable.

Every shard runs inside its own :class:`repro.obs.MetricsRegistry`
collection scope **and** its own :class:`repro.obs.Tracer`, and each
result ships back as an ``(artifact, metrics_snapshot, span_rows)``
tuple.  Because every piece is shard-local and the engine folds them in
canonical plan order, the merged registry is byte-identical for any
worker count — observability rides the same determinism guarantees as
the artifacts themselves.  Span rows carry the worker's real pid/tid,
so the engine can stitch them into the parent trace as distinct process
tracks.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.datasets.builder import World, cached_build_world
from repro.errors import ExecutionError
from repro.obs.metrics import MetricsRegistry, collecting
from repro.obs.trace import Tracer, spans_to_payload, tracing
from repro.runtime.graph import StageSpec
from repro.runtime.stages import STAGE_GRAPH

#: a shard's result: the artifact, its shard-local metrics snapshot and
#: its span rows (pid/tid-stamped, graftable)
ShardResult = Tuple[Any, Dict[str, Dict[str, Any]], List[Dict[str, Any]]]

#: parent-side context inherited by forked workers: (stage, world,
#: products).  Module state by necessity — it is what the fork snapshot
#: carries — so the set→fork→reset window is serialized by
#: :data:`_FORK_LOCK`: two serve jobs pooling concurrently must not fork
#: each other's worlds.
_FORK_CONTEXT: Optional[Tuple[StageSpec, World, Mapping[str, Any]]] = None
_FORK_LOCK = threading.Lock()


def _instrumented_run(
    run: Any,
    world: Optional[World],
    products: Mapping[str, Any],
    stage_name: str,
    shard_key: str,
    payload: Any,
) -> ShardResult:
    """Run one shard inside fresh metrics/tracing collection scopes.

    The registry and tracer are created here — per shard, per process —
    so ambient :func:`repro.obs.metrics.inc` calls and spans inside
    stage code land in containers that travel back with the artifact
    instead of in global state a pool worker would silently discard.
    The shard's spans root at a ``stage:<name>`` span and are stamped
    with the recording pid/tid before shipping, so the engine can graft
    them into the parent trace as real process tracks.
    """
    registry = MetricsRegistry()
    tracer = Tracer()
    with collecting(registry), tracing(tracer):
        with tracer.span(f"stage:{stage_name}", shard=shard_key):
            artifact = run(world, products, shard_key, payload)
    pid = os.getpid()
    tid = threading.get_native_id()
    for span in tracer.spans:
        span.pid = pid
        span.tid = tid
    return artifact, registry.to_dict(), spans_to_payload(tracer.spans)


def _run_shard_forked(shard_key: str, payload: Any) -> ShardResult:
    """Task body on the fork path: the stage, world and products come
    from the parent."""
    if _FORK_CONTEXT is None:
        raise ExecutionError(
            "forked worker has no inherited execution context"
        )
    spec, world, products = _FORK_CONTEXT
    return _instrumented_run(
        spec.run, world, products, spec.name, shard_key, payload
    )


def _run_shard_shipped(
    config: Any,
    stage_name: str,
    shard_key: str,
    payload: Any,
    inputs: Mapping[str, Any],
) -> ShardResult:
    """Task body on the spawn path: rebuild the world, use shipped inputs."""
    world = cached_build_world(config)
    return _instrumented_run(
        STAGE_GRAPH[stage_name].run, world, inputs, stage_name,
        shard_key, payload,
    )


class ShardExecutor:
    """Executes one stage's shard list with a fixed worker budget."""

    def __init__(self, workers: int = 1) -> None:
        if workers < 1:
            raise ExecutionError(f"workers must be >= 1, got {workers}")
        self.workers = workers

    def execute(
        self,
        spec: StageSpec,
        world: Optional[World],
        products: Mapping[str, Any],
        shards: List[Tuple[str, Any]],
    ) -> List[Tuple[str, ShardResult]]:
        """Run ``shards``; return ``(shard_key, (artifact, metrics,
        spans))`` in plan order."""
        if not shards:
            return []
        if self.workers == 1 or len(shards) == 1:
            return [
                (
                    key,
                    _instrumented_run(
                        spec.run, world, products, spec.name, key, payload
                    ),
                )
                for key, payload in shards
            ]
        return self._execute_pool(spec, world, products, shards)

    def _execute_pool(
        self,
        spec: StageSpec,
        world: World,
        products: Mapping[str, Any],
        shards: List[Tuple[str, Any]],
    ) -> List[Tuple[str, ShardResult]]:
        global _FORK_CONTEXT
        use_fork = multiprocessing.get_start_method() == "fork"
        max_workers = min(self.workers, len(shards))
        # Materializes every input body in the parent, outside the fork
        # lock: a lazy body's decode may itself recompute a lost shard
        # through an executor, and forked children then inherit the
        # decoded body instead of each decoding its own.
        inputs: Dict[str, Any] = {
            name: products[name] for name in spec.inputs
        }
        if not use_fork:
            with ProcessPoolExecutor(max_workers=max_workers) as pool:
                futures = [
                    pool.submit(
                        _run_shard_shipped,
                        world.config,
                        spec.name,
                        key,
                        payload,
                        inputs,
                    )
                    for key, payload in shards
                ]
                return _collect(spec, shards, futures)
        # Fork path: the context must be set BEFORE the pool exists —
        # forked children inherit the world and upstream products
        # copy-on-write.  The lock holds until the stage drains so a
        # concurrent job cannot swap the context under our fork.
        with _FORK_LOCK:
            _FORK_CONTEXT = (spec, world, products)
            try:
                with ProcessPoolExecutor(max_workers=max_workers) as pool:
                    futures = [
                        pool.submit(_run_shard_forked, key, payload)
                        for key, payload in shards
                    ]
                    return _collect(spec, shards, futures)
            finally:
                _FORK_CONTEXT = None


def _collect(
    spec: StageSpec,
    shards: List[Tuple[str, Any]],
    futures: List["Future[ShardResult]"],
) -> List[Tuple[str, ShardResult]]:
    """Shard results in submission (= plan) order, not completion order
    — merge determinism depends on it.

    A worker that dies (killed, or ``os._exit`` in a shard) breaks the
    whole pool; the run then fails with an :class:`ExecutionError`
    naming the stage and the first shard, in plan order, whose result
    was lost.
    """
    results: List[Tuple[str, ShardResult]] = []
    for (key, _), future in zip(shards, futures):
        try:
            results.append((key, future.result()))
        except BrokenProcessPool as exc:
            raise ExecutionError(
                f"stage {spec.name!r}: a worker process died before shard "
                f"{key!r} finished ({exc})"
            ) from exc
    return results
