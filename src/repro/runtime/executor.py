"""Parallel shard executor.

Fans a stage's shards over ``concurrent.futures`` process workers and
yields the shard products in canonical (plan) order, each as soon as it
and every shard before it are done, so the caller can store each one
as it arrives, and its merge is independent of completion order and of
the worker count.

With more than one worker and shard, the pool is created per stage,
after the parent has built the world and materialized the bodies of
the stage's declared inputs (a body replayed from the cache decodes
lazily, and it must decode once, in the parent, not once per child).
While the pool runs, the heap its workers inherit is frozen out of the
cyclic collector's scans, and results decode with the collector
paused (:func:`_heap_frozen`, :func:`_collect`).
Each worker receives the stage's ``run``, its name, the world and those
bodies once, through the pool's initializer, and a task carries only
the shard key and payload.  Under fork the initializer's arguments are
inherited, not pickled, so the hand-off copies nothing; under spawn or
forkserver they are pickled once per worker.  Either way a worker runs
exactly the spec it was given.

``workers=1`` (or a single shard) executes inline in the calling
process — the engine's "serial path" — through the exact same stage
functions, which is what makes worker-count invariance testable.

Every shard runs inside its own
:class:`~repro.obs.metrics.MetricsRegistry` collection scope under its
own :class:`~repro.obs.trace.Tracer`'s ``stage:<name>`` span, and each
result ships back as an ``(artifact, metrics_snapshot, span_rows)``
tuple.  Because every piece is shard-local and the engine folds them in
canonical plan order, the merged registry is byte-identical for any
worker count — observability rides the same determinism guarantees as
the artifacts themselves.  Span rows carry the recording pid/tid.  A
shard run inline reads the clock of the engine's tracer, and a pool
worker the system clock, the one a
:class:`~repro.obs.clock.SystemClock` tracer reads; either way the
engine grafts the rows into the parent trace where they ran.  The
engine caches the artifact and the snapshot, never the span rows.
"""

from __future__ import annotations

import contextlib
import gc
import os
import threading
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

from repro.datasets.builder import World
from repro.errors import ExecutionError
from repro.obs.clock import NullClock
from repro.obs.metrics import MetricsRegistry, collecting
from repro.obs.trace import Tracer, spans_to_payload
from repro.runtime.cache import collector_paused
from repro.runtime.graph import RunFn, StageSpec

#: a shard's result: the artifact, its shard-local metrics snapshot and
#: its span rows (pid/tid-stamped, graftable)
ShardResult = Tuple[Any, Dict[str, Dict[str, Any]], List[Dict[str, Any]]]

#: what a pool worker runs its shards with: (run, stage name, world,
#: input bodies), set once per worker process by :func:`_install`
_WORKER: Optional[Tuple[RunFn, str, Optional[World], Mapping[str, Any]]] = None


def _instrumented_run(
    run: Any,
    world: Optional[World],
    products: Mapping[str, Any],
    stage_name: str,
    shard_key: str,
    payload: Any,
    clock: Optional[NullClock] = None,
) -> ShardResult:
    """Run one shard inside a fresh metrics collection scope and tracer.

    The registry and tracer are created here — per shard, per process —
    so ambient :func:`repro.obs.metrics.inc` calls inside stage code
    land in a registry that travels back with the artifact instead of
    in global state a pool worker would silently discard.  The tracer
    reads ``clock`` (default: the system clock).  The shard's span
    roots at a ``stage:<name>`` span and is stamped with the recording
    pid/tid before shipping, so the engine can graft it into the parent
    trace as a real process track.
    """
    registry = MetricsRegistry()
    tracer = Tracer(clock)
    with collecting(registry):
        with tracer.span(f"stage:{stage_name}", shard=shard_key):
            artifact = run(world, products, shard_key, payload)
    pid = os.getpid()
    tid = threading.get_native_id()
    for span in tracer.spans:
        span.pid = pid
        span.tid = tid
    return artifact, registry.to_dict(), spans_to_payload(tracer.spans)


@contextlib.contextmanager
def _heap_frozen() -> Iterator[None]:
    """Keep every object that exists on entry out of the cyclic
    collector's scans until the block ends.

    A forked worker inherits the parent's heap (the world and the
    bodies its stage reads) copy-on-write.  A collection that scans an
    inherited object writes to its header, which copies its page, so a
    worker's full collection copies and re-scans the whole inherited
    heap.  Results decoded with the collector paused (:func:`_collect`)
    make that likely: the next pool's workers then find hundreds of
    thousands of young objects, and a stale estimate of the long-lived
    heap, and collect it all.  ``gc.freeze`` moves every tracked object
    into the permanent generation, which no collection scans, in the
    parent and in the workers forked from it; ``gc.unfreeze`` returns
    them to the oldest generation.  A process that froze objects of its
    own is left as it is.  Like the pause, the freeze is process-wide:
    pools run from several threads at once can each end another's
    freeze, which costs a later pool's workers speed, never a result.
    """
    if gc.get_freeze_count():
        yield
        return
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def _install(
    run: RunFn,
    stage_name: str,
    world: Optional[World],
    inputs: Mapping[str, Any],
) -> None:
    """Pool initializer: keep the stage's hand-off in this worker."""
    global _WORKER
    _WORKER = (run, stage_name, world, inputs)


def _run_shard(shard_key: str, payload: Any) -> ShardResult:
    """Task body in a pool worker: one shard of the installed stage."""
    run, stage_name, world, inputs = _WORKER
    return _instrumented_run(
        run, world, inputs, stage_name, shard_key, payload
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
        clock: Optional[NullClock] = None,
    ) -> Iterator[Tuple[str, ShardResult]]:
        """Run ``shards``; yield ``(shard_key, (artifact, metrics,
        spans))`` in plan order, each once it and every shard before it
        are done.  Shards run inline read ``clock`` (default: the
        system clock); pool workers read the system clock."""
        if self.workers == 1 or len(shards) <= 1:
            for key, payload in shards:
                yield key, _instrumented_run(
                    spec.run, world, products, spec.name, key, payload, clock
                )
        else:
            yield from self._execute_pool(spec, world, products, shards)

    def _execute_pool(
        self,
        spec: StageSpec,
        world: Optional[World],
        products: Mapping[str, Any],
        shards: List[Tuple[str, Any]],
    ) -> Iterator[Tuple[str, ShardResult]]:
        # Materializes every input body in the parent before the pool
        # starts: a lazy body's decode may itself recompute a lost shard
        # through an executor, and workers then receive the decoded body
        # instead of each decoding its own.
        inputs: Dict[str, Any] = {
            name: products[name] for name in spec.inputs
        }
        with _heap_frozen(), ProcessPoolExecutor(
            max_workers=min(self.workers, len(shards)),
            initializer=_install,
            initargs=(spec.run, spec.name, world, inputs),
        ) as pool:
            futures = [
                pool.submit(_run_shard, key, payload)
                for key, payload in shards
            ]
            yield from _collect(spec, shards, futures)


def _collect(
    spec: StageSpec,
    shards: List[Tuple[str, Any]],
    futures: List["Future[ShardResult]"],
) -> Iterator[Tuple[str, ShardResult]]:
    """Shard results in submission (= plan) order, not completion order
    (merge determinism depends on it), each yielded as soon as it is
    done.

    The pool's result thread unpickles each result while this waits,
    so the cyclic garbage collector stays paused from the first wait to
    the last result, as in a cache load: a panel body decodes into
    hundreds of thousands of objects next to the long-lived world.
    Every worker has started by now, so none inherits the pause.

    A worker that dies (killed, or ``os._exit`` in a shard) breaks the
    whole pool; the run then fails with an :class:`ExecutionError`
    naming the stage and the first shard, in plan order, whose result
    was lost.
    """
    with collector_paused():
        for (key, _), future in zip(shards, futures):
            try:
                result = future.result()
            except BrokenProcessPool as exc:
                raise ExecutionError(
                    f"stage {spec.name!r}: a worker process died before "
                    f"shard {key!r} finished ({exc})"
                ) from exc
            yield key, result
