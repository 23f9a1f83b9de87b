"""The job queue: bounded scheduling of studies onto the runtime engine.

One :class:`JobManager` owns a bounded ``asyncio.Queue`` of accepted
submissions, a fixed pool of worker coroutines (the concurrent-job
limit) and a thread-pool executor the blocking
:func:`repro.runtime.run_study` calls run on — each of which may fan
out further across the engine's *process* pool (``--workers``).  Every
job runs against the server's one shared content-addressed cache
directory, so a config the service has seen before replays warm no
matter which worker picks it up.

The lifecycle is a strict state machine::

    queued -> running -> done
                      -> failed

with the transitions published as ``repro.serve/event/v1`` events on
the job's stream: ``job:queued``, ``job:start``, then live
``span:start``/``span:end`` pairs sourced from a
:class:`~repro.obs.trace.CallbackTracer` threaded into the engine (the
``serve:job`` wrapper span, the engine's ``run``/``world:build`` spans
and every ``stage:*`` span with its wall time), and finally the
terminal ``job:done`` carrying either the result summary — cache
hits/misses, the warm hit rate, the appended ledger record's identity,
headline study numbers — or the error message.

Job ids are deterministic: a content hash of the config digest and the
submission sequence number, no wall clock, no randomness — resubmitting
the same configs to a fresh server yields the same ids.

The engine runs on executor threads while subscribers live on the event
loop; the tracer callback hops events across with
``loop.call_soon_threadsafe``, the only cross-thread touchpoint.
"""

from __future__ import annotations

import asyncio
import hashlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.errors import ReproError, ServeError
from repro.obs import names as obs_names
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import CallbackTracer, Span
from repro.serve.schemas import (
    JOB_SCHEMA,
    config_from_payload,
    event_payload,
)

#: the lifecycle states, in order; the last two are terminal
JOB_STATES = ("queued", "running", "done", "failed")

#: span names forwarded onto a job's SSE stream (the engine's coarse
#: structure; per-shard detail stays out of the event feed)
_STREAMED_SPANS = ("serve:job", "run", "world:build")


class JobQueueFullError(ServeError):
    """Raised when a submission finds the bounded queue at capacity;
    the HTTP layer maps it to 503."""


def job_id_for(config_digest: str, seq: int) -> str:
    """Deterministic job identity: content hash of config + seq."""
    digest = hashlib.blake2b(digest_size=6)
    digest.update(f"{config_digest}#{seq}".encode("utf-8"))
    return digest.hexdigest()


def _streamed(name: str) -> bool:
    return name in _STREAMED_SPANS or name.startswith("stage:")


@dataclass
class Job:
    """One scheduled study and its event history."""

    job_id: str
    seq: int
    config: Any
    state: str = "queued"
    events: List[Dict[str, Any]] = field(default_factory=list)
    subscribers: List["asyncio.Queue[Dict[str, Any]]"] = field(
        default_factory=list
    )
    result: Optional[Dict[str, Any]] = None
    error: Optional[str] = None

    @property
    def terminal(self) -> bool:
        return self.state in ("done", "failed")

    def to_payload(self) -> Dict[str, Any]:
        """The job as a ``repro.serve/job/v1`` document."""
        payload: Dict[str, Any] = {
            "schema": JOB_SCHEMA,
            "job_id": self.job_id,
            "seq": self.seq,
            "state": self.state,
            "config": {
                "digest": self.config.digest(),
                "seed": self.config.seed,
            },
            "n_events": len(self.events),
        }
        if self.result is not None:
            payload["result"] = self.result
        if self.error is not None:
            payload["error"] = self.error
        return payload


class JobManager:
    """Bounded scheduling of submissions onto the runtime facade."""

    def __init__(
        self,
        cache_dir: str,
        workers: int = 1,
        job_limit: int = 1,
        queue_limit: int = 8,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if job_limit < 1:
            raise ServeError(f"job_limit must be >= 1, got {job_limit}")
        if queue_limit < 1:
            # asyncio treats maxsize<=0 as unbounded; the service's
            # backpressure contract requires a real bound.
            raise ServeError(f"queue_limit must be >= 1, got {queue_limit}")
        self.cache_dir = cache_dir
        self.workers = workers
        self.job_limit = job_limit
        self.queue_limit = queue_limit
        self.registry = registry if registry is not None else MetricsRegistry()
        self.jobs: Dict[str, Job] = {}
        self.order: List[str] = []
        self.warm_hit_rate = 0.0
        self._seq = 0
        self._queue: "Optional[asyncio.Queue[Job]]" = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._tasks: List["asyncio.Task[None]"] = []
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    # -- lifecycle -------------------------------------------------------
    async def start(self) -> None:
        """Create the queue and the worker pool on the running loop."""
        self._loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue(maxsize=self.queue_limit)
        self._executor = ThreadPoolExecutor(
            max_workers=self.job_limit, thread_name_prefix="repro-serve-job"
        )
        self._tasks = [
            asyncio.ensure_future(self._worker())
            for _ in range(self.job_limit)
        ]

    async def stop(self) -> None:
        """Cancel the workers and drain the executor.

        The executor is shut down *before* the event loop goes away, so
        a tracer callback on a straggling engine thread can always land
        its ``call_soon_threadsafe`` handoff.
        """
        for task in self._tasks:
            task.cancel()
        for task in self._tasks:
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._tasks = []
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    # -- submission ------------------------------------------------------
    def submit(self, payload: Any) -> Job:
        """Validate a submission and enqueue it; returns the new job.

        Raises :class:`~repro.errors.ServeError` (or
        :class:`~repro.errors.ConfigError`) on a bad payload and
        :class:`JobQueueFullError` when the bounded queue is full —
        validation happens *before* a queue slot is claimed, so a
        malformed body never occupies capacity.
        """
        if self._queue is None:
            raise ServeError("job manager is not started")
        config = config_from_payload(payload)
        job = Job(
            job_id=job_id_for(config.digest(), self._seq),
            seq=self._seq,
            config=config,
        )
        try:
            self._queue.put_nowait(job)
        except asyncio.QueueFull:
            self.registry.counter(obs_names.SERVE_JOBS_REJECTED).inc()
            raise JobQueueFullError(
                f"job queue is full ({self.queue_limit} waiting); retry later"
            ) from None
        self._seq += 1
        self.jobs[job.job_id] = job
        self.order.append(job.job_id)
        self.registry.counter(obs_names.SERVE_JOBS_SUBMITTED).inc()
        self._emit(job, "job:queued", {
            "state": job.state,
            "config_digest": job.config.digest(),
            "seed": job.config.seed,
        })
        self._refresh_gauges()
        return job

    def get(self, job_id: str) -> Optional[Job]:
        return self.jobs.get(job_id)

    def counts(self) -> Dict[str, int]:
        """Jobs per lifecycle state (all states present, zero-filled)."""
        counts = {state: 0 for state in JOB_STATES}
        for job in self.jobs.values():
            counts[job.state] += 1
        return counts

    # -- execution -------------------------------------------------------
    async def _worker(self) -> None:
        assert self._queue is not None
        while True:
            job = await self._queue.get()
            try:
                await self._run_job(job)
            finally:
                self._queue.task_done()

    async def _run_job(self, job: Job) -> None:
        assert self._loop is not None and self._executor is not None
        job.state = "running"
        self._refresh_gauges()
        self._emit(job, "job:start", {"state": job.state})
        loop = self._loop

        def progress(phase: str, span: Span) -> None:
            # Engine-thread side of the handoff; the loop outlives the
            # executor (see stop()), so the schedule always succeeds.
            if not _streamed(span.name):
                return
            data: Dict[str, Any] = {
                "span": span.name,
                "attrs": {key: span.attrs[key] for key in sorted(span.attrs)},
            }
            if phase == "end":
                data["wall_s"] = round(span.wall_s, 6)
            loop.call_soon_threadsafe(
                self._emit, job, f"span:{phase}", data
            )

        try:
            summary = await loop.run_in_executor(
                self._executor, self._execute, job, progress
            )
        except ReproError as exc:
            job.state = "failed"
            job.error = str(exc)
            self.registry.counter(
                obs_names.SERVE_JOBS_COMPLETED, outcome="failed"
            ).inc()
            self._emit(job, "job:done", {
                "state": job.state, "error": job.error,
            })
        else:
            job.state = "done"
            job.result = summary
            self.warm_hit_rate = summary["warm_hit_rate"]
            self.registry.counter(
                obs_names.SERVE_JOBS_COMPLETED, outcome="done"
            ).inc()
            self.registry.gauge(obs_names.SERVE_WARM_HIT_RATE).set(
                self.warm_hit_rate
            )
            self._emit(job, "job:done", dict(summary, state=job.state))
        self._refresh_gauges()

    def _execute(self, job: Job, progress: Any) -> Dict[str, Any]:
        """Run one study on an executor thread; returns the summary."""
        from repro.runtime.facade import run_study

        tracer = CallbackTracer(progress)
        with tracer.span(obs_names.SPAN_SERVE_JOB, job=job.job_id):
            run = run_study(
                job.config,
                workers=self.workers,
                cache_dir=self.cache_dir,
                tracer=tracer,
            )
        hits, misses = run.cache_hits, run.cache_misses
        probes = hits + misses
        summary: Dict[str, Any] = {
            "cache_hits": hits,
            "cache_misses": misses,
            "warm_hit_rate": round(hits / probes, 6) if probes else 0.0,
            "headline": {
                "table2_total": run.table2_counts()["total"],
                "eu28_destination_regions": run.eu28_destination_regions(),
            },
        }
        if run.ledger_record is not None:
            summary["ledger"] = {
                "run_id": run.ledger_record["run_id"],
                "seq": run.ledger_record["seq"],
            }
        return summary

    # -- events ----------------------------------------------------------
    def subscribe(self, job: Job) -> "asyncio.Queue[Dict[str, Any]]":
        """A queue receiving the job's *future* events (loop thread only;
        replay the ``job.events`` history first)."""
        queue: "asyncio.Queue[Dict[str, Any]]" = asyncio.Queue()
        job.subscribers.append(queue)
        return queue

    def unsubscribe(
        self, job: Job, queue: "asyncio.Queue[Dict[str, Any]]"
    ) -> None:
        if queue in job.subscribers:
            job.subscribers.remove(queue)

    def _emit(self, job: Job, event: str, data: Dict[str, Any]) -> None:
        payload = event_payload(event, job.job_id, len(job.events), data)
        job.events.append(payload)
        for queue in list(job.subscribers):
            queue.put_nowait(payload)

    def _refresh_gauges(self) -> None:
        counts = self.counts()
        self.registry.gauge(obs_names.SERVE_JOBS_QUEUED).set(counts["queued"])
        self.registry.gauge(obs_names.SERVE_JOBS_RUNNING).set(
            counts["running"]
        )
