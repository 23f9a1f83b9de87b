"""Unit tests for :mod:`repro.serve.jobs` and the facade progress hook.

The engine itself is stubbed (``repro.runtime.facade.run_study`` is
monkeypatched — :meth:`JobManager._execute` resolves it at call time),
so these tests exercise the queueing, lifecycle, event and metric
semantics in milliseconds; the real engine-under-the-service path is
locked by ``make smoke``.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.config import WorldConfig
from repro.errors import ExecutionError, ServeError
from repro.obs import names as obs_names
from repro.serve.jobs import JobManager, JobQueueFullError, job_id_for
from repro.serve.schemas import validate_event


class FakeRun:
    """The slice of :class:`RuntimeRun` the job summary consumes."""

    def __init__(self, hits, misses):
        self.cache_hits = hits
        self.cache_misses = misses
        self.ledger_record = {"run_id": "deadbeef", "seq": 0}

    def table2_counts(self):
        return {"total": {"total_requests": 25825}}

    def eu28_destination_regions(self):
        return {"EU 28": 91.9}


def fake_run_study_factory(seen=None):
    """A ``run_study`` double: cold on first digest sighting, warm after.

    Opens one streamed span (``stage:fake``) and one that must stay off
    the stream (``shard:0``) so the span filter is exercised too.
    """
    seen = seen if seen is not None else set()

    def fake_run_study(config, workers=1, cache_dir=None, tracer=None):
        with tracer.span("stage:fake", shards=1):
            with tracer.span("shard:0"):
                pass
        digest = config.digest()
        warm = digest in seen
        seen.add(digest)
        return FakeRun(hits=61 if warm else 0, misses=0 if warm else 61)

    return fake_run_study


async def wait_for(predicate, timeout=10.0):
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError("condition not reached in time")
        await asyncio.sleep(0.01)


def run_manager(test, monkeypatch, run_study=None, **kwargs):
    """Drive an async test body against a started manager."""
    monkeypatch.setattr(
        "repro.runtime.facade.run_study",
        run_study or fake_run_study_factory(),
    )

    async def go():
        manager = JobManager(cache_dir="unused", **kwargs)
        await manager.start()
        try:
            return await test(manager)
        finally:
            await manager.stop()

    return asyncio.run(go())


class TestValidation:
    def test_rejects_non_positive_limits(self):
        with pytest.raises(ServeError):
            JobManager(cache_dir="x", job_limit=0)
        with pytest.raises(ServeError):
            # maxsize<=0 would mean *unbounded* in asyncio, the
            # opposite of the backpressure contract.
            JobManager(cache_dir="x", queue_limit=0)

    def test_submit_before_start_fails(self):
        with pytest.raises(ServeError):
            JobManager(cache_dir="x").submit({"preset": "small"})


class TestJobIds:
    def test_deterministic_and_distinct(self):
        digest = WorldConfig.small().digest()
        assert job_id_for(digest, 0) == job_id_for(digest, 0)
        assert job_id_for(digest, 0) != job_id_for(digest, 1)
        assert job_id_for(digest, 0) != job_id_for("other", 0)


class TestLifecycle:
    def test_cold_then_warm_job(self, monkeypatch):
        async def test(manager):
            cold = manager.submit({"preset": "small"})
            await wait_for(lambda: cold.terminal)
            warm = manager.submit({"preset": "small"})
            await wait_for(lambda: warm.terminal)
            return cold, warm, manager.counts(), manager.warm_hit_rate

        cold, warm, counts, warm_hit_rate = run_manager(test, monkeypatch)
        assert (cold.state, warm.state) == ("done", "done")
        assert cold.result["warm_hit_rate"] == 0.0
        assert warm.result["warm_hit_rate"] == 1.0
        assert warm_hit_rate == 1.0
        assert counts == {"queued": 0, "running": 0, "done": 2, "failed": 0}
        assert warm.result["ledger"] == {"run_id": "deadbeef", "seq": 0}

    def test_event_stream_shape(self, monkeypatch):
        async def test(manager):
            job = manager.submit({"preset": "small"})
            await wait_for(lambda: job.terminal)
            return job

        job = run_manager(test, monkeypatch)
        for event in job.events:
            validate_event(event)
        names = [event["event"] for event in job.events]
        # queued, started, the serve:job + stage:fake span pairs
        # (nested: starts then ends inner-first), then terminal.
        assert names == [
            "job:queued", "job:start",
            "span:start", "span:start", "span:end", "span:end",
            "job:done",
        ]
        spans = [
            event["data"]["span"]
            for event in job.events
            if event["event"].startswith("span:")
        ]
        # shard:0 is filtered off the stream.
        assert "shard:0" not in spans
        assert spans == ["serve:job", "stage:fake", "stage:fake", "serve:job"]
        assert [event["seq"] for event in job.events] == list(range(7))
        ends = [e for e in job.events if e["event"] == "span:end"]
        assert all("wall_s" in e["data"] for e in ends)
        assert job.events[-1]["data"]["state"] == "done"

    def test_subscriber_sees_live_events(self, monkeypatch):
        async def test(manager):
            job = manager.submit({"preset": "small"})
            queue = manager.subscribe(job)
            received = list(job.events)
            while not received or received[-1]["event"] != "job:done":
                received.append(await asyncio.wait_for(queue.get(), 10))
            manager.unsubscribe(job, queue)
            return job, received

        job, received = run_manager(test, monkeypatch)
        assert received == job.events

    def test_failed_job_is_terminal_not_fatal(self, monkeypatch):
        def exploding(config, workers=1, cache_dir=None, tracer=None):
            raise ExecutionError("shard 3 exploded")

        async def test(manager):
            job = manager.submit({"preset": "small"})
            await wait_for(lambda: job.terminal)
            # The manager survives: a fresh submission still works.
            ok = manager.submit({"preset": "small", "seed": 8})
            return job, ok, manager.registry

        job, ok, registry = run_manager(test, monkeypatch, run_study=exploding)
        assert job.state == "failed"
        assert job.error == "shard 3 exploded"
        assert job.events[-1]["event"] == "job:done"
        assert job.events[-1]["data"]["error"] == "shard 3 exploded"
        assert "error" in job.to_payload()
        assert ok.state in ("queued", "running", "failed")
        completed = registry.counter(
            obs_names.SERVE_JOBS_COMPLETED, outcome="failed"
        )
        assert completed.value == 1

    def test_full_queue_rejects_without_phantom_job(self, monkeypatch):
        gate = threading.Event()

        def blocking(config, workers=1, cache_dir=None, tracer=None):
            gate.wait(timeout=30)
            return FakeRun(hits=0, misses=61)

        async def test(manager):
            first = manager.submit({"preset": "small"})
            await wait_for(lambda: first.state == "running")
            second = manager.submit({"preset": "small", "seed": 8})
            with pytest.raises(JobQueueFullError):
                manager.submit({"preset": "small", "seed": 9})
            before = dict(manager.jobs)
            gate.set()
            await wait_for(lambda: second.terminal)
            return first, second, before, manager.registry

        first, second, before, registry = run_manager(
            test, monkeypatch, run_study=blocking,
            job_limit=1, queue_limit=1,
        )
        # The rejected submission claimed no seq, created no job.
        assert set(before) == {first.job_id, second.job_id}
        assert (first.seq, second.seq) == (0, 1)
        rejected = registry.counter(obs_names.SERVE_JOBS_REJECTED)
        assert rejected.value == 1

    def test_invalid_submission_never_occupies_capacity(self, monkeypatch):
        async def test(manager):
            with pytest.raises(ServeError):
                manager.submit({"preset": "gigantic"})
            assert manager.jobs == {}
            job = manager.submit({"preset": "small"})
            assert job.seq == 0
            await wait_for(lambda: job.terminal)
            return job

        assert run_manager(test, monkeypatch).state == "done"


class TestFacadeProgressHook:
    def test_progress_wraps_run_in_a_callback_tracer(self, monkeypatch):
        # The facade's wiring: progress=... with no tracer must trace
        # the run through a CallbackTracer so span events reach the
        # callback.  The engine is stubbed; the real traced-run path is
        # tier-1 elsewhere (test_runtime_determinism) and ``make smoke``.
        from repro.obs.trace import CallbackTracer
        from repro.runtime import facade

        captured = {}

        class FakeEngine:
            def __init__(self, workers=1, cache_dir=None):
                pass

            def run(self, config, targets, tracer=None):
                captured["tracer"] = tracer
                with tracer.span("run"):
                    pass
                return "result"

        monkeypatch.setattr(facade, "ExecutionEngine", FakeEngine)
        events = []
        run = facade.run_study(
            WorldConfig.small(),
            progress=lambda phase, span: events.append((phase, span.name)),
        )
        assert isinstance(captured["tracer"], CallbackTracer)
        assert events == [("start", "run"), ("end", "run")]
        assert run.result == "result"

    def test_explicit_tracer_wins_over_progress(self, monkeypatch):
        from repro.obs import TickClock, Tracer
        from repro.runtime import facade

        captured = {}

        class FakeEngine:
            def __init__(self, workers=1, cache_dir=None):
                pass

            def run(self, config, targets, tracer=None):
                captured["tracer"] = tracer
                return "result"

        monkeypatch.setattr(facade, "ExecutionEngine", FakeEngine)
        tracer = Tracer(TickClock())
        facade.run_study(
            WorldConfig.small(),
            tracer=tracer,
            progress=lambda phase, span: None,
        )
        assert captured["tracer"] is tracer
