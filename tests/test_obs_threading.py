"""Cross-thread isolation of the ambient metrics/tracing stacks.

A library caller may run one study per thread, each under its own
``collecting``/``tracing`` scope.  The ambient stacks are
thread-local, so concurrent scopes must never observe each other —
the regression these tests pin down (the original stacks were module
globals).
"""

from __future__ import annotations

import threading

from repro.obs import metrics
from repro.obs.metrics import MetricsRegistry, collecting
from repro.obs.trace import Tracer, current_tracer, tracing


def test_collecting_scopes_are_thread_local():
    registries = {}
    barrier = threading.Barrier(2)

    def work(name: str) -> None:
        registry = MetricsRegistry()
        registries[name] = registry
        with collecting(registry):
            barrier.wait()  # both scopes provably open at once
            for _ in range(50):
                metrics.inc("events", worker=name)
            barrier.wait()

    threads = [
        threading.Thread(target=work, args=(name,)) for name in ("a", "b")
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    for name in ("a", "b"):
        registry = registries[name]
        assert len(registry) == 1
        assert registry.value("events", worker=name) == 50


def test_ambient_stack_empty_on_fresh_thread():
    seen = {}

    def probe() -> None:
        seen["active"] = metrics.active()
        seen["current"] = metrics.current()

    registry = MetricsRegistry()
    with collecting(registry):
        thread = threading.Thread(target=probe)
        thread.start()
        thread.join()
    assert seen == {"active": False, "current": None}


def test_tracing_scopes_are_thread_local():
    tracers = {}
    barrier = threading.Barrier(2)

    def work(name: str) -> None:
        tracer = Tracer()
        tracers[name] = tracer
        with tracing(tracer):
            barrier.wait()
            assert current_tracer() is tracer
            with tracer.span(f"stage-{name}"):
                pass
            barrier.wait()

    threads = [
        threading.Thread(target=work, args=(name,)) for name in ("a", "b")
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    for name in ("a", "b"):
        spans = tracers[name].rows()
        assert [row["name"] for row in spans] == [f"stage-{name}"]


def test_concurrent_instrument_creation_loses_nothing():
    registry = MetricsRegistry()
    barrier = threading.Barrier(8)

    def work(index: int) -> None:
        barrier.wait()
        for i in range(25):
            registry.counter("events", worker=index, slot=i).inc()

    threads = [
        threading.Thread(target=work, args=(index,)) for index in range(8)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert len(registry) == 8 * 25
    assert registry.sum_counters("events") == 8 * 25
