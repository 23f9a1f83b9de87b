"""Cross-thread isolation of the ambient metrics stack.

A library caller may run one study per thread, each under its own
``collecting`` scope.  The ambient stack is thread-local, so
concurrent scopes must never observe each other — the regression
these tests pin down (the original stack was a module global).  One
registry shared by many threads must hand every thread the same
instrument per key, whether it creates the instrument under the lock
or finds it without.
"""

from __future__ import annotations

import os
import sys
import threading

from repro.errors import ObservabilityError
from repro.obs import metrics
from repro.obs.metrics import MetricsRegistry, collecting


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


def test_lock_free_lookups_hand_every_thread_one_instrument():
    """More threads than cores, switching as often as the interpreter
    allows, all asking for the same fresh keys at once: a lookup that
    finds an instrument takes no lock, so every thread must still get
    the one instrument per key, and a kind mismatch must still raise."""
    n_threads = 2 * (os.cpu_count() or 1) + 1
    n_keys, n_incs = 40, 300
    registry = MetricsRegistry()
    barrier = threading.Barrier(n_threads, timeout=60)
    got = {}
    mismatches = {}
    errors = []

    def work(index: int) -> None:
        try:
            barrier.wait()
            got[index] = [
                (
                    registry.counter("shared", key=key),
                    registry.histogram("shared.h", key=key),
                )
                for key in range(n_keys)
            ]
            for _ in range(n_incs):
                registry.counter("own", worker=index).inc()
            raised = 0
            for key in range(n_keys):
                # each key asked for as the other kind
                for ask, name in (
                    (registry.histogram, "shared"),
                    (registry.counter, "shared.h"),
                ):
                    try:
                        ask(name, key=key)
                    except ObservabilityError:
                        raised += 1
            mismatches[index] = raised
        except BaseException as exc:  # reported on the main thread
            errors.append(exc)

    threads = [
        threading.Thread(target=work, args=(index,))
        for index in range(n_threads)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []

    for index in range(n_threads):
        assert all(
            mine[0] is first[0] and mine[1] is first[1]
            for mine, first in zip(got[index], got[0])
        )
        assert registry.value("own", worker=index) == n_incs
        assert mismatches[index] == 2 * n_keys
    assert len(registry) == 2 * n_keys + n_threads
