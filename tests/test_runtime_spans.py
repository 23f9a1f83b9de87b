"""Integration tests for worker span stitching through the runtime.

One traced cold run (2 process workers, shared cache) and one traced
warm replay are shared module-wide: the cold run must graft each
worker's span tree under its stage's ``execute`` span with the worker's
real pid, and the warm run must replay those trees out of the cache
envelopes.  The envelope tests pin the ``(artifact, metrics, spans)``
split, including the legacy shapes a warm run may still meet on disk.
"""

from __future__ import annotations

import os

import pytest

from repro import WorldConfig
from repro.obs import Tracer
from repro.runtime import run_study
from repro.runtime.engine import _unwrap_envelope, _wrap_envelope


@pytest.fixture(scope="module")
def engine_config():
    return WorldConfig.small()


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("spans-cache"))


@pytest.fixture(scope="module")
def cold_run(engine_config, cache_dir):
    return run_study(
        engine_config, workers=2, cache_dir=cache_dir, tracer=Tracer()
    )


@pytest.fixture(scope="module")
def warm_run(engine_config, cache_dir, cold_run):
    return run_study(
        engine_config, workers=1, cache_dir=cache_dir, tracer=Tracer()
    )


class TestColdRun:
    def test_worker_spans_grafted_with_real_pids(self, cold_run):
        spans = cold_run.result.tracer.spans
        worker = [
            span for span in spans
            if span.pid is not None and span.name.startswith("stage:")
        ]
        assert worker, "no grafted worker stage spans"
        # Multi-shard stages fan out to pool processes; single-shard
        # stages run inline and stamp the engine's own pid.
        assert any(span.pid != os.getpid() for span in worker)
        assert all(span.tid is not None for span in worker)
        # Grafted trees hang under their stage's execute span.
        for span in worker:
            assert span.parent is not None
            assert spans[span.parent].name == "execute"


class TestWarmReplay:
    def test_warm_worker_spans_are_replayed(self, warm_run):
        # Even a 1-worker warm run grafts the cold run's worker spans
        # out of the cache envelopes, pids intact.
        assert warm_run.cache_misses == 0
        pids = {
            span.pid
            for span in warm_run.result.tracer.spans
            if span.pid is not None and span.name.startswith("stage:")
        }
        assert len(pids) >= 2


class TestEnvelopeCompat:
    def test_legacy_raw_artifact_unwraps_empty(self):
        assert _unwrap_envelope({"rows": [1, 2]}) == ({"rows": [1, 2]}, {}, [])

    def test_metrics_only_envelope_unwraps_without_spans(self):
        envelope = _wrap_envelope("artifact", {"k": 1})
        assert "spans" not in envelope
        assert _unwrap_envelope(envelope) == ("artifact", {"k": 1}, [])

    def test_full_envelope_round_trips(self):
        envelope = _wrap_envelope(
            "artifact", {"k": 1}, spans=[{"name": "stage:x"}]
        )
        assert _unwrap_envelope(envelope) == (
            "artifact", {"k": 1}, [{"name": "stage:x"}],
        )
