"""Integration tests for worker span stitching and the cache layout.

One traced cold run (2 process workers, shared cache) and one traced
warm replay are shared module-wide.  The cold run must graft each
executed shard's span tree under its stage's ``execute`` span with the
worker's real pid, at the timestamps the worker recorded; the warm run
executes nothing, so it grafts nothing.  The cache stores what a shard
computed, never how long it took: a shard file holds ``(artifact,
metrics snapshot)`` and an index entry ``(index, {shard key:
snapshot})``.
"""

from __future__ import annotations

import os
import pickle
from collections import defaultdict

import pytest

from repro import WorldConfig
from repro.obs.trace import Tracer
from repro.runtime import cache as cache_module
from repro.runtime import run_study
from repro.runtime.cache import INDEX_DIR, ArtifactCache


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

    def test_a_workers_shards_run_one_after_another_inside_execute(
        self, cold_run
    ):
        # Workers and the engine read one clock, so each shard keeps
        # the interval it ran in: a worker's shards of one stage follow
        # each other, all inside the stage's execute span.
        spans = cold_run.result.tracer.spans
        tracks = defaultdict(list)
        for span in spans:
            if span.pid is not None and span.name.startswith("stage:"):
                tracks[span.pid, span.name].append(span)
        assert any(len(shards) > 1 for shards in tracks.values())
        for track, shards in tracks.items():
            shards.sort(key=lambda span: span.wall_start)
            for before, after in zip(shards, shards[1:]):
                assert before.wall_end <= after.wall_start, track
            for span in shards:
                execute = spans[span.parent]
                assert execute.wall_start <= span.wall_start, track
                assert span.wall_end <= execute.wall_end, track


class TestWarmReplay:
    def test_warm_run_grafts_nothing_and_nests_every_span(self, warm_run):
        # The warm run replays every stage from its index entry: it
        # executed no shard, so no span comes from a worker, and every
        # span lies inside its parent.
        assert warm_run.cache_misses == 0
        spans = warm_run.result.tracer.spans
        assert [span for span in spans if span.pid is not None] == []
        for span in spans[1:]:
            parent = spans[span.parent]
            assert parent.wall_start <= span.wall_start, span.name
            assert span.wall_end <= parent.wall_end, span.name


def stored_file(cache_dir, *parts):
    """Unpickle the first ``.pkl`` file, by name, in a cache directory."""
    directory = os.path.join(cache_dir, *parts)
    name = sorted(
        name for name in os.listdir(directory) if name.endswith(".pkl")
    )[0]
    with open(os.path.join(directory, name), "rb") as fh:
        return pickle.load(fh)


class TestCacheLayout:
    def test_shard_file_holds_artifact_and_metrics(self, cache_dir, cold_run):
        shard = stored_file(cache_dir, "panel")
        assert isinstance(shard, tuple) and len(shard) == 2
        artifact, snapshot = shard
        assert set(artifact) == {"visits", "requests", "pdns_pairs"}
        assert isinstance(snapshot, dict)

    def test_index_entry_holds_index_and_shard_metrics(
        self, cache_dir, cold_run
    ):
        entry = stored_file(cache_dir, INDEX_DIR, "panel")
        assert isinstance(entry, tuple) and len(entry) == 2
        index, snapshots = entry
        assert index == cold_run.result.indexes["panel"]
        assert list(snapshots) == cold_run.result.metrics["panel"].shard_keys
        assert all(isinstance(value, dict) for value in snapshots.values())

    def test_keys_fold_the_layout_tag(self, monkeypatch):
        # A file stored in another layout sits under another key, so no
        # reader ever looks it up.
        cache = ArtifactCache(None)
        shard = ("config", "salt", "panel", "shard")
        index = ("config", "salt", "panel", ["shard"])
        keys = cache.key(*shard), cache.index_key(*index)
        monkeypatch.setattr(cache_module, "LAYOUT", "artifact+metrics+spans")
        assert cache.key(*shard) != keys[0]
        assert cache.index_key(*index) != keys[1]
