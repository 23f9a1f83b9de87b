"""Unit tests for the runtime engine's building blocks.

Covers the stage graph's validation and ordering, the worker-count-free
shard partition, the content-addressed cache (keys, salt folding,
corruption handling, the disabled mode), the executor's argument
validation and its pool path — everything that does not need a built
world.
"""

from __future__ import annotations

import errno
import gc
import multiprocessing
import os
import pickle
import subprocess
import sys
import time

import pytest

import repro.runtime.cache as cache_module
from repro import WorldConfig
from repro.errors import ExecutionError, ValidationError
from repro.io import run_metrics_to_json
from repro.obs import names as obs_names
from repro.obs.metrics import MetricsRegistry, collecting
from repro.runtime import (
    ArtifactCache,
    StageGraph,
    StageSpec,
    config_digest,
    partition,
)
from repro.runtime.cache import effective_salts
from repro.runtime.executor import ShardExecutor
from repro.runtime.stages import STAGE_GRAPH, STAGE_NAMES


def _spec(name, inputs=(), run=None):
    return StageSpec(
        name=name,
        inputs=tuple(inputs),
        plan=lambda world, products: [("all", None)],
        run=run or (lambda world, products, key, payload: None),
        merge=lambda world, products, shards: shards,
        index=lambda product: {"records": {}},
    )


class TestPartition:
    def test_covers_contiguously_and_balanced(self):
        blocks = partition(list(range(10)), 4)
        assert blocks == [(0, 3), (3, 6), (6, 8), (8, 10)]
        sizes = [stop - start for start, stop in blocks]
        assert max(sizes) - min(sizes) <= 1

    def test_never_more_shards_than_items(self):
        assert partition([1, 2], 8) == [(0, 1), (1, 2)]
        assert partition([], 8) == []

    def test_pure_function_of_length(self):
        assert partition(list("abcdef"), 3) == partition(list(range(6)), 3)

    def test_rejects_non_positive_target(self):
        with pytest.raises(ValidationError):
            partition([1], 0)


class TestStageGraph:
    def test_rejects_duplicates(self):
        graph = StageGraph()
        graph.add(_spec("a"))
        with pytest.raises(ValidationError):
            graph.add(_spec("a"))

    def test_rejects_forward_references(self):
        graph = StageGraph()
        with pytest.raises(ValidationError):
            graph.add(_spec("b", inputs=("a",)))

    def test_topological_order_filters_to_ancestors(self):
        graph = StageGraph()
        graph.add(_spec("a"))
        graph.add(_spec("b", inputs=("a",)))
        graph.add(_spec("c", inputs=("a",)))
        graph.add(_spec("d", inputs=("b",)))
        assert graph.topological_order() == ("a", "b", "c", "d")
        assert graph.topological_order(["d"]) == ("a", "b", "d")

    def test_unknown_stage_lookup(self):
        with pytest.raises(ValidationError):
            StageGraph()["nope"]

    def test_production_graph_shape(self):
        assert STAGE_NAMES == tuple(
            spec.name for spec in STAGE_GRAPH.stages
        )
        # Insertion order must be a valid execution order.
        seen = set()
        for spec in STAGE_GRAPH.stages:
            assert all(dep in seen for dep in spec.inputs)
            seen.add(spec.name)


class TestCacheKeys:
    def test_config_digest_is_value_identity(self):
        assert config_digest(WorldConfig.small()) == config_digest(
            WorldConfig.small()
        )
        assert config_digest(WorldConfig.small()) != config_digest(
            WorldConfig.small(seed=99)
        )

    def test_editing_a_stage_invalidates_dependents_only(self):
        def run_v1(world, products, key, payload):
            return 1

        def run_v2(world, products, key, payload):
            return 2

        def build(middle_run):
            graph = StageGraph()
            graph.add(_spec("a"))
            graph.add(_spec("b", inputs=("a",), run=middle_run))
            graph.add(_spec("c", inputs=("b",)))
            return effective_salts(graph)

        before, after = build(run_v1), build(run_v2)
        assert before["a"] == after["a"]
        assert before["b"] != after["b"]
        assert before["c"] != after["c"]


class _Unpicklable:
    def __reduce__(self):
        raise TypeError("unpicklable artifact")


class TestArtifactCache:
    def test_disabled_cache_misses_and_ignores_stores(self):
        cache = ArtifactCache(None)
        assert not cache.enabled
        cache.store("stage", "k", {"x": 1})
        assert cache.load("stage", "k") == (False, None)

    def test_roundtrip(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        assert cache.load("stage", "k1") == (False, None)
        cache.store("stage", "k1", {"x": [1, 2]})
        assert cache.load("stage", "k1") == (True, {"x": [1, 2]})

    def test_corrupt_artifact_is_a_miss(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        cache.store("stage", "k1", "fine")
        path = tmp_path / "stage" / "k1.pkl"
        path.write_bytes(path.read_bytes()[:3])
        hit, artifact = cache.load("stage", "k1")
        assert (hit, artifact) == (False, None)
        # And a recompute overwrites it cleanly.
        cache.store("stage", "k1", "fixed")
        assert cache.load("stage", "k1") == (True, "fixed")

    @pytest.mark.parametrize(
        "payload, error",
        [
            (b"\x80\x04\x95" + b"\xff" * 8, OverflowError),
            (b"\x80\x04\x8e" + (2**62).to_bytes(8, "little"), MemoryError),
            (b"\x80\x04\x8c\x0bno_such_mod\x8c\x01x\x93.", ModuleNotFoundError),
            (b"\x80\x04K\x01K\x02K\x03s.", TypeError),
            (b"\x80\x04]K\x01K\x02s.", IndexError),
        ],
        ids=["overflow", "memory", "missing-module", "type", "index"],
    )
    def test_any_decode_error_is_a_corrupt_miss(self, tmp_path, payload, error):
        # Damaged bytes can raise nearly any builtin error from the
        # decode, not just UnpicklingError; each must be a counted miss
        # that a recompute overwrites, never a crash of the run.
        with pytest.raises(error):
            pickle.loads(payload)
        cache = ArtifactCache(str(tmp_path))
        cache.store("stage", "k1", "fine")
        (tmp_path / "stage" / "k1.pkl").write_bytes(payload)
        registry = MetricsRegistry()
        with collecting(registry):
            assert cache.load("stage", "k1") == (False, None)
        assert registry.value(obs_names.RUNTIME_CACHE_CORRUPT, stage="stage") == 1
        assert gc.isenabled()
        cache.store("stage", "k1", "fixed")
        assert cache.load("stage", "k1") == (True, "fixed")

    def test_unreadable_artifact_fails_loudly(self, tmp_path, monkeypatch):
        # Only the decode is forgiven: an artifact the process may not
        # open is an environment fault, not a corrupt file.
        cache = ArtifactCache(str(tmp_path))
        cache.store("stage", "k1", "fine")

        def denied(path, mode="r", *args, **kwargs):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)

        monkeypatch.setattr(cache_module, "open", denied, raising=False)
        with pytest.raises(PermissionError):
            cache.load("stage", "k1")

    def test_no_temp_files_left_behind(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        cache.store("stage", "k1", list(range(100)))
        leftovers = [
            p for p in (tmp_path / "stage").iterdir()
            if not p.name.endswith(".pkl")
        ]
        assert leftovers == []

    def test_first_store_sweeps_dead_writers_temp_files(self, tmp_path):
        # A writer killed between its temp write and the rename leaves
        # <key>.pkl.tmp.<pid>.<tid>.  The next cache to store into that
        # directory removes the file once its pid is gone, and keeps a
        # live writer's, which may be another process's store underway.
        exited = subprocess.run(
            [sys.executable, "-c", "import os; print(os.getpid())"],
            capture_output=True, text=True, check=True,
        )
        dead = f"k0.pkl.tmp.{int(exited.stdout)}.7"
        live = f"k0.pkl.tmp.{os.getpid()}.7"
        stage_dir = tmp_path / "stage"
        index_dir = tmp_path / "index" / "stage"
        for directory in (stage_dir, index_dir):
            directory.mkdir(parents=True)
            for name in (dead, live):
                (directory / name).write_bytes(b"\x80\x05partial")
        cache = ArtifactCache(str(tmp_path))
        assert cache.load("stage", "k0") == (False, None)
        assert sorted(os.listdir(stage_dir)) == sorted([dead, live])
        cache.store("stage", "k1", "shard")
        assert sorted(os.listdir(stage_dir)) == sorted(["k1.pkl", live])
        assert sorted(os.listdir(index_dir)) == sorted([dead, live])
        cache.store("stage", "k1", "index", index=True)
        assert sorted(os.listdir(index_dir)) == sorted(["k1.pkl", live])

    def test_full_disk_store_leaves_no_temp_file(self, tmp_path, monkeypatch):
        # ENOSPC in the middle of the temp-file write: the error
        # propagates, the partial temp file is removed, and the artifact
        # published earlier under the key still loads.
        cache = ArtifactCache(str(tmp_path))
        cache.store("stage", "k1", "published")

        def dump_until_disk_full(artifact, fh, protocol=None):
            fh.write(b"\x80\x05partial")
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(cache_module.pickle, "dump", dump_until_disk_full)
        with pytest.raises(OSError) as excinfo:
            cache.store("stage", "k1", "replacement")
        assert excinfo.value.errno == errno.ENOSPC
        monkeypatch.undo()
        assert [p.name for p in (tmp_path / "stage").iterdir()] == ["k1.pkl"]
        assert cache.load("stage", "k1") == (True, "published")

    def test_unpicklable_store_leaves_no_temp_file(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        with pytest.raises(TypeError, match="unpicklable"):
            cache.store("stage", "k1", _Unpicklable())
        assert [p.name for p in (tmp_path / "stage").iterdir()] == []
        assert cache.load("stage", "k1") == (False, None)

    def test_key_separates_every_component(self):
        cache = ArtifactCache(None)
        base = cache.key("dig", "salt", "stage", "shard")
        assert base != cache.key("dig2", "salt", "stage", "shard")
        assert base != cache.key("dig", "salt2", "stage", "shard")
        assert base != cache.key("dig", "salt", "stage2", "shard")
        assert base != cache.key("dig", "salt", "stage", "shard2")

    def test_concurrent_stores_of_same_key_never_corrupt(self, tmp_path):
        # A library caller may run engines on threads of one process,
        # so two threads can store the same artifact key at once.  The
        # per-writer temp suffix (pid + thread id) keeps their
        # write-temp-then-rename slots disjoint: whichever rename lands
        # last, the published artifact is one writer's complete
        # payload, never an interleaving, and no temp files survive.
        import threading

        cache = ArtifactCache(str(tmp_path))
        payload = {"rows": list(range(2000))}
        barrier = threading.Barrier(8)

        def writer():
            barrier.wait()
            for _ in range(25):
                cache.store("stage", "k1", payload)

        threads = [threading.Thread(target=writer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        hit, artifact = cache.load("stage", "k1")
        assert hit and artifact == payload
        leftovers = [
            p for p in (tmp_path / "stage").iterdir()
            if not p.name.endswith(".pkl")
        ]
        assert leftovers == []

    def test_two_processes_storing_one_key_never_corrupt(self, tmp_path):
        # Two `repro run --cache-dir D` (or a run beside the benchmark)
        # are separate processes filling one cache dir.  Their pids keep
        # the temp names apart, so the key loads as one writer's
        # complete payload and no temp file survives.
        import multiprocessing

        context = multiprocessing.get_context("fork")
        barrier = context.Barrier(2)
        processes = [
            context.Process(
                target=_store_twentyfive, args=(str(tmp_path), barrier, n)
            )
            for n in range(2)
        ]
        for process in processes:
            process.start()
        for process in processes:
            process.join(60)
        assert [process.exitcode for process in processes] == [0, 0]

        hit, artifact = ArtifactCache(str(tmp_path)).load("stage", "k1")
        assert hit and artifact in (_store_payload(0), _store_payload(1))
        leftovers = [
            p for p in (tmp_path / "stage").iterdir()
            if not p.name.endswith(".pkl")
        ]
        assert leftovers == []


def _store_payload(writer):
    return {"writer": writer, "rows": list(range(2000))}


def _store_twentyfive(root, barrier, writer):
    """Child-process body: store one key 25 times after the barrier."""
    cache = ArtifactCache(root)
    barrier.wait()
    for _ in range(25):
        cache.store("stage", "k1", _store_payload(writer))


class TestExecutorValidation:
    def test_rejects_non_positive_workers(self):
        with pytest.raises(ExecutionError):
            ShardExecutor(0)

    def test_empty_shard_list(self):
        assert list(ShardExecutor(2).execute(_spec("a"), None, {}, [])) == []


def _collector_state():
    """Called by the decode of a :class:`_DecodeProbe`: whether the
    cyclic garbage collector is on while pool results decode."""
    return gc.isenabled()


class _DecodeProbe:
    """Pickles as a call that reads the decoding process's collector."""

    def __reduce__(self):
        return _collector_state, ()


def _shard_body(world, products, key, payload):
    """A pool-path shard (module level: the spawn path pickles it)."""
    if payload == "die":
        os._exit(1)
    if payload == "frozen":
        return gc.get_freeze_count()
    if payload == "probe":
        # long enough that the executor is waiting when the result
        # arrives
        time.sleep(0.3)
        return _DecodeProbe()
    return key.upper()


class TestExecutorPool:
    def _graph(self):
        graph = StageGraph()
        graph.add(_spec("doomed", run=_shard_body))
        return graph

    def test_workers_run_the_given_spec(self):
        results = ShardExecutor(2).execute(
            self._graph()["doomed"], None, {}, [("a", "live"), ("b", "live")]
        )
        assert [(key, result[0]) for key, result in results] == [
            ("a", "A"), ("b", "B"),
        ]

    def test_results_decode_with_the_collector_paused(self):
        results = ShardExecutor(2).execute(
            self._graph()["doomed"], None, {}, [("a", "probe"), ("b", "probe")]
        )
        assert [result[0] for _, result in results] == [False, False]
        assert gc.isenabled()

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="only a forked worker inherits the parent's heap",
    )
    def test_workers_inherit_a_frozen_heap(self):
        # Under fork a worker inherits the parent's permanent generation,
        # so its collections never scan the parent's objects; the parent
        # gets its objects back when the pool is done.
        results = ShardExecutor(2).execute(
            self._graph()["doomed"], None, {},
            [("a", "frozen"), ("b", "frozen")],
        )
        assert all(result[0] > 0 for _, result in results)
        assert gc.get_freeze_count() == 0

    def test_worker_death_names_stage_and_shard(self):
        shards = [("s0", "die"), ("s1", "live")]
        with pytest.raises(ExecutionError) as excinfo:
            list(
                ShardExecutor(2).execute(
                    self._graph()["doomed"], None, {}, shards
                )
            )
        message = str(excinfo.value)
        assert "'doomed'" in message and "'s0'" in message


class TestMetricsExport:
    def test_run_metrics_roundtrip(self, tmp_path):
        rows = [
            {"stage": "panel", "shards": 8, "cache_hits": 0,
             "cache_misses": 8, "wall_s": 1.5},
        ]
        path = tmp_path / "metrics.json"
        run_metrics_to_json(rows, path, workers=4, preset="small")
        import json

        payload = json.loads(path.read_text())
        assert payload["stages"] == rows
        assert payload["workers"] == 4
        assert payload["preset"] == "small"


def test_shard_products_pickle():
    """Every stage product must survive the process boundary."""
    # A representative check on the picklability assumption the
    # executor's spawn path and the artifact cache both rely on.
    from repro.util.sankey import Sankey

    sankey = Sankey()
    sankey.add("EU 28", "N. America", 3.0)
    clone = pickle.loads(pickle.dumps(sankey))
    assert clone.rows() == sankey.rows()
