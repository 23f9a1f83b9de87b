"""Tier-1 determinism guarantees of the runtime engine.

The engine's contract is that the headline numbers — Table 2's
classification counts and Fig. 7's EU28 destination shares — are
byte-identical regardless of (a) how many workers execute the shards
and (b) whether the shards ran live or replayed from the artifact
cache.  Three full engine runs over ``WorldConfig.small()`` are shared
module-wide; every comparison below is exact equality, no tolerances.
The pool path gives the same answers under every start method and with
two pooled runs at once.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro.runtime.cache as cache_module
from repro import WorldConfig
from repro.analysis.figures import figure7
from repro.analysis.tables import table2, table3
from repro.datasets.builder import cached_build_world
from repro.obs import names as obs_names
from repro.obs.clock import TickClock
from repro.obs.manifest import validate_manifest
from repro.obs.trace import Tracer
from repro.runtime import run_study
from repro.runtime.cache import _collector_paused
from repro.runtime.stages import STAGE_GRAPH, STAGE_NAMES


def headline(run):
    """The numbers the paper leads with, in exactly comparable form."""
    return {
        "table2": run.table2_counts(),
        "fig7_ipmap": run.eu28_destination_regions("RIPE IPmap"),
        "fig7_maxmind": run.eu28_destination_regions("MaxMind"),
        "table5": [
            (row.scenario.name, row.n_flows, row.country_pct, row.region_pct)
            for row in run.scenario_table()
        ],
        "sensitive": run.sensitive_summary(),
        "table8": {
            key: (
                report.sampled_tracking_flows,
                report.estimated_tracking_flows,
                report.region_shares,
                report.destination_countries,
            )
            for key, report in run.isp_reports().items()
        },
    }


@pytest.fixture(scope="module")
def engine_config():
    return WorldConfig.small()


@pytest.fixture(scope="module")
def serial_run(engine_config):
    return run_study(engine_config, workers=1)


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("artifact-cache"))


@pytest.fixture(scope="module")
def parallel_cold_run(engine_config, cache_dir):
    return run_study(engine_config, workers=4, cache_dir=cache_dir)


@pytest.fixture(scope="module")
def parallel_warm_run(engine_config, cache_dir, parallel_cold_run):
    return run_study(engine_config, workers=4, cache_dir=cache_dir)


@pytest.fixture
def replay_dir(cache_dir, parallel_cold_run, tmp_path):
    """A copy of the cold run's filled cache without its ledger, so a
    replay's ledger record stays out of the shared cache dir."""
    replay = tmp_path / "cache"
    shutil.copytree(
        cache_dir, replay, ignore=shutil.ignore_patterns("ledger.jsonl*")
    )
    return str(replay)


class TestShardCountInvariance:
    def test_workers_1_vs_4_identical(self, serial_run, parallel_cold_run):
        assert headline(serial_run) == headline(parallel_cold_run)

    def test_all_stages_ran(self, serial_run):
        assert tuple(serial_run.products) == STAGE_NAMES


class TestCacheReplayInvariance:
    def test_cold_vs_warm_identical(self, parallel_cold_run, parallel_warm_run):
        assert headline(parallel_cold_run) == headline(parallel_warm_run)

    def test_cold_run_was_all_misses(self, parallel_cold_run):
        assert parallel_cold_run.cache_hits == 0
        assert parallel_cold_run.cache_misses > 0

    def test_warm_run_skips_every_stage(self, parallel_warm_run):
        assert parallel_warm_run.cache_hits > 0
        assert parallel_warm_run.cache_misses == 0
        for metrics in parallel_warm_run.result.metrics.values():
            assert metrics.executed_shards == 0, metrics.name

    def test_warm_hits_cover_every_shard(
        self, parallel_cold_run, parallel_warm_run
    ):
        assert (
            parallel_warm_run.cache_hits == parallel_cold_run.cache_misses
        )


#: run in a fresh interpreter under the start method in ``argv[1]``: a
#: one-stage graph named ``toy`` over the panel's functions, and the
#: Table 2 sub-graph, each pooled over two workers and compared with a
#: one-worker run
POOL_PROBE = """
import json
import multiprocessing
import sys

from repro import WorldConfig
from repro.runtime import run_study
from repro.runtime.engine import ExecutionEngine
from repro.runtime.graph import StageGraph, StageSpec
from repro.runtime.stages import (
    panel_index, panel_merge, panel_plan, panel_run,
)

multiprocessing.set_start_method(sys.argv[1])
config = WorldConfig.small()
toy = StageGraph()
toy.add(StageSpec(
    name="toy", inputs=(), plan=panel_plan, run=panel_run,
    merge=panel_merge, index=panel_index,
))
pooled_toy = ExecutionEngine(workers=2, graph=toy).run(config)
serial = run_study(config, workers=1, targets=["classification"])
pooled = run_study(config, workers=2, targets=["classification"])
print(json.dumps({
    "toy": pooled_toy.indexes["toy"] == serial.result.indexes["panel"],
    "table2": pooled.table2_counts() == serial.table2_counts(),
}))
"""


class TestPoolPath:
    @pytest.mark.parametrize("method", ["spawn", "forkserver"])
    def test_start_method_runs_the_given_spec(self, method):
        # A fresh interpreter, so the start method is set before any
        # pool exists.
        src = Path(__file__).resolve().parents[1] / "src"
        result = subprocess.run(
            [sys.executable, "-c", POOL_PROBE, method],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=600,
        )
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout) == {"toy": True, "table2": True}

    def test_two_pooled_runs_on_two_threads(self):
        # Each run forks its own pools while the other's are alive,
        # with more worker processes than the machine has cores.
        seeds = (7, 8)
        pooled = {}

        def run(seed):
            try:
                pooled[seed] = run_study(
                    WorldConfig.small(seed=seed), workers=3,
                    targets=["classification"],
                ).table2_counts()
            except BaseException as exc:  # surfaced by the assert below
                pooled[seed] = exc

        threads = [
            threading.Thread(target=run, args=(seed,), daemon=True)
            for seed in seeds
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=600)
        assert not [thread for thread in threads if thread.is_alive()]
        for seed in seeds:
            serial = run_study(
                WorldConfig.small(seed=seed), workers=1,
                targets=["classification"],
            )
            assert pooled[seed] == serial.table2_counts(), seed

    def test_stages_read_only_their_declared_inputs(self, serial_run):
        # A pooled shard is handed its stage's declared input bodies and
        # nothing else, so every stage must reproduce its index from
        # them alone.
        result = serial_run.result
        world = cached_build_world(result.config)
        for spec in STAGE_GRAPH.stages:
            indexes = {name: result.indexes[name] for name in spec.inputs}
            inputs = {name: result.products[name] for name in spec.inputs}
            shards = [
                (key, spec.run(world, inputs, key, payload))
                for key, payload in spec.plan(world, indexes)
            ]
            body = spec.merge(world, inputs, shards)
            assert spec.index(body) == result.indexes[spec.name], spec.name


@pytest.fixture(scope="module")
def traced_run(engine_config):
    # A deterministic clock: the resulting spans are byte-stable, so
    # this fixture doubles as the traced-vs-untraced comparison run and
    # the manifest-content lock.
    return run_study(engine_config, workers=1, tracer=Tracer(TickClock()))


class TestObservabilityInvariance:
    def test_traced_vs_untraced_identical(self, serial_run, traced_run):
        # Tracing must be a pure observer: same study products whether
        # or not a tracer recorded the run.
        assert headline(serial_run) == headline(traced_run)

    def test_registry_identical_1_vs_4_workers(
        self, serial_run, parallel_cold_run
    ):
        # Timing lives only in spans, counters only count work — so the
        # merged registry snapshot is exactly equal across worker
        # counts.  (The uncached serial run and the cold cached run both
        # miss every shard, so even the cache counters agree.)
        assert (
            serial_run.result.registry.to_dict()
            == parallel_cold_run.result.registry.to_dict()
        )

    def test_shard_metrics_replay_from_cache(
        self, parallel_cold_run, parallel_warm_run
    ):
        # The warm run executed zero shards, yet its registry carries
        # the same shard-level metrics — replayed from cache envelopes.
        # Only the runtime's own cache/executed counters may differ.
        def non_runtime(snapshot):
            return {
                key: value
                for key, value in snapshot.items()
                if not key.startswith("runtime.")
            }

        assert non_runtime(
            parallel_cold_run.result.registry.to_dict()
        ) == non_runtime(parallel_warm_run.result.registry.to_dict())

    def test_manifest_valid_with_all_stage_spans(self, traced_run):
        manifest = traced_run.manifest
        validate_manifest(manifest)
        assert [s["stage"] for s in manifest["stages"]] == list(STAGE_NAMES)
        span_names = {span["name"] for span in manifest["spans"]}
        for stage in STAGE_NAMES:
            assert f"stage:{stage}" in span_names
        assert "run" in span_names and "world:build" in span_names

    def test_manifest_record_counts_match_products(self, traced_run):
        by_stage = {s["stage"]: s for s in traced_run.manifest["stages"]}
        panel = traced_run.products["panel"]
        assert by_stage["panel"]["records_out"] == {
            "visits": len(panel["visits"]),
            "requests": len(panel["requests"]),
            "pdns_pairs": len(panel["pdns_pairs"]),
        }
        assert by_stage["classification"]["records_in"]["panel"] == (
            by_stage["panel"]["records_out"]
        )

    def test_span_nesting_is_well_formed(self, traced_run):
        spans = traced_run.manifest["spans"]
        assert spans[0]["name"] == "run" and spans[0]["parent"] is None
        for span in spans[1:]:
            parent = spans[span["parent"]]
            assert span["depth"] == parent["depth"] + 1
            # TickClock stamps are strictly ordered, so every child
            # opens at or after its parent and closes before it.
            assert span["wall_s"] >= 0

    def test_untraced_run_records_nothing(self, serial_run):
        assert serial_run.trace_report() == "(tracing disabled)"
        assert serial_run.result.tracer.rows() == []


class TestCachedRunParsesNothing:
    def test_fully_cached_run_splits_no_url(
        self, engine_config, replay_dir, monkeypatch
    ):
        # Replayed panel artifacts carry each request's URL facts and the
        # classification merge derives the tracking set once, so a fully
        # cached resubmit and its headline accessors split no URL at all.
        import repro.web.requests as requests_module

        split = requests_module.urlsplit
        calls = []

        def counting_split(url, *args, **kwargs):
            calls.append(url)
            return split(url, *args, **kwargs)

        monkeypatch.setattr(requests_module, "urlsplit", counting_split)
        run = run_study(engine_config, workers=1, cache_dir=replay_dir)
        assert run.cache_misses == 0
        run.table2_counts()
        run.eu28_destination_regions("MaxMind")
        run.eu28_destination_regions("RIPE IPmap")
        run.sensitive_summary()
        run.scenario_table()
        assert len(calls) == 0


class TestCachedRunDecodesWithoutCollecting:
    def test_fully_cached_run_starts_no_collection_while_decoding(
        self, engine_config, replay_dir, monkeypatch
    ):
        # A warm run's artifacts decode into ~84K container objects next
        # to the long-lived world.  With the collector
        # on during decode, that started ~240 collections per run (1-2
        # of them full passes over the heap); paused, it starts none.
        load = cache_module.pickle.load
        decoding = []
        collections = []

        def observed_load(fh):
            decoding.append(fh.name)
            try:
                return load(fh)
            finally:
                decoding.pop()

        def on_collect(phase, info):
            if phase == "start" and decoding:
                collections.append(info["generation"])

        monkeypatch.setattr(cache_module.pickle, "load", observed_load)
        gc.callbacks.append(on_collect)
        try:
            run = run_study(engine_config, workers=1, cache_dir=replay_dir)
        finally:
            gc.callbacks.remove(on_collect)
        assert run.cache_misses == 0 and run.cache_hits > 0
        assert collections == []
        assert gc.isenabled()


#: stages whose bodies are large (the panel's requests and what is
#: built from them); a headline read must decode none of them
LARGE_BODIES = {"panel", "classification", "inventory", "geolocation"}


def decoded_dirs(monkeypatch, root):
    """Record the cache subdirectory of every file the cache decodes."""
    load = cache_module.pickle.load
    decoded = []

    def observed_load(fh):
        decoded.append(os.path.relpath(fh.name, root).split(os.sep)[0])
        return load(fh)

    monkeypatch.setattr(cache_module.pickle, "load", observed_load)
    return decoded


def comparable(obj):
    """``obj`` with plain-class instances (Sankey, the inventory) opened
    into their attributes, so equal products compare equal."""
    if isinstance(obj, dict):
        return {key: comparable(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [comparable(value) for value in obj]
    if hasattr(obj, "__dict__") and not dataclasses.is_dataclass(obj):
        return (type(obj).__name__, comparable(vars(obj)))
    return obj


def shard_files(cache_root, stage):
    directory = os.path.join(cache_root, stage)
    return sorted(
        os.path.join(directory, name) for name in os.listdir(directory)
    )


class TestWarmBodiesDecodeOnDemand:
    def test_fully_warm_headline_decodes_no_large_body(
        self, engine_config, replay_dir, parallel_cold_run, monkeypatch
    ):
        # Table 2 reads the classification index; Fig. 7, Sect. 6 and
        # Table 5 decode only their own small bodies.
        decoded = decoded_dirs(monkeypatch, replay_dir)
        run = run_study(engine_config, workers=1, cache_dir=replay_dir)
        run.table2_counts()
        run.eu28_destination_regions("RIPE IPmap")
        run.eu28_destination_regions("MaxMind")
        run.sensitive_summary()
        run.scenario_table()
        assert run.cache_hits == parallel_cold_run.cache_misses
        assert run.cache_misses == 0
        assert decoded and not LARGE_BODIES & set(decoded)

    def test_every_body_matches_the_cold_run(
        self, engine_config, replay_dir, parallel_cold_run
    ):
        warm = run_study(engine_config, workers=1, cache_dir=replay_dir)
        for stage in STAGE_NAMES:
            body = warm.products[stage]
            assert comparable(body) == comparable(
                parallel_cold_run.products[stage]
            ), stage
            assert warm.products[stage] is body, stage
        warm_study, cold_study = warm.study(), parallel_cold_run.study()
        for view in (table2, table3, figure7):
            assert view(warm_study) == view(cold_study), view.__name__

    def test_deleted_shard_is_a_miss_and_executes(
        self, engine_config, replay_dir, parallel_cold_run
    ):
        os.remove(shard_files(replay_dir, "confinement")[0])
        run = run_study(engine_config, workers=1, cache_dir=replay_dir)
        stage = run.result.metrics["confinement"]
        assert (stage.cache_misses, stage.executed_shards) == (1, 1)
        assert run.cache_misses == 1
        assert headline(run) == headline(parallel_cold_run)

    def test_corrupt_shard_in_a_lazy_decode_is_recomputed(
        self, engine_config, replay_dir, parallel_cold_run
    ):
        run = run_study(engine_config, workers=1, cache_dir=replay_dir)
        assert run.cache_misses == 0
        damaged = shard_files(replay_dir, "panel")[0]
        with open(damaged, "r+b") as fh:
            fh.truncate(16)
        panel = run.products["panel"]
        assert comparable(panel) == comparable(
            parallel_cold_run.products["panel"]
        )
        assert run.registry.value(
            obs_names.RUNTIME_CACHE_CORRUPT, stage="panel"
        ) == 1
        assert os.path.getsize(damaged) > 16
        rerun = run_study(engine_config, workers=1, cache_dir=replay_dir)
        assert rerun.cache_misses == 0
        assert comparable(rerun.products["panel"]) == comparable(panel)

    def test_pooled_run_with_a_missing_stage_gives_the_cold_headline(
        self, engine_config, replay_dir, parallel_cold_run
    ):
        # Localization's shards execute on the fork path, so the parent
        # decodes the classification, inventory and geolocation bodies
        # before the pool starts.
        shutil.rmtree(os.path.join(replay_dir, "localization"))
        run = run_study(engine_config, workers=4, cache_dir=replay_dir)
        for name, stage in run.result.metrics.items():
            expected = stage.n_shards if name == "localization" else 0
            assert stage.executed_shards == expected, name
        assert headline(run) == headline(parallel_cold_run)


class TestCollectorPaused:
    def test_enabled_on_entry_is_off_inside_and_on_after(self):
        assert gc.isenabled()
        with _collector_paused():
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_disabled_on_entry_stays_disabled(self):
        gc.disable()
        try:
            with _collector_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        finally:
            gc.enable()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_exception_restores_prior_state(self, enabled):
        if not enabled:
            gc.disable()
        try:
            with pytest.raises(KeyError):
                with _collector_paused():
                    raise KeyError("decode failed")
            assert gc.isenabled() is enabled
        finally:
            gc.enable()

    def test_nested_use_restores_only_at_outer_exit(self):
        with _collector_paused():
            with _collector_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()


class TestHydratedStudyConsistency:
    def test_study_reads_engine_products(self, serial_run):
        study = serial_run.study()
        # The hydrated study must report the engine's numbers, not a
        # recomputation of the lazy path.
        totals = serial_run.table2_counts()["total"]
        stats = study.classification.total_stats()
        assert stats.total_requests == totals["total_requests"]
        assert len(stats.fqdns) == totals["fqdns"]
        assert study.inventory is serial_run.products["inventory"]
        assert (
            study.eu28_destination_regions("RIPE IPmap")
            == serial_run.eu28_destination_regions("RIPE IPmap")
        )


class TestLedgerIntegration:
    # The acceptance criterion for the run ledger: two identical-config
    # runs (cold then warm, same cache dir) diff to zero unexplained
    # drift — every delta classifies as cache behaviour.

    def test_cached_runs_append_ledger_records(
        self, cache_dir, parallel_cold_run, parallel_warm_run
    ):
        from repro.obs.ledger import ledger_path, load_ledger

        records = load_ledger(ledger_path(cache_dir))
        assert [r["run_id"] for r in records] == [
            parallel_cold_run.ledger_record["run_id"],
            parallel_warm_run.ledger_record["run_id"],
        ]
        assert [r["seq"] for r in records] == [0, 1]
        for record in records:
            assert [s["stage"] for s in record["stages"]] == list(STAGE_NAMES)
            # The ownership map the diff engine attributes domain
            # metrics with: instrumented stages list the registry keys
            # their shards touched, and only keys the run recorded.
            owned = {
                key for s in record["stages"] for key in s["metric_keys"]
            }
            assert owned and owned <= set(record["metrics"])

    def test_cached_runs_write_no_manifest_file(
        self, cache_dir, parallel_cold_run, parallel_warm_run
    ):
        # The manifest stays on the result; only `--trace` writes it.
        validate_manifest(parallel_warm_run.manifest)
        assert "manifest.json" not in os.listdir(cache_dir)

    def test_uncached_run_appends_nothing(self, serial_run):
        assert serial_run.ledger_record is None

    def test_cold_vs_warm_diff_has_zero_drift(
        self, parallel_cold_run, parallel_warm_run
    ):
        from repro.obs.diff import diff_records

        diff = diff_records(
            parallel_cold_run.ledger_record,
            parallel_warm_run.ledger_record,
        )
        assert not diff.config_changed
        assert diff.changed_salts == ()
        assert diff.unexplained() == []
        counts = diff.counts()
        assert counts["cache"] > 0 and counts["drift"] == 0

    def test_trace_report_summarizes_histograms(self, traced_run):
        report = traced_run.trace_report()
        assert "p50" in report and "p95" in report
        assert "ipmap.country_agreement" in report
