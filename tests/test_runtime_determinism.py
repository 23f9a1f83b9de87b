"""Tier-1 determinism guarantees of the runtime engine.

The engine's contract is that the headline numbers — Table 2's
classification counts and Fig. 7's EU28 destination shares — are
byte-identical regardless of (a) how many workers execute the shards
and (b) whether the shards ran live or replayed from the artifact
cache.  Three full engine runs over ``WorldConfig.small()`` are shared
module-wide; every comparison below is exact equality, no tolerances.
"""

from __future__ import annotations

import pytest

from repro import WorldConfig
from repro.obs import TickClock, Tracer, validate_manifest
from repro.runtime import run_study
from repro.runtime.stages import STAGE_NAMES


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
        self, engine_config, cache_dir, parallel_cold_run, tmp_path,
        monkeypatch,
    ):
        # Replayed panel artifacts carry each request's URL facts and the
        # classification merge derives the tracking set once, so a fully
        # cached resubmit (a serve job's body) and its headline accessors
        # split no URL at all.  The cold run's artifacts are copied so
        # this run's ledger record stays out of the shared cache dir.
        import shutil

        import repro.web.requests as requests_module

        replay = tmp_path / "cache"
        shutil.copytree(
            cache_dir, replay, ignore=shutil.ignore_patterns("ledger.jsonl*")
        )
        split = requests_module.urlsplit
        calls = []

        def counting_split(url, *args, **kwargs):
            calls.append(url)
            return split(url, *args, **kwargs)

        monkeypatch.setattr(requests_module, "urlsplit", counting_split)
        run = run_study(engine_config, workers=1, cache_dir=str(replay))
        assert run.cache_misses == 0
        run.table2_counts()
        run.eu28_destination_regions("MaxMind")
        run.eu28_destination_regions("RIPE IPmap")
        run.sensitive_summary()
        run.scenario_table()
        assert len(calls) == 0


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
        from repro.obs import ledger_path, load_ledger

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

    def test_uncached_run_appends_nothing(self, serial_run):
        assert serial_run.ledger_record is None

    def test_cold_vs_warm_diff_has_zero_drift(
        self, parallel_cold_run, parallel_warm_run
    ):
        from repro.obs import diff_records

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
