"""Unit tests for :mod:`repro.obs.diff` — delta classification.

The classification matrix under test (see docs/ledger.md): config
changes own every delta; code changes are attributed to the owning
stages whose salts moved; cache-behaviour counters never count as
drift; the old ``bench``-record gauges (``bench.*``, ``lint.*``,
``serve.requests_per_s``) are timing; anything left is unexplained
drift.
"""

from __future__ import annotations

import json

import pytest

from repro.obs import diff_records, render_diff_text


def make_record(
    run_id="run-a",
    digest="abc123",
    salts=None,
    footprints=None,
    metrics=None,
    stages=None,
):
    """A diff-ready run record (identity fields included directly)."""
    if stages is None:
        stages = [
            {
                "stage": "panel",
                "shards": 8,
                "cache_hits": 0,
                "cache_misses": 8,
                "wall_s": 2.0,
                "cpu_s": 1.5,
                "metric_keys": ["web.requests"],
            },
            {
                "stage": "classification",
                "shards": 8,
                "cache_hits": 0,
                "cache_misses": 8,
                "wall_s": 1.0,
                "cpu_s": 0.8,
                "metric_keys": ["classify.flows{stage=list}"],
            },
        ]
    return {
        "schema": "repro.obs/ledger/v1",
        "kind": "run",
        "run_id": run_id,
        "seq": 0,
        "config": {"digest": digest, "seed": 7},
        "workers": 2,
        "salts": salts or {"panel": "s1", "classification": "s2"},
        "footprints": footprints if footprints is not None else {},
        "stages": stages,
        "metrics": metrics or {
            "web.requests": {"kind": "counter", "value": 100},
            "classify.flows{stage=list}": {"kind": "counter", "value": 40},
        },
    }


def counter(value):
    return {"kind": "counter", "value": value}


class TestClassification:
    def test_identical_records_have_no_deltas(self):
        diff = diff_records(make_record(), make_record(run_id="run-b"))
        assert diff.deltas == []
        assert diff.unchanged == 2
        assert diff.unexplained() == []
        assert not diff.config_changed
        assert "no unexplained drift" in render_diff_text(diff)

    def test_config_change_owns_every_delta(self):
        b = make_record(
            run_id="run-b",
            digest="def456",
            metrics={
                "web.requests": counter(200),
                "classify.flows{stage=list}": counter(80),
            },
        )
        diff = diff_records(make_record(), b)
        assert diff.config_changed
        assert {d.classification for d in diff.deltas} == {"config"}
        assert diff.unexplained() == []

    @pytest.mark.parametrize(
        "legacy_digests",
        [
            {},
            # a record written before manifests dropped the static
            # RNG-lineage and loop-cost digests, diffed against one
            # written after: the stale maps name no cause
            {
                "rng_lineage": {"panel": "l1", "classification": "l2"},
                "cost_footprint": {"panel": "c1", "classification": "c2"},
            },
        ],
        ids=["footprints", "legacy-digests"],
    )
    def test_code_change_attributed_to_owning_stage(self, legacy_digests):
        a = make_record(footprints={"panel": "f1", "classification": "f2"})
        a.update(legacy_digests)
        b = make_record(
            run_id="run-b",
            salts={"panel": "s1'", "classification": "s2"},
            footprints={"panel": "f1'", "classification": "f2"},
            metrics={
                "web.requests": counter(120),  # owned by panel
                "classify.flows{stage=list}": counter(40),  # unchanged
            },
        )
        diff = diff_records(a, b)
        assert diff.changed_salts == ("panel",)
        assert diff.changed_footprints == ("panel",)
        (delta,) = diff.deltas
        assert delta.classification == "code"
        assert delta.stages == ("panel",)
        assert delta.caused_by == ("panel",)
        assert diff.unexplained() == []
        payload = diff.to_dict()
        assert "changed_lineages" not in payload
        assert "changed_costs" not in payload

    def test_code_change_without_footprints_blames_salts(self):
        b = make_record(
            run_id="run-b",
            salts={"panel": "s1'", "classification": "s2"},
            metrics={
                "web.requests": counter(120),
                "classify.flows{stage=list}": counter(40),
            },
        )
        diff = diff_records(make_record(), b)
        (delta,) = diff.deltas
        assert delta.classification == "code"
        assert delta.caused_by == ("panel",)

    def test_delta_in_untouched_stage_is_drift(self):
        # panel's salt changed, but the delta belongs to classification
        # — a changed salt does not excuse other stages' metrics.
        b = make_record(
            run_id="run-b",
            salts={"panel": "s1'", "classification": "s2"},
            metrics={
                "web.requests": counter(100),
                "classify.flows{stage=list}": counter(99),
            },
        )
        diff = diff_records(make_record(), b)
        (delta,) = diff.deltas
        assert delta.classification == "drift"
        assert delta.stages == ("classification",)

    def test_same_config_same_salts_delta_is_drift(self):
        b = make_record(run_id="run-b", metrics={
            "web.requests": counter(101),
            "classify.flows{stage=list}": counter(40),
        })
        diff = diff_records(make_record(), b)
        (delta,) = diff.deltas
        assert delta.classification == "drift"
        assert diff.unexplained() == [delta]
        assert "UNEXPLAINED DRIFT" in render_diff_text(diff)

    def test_cache_counters_never_drift(self):
        extra = {
            "runtime.cache.hits{stage=panel}": counter(0),
            "runtime.cache.misses{stage=panel}": counter(8),
            "runtime.shards.executed{stage=panel}": counter(8),
        }
        warm = {
            "runtime.cache.hits{stage=panel}": counter(8),
            "runtime.cache.misses{stage=panel}": counter(0),
            "runtime.shards.executed{stage=panel}": counter(0),
        }
        base = make_record()["metrics"]
        a = make_record(metrics={**base, **extra})
        b = make_record(run_id="run-b", metrics={**base, **warm})
        diff = diff_records(a, b)
        assert {d.classification for d in diff.deltas} == {"cache"}
        # runtime.* metrics are attributed via their stage label.
        assert all(d.stages == ("panel",) for d in diff.deltas)
        assert diff.unexplained() == []

    @pytest.mark.parametrize(
        "key",
        [
            "bench.time_s{benchmark=t,stat=mean}",
            "lint.time_s",
            # ledgers appended before the sampling profiler was removed
            "profile.self_s{func=_total,stage=panel}",
        ],
        ids=["bench", "lint", "profile"],
    )
    def test_bench_metrics_are_timing(self, key):
        a = make_record(metrics={key: {"kind": "gauge", "value": 0.5}})
        b = make_record(
            run_id="run-b", metrics={key: {"kind": "gauge", "value": 0.7}}
        )
        diff = diff_records(a, b)
        (delta,) = diff.deltas
        assert delta.key == key
        assert delta.classification == "timing"
        assert diff.unexplained() == []

    def test_metric_missing_on_one_side(self):
        b = make_record(run_id="run-b")
        del b["metrics"]["classify.flows{stage=list}"]
        diff = diff_records(make_record(), b)
        (delta,) = diff.deltas
        assert delta.b is None
        assert delta.classification == "drift"
        assert "(absent)" in render_diff_text(diff)

    def test_timings_section(self):
        b = make_record(run_id="run-b")
        b["stages"][0]["wall_s"] = 3.0
        diff = diff_records(make_record(), b)
        panel = next(t for t in diff.timings if t["stage"] == "panel")
        assert panel["wall_a_s"] == 2.0 and panel["wall_b_s"] == 3.0
        assert panel["wall_delta_pct"] == 50.0

    def test_to_dict_is_json_able(self):
        b = make_record(run_id="run-b", metrics={
            "web.requests": counter(101),
            "classify.flows{stage=list}": counter(40),
        })
        payload = diff_records(make_record(), b).to_dict()
        assert payload["schema"] == "repro.obs/diff/v1"
        assert payload["counts"]["drift"] == 1
        assert len(payload["unexplained"]) == 1
        json.dumps(payload)  # must serialize cleanly
