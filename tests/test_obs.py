"""Unit tests for :mod:`repro.obs` — clocks, spans, metrics, manifests.

Everything here runs against deterministic clocks and hand-built
registries; the integration with the runtime engine is locked separately
in ``test_runtime_determinism.py``.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.errors import ObservabilityError, ReproError
from repro.obs.clock import NullClock, SystemClock, TickClock
from repro.obs.manifest import (
    MANIFEST_SCHEMA,
    load_manifest,
    validate_manifest,
    write_manifest,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    collecting,
    inc,
    observe,
)
from repro.obs.trace import NullTracer, Tracer
from repro.obs.metrics import base_name, metric_key


class TestClocks:
    def test_null_clock_reads_zero(self):
        clock = NullClock()
        assert clock.wall() == 0.0 and clock.cpu() == 0.0

    def test_system_clock_is_monotonic(self):
        clock = SystemClock()
        a, b = clock.wall(), clock.wall()
        assert b >= a
        assert clock.cpu() >= 0.0

    def test_tick_clock_advances_per_read(self):
        clock = TickClock(step=0.5)
        assert clock.wall() == 0.0
        assert clock.cpu() == 0.5
        assert clock.wall() == 1.0


class TestSpans:
    def test_nesting_parent_and_depth(self):
        tracer = Tracer(TickClock())
        with tracer.span("run"):
            with tracer.span("stage:panel", shard="users[0:8]"):
                pass
            with tracer.span("stage:classification"):
                with tracer.span("execute"):
                    pass
        names = [s.name for s in tracer.spans]
        assert names == [
            "run", "stage:panel", "stage:classification", "execute",
        ]
        run, panel, classification, execute = tracer.spans
        assert run.parent is None and run.depth == 0
        assert panel.parent == 0 and panel.depth == 1
        assert classification.parent == 0
        assert execute.parent == classification.index and execute.depth == 2
        assert panel.attrs == {"shard": "users[0:8]"}

    def test_tick_clock_durations_are_deterministic(self):
        tracer = Tracer(TickClock())
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        rows = tracer.rows()
        # Re-running the identical structure reproduces identical rows.
        tracer2 = Tracer(TickClock())
        with tracer2.span("outer"):
            with tracer2.span("inner"):
                pass
        assert rows == tracer2.rows()
        assert rows[0]["wall_s"] > rows[1]["wall_s"] > 0

    def test_exception_still_closes_span(self):
        tracer = Tracer(TickClock())
        with pytest.raises(ValueError):
            with tracer.span("doomed"):
                raise ValueError("boom")
        assert tracer.spans[0].wall_end > tracer.spans[0].wall_start

    def test_flame_report_shape(self):
        tracer = Tracer(TickClock())
        with tracer.span("run"):
            with tracer.span("stage:panel", shards=8):
                pass
        report = tracer.report()
        lines = report.splitlines()
        assert lines[0].startswith("run")
        assert lines[1].startswith("  stage:panel  shards=8")
        assert lines[0].rstrip().endswith("100.0%")

    def test_empty_tracer_report(self):
        assert Tracer(TickClock()).report() == "(no spans recorded)"

    def test_find(self):
        tracer = Tracer(TickClock())
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        with tracer.span("a"):
            pass
        assert len(tracer.find("a")) == 2 and len(tracer.find("b")) == 1

    def test_null_tracer_records_nothing(self):
        tracer = NullTracer()
        with tracer.span("anything", key="value") as span:
            span.attrs["more"] = 1  # callers may write attrs freely
        assert tracer.rows() == []
        assert tracer.report() == "(tracing disabled)"


class TestInstruments:
    def test_counter_monotonic(self):
        counter = Counter()
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ObservabilityError):
            counter.inc(-1)

    def test_gauge_merges_by_max(self):
        # Gauges only arrive in snapshots (old ledger records).
        low, high = Gauge.from_value(2), Gauge.from_value(9)
        low.merge(high)
        assert low.value == 9

    def test_histogram_buckets_and_stats(self):
        histogram = Histogram(buckets=(1.0, 2.0))
        for value in (0.5, 1.5, 99.0):
            histogram.observe(value)
        assert histogram.counts == [1, 1, 1]
        assert histogram.count == 3
        assert histogram.min == 0.5 and histogram.max == 99.0
        assert histogram.mean == pytest.approx(101.0 / 3)

    def test_histogram_rejects_bad_bounds(self):
        with pytest.raises(ObservabilityError):
            Histogram(buckets=(2.0, 1.0))
        with pytest.raises(ObservabilityError):
            Histogram(buckets=(1.0, 1.0))

    def test_histogram_merge_requires_equal_bounds(self):
        with pytest.raises(ObservabilityError):
            Histogram(buckets=(1.0,)).merge(Histogram(buckets=(2.0,)))

    def test_metric_key_sorts_labels(self):
        assert metric_key("x", {"b": 1, "a": 2}) == "x{a=2,b=1}"
        assert base_name("x{a=2,b=1}") == "x"
        assert base_name("plain") == "plain"
        with pytest.raises(ObservabilityError):
            metric_key("", {})

    def test_errors_are_repro_errors(self):
        assert issubclass(ObservabilityError, ReproError)


class TestRegistry:
    def build(self):
        # The gauge comes from a snapshot, as old ledger records hold.
        registry = MetricsRegistry.from_dict(
            {"depth": {"kind": "gauge", "value": 4}}
        )
        registry.counter("flows", stage="list").inc(10)
        registry.counter("flows", stage="referrer").inc(3)
        registry.histogram("margin", buckets=(0.5, 0.9)).observe(0.95)
        return registry

    def test_round_trip(self):
        registry = self.build()
        snapshot = registry.to_dict()
        json.dumps(snapshot)  # must be JSON-able
        assert MetricsRegistry.from_dict(snapshot).to_dict() == snapshot

    def test_sum_counters_folds_labels(self):
        assert self.build().sum_counters("flows") == 13
        assert self.build().sum_counters("absent") == 0

    def test_merge_is_commutative(self):
        a, b = self.build(), MetricsRegistry()
        b.counter("flows", stage="list").inc(7)
        b.histogram("margin", buckets=(0.5, 0.9)).observe(0.2)
        ab = MetricsRegistry().merge(a).merge(b)
        ba = MetricsRegistry().merge(b).merge(a)
        assert ab.to_dict() == ba.to_dict()
        assert ab.sum_counters("flows") == 20

    def test_merge_accepts_snapshot_dicts(self):
        merged = MetricsRegistry().merge(self.build().to_dict())
        assert merged.to_dict() == self.build().to_dict()

    def test_kind_conflict_rejected(self):
        registry = self.build()
        with pytest.raises(ObservabilityError):
            registry.histogram("flows", stage="list")
        with pytest.raises(ObservabilityError):
            registry.counter("depth")
        with pytest.raises(ObservabilityError):
            MetricsRegistry.from_dict(
                {"x": {"kind": "mystery", "value": 1}}
            )

    def test_value_accessor(self):
        registry = self.build()
        assert registry.value("flows", stage="list") == 10
        assert registry.value("nothing") == 0


class TestAmbientCollection:
    def test_helpers_are_noops_without_scope(self):
        # Must not raise, must not create hidden global state.
        inc("orphan")
        observe("orphan.h", 1.0)

    def test_helpers_write_into_active_registry(self):
        registry = MetricsRegistry()
        with collecting(registry):
            inc("hits", 2, stage="panel")
            observe("margin", 0.75)
        assert registry.value("hits", stage="panel") == 2
        assert registry.value("margin")["count"] == 1

    def test_scopes_nest_and_restore(self):
        outer, inner = MetricsRegistry(), MetricsRegistry()
        with collecting(outer):
            inc("n")
            with collecting(inner):
                inc("n")
            inc("n")
        assert outer.value("n") == 2 and inner.value("n") == 1


def minimal_manifest():
    return {
        "schema": MANIFEST_SCHEMA,
        "config": {"digest": "abc", "seed": 7},
        "workers": 2,
        "salts": {"panel": "f00"},
        "stages": [
            {
                "stage": "panel",
                "shards": 2,
                "shard_keys": ["users[0:1]", "users[1:2]"],
                "cache_hits": 1,
                "cache_misses": 1,
                "wall_s": 0.25,
                "records_in": {},
                "records_out": {"requests": 10},
            }
        ],
        "metrics": {},
        "spans": [],
    }


class TestManifest:
    def test_valid_manifest_passes(self):
        validate_manifest(minimal_manifest())

    @pytest.mark.parametrize(
        "mutation",
        [
            lambda m: m.pop("spans"),
            lambda m: m["stages"].append("not-a-mapping"),
            lambda m: m.update(schema="repro.obs/manifest/v0"),
            lambda m: m.update(workers="four"),
            lambda m: m["stages"][0].pop("records_out"),
            lambda m: m["stages"][0].update(cache_hits=5),
            lambda m: m["config"].pop("digest"),
        ],
    )
    def test_broken_manifests_rejected(self, mutation):
        manifest = minimal_manifest()
        mutation(manifest)
        with pytest.raises(ObservabilityError):
            validate_manifest(manifest)

    def test_write_load_round_trip(self, tmp_path):
        path = tmp_path / "nested" / "manifest.json"
        write_manifest(minimal_manifest(), path)
        assert load_manifest(path) == minimal_manifest()
        # Atomic write leaves no temp droppings behind.
        assert os.listdir(path.parent) == ["manifest.json"]

    def test_write_rejects_invalid(self, tmp_path):
        broken = minimal_manifest()
        del broken["metrics"]
        target = tmp_path / "manifest.json"
        with pytest.raises(ObservabilityError):
            write_manifest(broken, target)
        assert not target.exists()

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ObservabilityError):
            load_manifest(path)
        with pytest.raises(ObservabilityError):
            load_manifest(tmp_path / "absent.json")


class TestNamesCatalog:
    def test_every_declared_metric_is_indexed(self):
        from repro.obs import names

        assert set(names.METRICS) == {
            decl[0] for decl in names._METRIC_DECLS
        }

    def test_metric_labels_lookup(self):
        from repro.obs import names

        assert names.metric_labels(names.CLASSIFY_FLOWS) == ("stage",)
        assert names.metric_labels(names.IPMAP_CAMPAIGNS) == ()
        with pytest.raises(ObservabilityError):
            names.metric_labels("no.such.metric")

    def test_duplicate_metric_declaration_rejected(self, monkeypatch):
        from repro.obs import names

        decl = names._METRIC_DECLS[0]
        monkeypatch.setattr(
            names, "_METRIC_DECLS", names._METRIC_DECLS + (decl,)
        )
        with pytest.raises(ObservabilityError, match="duplicate metric"):
            names._build_index()

    def test_duplicate_span_declaration_rejected(self, monkeypatch):
        from repro.obs import names

        monkeypatch.setattr(
            names, "SPAN_NAMES", names.SPAN_NAMES + (names.SPAN_RUN,)
        )
        with pytest.raises(ObservabilityError, match="duplicate span"):
            names._build_index()

    def test_span_catalog_covers_engine_stage_family(self):
        from repro.obs import names

        assert "stage:*" in names.SPAN_NAMES


class TestHistogramQuantile:
    def test_empty_histogram_reports_zero(self):
        assert Histogram().quantile(0.5) == 0.0

    def test_out_of_range_q_rejected(self):
        histogram = Histogram()
        histogram.observe(1.0)
        with pytest.raises(ObservabilityError):
            histogram.quantile(-0.1)
        with pytest.raises(ObservabilityError):
            histogram.quantile(1.5)

    def test_single_sample_pins_every_quantile(self):
        histogram = Histogram()
        histogram.observe(0.4)
        for q in (0.0, 0.5, 1.0):
            assert histogram.quantile(q) == 0.4

    def test_uniform_samples_interpolate(self):
        histogram = Histogram(buckets=(1.0, 2.0, 3.0, 4.0))
        for value in (0.5, 1.5, 2.5, 3.5):
            histogram.observe(value)
        # Each bucket holds one sample; the median falls on the
        # boundary between the second and third buckets.
        assert histogram.quantile(0.5) == pytest.approx(2.0)
        assert histogram.quantile(0.25) == pytest.approx(1.0)

    def test_result_clamped_to_observed_range(self):
        histogram = Histogram(buckets=(10.0,))
        for value in (2.0, 3.0, 4.0):
            histogram.observe(value)
        assert histogram.quantile(0.0) >= histogram.min
        assert histogram.quantile(1.0) <= histogram.max

    def test_edges_tightened_by_min_max(self):
        # All samples land in the overflow bucket; without the recorded
        # max the upper edge would be unbounded.
        histogram = Histogram(buckets=(1.0,))
        for value in (5.0, 6.0, 7.0):
            histogram.observe(value)
        assert 5.0 <= histogram.quantile(0.5) <= 7.0

    def test_skewed_distribution_orders_quantiles(self):
        histogram = Histogram()
        for value in [0.05] * 90 + [5.0] * 10:
            histogram.observe(value)
        p50, p95 = histogram.quantile(0.5), histogram.quantile(0.95)
        assert p50 < 0.1 < p95

    def test_registry_histograms_accessor(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc()
        registry.histogram("lat", stage="b").observe(1.0)
        registry.histogram("lat", stage="a").observe(2.0)
        keys = [key for key, _ in registry.histograms()]
        assert keys == ["lat{stage=a}", "lat{stage=b}"]  # sorted, no counter
