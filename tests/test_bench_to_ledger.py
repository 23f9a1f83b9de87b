"""scripts/bench_to_ledger.py: folding bench + lint timings into the ledger."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro.obs.ledger import load_ledger


@pytest.fixture(scope="module")
def bench_to_ledger():
    script = (
        Path(__file__).resolve().parent.parent
        / "scripts"
        / "bench_to_ledger.py"
    )
    spec = importlib.util.spec_from_file_location("bench_to_ledger", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BENCH_REPORT = {
    "benchmarks": [{
        "name": "test_engine_small",
        "stats": {"min": 0.9, "median": 1.0, "mean": 1.1, "max": 1.4},
    }],
}


def test_bench_record_without_lint_report(bench_to_ledger, tmp_path, capsys):
    report = tmp_path / "bench.json"
    report.write_text(json.dumps(BENCH_REPORT))
    ledger = tmp_path / "ledger.jsonl"
    assert bench_to_ledger.main([str(report), str(ledger)]) == 0
    (record,) = load_ledger(ledger)
    assert record["kind"] == "bench"
    assert not any(
        key.startswith("lint.time_s") for key in record["metrics"]
    )


def test_lint_report_folds_wall_time_gauge(bench_to_ledger, tmp_path):
    report = tmp_path / "bench.json"
    report.write_text(json.dumps(BENCH_REPORT))
    lint_report = tmp_path / "dataflow-report.json"
    lint_report.write_text(json.dumps({
        "schema": "repro.lint/dataflow/v1", "time_s": 7.25,
    }))
    ledger = tmp_path / "ledger.jsonl"
    assert bench_to_ledger.main([
        str(report), str(ledger), "--lint-report", str(lint_report),
    ]) == 0
    (record,) = load_ledger(ledger)
    entry = record["metrics"]["lint.time_s{family=total}"]
    assert entry == {"kind": "gauge", "value": 7.25}


def test_lint_report_folds_per_family_gauges(bench_to_ledger, tmp_path):
    report = tmp_path / "bench.json"
    report.write_text(json.dumps(BENCH_REPORT))
    lint_report = tmp_path / "dataflow-report.json"
    lint_report.write_text(json.dumps({
        "schema": "repro.lint/dataflow/v1",
        "time_s": 7.25,
        "family_time_s": {"D": 1.5, "S": 0.25, "T": 2.0},
    }))
    ledger = tmp_path / "ledger.jsonl"
    assert bench_to_ledger.main([
        str(report), str(ledger), "--lint-report", str(lint_report),
    ]) == 0
    (record,) = load_ledger(ledger)
    metrics = record["metrics"]
    assert metrics["lint.time_s{family=total}"]["value"] == 7.25
    assert metrics["lint.time_s{family=D}"]["value"] == 1.5
    assert metrics["lint.time_s{family=T}"]["value"] == 2.0
    assert metrics["lint.time_s{family=S}"]["value"] == 0.25


def test_lint_report_malformed_family_entry_is_an_error(
    bench_to_ledger, tmp_path, capsys
):
    report = tmp_path / "bench.json"
    report.write_text(json.dumps(BENCH_REPORT))
    lint_report = tmp_path / "dataflow-report.json"
    lint_report.write_text(json.dumps({
        "schema": "repro.lint/dataflow/v1",
        "time_s": 7.25,
        "family_time_s": {"T": "fast"},
    }))
    ledger = tmp_path / "ledger.jsonl"
    assert bench_to_ledger.main([
        str(report), str(ledger), "--lint-report", str(lint_report),
    ]) == 1
    assert "family" in capsys.readouterr().err
    assert not ledger.exists()


def test_lint_report_without_time_s_is_an_error(
    bench_to_ledger, tmp_path, capsys
):
    report = tmp_path / "bench.json"
    report.write_text(json.dumps(BENCH_REPORT))
    lint_report = tmp_path / "dataflow-report.json"
    lint_report.write_text(json.dumps({"schema": "repro.lint/dataflow/v1"}))
    ledger = tmp_path / "ledger.jsonl"
    assert bench_to_ledger.main([
        str(report), str(ledger), "--lint-report", str(lint_report),
    ]) == 1
    assert "time_s" in capsys.readouterr().err
    assert not ledger.exists()


def test_no_sources_at_all_is_an_error(bench_to_ledger, tmp_path):
    with pytest.raises(SystemExit):
        bench_to_ledger.main([str(tmp_path / "ledger.jsonl")])
