"""scripts/bench_to_ledger.py: folding bench timings into the ledger."""

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
    assert sorted(record["metrics"]) == sorted(
        f"bench.time_s{{benchmark=test_engine_small,stat={stat}}}"
        for stat in bench_to_ledger.STATS
    )


def test_no_sources_at_all_is_an_error(bench_to_ledger, tmp_path):
    with pytest.raises(SystemExit):
        bench_to_ledger.main([str(tmp_path / "ledger.jsonl")])
