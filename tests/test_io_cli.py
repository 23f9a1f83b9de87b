"""Tests for repro.io serialization and the CLI."""

import json

import pytest

from repro.cli import build_parser, main
from repro.errors import ReproError
from repro.io import (
    inventory_from_json,
    inventory_to_json,
    requests_from_jsonl,
    requests_to_jsonl,
    sankey_to_csv,
    summary_to_json,
)
from repro.util.sankey import Sankey


class TestRequestLogRoundtrip:
    def test_roundtrip_lossless(self, small_study, tmp_path):
        requests = small_study.visit_log.requests[:200]
        path = tmp_path / "requests.jsonl"
        count = requests_to_jsonl(requests, path)
        assert count == 200
        loaded = requests_from_jsonl(path)
        assert loaded == requests

    def test_blank_lines_skipped(self, small_study, tmp_path):
        requests = small_study.visit_log.requests[:3]
        path = tmp_path / "requests.jsonl"
        requests_to_jsonl(requests, path)
        path.write_text(path.read_text() + "\n\n")
        assert len(requests_from_jsonl(path)) == 3

    def test_malformed_record_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"first_party": "x"}\n')
        with pytest.raises(ReproError, match="bad.jsonl:1"):
            requests_from_jsonl(path)


class TestInventoryRoundtrip:
    def test_roundtrip(self, small_study, tmp_path):
        inventory = small_study.inventory
        path = tmp_path / "inventory.json"
        inventory_to_json(inventory, path)
        loaded = inventory_from_json(path)
        assert len(loaded) == len(inventory)
        assert loaded.addresses() == inventory.addresses()
        original = inventory.records()[0]
        copy = loaded.record(original.address)
        assert copy.fqdns == original.fqdns
        assert copy.window == original.window
        assert copy.domains_behind == original.domains_behind
        assert loaded.additional_share_pct() == pytest.approx(
            inventory.additional_share_pct()
        )

    def test_version_check(self, tmp_path):
        path = tmp_path / "inventory.json"
        path.write_text(json.dumps({"format_version": 99, "records": []}))
        with pytest.raises(ReproError, match="unsupported"):
            inventory_from_json(path)


class TestOtherWriters:
    def test_sankey_csv(self, tmp_path):
        sankey = Sankey()
        sankey.add("EU 28", "EU 28", 9)
        sankey.add("EU 28", "N. America", 1)
        path = tmp_path / "sankey.csv"
        assert sankey_to_csv(sankey, path) == 2
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "origin,destination,weight"
        assert len(lines) == 3

    def test_summary_json(self, tmp_path):
        path = tmp_path / "summary.json"
        summary_to_json({"b": 2.0, "a": 1.0}, path)
        assert json.loads(path.read_text()) == {"a": 1.0, "b": 2.0}


class TestCLI:
    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_table_command(self, capsys):
        assert main(["--preset", "small", "table", "1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "350" not in out  # small preset has 40 users

    def test_figure_command(self, capsys):
        assert main(["--preset", "small", "figure", "7"]) == 0
        assert "RIPE IPmap" in capsys.readouterr().out

    def test_world_command(self, capsys):
        assert main(["--preset", "small", "world"]) == 0
        out = capsys.readouterr().out
        assert "panel users:     40" in out

    def test_seed_override(self, capsys):
        assert main(["--preset", "small", "--seed", "99", "world"]) == 0
        assert "seed:            99" in capsys.readouterr().out

    def test_export_command(self, tmp_path, capsys):
        target = tmp_path / "out"
        assert main(["--preset", "small", "export", str(target)]) == 0
        assert (target / "requests.jsonl").exists()
        assert (target / "tracker_ips.json").exists()
        assert (target / "continent_sankey.csv").exists()
        assert (target / "summary.json").exists()

    def test_invalid_table_number(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table", "42"])

    def test_run_command_flags_exist(self, tmp_path):
        # The flags the runtime/observability docs advertise must parse —
        # this is the docs-drift tripwire for `repro run`.
        args = build_parser().parse_args([
            "--preset", "small", "run",
            "--workers", "4",
            "--cache-dir", str(tmp_path / "cache"),
            "--metrics-out", str(tmp_path / "metrics.json"),
            "--trace", str(tmp_path / "trace.json"),
            "--trace-events", str(tmp_path / "events.json"),
            "--json",
        ])
        assert args.workers == 4
        assert args.trace == tmp_path / "trace.json"
        assert args.trace_events == tmp_path / "events.json"
        assert args.cache_dir == tmp_path / "cache"

    def test_obs_subcommands_parse(self, tmp_path):
        # The `repro obs` family the ledger docs advertise (docs/ledger.md).
        parser = build_parser()
        args = parser.parse_args(["obs", "list"])
        assert args.obs_command == "list"
        args = parser.parse_args(["obs", "show"])
        assert args.selector == "latest"
        args = parser.parse_args([
            "obs", "--cache-dir", str(tmp_path),
            "diff", "baseline", "latest",
            "--json", "--out", str(tmp_path / "diff.json"),
        ])
        assert (args.run_a, args.run_b) == ("baseline", "latest")
        args = parser.parse_args([
            "obs", "--ledger", str(tmp_path / "ledger.jsonl"), "list",
        ])
        assert args.ledger == tmp_path / "ledger.jsonl"
        args = parser.parse_args(["obs", "baseline", "latest~1"])
        assert args.selector == "latest~1"

    def test_serve_command_flags_exist(self, tmp_path):
        # The flags the service docs advertise must parse — the
        # docs-drift tripwire for `repro serve` (docs/service.md).
        args = build_parser().parse_args([
            "serve",
            "--host", "0.0.0.0",
            "--port", "0",
            "--cache-dir", str(tmp_path / "cache"),
            "--workers", "4",
            "--jobs", "2",
            "--queue-limit", "16",
            "--log", str(tmp_path / "server-log.jsonl"),
        ])
        assert args.command == "serve"
        assert (args.host, args.port) == ("0.0.0.0", 0)
        assert args.cache_dir == tmp_path / "cache"
        assert (args.workers, args.jobs, args.queue_limit) == (4, 2, 16)
        assert args.log == tmp_path / "server-log.jsonl"

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.port == 8377
        assert args.host == "127.0.0.1"
        assert (args.workers, args.jobs, args.queue_limit) == (1, 1, 8)
        assert args.log is None

    def test_obs_missing_ledger_degrades_gracefully(self, tmp_path, capsys):
        # No traceback, exit code 1, a one-line friendly message.
        status = main([
            "obs", "--cache-dir", str(tmp_path / "absent"), "diff", "latest",
        ])
        assert status == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("repro obs:")

    def test_obs_lists_and_diffs_old_bench_records(self, tmp_path, capsys):
        # Ledgers may hold records whose gauges no tool writes any more:
        # reprolint timings on a run record, and bench records carrying
        # benchmark timings and serve throughput.  They must still load,
        # list, and diff as timing rather than drift.
        from repro.obs import LEDGER_SCHEMA, append_record

        def gauge(value):
            return {"kind": "gauge", "value": value}

        ledger = str(tmp_path / "ledger.jsonl")
        append_record(ledger, {
            "schema": LEDGER_SCHEMA,
            "kind": "run",
            "config": {"digest": "abc123", "seed": 7},
            "workers": 1,
            "salts": {},
            "stages": [],
            "metrics": {"lint.time_s{family=total}": gauge(6.5)},
        })
        for mean, rate in ((0.5, 120.0), (0.7, 95.5)):
            append_record(ledger, {
                "schema": LEDGER_SCHEMA,
                "kind": "bench",
                "metrics": {
                    "bench.time_s{benchmark=test_engine,stat=mean}":
                        gauge(mean),
                    "serve.requests_per_s{endpoint=/runs}": gauge(rate),
                },
                "n_benchmarks": 1,
            })

        assert main(["obs", "--ledger", ledger, "list"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [row.split()[2] for row in rows] == ["run", "bench", "bench"]
        status = main(["obs", "--ledger", ledger, "diff", "1", "2", "--json"])
        assert status == 0
        deltas = json.loads(capsys.readouterr().out)["deltas"]
        assert len(deltas) == 2
        assert {delta["classification"] for delta in deltas} == {"timing"}


class TestCLIReporting:
    def test_summary_command_outputs_json(self, capsys):
        from repro.cli import main

        assert main(["--preset", "small", "summary"]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert "f7_ipmap_eu28_pct" in payload
        # The human-readable comparison goes to stderr.
        assert "paper" in captured.err

    def test_report_command_contains_all_artifacts(self, capsys):
        from repro.cli import main

        assert main(["--preset", "small", "report"]) == 0
        out = capsys.readouterr().out
        assert "Table 5" in out and "Figure 12" in out
