"""Unit tests for :mod:`repro.obs.ledger` — records, corruption, selectors.

Everything runs against hand-built records on tmp_path ledgers; the
integration with real engine runs is locked in
``test_runtime_determinism.py`` and ``make smoke``.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import ObservabilityError, ReproError
from repro.obs.ledger import (
    LEDGER_FILENAME,
    LEDGER_SCHEMA,
    append_record,
    ledger_path,
    load_ledger,
    read_baseline,
    select_record,
    validate_record,
    write_baseline,
)
from repro.obs.ledger import run_id_for
from repro.obs.persist import append_jsonl_line, read_jsonl_lines


def make_run_payload(digest="abc123", seed=7, value=25825):
    """A minimal valid ``kind="run"`` payload (pre-identity-stamping)."""
    return {
        "schema": LEDGER_SCHEMA,
        "kind": "run",
        "config": {"digest": digest, "seed": seed},
        "workers": 2,
        "salts": {"panel": "s-panel", "classification": "s-classify"},
        "footprints": {"panel": "f-panel"},
        "stages": [
            {
                "stage": "panel",
                "shards": 8,
                "cache_hits": 0,
                "cache_misses": 8,
                "wall_s": 1.25,
                "cpu_s": 1.0,
                "metric_keys": ["web.requests{stage=panel}"],
            },
        ],
        "metrics": {
            "web.requests{stage=panel}": {"kind": "counter", "value": value},
        },
        "world_build_s": 0.5,
    }


def _append_fifty(path, barrier, worker):
    """Child-process body: append 50 records, with the window between
    reading the last record and appending widened so that unserialized
    appenders would collide."""
    import time

    from repro.obs import ledger

    read_last = ledger.last_jsonl_record

    def slow_read_last(target):
        last = read_last(target)
        time.sleep(0.002)
        return last

    ledger.last_jsonl_record = slow_read_last
    barrier.wait()
    for i in range(50):
        append_record(path, make_run_payload(value=worker * 100 + i))


class TestRunId:
    def test_deterministic_and_seq_sensitive(self):
        payload = make_run_payload()
        assert run_id_for(payload, 0) == run_id_for(payload, 0)
        assert run_id_for(payload, 0) != run_id_for(payload, 1)
        assert run_id_for(make_run_payload(value=1), 0) != run_id_for(
            make_run_payload(value=2), 0
        )

    def test_key_order_does_not_matter(self):
        forward = {"a": 1, "b": 2}
        backward = {"b": 2, "a": 1}
        assert run_id_for(forward, 3) == run_id_for(backward, 3)


class TestAppendAndLoad:
    def test_round_trip(self, tmp_path):
        path = ledger_path(tmp_path)
        assert path.endswith(LEDGER_FILENAME)
        first = append_record(path, make_run_payload(value=1))
        second = append_record(path, make_run_payload(value=2))
        assert (first["seq"], second["seq"]) == (0, 1)
        assert first["run_id"] != second["run_id"]
        assert load_ledger(path) == [first, second]

    def test_stale_identity_fields_are_restamped(self, tmp_path):
        path = ledger_path(tmp_path)
        payload = make_run_payload()
        payload["run_id"] = "stale"
        payload["seq"] = 99
        record = append_record(path, payload)
        assert record["seq"] == 0
        assert record["run_id"] == run_id_for(
            {k: v for k, v in record.items() if k != "run_id"}, 0
        )

    def test_append_rejects_invalid_payload(self, tmp_path):
        path = ledger_path(tmp_path)
        broken = make_run_payload()
        del broken["config"]
        with pytest.raises(ObservabilityError):
            append_record(path, broken)
        # A rejected append writes nothing.
        with open(path, encoding="utf-8") as handle:
            assert handle.read() == ""

    def test_seq_follows_last_record_after_head_is_pruned(self, tmp_path):
        # Seqs stay unique when the oldest records are cut from the
        # ledger: the next seq follows the last record, not the count.
        path = ledger_path(tmp_path)
        for value in range(3):
            append_record(path, make_run_payload(value=value))
        with open(path, encoding="utf-8") as handle:
            kept = handle.readlines()[1:]
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(kept)
        newest = append_record(path, make_run_payload(value=3))
        records = load_ledger(path)
        assert [record["seq"] for record in records] == [1, 2, 3]
        assert select_record(records, "3") == newest

    def test_seq_skips_torn_fragment_and_blank_lines(self, tmp_path):
        path = ledger_path(tmp_path)
        append_record(path, make_run_payload(value=0))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("\n\n" + json.dumps(make_run_payload())[:40])
        assert append_record(path, make_run_payload(value=1))["seq"] == 1

    def test_append_heals_a_torn_tail(self, tmp_path):
        # A killed writer left part of a record and no newline.  The
        # next append drops that fragment, so its record starts on its
        # own line and the ledger loads again, both records intact.
        path = ledger_path(tmp_path)
        first = append_record(path, make_run_payload(value=0))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(make_run_payload())[:40])
        second = append_record(path, make_run_payload(value=1))
        records = load_ledger(path)
        assert [record["seq"] for record in records] == [0, 1]
        assert records == [first, second]

    def test_seq_of_a_record_longer_than_one_read(self, tmp_path):
        # The last record is read backwards in chunks; one longer than
        # a chunk must still be read whole.
        path = ledger_path(tmp_path)
        payload = make_run_payload()
        payload["padding"] = "x" * 200_000
        append_record(path, payload)
        append_record(path, payload)
        assert append_record(path, make_run_payload())["seq"] == 2

    def test_concurrent_appends_get_unique_dense_seqs(self, tmp_path):
        # Engine runs on threads of one process may append to one
        # ledger; the append lock serializes the read-stamp-write
        # critical section, so every record gets a unique seq and the
        # journal stays dense and loadable.
        import threading

        path = ledger_path(tmp_path)
        barrier = threading.Barrier(8)

        def appender(worker):
            barrier.wait()
            for i in range(10):
                append_record(path, make_run_payload(value=worker * 100 + i))

        threads = [
            threading.Thread(target=appender, args=(worker,))
            for worker in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        records = load_ledger(path)
        assert [record["seq"] for record in records] == list(range(80))
        assert len({record["run_id"] for record in records}) == 80

    def test_two_processes_get_unique_dense_seqs(self, tmp_path):
        # Two `repro run` sharing one --cache-dir append from separate
        # processes, where the thread lock does not reach; the flock on
        # the ledger serializes them.
        import multiprocessing

        path = ledger_path(tmp_path)
        context = multiprocessing.get_context("fork")
        barrier = context.Barrier(2)
        processes = [
            context.Process(
                target=_append_fifty, args=(path, barrier, worker)
            )
            for worker in range(2)
        ]
        for process in processes:
            process.start()
        for process in processes:
            process.join(60)
        assert [process.exitcode for process in processes] == [0, 0]

        records = load_ledger(path)
        assert sorted(record["seq"] for record in records) == list(range(100))

    def test_missing_ledger_raises_cleanly(self, tmp_path):
        # The CLI catches this and renders "repro obs: cannot read ..."
        # instead of a traceback — absence is an error, not an empty list.
        with pytest.raises(ObservabilityError) as excinfo:
            load_ledger(ledger_path(tmp_path))
        assert "cannot read" in str(excinfo.value)


class TestValidation:
    @pytest.mark.parametrize(
        "mutation",
        [
            lambda r: r.pop("metrics"),
            lambda r: r.pop("config"),
            lambda r: r.update(schema="repro.obs/ledger/v0"),
            lambda r: r.update(kind="mystery"),
            lambda r: r.update(seq=True),
            lambda r: r.update(seq=-1),
            lambda r: r.update(workers="four"),
            lambda r: r["config"].pop("digest"),
            lambda r: r["stages"][0].pop("cpu_s"),
            lambda r: r["stages"][0].pop("metric_keys"),
            lambda r: r["stages"][0].update(cache_hits="lots"),
            lambda r: r["stages"].append("not-a-mapping"),
        ],
    )
    def test_broken_records_rejected(self, mutation):
        record = make_run_payload()
        record["seq"] = 0
        record["run_id"] = "deadbeef"
        mutation(record)
        with pytest.raises(ObservabilityError):
            validate_record(record)

    def test_bench_records_need_no_stages(self):
        validate_record({
            "schema": LEDGER_SCHEMA,
            "kind": "bench",
            "run_id": "deadbeef",
            "seq": 0,
            "metrics": {},
        })

    def test_extra_keys_are_forward_compatible(self):
        record = make_run_payload()
        record["seq"] = 0
        record["run_id"] = "deadbeef"
        record["future_field"] = {"anything": True}
        validate_record(record)


class TestCorruption:
    def test_corrupt_line_reports_number_not_jsondecodeerror(self, tmp_path):
        path = ledger_path(tmp_path)
        append_record(path, make_run_payload())
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("{this is not json}\n")
        with pytest.raises(ObservabilityError) as excinfo:
            load_ledger(path)
        assert "line 2" in str(excinfo.value)
        assert not isinstance(excinfo.value, json.JSONDecodeError)
        # The whole taxonomy stays inside ReproError.
        assert isinstance(excinfo.value, ReproError)

    def test_truncated_last_line(self, tmp_path):
        path = ledger_path(tmp_path)
        append_record(path, make_run_payload())
        full = json.dumps(make_run_payload())
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(full[: len(full) // 2])  # crash mid-append
        with pytest.raises(ObservabilityError) as excinfo:
            load_ledger(path)
        assert "line 2" in str(excinfo.value)

    def test_valid_json_invalid_record_names_line(self, tmp_path):
        path = ledger_path(tmp_path)
        append_record(path, make_run_payload())
        append_jsonl_line(path, {"schema": LEDGER_SCHEMA, "kind": "run"})
        with pytest.raises(ObservabilityError) as excinfo:
            load_ledger(path)
        assert "line 2" in str(excinfo.value)

    def test_non_object_line_rejected(self, tmp_path):
        path = ledger_path(tmp_path)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("[1, 2, 3]\n")
        with pytest.raises(ObservabilityError) as excinfo:
            list(read_jsonl_lines(path))
        assert "line 1" in str(excinfo.value)


class TestSelectors:
    def build_ledger(self, tmp_path, n=3):
        path = ledger_path(tmp_path)
        return path, [
            append_record(path, make_run_payload(value=i)) for i in range(n)
        ]

    def test_latest_and_latest_n(self, tmp_path):
        _, records = self.build_ledger(tmp_path)
        assert select_record(records, "latest") == records[-1]
        assert select_record(records, "latest~1") == records[-2]
        assert select_record(records, "latest~2") == records[0]

    def test_latest_n_past_start(self, tmp_path):
        _, records = self.build_ledger(tmp_path)
        with pytest.raises(ObservabilityError):
            select_record(records, "latest~3")
        with pytest.raises(ObservabilityError):
            select_record(records, "latest~x")

    def test_seq_selector(self, tmp_path):
        _, records = self.build_ledger(tmp_path)
        assert select_record(records, "1") == records[1]
        with pytest.raises(ObservabilityError):
            select_record(records, "9")

    def test_run_id_prefix(self, tmp_path):
        _, records = self.build_ledger(tmp_path)
        target = records[1]
        assert select_record(records, target["run_id"][:8]) == target
        with pytest.raises(ObservabilityError):
            select_record(records, "zzzz")
        with pytest.raises(ObservabilityError):
            select_record(records, "")  # prefix of every id: ambiguous

    def test_baseline_falls_back_to_first(self, tmp_path):
        _, records = self.build_ledger(tmp_path)
        assert select_record(records, "baseline") == records[0]

    def test_baseline_pointer_round_trip(self, tmp_path):
        path, records = self.build_ledger(tmp_path)
        assert read_baseline(path) is None
        write_baseline(path, records[1]["run_id"])
        assert read_baseline(path) == records[1]["run_id"]
        resolved = select_record(
            records, "baseline", baseline_id=read_baseline(path)
        )
        assert resolved == records[1]

    def test_baseline_pointer_to_unknown_run(self, tmp_path):
        _, records = self.build_ledger(tmp_path)
        with pytest.raises(ObservabilityError):
            select_record(records, "baseline", baseline_id="gone")

    def test_corrupt_baseline_pointer(self, tmp_path):
        path, records = self.build_ledger(tmp_path)
        write_baseline(path, records[0]["run_id"])
        with open(f"{path}.baseline", "w", encoding="utf-8") as handle:
            handle.write("{broken")
        with pytest.raises(ObservabilityError):
            read_baseline(path)

    def test_empty_ledger(self):
        with pytest.raises(ObservabilityError):
            select_record([], "latest")
