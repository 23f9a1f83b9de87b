"""Unit tests for :mod:`repro.obs.export` — Chrome trace-event export.

The exporter runs against deterministic :class:`TickClock` tracers, so
timestamps and durations are exact; the validator is additionally
exercised on hand-built documents, and rejects every form the exporter
never writes (the bare array, B/E and other phases, broken orderings).
"""

from __future__ import annotations

import json

import pytest

from repro.errors import ObservabilityError
from repro.obs.clock import TickClock
from repro.obs.export import (
    TRACE_EVENTS_SCHEMA,
    load_trace_events,
    trace_document,
    trace_events,
    validate_trace_events,
    write_trace_events,
)
from repro.obs.trace import Tracer


def make_tracer():
    tracer = Tracer(TickClock(step=0.5))
    with tracer.span("run", digest="abc"):
        with tracer.span("stage:panel", shard="users[0:8]"):
            pass
        with tracer.span("stage:classification"):
            pass
    return tracer


class TestExport:
    def test_one_complete_event_per_span(self):
        tracer = make_tracer()
        events = trace_events(tracer.spans)
        assert [e["name"] for e in events] == [
            "run", "stage:panel", "stage:classification",
        ]
        assert all(e["ph"] == "X" for e in events)
        assert [e["cat"] for e in events] == ["run", "stage", "stage"]

    def test_timestamps_rebased_integer_microseconds(self):
        events = trace_events(make_tracer().spans)
        assert events[0]["ts"] == 0  # rebased to the first span's start
        for event in events:
            assert isinstance(event["ts"], int) and event["ts"] >= 0
            assert isinstance(event["dur"], int) and event["dur"] >= 0
        timestamps = [e["ts"] for e in events]
        assert timestamps == sorted(timestamps)

    def test_args_carry_attrs_depth_and_cpu(self):
        events = trace_events(make_tracer().spans)
        assert events[0]["args"]["digest"] == "abc"
        assert events[1]["args"]["shard"] == "users[0:8]"
        assert events[1]["args"]["depth"] == 1
        assert "cpu_ms" in events[0]["args"]

    def test_empty_tracer_exports_no_events(self):
        assert trace_events(Tracer(TickClock()).spans) == []

    def test_negative_duration_span_rejected(self):
        tracer = make_tracer()
        tracer.spans[1].wall_end = tracer.spans[1].wall_start - 1.0
        with pytest.raises(ObservabilityError):
            trace_events(tracer.spans)

    def test_document_schema_marker(self):
        document = trace_document(make_tracer().spans)
        assert document["otherData"]["schema"] == TRACE_EVENTS_SCHEMA
        assert document["displayTimeUnit"] == "ms"

    def test_write_load_round_trip(self, tmp_path):
        path = tmp_path / "events.json"
        count = write_trace_events(make_tracer().spans, path)
        assert count == 3
        payload = load_trace_events(path)
        assert len(payload["traceEvents"]) == 3
        # The written document is plain JSON any viewer can parse.
        assert json.loads(path.read_text())["traceEvents"]

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "events.json"
        path.write_text("{not json")
        with pytest.raises(ObservabilityError):
            load_trace_events(path)
        with pytest.raises(ObservabilityError):
            load_trace_events(tmp_path / "absent.json")


def event(ph="X", ts=0, dur=1, name="s", pid=1, tid=1, **extra):
    payload = {"name": name, "ph": ph, "ts": ts, "pid": pid, "tid": tid}
    if ph == "X":
        payload["dur"] = dur
    payload.update(extra)
    return payload


def document(*events):
    return {"traceEvents": list(events)}


class TestValidator:
    def test_metadata_events_skip_timestamp_contract(self):
        validate_trace_events(document(
            {"name": "process_name", "ph": "M", "pid": 1},
            event(ts=0),
        ))

    @pytest.mark.parametrize(
        "payload,message",
        [
            (42, "object"),
            ({"displayTimeUnit": "ms"}, "traceEvents"),
            (document("not-a-mapping"), "mapping"),
            (document(event(ph="Q")), "phase"),
            (document(event(ts=-1)), "non-negative integer 'ts'"),
            (document(event(ts=1.5)), "non-negative integer 'ts'"),
            (document(event(ts=True)), "non-negative integer 'ts'"),
            (document(event(ts=10), event(ts=5)), "timestamp ordering"),
            (document(event(dur=None)), "dur"),
            # the exporter writes no phase but X and M, nor the
            # bare-array form, so the validator accepts neither
            (
                document({"name": "a", "ph": "E", "ts": 0, "pid": 1, "tid": 1}),
                "unsupported phase 'E'",
            ),
            (
                document(
                    {"name": "a", "ph": "B", "ts": 0, "pid": 1, "tid": 1},
                    {"name": "b", "ph": "E", "ts": 1, "pid": 1, "tid": 1},
                ),
                "unsupported phase 'B'",
            ),
            (
                document({"name": "a", "ph": "B", "ts": 0, "pid": 1, "tid": 1}),
                "unsupported phase 'B'",
            ),
            ([event(ts=0), event(ts=5)], "object"),
            (
                document(
                    {"name": "a", "ph": "B", "ts": 0, "pid": 1, "tid": 1},
                    {"name": "b", "ph": "B", "ts": 1, "pid": 1, "tid": 1},
                    {"name": "b", "ph": "E", "ts": 2, "pid": 1, "tid": 1},
                    {"name": "a", "ph": "E", "ts": 3, "pid": 1, "tid": 1},
                ),
                "unsupported phase 'B'",
            ),
        ],
    )
    def test_rejections(self, payload, message):
        with pytest.raises(ObservabilityError) as excinfo:
            validate_trace_events(payload)
        assert message in str(excinfo.value)

    def test_b_e_tracks_are_independent(self):
        # An E on one track must not close a B on another; the validator
        # rejects the B before it meets the E.
        with pytest.raises(ObservabilityError, match="unsupported phase 'B'"):
            validate_trace_events(document(
                {"name": "a", "ph": "B", "ts": 0, "pid": 1, "tid": 1},
                {"name": "a", "ph": "E", "ts": 1, "pid": 1, "tid": 2},
            ))


class TestWorkerTracks:
    def make_stitched_tracer(self):
        """A tracer whose later spans carry grafted worker identities."""
        tracer = make_tracer()
        tracer.spans[1].pid, tracer.spans[1].tid = 4001, 11
        tracer.spans[2].pid, tracer.spans[2].tid = 4002, 12
        return tracer

    def test_stamped_spans_keep_their_own_tracks(self):
        events = trace_events(self.make_stitched_tracer().spans)
        by_name = {
            event["name"]: event for event in events if event["ph"] == "X"
        }
        assert by_name["run"]["pid"] == 1 and by_name["run"]["tid"] == 1
        assert by_name["stage:panel"]["pid"] == 4001
        assert by_name["stage:panel"]["tid"] == 11
        assert by_name["stage:classification"]["pid"] == 4002

    def test_multi_pid_traces_lead_with_process_name_metadata(self):
        events = trace_events(self.make_stitched_tracer().spans)
        metadata = [event for event in events if event["ph"] == "M"]
        assert [event["name"] for event in metadata] == ["process_name"] * 3
        labels = {
            event["pid"]: event["args"]["name"] for event in metadata
        }
        assert labels == {
            1: "engine", 4001: "worker 4001", 4002: "worker 4002",
        }
        assert events[: len(metadata)] == metadata  # metadata leads

    def test_single_track_traces_carry_no_metadata(self):
        events = trace_events(make_tracer().spans)
        assert all(event["ph"] == "X" for event in events)

    def test_stitched_document_validates(self):
        validate_trace_events(trace_document(self.make_stitched_tracer().spans))

    def test_validator_orders_timestamps_per_track_not_globally(self):
        # Interleaved tracks each restart at ts 0 — legal.
        validate_trace_events(document(
            {"name": "a", "ph": "X", "ts": 50, "dur": 1, "pid": 1, "tid": 1},
            {"name": "b", "ph": "X", "ts": 0, "dur": 1, "pid": 2, "tid": 1},
            {"name": "c", "ph": "X", "ts": 60, "dur": 1, "pid": 1, "tid": 1},
            {"name": "d", "ph": "X", "ts": 5, "dur": 1, "pid": 2, "tid": 1},
        ))
        # ...but a regression *within* one track is not.
        with pytest.raises(ObservabilityError, match="on track"):
            validate_trace_events(document(
                {"name": "a", "ph": "X", "ts": 9, "dur": 1, "pid": 2, "tid": 1},
                {"name": "b", "ph": "X", "ts": 8, "dur": 1, "pid": 2, "tid": 1},
            ))
