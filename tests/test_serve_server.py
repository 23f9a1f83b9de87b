"""Integration tests for :class:`repro.serve.StudyServer` over real HTTP.

One server on an ephemeral port, shared module-wide; the engine is
stubbed (fast, deterministic — see ``test_serve_jobs``) but everything
above it is real: the hand-rolled HTTP parser over a live socket, the
router, the SSE stream, the ledger handlers against a real ledger
file, the request log.  The full engine-under-the-service contract is
``make smoke``.
"""

from __future__ import annotations

import http.client
import json
import threading

import pytest

from repro.obs import (
    LEDGER_SCHEMA,
    PROMETHEUS_CONTENT_TYPE,
    append_record,
    ledger_path,
    parse_prometheus_text,
)
from repro.serve import StudyServer, decode_events


class FakeRun:
    def __init__(self, hits, misses, ledger_record):
        self.cache_hits = hits
        self.cache_misses = misses
        self.ledger_record = ledger_record

    def table2_counts(self):
        return {"total": {"total_requests": 25825}}

    def eu28_destination_regions(self):
        return {"EU 28": 91.9}


def run_payload(config):
    """A minimal valid ledger payload mirroring what the engine appends."""
    return {
        "schema": LEDGER_SCHEMA,
        "kind": "run",
        "config": {"digest": config.digest(), "seed": config.seed},
        "workers": 1,
        "salts": {"panel": "s-panel"},
        "footprints": {"panel": "f-panel"},
        "stages": [{
            "stage": "panel",
            "shards": 1,
            "cache_hits": 0,
            "cache_misses": 1,
            "wall_s": 0.5,
            "cpu_s": 0.5,
            "metric_keys": ["web.requests{stage=panel}"],
        }],
        "metrics": {
            "web.requests{stage=panel}": {"kind": "counter", "value": 25825},
        },
        "world_build_s": 0.1,
    }


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    cache_dir = str(tmp_path_factory.mktemp("serve-cache"))
    log_path = str(tmp_path_factory.mktemp("serve-log") / "log.jsonl")
    seen = set()

    def fake_run_study(config, workers=1, cache_dir=None, tracer=None):
        # Real ledger semantics: every run appends one record, exactly
        # like the engine — the /runs handlers read the real file.
        with tracer.span("stage:fake"):
            pass
        warm = config.digest() in seen
        seen.add(config.digest())
        record = append_record(ledger_path(cache_dir), run_payload(config))
        return FakeRun(
            hits=1 if warm else 0,
            misses=0 if warm else 1,
            ledger_record=record,
        )

    mp = pytest.MonkeyPatch()
    mp.setattr("repro.runtime.facade.run_study", fake_run_study)
    server = StudyServer(
        cache_dir=cache_dir, port=0, workers=1, log_path=log_path
    )
    ready = threading.Event()
    thread = threading.Thread(
        target=server.run,
        kwargs={"on_ready": lambda _server: ready.set()},
        daemon=True,
    )
    thread.start()
    assert ready.wait(timeout=30), "server did not become ready"
    try:
        yield server
    finally:
        server.request_stop()
        thread.join(timeout=30)
        assert not thread.is_alive(), "server did not shut down"
        mp.undo()


def request(server, method, path, body=None):
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
    try:
        headers = {"Content-Type": "application/json"} if body else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, response.read().decode("utf-8")
    finally:
        conn.close()


def submit_and_finish(server, body):
    status, text = request(server, "POST", "/studies", json.dumps(body))
    assert status == 202, text
    job = json.loads(text)
    assert job["schema"] == "repro.serve/job/v1"
    # The SSE stream blocks until the job is terminal, so reading it to
    # EOF doubles as the completion wait.
    status, raw = request(server, "GET", f"/studies/{job['job_id']}/events")
    assert status == 200
    return job, decode_events(raw)


class TestService:
    def test_healthz(self, server):
        status, text = request(server, "GET", "/healthz")
        assert status == 200
        payload = json.loads(text)
        assert payload["status"] == "ok"
        assert payload["cache_dir"] == server.cache_dir

    def test_unknown_route_404_and_wrong_method_405(self, server):
        assert request(server, "GET", "/nope")[0] == 404
        assert request(server, "POST", "/healthz")[0] == 405

    def test_malformed_submission_is_400(self, server):
        assert request(server, "POST", "/studies", "{broken")[0] == 400
        status, text = request(
            server, "POST", "/studies", json.dumps({"preset": "gigantic"})
        )
        assert status == 400
        assert "unknown preset" in json.loads(text)["error"]

    def test_unknown_job_is_404(self, server):
        assert request(server, "GET", "/studies/zzz")[0] == 404
        assert request(server, "GET", "/studies/zzz/events")[0] == 404

    def test_cold_warm_cycle_end_to_end(self, server):
        cold_job, cold_events = submit_and_finish(server, {"preset": "small"})
        warm_job, warm_events = submit_and_finish(server, {"preset": "small"})

        assert cold_events[0]["event"] == "job:queued"
        assert cold_events[-1]["event"] == "job:done"
        assert cold_events[-1]["data"]["state"] == "done"
        assert warm_events[-1]["data"]["warm_hit_rate"] == 1.0
        assert (
            cold_events[-1]["data"]["headline"]
            == warm_events[-1]["data"]["headline"]
        )

        # Job documents reflect the terminal state and the result.
        status, text = request(server, "GET", f"/studies/{warm_job['job_id']}")
        assert status == 200
        document = json.loads(text)
        assert document["state"] == "done"
        assert document["result"]["warm_hit_rate"] == 1.0

        # The listing carries both, oldest first.
        status, text = request(server, "GET", "/studies")
        jobs = json.loads(text)["jobs"]
        assert [j["job_id"] for j in jobs[:2]] == [
            cold_job["job_id"], warm_job["job_id"],
        ]

        # /metrics aggregates the same story.
        status, text = request(server, "GET", "/metrics")
        metrics = json.loads(text)
        assert metrics["warm_hit_rate"] == 1.0
        assert metrics["jobs"]["failed"] == 0

        # Both runs appended real ledger records, servable over HTTP.
        status, text = request(server, "GET", "/runs")
        assert status == 200
        runs = json.loads(text)["runs"]
        assert [r["seq"] for r in runs] == list(range(len(runs)))

        status, text = request(server, "GET", "/runs/latest")
        assert status == 200
        assert json.loads(text)["kind"] == "run"

        status, text = request(server, "GET", "/runs/0/diff/1")
        assert status == 200
        diff = json.loads(text)
        assert diff["schema"] == "repro.obs/diff/v1"
        assert diff["unexplained"] == []

        status, text = request(
            server, "PUT", "/baseline", json.dumps({"selector": "0"})
        )
        assert status == 200
        assert json.loads(text)["seq"] == 0
        status, text = request(server, "GET", "/runs/baseline")
        assert json.loads(text)["seq"] == 0

    def test_unresolvable_selector_is_404(self, server):
        submit_and_finish(server, {"preset": "small"})
        assert request(server, "GET", "/runs/zzzzzz")[0] == 404

    def test_check_route_is_gone(self, server):
        status, text = request(server, "GET", "/runs/latest/check")
        assert status == 404
        assert "no route" in json.loads(text)["error"]

    def test_request_log_records_routes_not_just_paths(self, server):
        import time

        request(server, "GET", "/healthz")
        # The log line lands after the response bytes the client waits
        # on, so poll briefly rather than race the server's append.
        deadline = time.monotonic() + 10
        healthz = []
        while not healthz and time.monotonic() < deadline:
            with open(server.log_path, "r", encoding="utf-8") as handle:
                entries = [
                    json.loads(line) for line in handle if line.strip()
                ]
            healthz = [
                e for e in entries
                if e["path"] == "/healthz" and e["method"] == "GET"
            ]
            if not healthz:
                time.sleep(0.05)
        assert healthz, "GET /healthz never reached the request log"
        assert healthz[-1] == {
            "method": "GET", "path": "/healthz",
            "route": "/healthz", "status": 200,
        }


def request_with_headers(server, path, headers=None):
    """Like :func:`request`, but with request headers and the response
    Content-Type returned."""
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
    try:
        conn.request("GET", path, headers=headers or {})
        response = conn.getresponse()
        return (
            response.status,
            response.getheader("Content-Type"),
            response.read().decode("utf-8"),
        )
    finally:
        conn.close()


class TestMetricsNegotiationAndProfile:
    def test_metrics_default_is_json(self, server):
        status, content_type, text = request_with_headers(server, "/metrics")
        assert status == 200
        assert content_type.startswith("application/json")
        assert "metrics" in json.loads(text)

    def test_metrics_format_prometheus(self, server):
        status, content_type, text = request_with_headers(
            server, "/metrics?format=prometheus"
        )
        assert status == 200
        assert content_type.startswith(PROMETHEUS_CONTENT_TYPE)
        samples = parse_prometheus_text(text)
        assert any(
            series.startswith("serve_http_requests") for series in samples
        )

    def test_metrics_accept_header_negotiates_prometheus(self, server):
        status, content_type, text = request_with_headers(
            server, "/metrics", headers={"Accept": "text/plain"}
        )
        assert status == 200
        assert content_type.startswith(PROMETHEUS_CONTENT_TYPE)
        parse_prometheus_text(text)
        # An explicit format wins over Accept.
        status, content_type, _ = request_with_headers(
            server, "/metrics?format=json", headers={"Accept": "text/plain"}
        )
        assert content_type.startswith("application/json")

    def test_metrics_unknown_format_is_400(self, server):
        status, _, text = request_with_headers(server, "/metrics?format=xml")
        assert status == 400
        assert "format" in json.loads(text)["error"]
