#!/usr/bin/env python
"""End-to-end smoke test of the ``repro serve`` study service.

Usage::

    python scripts/serve_smoke.py [out_dir]

Starts a :class:`repro.serve.StudyServer` on an ephemeral port (in a
background thread of this process — the smoke needs no subprocesses),
then drives the full service contract over real HTTP:

* ``POST /studies`` twice with the same small config: the **cold** job
  must miss the cache, the **warm** job must replay every artifact
  (``warm_hit_rate == 1.0`` on the job result *and* on ``/metrics``)
  and both jobs' headline numbers must be byte-identical;
* both SSE streams must be well-formed ``repro.serve/event/v1`` event
  sequences — ``job:queued`` first, every ``stage:*`` span paired
  start/end, exactly one terminal ``job:done`` at the end;
* the ledger endpoints must agree with the CLI: ``GET /runs`` lists
  both records, ``GET /runs/0/diff/1`` classifies the cold/warm deltas
  with **zero unexplained drift** and matches ``repro obs diff --json``
  byte for byte, ``GET /runs/latest/check`` passes against budgets
  derived from the warm run, and ``PUT /baseline`` moves the selector;
* shutdown is clean: the server thread exits on ``request_stop()``.

Artifacts (server request log, both event streams, the metrics
snapshot, diff JSON, budgets) land in ``out_dir`` (default
``build/serve-smoke``) so CI can upload them.  The cache lives in
``out_dir/cache`` and is removed before the server starts, so a rerun
starts cold again; ``out_dir`` itself is never removed.
``make serve-smoke`` wires this into CI.
"""

import contextlib
import http.client
import io
import json
import os
import shutil
import sys
import threading

from repro.cli import main as cli_main
from repro.errors import ServeError
from repro.obs.persist import atomic_write_json
from repro.serve import StudyServer, decode_events, validate_event

#: the submission both runs use (identical on purpose)
SUBMISSION = {"preset": "small"}


class SmokeFailure(ServeError):
    """One smoke assertion failed; main() renders it as FAIL + exit 1."""


def request(port, method, path, body=None, timeout=300):
    """One HTTP exchange against the smoke server; returns (status, text)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        headers = {"Content-Type": "application/json"} if body else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, response.read().decode("utf-8")
    finally:
        conn.close()


def check_events(events, label):
    """Validate one job's SSE event sequence; returns the done payload."""
    if not events:
        raise SmokeFailure(f"{label}: empty event stream")
    for event in events:
        validate_event(event)
    names = [event["event"] for event in events]
    if names[0] != "job:queued":
        raise SmokeFailure(f"{label}: stream starts with {names[0]!r}")
    if names[-1] != "job:done" or names.count("job:done") != 1:
        raise SmokeFailure(
            f"{label}: expected exactly one terminal job:done, got {names}"
        )
    if [event["seq"] for event in events] != list(range(len(events))):
        raise SmokeFailure(f"{label}: event seq numbers are not dense")
    starts = [
        event["data"]["span"] for event in events
        if event["event"] == "span:start"
        and event["data"]["span"].startswith("stage:")
    ]
    ends = [
        event["data"]["span"] for event in events
        if event["event"] == "span:end"
        and event["data"]["span"].startswith("stage:")
    ]
    if not starts or sorted(starts) != sorted(ends):
        raise SmokeFailure(
            f"{label}: unpaired stage spans (starts={starts}, ends={ends})"
        )
    for event in events:
        if event["event"] == "span:end" and "wall_s" not in event["data"]:
            raise SmokeFailure(f"{label}: span:end without wall_s")
    done = events[-1]
    if done["data"].get("state") != "done":
        raise SmokeFailure(f"{label}: job failed: {done['data']}")
    return done["data"]


def main() -> int:
    out_dir = sys.argv[1] if len(sys.argv) > 1 else "build/serve-smoke"
    os.makedirs(out_dir, exist_ok=True)
    cache = os.path.join(out_dir, "cache")
    shutil.rmtree(cache, ignore_errors=True)
    budgets_path = os.path.join(out_dir, "budgets.json")

    server = StudyServer(
        cache_dir=cache,
        port=0,
        workers=2,
        log_path=os.path.join(out_dir, "server-log.jsonl"),
        budgets=budgets_path,
    )
    ready = threading.Event()
    thread = threading.Thread(
        target=server.run,
        kwargs={"on_ready": lambda _server: ready.set()},
        daemon=True,
    )
    thread.start()
    if not ready.wait(timeout=60):
        print("FAIL: server did not become ready", file=sys.stderr)
        return 1
    port = server.port

    try:
        results = {}
        for label in ("cold", "warm"):
            status, text = request(
                port, "POST", "/studies", json.dumps(SUBMISSION)
            )
            if status != 202:
                print(f"FAIL: {label} submit -> {status}: {text}",
                      file=sys.stderr)
                return 1
            job_id = json.loads(text)["job_id"]
            status, raw = request(
                port, "GET", f"/studies/{job_id}/events"
            )
            if status != 200:
                print(f"FAIL: {label} events -> {status}", file=sys.stderr)
                return 1
            with open(os.path.join(out_dir, f"events-{label}.sse"), "w",
                      encoding="utf-8") as handle:
                handle.write(raw)
            results[label] = check_events(decode_events(raw), label)

        if results["cold"]["cache_misses"] == 0:
            print("FAIL: cold run missed nothing — cache was not cold",
                  file=sys.stderr)
            return 1
        if results["warm"]["cache_misses"] != 0 or \
                results["warm"]["warm_hit_rate"] != 1.0:
            print(f"FAIL: warm run not fully cached: {results['warm']}",
                  file=sys.stderr)
            return 1

        cold_headline = json.dumps(results["cold"]["headline"], sort_keys=True)
        warm_headline = json.dumps(results["warm"]["headline"], sort_keys=True)
        if cold_headline != warm_headline:
            print("FAIL: cold and warm headline numbers differ",
                  file=sys.stderr)
            return 1

        status, text = request(port, "GET", "/metrics")
        metrics = json.loads(text)
        with open(os.path.join(out_dir, "metrics.json"), "w",
                  encoding="utf-8") as handle:
            handle.write(text)
        if metrics["warm_hit_rate"] != 1.0:
            print(f"FAIL: /metrics warm_hit_rate {metrics['warm_hit_rate']}",
                  file=sys.stderr)
            return 1
        if metrics["jobs"]["done"] != 2 or metrics["jobs"]["failed"] != 0:
            print(f"FAIL: unexpected job counts {metrics['jobs']}",
                  file=sys.stderr)
            return 1

        status, text = request(port, "GET", "/runs")
        runs = json.loads(text)["runs"]
        if [run["seq"] for run in runs] != [0, 1]:
            print(f"FAIL: /runs listed {runs}", file=sys.stderr)
            return 1

        # The HTTP diff must match `repro obs diff --json` byte for byte.
        status, text = request(port, "GET", "/runs/0/diff/1")
        http_diff = json.loads(text)
        with open(os.path.join(out_dir, "diff.json"), "w",
                  encoding="utf-8") as handle:
            handle.write(text)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            cli_status = cli_main(
                ["obs", "--cache-dir", cache, "diff", "0", "1", "--json"]
            )
        if cli_status != 0:
            print(f"FAIL: repro obs diff exited {cli_status}",
                  file=sys.stderr)
            return 1
        cli_diff = json.loads(stdout.getvalue())
        if http_diff != cli_diff:
            print("FAIL: HTTP diff disagrees with repro obs diff",
                  file=sys.stderr)
            return 1
        unexplained = [
            delta for delta in http_diff.get("deltas", [])
            if delta.get("classification") == "unexplained"
        ]
        if unexplained:
            print(f"FAIL: unexplained drift: {unexplained}", file=sys.stderr)
            return 1

        # Budgets gate over HTTP: envelopes derived from the warm
        # record must pass.
        status, text = request(port, "GET", "/runs/latest")
        warm_record = json.loads(text)
        total_wall = sum(s["wall_s"] for s in warm_record["stages"])
        atomic_write_json({
            "schema": "repro.obs/budgets/v1",
            "total_wall_s": {"max": total_wall * 10.0 + 600.0},
        }, budgets_path)
        status, text = request(port, "GET", "/runs/latest/check")
        check = json.loads(text)
        if status != 200 or not check["ok"]:
            print(f"FAIL: budget check -> {status}: {text}", file=sys.stderr)
            return 1

        status, text = request(
            port, "PUT", "/baseline", json.dumps({"selector": "0"})
        )
        if status != 200 or json.loads(text)["seq"] != 0:
            print(f"FAIL: PUT /baseline -> {status}: {text}",
                  file=sys.stderr)
            return 1
        status, text = request(port, "GET", "/runs/baseline")
        if json.loads(text)["seq"] != 0:
            print("FAIL: baseline selector did not move", file=sys.stderr)
            return 1
    except ServeError as exc:
        # SmokeFailure from check_events, or a malformed event stream
        # caught by validate_event/decode_events.
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    finally:
        server.request_stop()
        thread.join(timeout=30)

    if thread.is_alive():
        print("FAIL: server thread did not shut down", file=sys.stderr)
        return 1

    print(
        "OK: cold fill + warm replay served identical headlines "
        f"(warm hit rate 1.0), {metrics['jobs']['done']} jobs done, "
        "SSE streams well-formed and terminal, HTTP diff == CLI diff "
        "with zero unexplained drift, budgets gate passed, baseline "
        f"moved, clean shutdown; artifacts in {out_dir}/"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
