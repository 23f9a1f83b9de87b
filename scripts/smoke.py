#!/usr/bin/env python
"""End-to-end smoke test of the engine, its observers and both front-ends.

Usage::

    python scripts/smoke.py [out_dir]

Every run executes the ``small`` preset with 2 workers.  An untraced,
uncached engine run goes first: it is the reference whose Table 2,
Fig. 7(b), Sect. 6 and Table 5 every later run must reproduce.  Then
one cold fill -> warm replay -> ledger diff sequence is driven through
both front-ends, each over a fresh cache:

* ``repro run`` (the CLI entry point, in this process, so the real flag
  paths are exercised): the cold run writes the provenance manifest
  (``--trace``), both runs export Chrome trace events
  (``--trace-events``), and ``repro obs diff latest~1 latest --out``
  writes the diff;
* ``repro serve`` (a :class:`repro.serve.StudyServer` on an ephemeral
  port, in a background thread): both runs are ``POST /studies``
  submissions followed over their SSE streams, and the diff is
  ``GET /runs/0/diff/1``, which must equal ``repro obs diff --json``.

Through either front-end both runs succeed and append exactly two
ledger records, the cold run misses the cache, the warm run misses
nothing, both report the reference's headline numbers, and the diff
holds no unexplained delta, no config change and at least one cache
delta.  The ``repro run`` side also checks the manifest (nine stages in
graph order, each with a ``stage:<name>`` span and record counts), that
the reference's metrics equal the manifest's (tracing is an observer,
never a participant), both trace exports, and worker stage spans on at
least two pid tracks; over its cache an in-process warm run executes
no shard and, with ``<cache>/localization/`` removed, a partly warm
run executes exactly localization's shards, both with the reference's
headline.  The ``repro serve`` side also checks each event stream, the
warm hit rate on the job and on ``/metrics``, the job counts,
``PUT /baseline`` and a clean shutdown.

Artifacts land in ``out_dir`` (default ``build/smoke``): under
``run/`` the ledger (``cache/ledger.jsonl``), ``diff.json``,
``manifest.json`` and ``events-{cold,warm}.json``; under ``serve/`` the
ledger, ``diff.json``, ``events-{cold,warm}.sse``, ``metrics.json`` and
``server-log.jsonl``.  ``run/`` and ``serve/`` are emptied first, so a
rerun starts cold again; ``out_dir`` itself is never removed.  Exits 1
on the first failed check.  ``make smoke`` wires this into CI.
"""

import contextlib
import http.client
import io
import json
import os
import shutil
import sys
import threading

from repro import WorldConfig
from repro.cli import main as cli_main
from repro.errors import ReproError
from repro.obs import load_ledger, load_manifest, load_trace_events
from repro.obs.ledger import ledger_path
from repro.runtime import run_study
from repro.runtime.stages import STAGE_NAMES
from repro.serve import StudyServer, decode_events, validate_event

WORKERS = 2

#: the stage the partly warm run finds missing from the cache
MISSING_STAGE = "localization"


class SmokeFailure(ReproError):
    """One smoke check failed; main() renders it as FAIL + exit 1."""


def check(ok, message):
    if not ok:
        raise SmokeFailure(message)


def canonical(value):
    """Byte-comparable JSON of a headline (tuples compare as lists)."""
    return json.dumps(value, sort_keys=True)


def headline(run):
    """One engine run's answer, keyed as the front-ends' payloads key it."""
    table2 = run.table2_counts()
    return {
        "table2": table2,
        "table2_total": table2["total"],
        "eu28_destination_regions": run.eu28_destination_regions(),
        "sensitive": run.sensitive_summary(),
        "table5": [
            (row.scenario.name, row.n_flows, row.country_pct, row.region_pct)
            for row in run.scenario_table()
        ],
    }


def cli(argv):
    """Run the ``repro`` CLI in this process; returns (status, stdout)."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        status = cli_main(argv)
    return status, stdout.getvalue()


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def write_text(path, text):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


class CliFrontEnd:
    """``repro run`` and ``repro obs`` over ``<out_dir>/run``."""

    name = "repro run"

    def __init__(self, out_dir):
        self.dir = fresh_dir(os.path.join(out_dir, "run"))
        self.cache = os.path.join(self.dir, "cache")
        self.manifest = os.path.join(self.dir, "manifest.json")

    def events(self, label):
        return os.path.join(self.dir, f"events-{label}.json")

    def run(self, label):
        argv = [
            "--preset", "small", "run",
            "--workers", str(WORKERS),
            "--cache-dir", self.cache,
            "--trace-events", self.events(label),
            "--json",
        ]
        if label == "cold":
            argv += ["--trace", self.manifest]
        status, stdout = cli(argv)
        check(status == 0, f"repro run: {label} run exited {status}")
        payload = json.loads(stdout)
        return {
            "headline": {
                key: payload[key]
                for key in ("table2", "eu28_destination_regions", "sensitive")
            },
            "cache_hits": payload["cache_hits"],
            "cache_misses": payload["cache_misses"],
        }

    def ledger_seqs(self):
        return [r["seq"] for r in load_ledger(ledger_path(self.cache))]

    def diff(self):
        path = os.path.join(self.dir, "diff.json")
        status, _ = cli([
            "obs", "--cache-dir", self.cache,
            "diff", "latest~1", "latest", "--out", path,
        ])
        check(status == 0, f"repro obs diff exited {status}")
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)


class ServeFrontEnd:
    """``repro serve`` on an ephemeral port over ``<out_dir>/serve``."""

    name = "repro serve"

    def __init__(self, out_dir):
        self.dir = fresh_dir(os.path.join(out_dir, "serve"))
        self.cache = os.path.join(self.dir, "cache")
        self.server = StudyServer(
            cache_dir=self.cache,
            port=0,
            workers=WORKERS,
            log_path=os.path.join(self.dir, "server-log.jsonl"),
        )
        ready = threading.Event()
        self.thread = threading.Thread(
            target=self.server.run,
            kwargs={"on_ready": lambda _server: ready.set()},
            daemon=True,
        )
        self.thread.start()
        check(ready.wait(timeout=60), "repro serve: not ready within 60 s")

    def request(self, method, path, body=None):
        """One HTTP exchange; returns (status, text)."""
        conn = http.client.HTTPConnection(
            "127.0.0.1", self.server.port, timeout=300
        )
        try:
            headers = {"Content-Type": "application/json"} if body else {}
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            return response.status, response.read().decode("utf-8")
        finally:
            conn.close()

    def run(self, label):
        status, text = self.request(
            "POST", "/studies", json.dumps({"preset": "small"})
        )
        check(status == 202, f"repro serve: {label} submit -> {status}")
        job_id = json.loads(text)["job_id"]
        status, raw = self.request("GET", f"/studies/{job_id}/events")
        check(status == 200, f"repro serve: {label} events -> {status}")
        write_text(os.path.join(self.dir, f"events-{label}.sse"), raw)
        return check_events(decode_events(raw), f"repro serve: {label}")

    def ledger_seqs(self):
        _status, text = self.request("GET", "/runs")
        return [run["seq"] for run in json.loads(text)["runs"]]

    def diff(self):
        _status, text = self.request("GET", "/runs/0/diff/1")
        write_text(os.path.join(self.dir, "diff.json"), text)
        status, stdout = cli(
            ["obs", "--cache-dir", self.cache, "diff", "0", "1", "--json"]
        )
        check(status == 0, f"repro obs diff exited {status}")
        http_diff = json.loads(text)
        check(
            http_diff == json.loads(stdout),
            "repro serve: HTTP diff disagrees with repro obs diff",
        )
        return http_diff

    def stop(self):
        """Stop the server; returns whether its thread exited in 30 s."""
        self.server.request_stop()
        self.thread.join(timeout=30)
        return not self.thread.is_alive()


def check_events(events, label):
    """Validate one job's SSE event sequence; returns the done payload."""
    check(events, f"{label}: empty event stream")
    for event in events:
        validate_event(event)
    names = [event["event"] for event in events]
    check(names[0] == "job:queued", f"{label}: stream starts {names[0]!r}")
    check(
        names[-1] == "job:done" and names.count("job:done") == 1,
        f"{label}: expected exactly one terminal job:done, got {names}",
    )
    check(
        [event["seq"] for event in events] == list(range(len(events))),
        f"{label}: event seq numbers are not dense",
    )
    stage_spans = {
        kind: sorted(
            event["data"]["span"] for event in events
            if event["event"] == kind
            and event["data"]["span"].startswith("stage:")
        )
        for kind in ("span:start", "span:end")
    }
    check(
        stage_spans["span:start"]
        and stage_spans["span:start"] == stage_spans["span:end"],
        f"{label}: unpaired stage spans {stage_spans}",
    )
    check(
        all(
            "wall_s" in event["data"]
            for event in events if event["event"] == "span:end"
        ),
        f"{label}: span:end without wall_s",
    )
    done = events[-1]["data"]
    check(done.get("state") == "done", f"{label}: job failed: {done}")
    return done


def fill_replay_diff(front, expected):
    """Cold fill, warm replay and ledger diff through one front-end;
    returns the warm run's result."""
    results = {label: front.run(label) for label in ("cold", "warm")}
    cold, warm = results["cold"], results["warm"]
    print(
        f"{front.name}: cold {cold['cache_misses']} misses, "
        f"warm {warm['cache_hits']} hits"
    )
    check(cold["cache_misses"] > 0, f"{front.name}: cold run missed nothing")
    check(
        warm["cache_misses"] == 0 and warm["cache_hits"] > 0,
        f"{front.name}: warm run hit {warm['cache_hits']} and missed "
        f"{warm['cache_misses']} shard(s)",
    )
    for label, result in results.items():
        got = result["headline"]
        check(
            canonical(got) == canonical({key: expected[key] for key in got}),
            f"{front.name}: {label} run changed the headline numbers",
        )
    seqs = front.ledger_seqs()
    check(seqs == [0, 1], f"{front.name}: ledger holds records {seqs}")
    diff = front.diff()
    unexplained = [delta["key"] for delta in diff["unexplained"]]
    check(not unexplained, f"{front.name}: unexplained drift {unexplained}")
    check(
        not diff["config"]["changed"],
        f"{front.name}: identical configs reported as changed",
    )
    check(diff["counts"]["cache"] > 0, f"{front.name}: no cache deltas")
    return warm


def check_trace(front, reference):
    """The ``repro run`` observers: manifest, metrics, trace exports."""
    manifest = load_manifest(front.manifest)  # validates the schema
    check(manifest["metrics"], "manifest carries no metrics")
    stages = [entry["stage"] for entry in manifest["stages"]]
    check(stages == list(STAGE_NAMES), f"manifest stages {stages}")
    spans = {span["name"] for span in manifest["spans"]}
    missing = [name for name in STAGE_NAMES if f"stage:{name}" not in spans]
    check(not missing, f"manifest has no spans for stages {missing}")
    uncounted = [
        entry["stage"] for entry in manifest["stages"]
        if not entry["records_out"]
    ]
    check(not uncounted, f"stages without record counts: {uncounted}")

    traced = manifest["metrics"]
    untraced = reference.registry.to_dict()
    drift = [
        key for key in sorted(set(traced) | set(untraced))
        if not key.startswith("runtime.cache")
        and traced.get(key) != untraced.get(key)
    ]
    check(not drift, f"traced vs untraced metric drift: {drift}")

    events = {}
    for label in ("cold", "warm"):
        # load_trace_events re-checks what Perfetto relies on.
        events[label] = load_trace_events(front.events(label))["traceEvents"]
        check(events[label], f"{label} trace export is empty")
    worker_pids = {
        event["pid"] for event in events["cold"]
        if event.get("ph") == "X"
        and str(event.get("name", "")).startswith("stage:")
        and event["pid"] != 1
    }
    check(
        len(worker_pids) >= 2,
        f"worker stage spans on pid tracks {sorted(worker_pids)}, want >= 2",
    )


def check_partly_warm(cache, expected):
    """A warm and a partly warm in-process run over a filled cache."""
    config = WorldConfig.small()
    warm = run_study(config, workers=WORKERS, cache_dir=cache)
    shutil.rmtree(os.path.join(cache, MISSING_STAGE))
    partly = run_study(config, workers=WORKERS, cache_dir=cache)
    for label, run, executing in (
        ("warm", warm, None),
        ("partly warm", partly, MISSING_STAGE),
    ):
        for name, stage in run.result.metrics.items():
            want = stage.n_shards if name == executing else 0
            check(
                stage.executed_shards == want,
                f"{label} run: {name} executed {stage.executed_shards} "
                f"of {stage.n_shards} shard(s), expected {want}",
            )
        check(
            canonical(headline(run)) == canonical(expected),
            f"{label} run changed the headline numbers",
        )


def check_service(front, warm):
    """What only the service reports: hit rate, job counts, baseline."""
    check(warm["warm_hit_rate"] == 1.0, f"job warm_hit_rate {warm}")
    _status, text = front.request("GET", "/metrics")
    write_text(os.path.join(front.dir, "metrics.json"), text)
    metrics = json.loads(text)
    check(
        metrics["warm_hit_rate"] == 1.0,
        f"/metrics warm_hit_rate {metrics['warm_hit_rate']}",
    )
    check(
        metrics["jobs"]["done"] == 2 and metrics["jobs"]["failed"] == 0,
        f"/metrics job counts {metrics['jobs']}",
    )
    # The baseline falls back to the first record, so pin the second.
    status, text = front.request(
        "PUT", "/baseline", json.dumps({"selector": "1"})
    )
    check(
        status == 200 and json.loads(text)["seq"] == 1,
        f"PUT /baseline -> {status}: {text}",
    )
    _status, text = front.request("GET", "/runs/baseline")
    check(json.loads(text)["seq"] == 1, "baseline selector did not move")


def main() -> int:
    out_dir = sys.argv[1] if len(sys.argv) > 1 else "build/smoke"
    os.makedirs(out_dir, exist_ok=True)
    try:
        reference = run_study(WorldConfig.small(), workers=WORKERS)
        expected = headline(reference)

        front = CliFrontEnd(out_dir)
        fill_replay_diff(front, expected)
        check_trace(front, reference)
        check_partly_warm(front.cache, expected)

        service = ServeFrontEnd(out_dir)
        try:
            warm = fill_replay_diff(service, expected)
            check_service(service, warm)
        finally:
            stopped = service.stop()
        check(stopped, "repro serve: thread still alive 30 s after stop")
    except ReproError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    print(
        "OK: the reference headline held through cold, warm and partly "
        f"warm runs and both front-ends; artifacts in {out_dir}/"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
