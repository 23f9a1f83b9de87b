#!/usr/bin/env python
"""End-to-end smoke test of the engine, its observers and the CLI.

Usage::

    python scripts/smoke.py [out_dir]

Every run executes the ``small`` preset with 2 workers.  An untraced,
uncached engine run goes first: it is the reference whose Table 2,
Fig. 7(b), Sect. 6 and Table 5 every later run must reproduce.  Then
one cold fill -> warm replay -> ledger diff sequence is driven through
``repro run`` and ``repro obs`` (the CLI entry point, in this process,
so the real flag paths are exercised) over a fresh cache: the cold run
writes the provenance manifest (``--trace``), both runs export Chrome
trace events (``--trace-events``), and ``repro obs diff latest~1
latest --out`` writes the diff.

Both runs succeed and append exactly two ledger records, the cold run
misses the cache, the warm run misses nothing, both report the
reference's headline numbers, and the diff holds no unexplained delta,
no config change and at least one cache delta.  ``repro obs baseline
1`` pins the baseline, and ``repro obs show baseline`` must print seq
1.  The smoke also checks the manifest (nine stages in graph order,
each with a ``stage:<name>`` span and record counts), that the
reference's metrics equal the manifest's (tracing is an observer,
never a participant), both trace exports, and worker stage spans on at
least two pid tracks; over the same cache an in-process warm run
executes no shard, and it and its headline load no cache file outside
``index/``; with ``<cache>/localization/`` removed, a partly warm run
executes exactly localization's shards.  Both give the reference's
headline.

Artifacts land in ``out_dir`` (default ``build/smoke``), under
``run/``: the ledger (``cache/ledger.jsonl``), ``diff.json``,
``manifest.json`` and ``events-{cold,warm}.json``.  ``run/`` is emptied
first, so a rerun starts cold again; ``out_dir`` itself is never
removed.  Exits 1 on the first failed check.  ``make smoke`` wires this
into CI.
"""

import contextlib
import io
import json
import os
import shutil
import sys

from repro import WorldConfig
from repro.cli import main as cli_main
from repro.errors import ReproError
from repro.obs.export import load_trace_events
from repro.obs.ledger import ledger_path, load_ledger
from repro.obs.manifest import load_manifest
from repro.runtime import ArtifactCache, run_study
from repro.runtime.cache import INDEX_DIR
from repro.runtime.stages import STAGE_NAMES

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
    """One engine run's answer, keyed as ``repro run --json`` keys it."""
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


def events_path(run_dir, label):
    return os.path.join(run_dir, f"events-{label}.json")


def cli_run(run_dir, label):
    """One ``repro run --json`` over ``<run_dir>/cache``."""
    argv = [
        "--preset", "small", "run",
        "--workers", str(WORKERS),
        "--cache-dir", os.path.join(run_dir, "cache"),
        "--trace-events", events_path(run_dir, label),
        "--json",
    ]
    if label == "cold":
        argv += ["--trace", os.path.join(run_dir, "manifest.json")]
    status, stdout = cli(argv)
    check(status == 0, f"repro run: {label} run exited {status}")
    return json.loads(stdout)


def fill_replay_diff(run_dir, expected):
    """Cold fill, warm replay and ledger diff through ``repro run`` and
    ``repro obs``."""
    cache = os.path.join(run_dir, "cache")
    results = {label: cli_run(run_dir, label) for label in ("cold", "warm")}
    cold, warm = results["cold"], results["warm"]
    print(
        f"repro run: cold {cold['cache_misses']} misses, "
        f"warm {warm['cache_hits']} hits"
    )
    check(cold["cache_misses"] > 0, "repro run: cold run missed nothing")
    check(
        warm["cache_misses"] == 0 and warm["cache_hits"] > 0,
        f"repro run: warm run hit {warm['cache_hits']} and missed "
        f"{warm['cache_misses']} shard(s)",
    )
    for label, result in results.items():
        got = {
            key: result[key]
            for key in ("table2", "eu28_destination_regions", "sensitive")
        }
        check(
            canonical(got) == canonical({key: expected[key] for key in got}),
            f"repro run: {label} run changed the headline numbers",
        )
    seqs = [record["seq"] for record in load_ledger(ledger_path(cache))]
    check(seqs == [0, 1], f"repro run: ledger holds records {seqs}")

    path = os.path.join(run_dir, "diff.json")
    status, _ = cli([
        "obs", "--cache-dir", cache,
        "diff", "latest~1", "latest", "--out", path,
    ])
    check(status == 0, f"repro obs diff exited {status}")
    with open(path, "r", encoding="utf-8") as handle:
        diff = json.load(handle)
    unexplained = [delta["key"] for delta in diff["unexplained"]]
    check(not unexplained, f"repro obs diff: unexplained drift {unexplained}")
    check(
        not diff["config"]["changed"],
        "repro obs diff: identical configs reported as changed",
    )
    check(diff["counts"]["cache"] > 0, "repro obs diff: no cache deltas")


def check_baseline(cache):
    """Pin the baseline through ``repro obs`` and read it back."""
    # The baseline falls back to the first record, so pin the second.
    status, _ = cli(["obs", "--cache-dir", cache, "baseline", "1"])
    check(status == 0, f"repro obs baseline 1 exited {status}")
    status, stdout = cli(["obs", "--cache-dir", cache, "show", "baseline"])
    check(status == 0, f"repro obs show baseline exited {status}")
    seq = json.loads(stdout)["seq"]
    check(seq == 1, f"repro obs show baseline printed seq {seq}, want 1")


def check_trace(run_dir, reference):
    """The ``repro run`` observers: manifest, metrics, trace exports."""
    # load_manifest validates the schema.
    manifest = load_manifest(os.path.join(run_dir, "manifest.json"))
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
        events[label] = load_trace_events(
            events_path(run_dir, label)
        )["traceEvents"]
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


@contextlib.contextmanager
def shard_loads():
    """The shard files (``<stage>/<key>.pkl``, outside ``index/``) the
    cache loads while the block runs."""
    loaded = []
    load = ArtifactCache.load

    def recording(cache, stage, key, index=False):
        if not index:
            loaded.append(os.path.join(stage, f"{key}.pkl"))
        return load(cache, stage, key, index)

    ArtifactCache.load = recording
    try:
        yield loaded
    finally:
        ArtifactCache.load = load


def check_partly_warm(cache, expected):
    """A warm and a partly warm in-process run over a filled cache."""
    config = WorldConfig.small()
    with shard_loads() as loaded:
        warm = run_study(config, workers=WORKERS, cache_dir=cache)
        headline(warm)
    check(
        not loaded,
        f"warm run: its headline loaded {len(loaded)} file(s) outside "
        f"{INDEX_DIR}/, first {loaded[:1]}",
    )
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


def main() -> int:
    out_dir = sys.argv[1] if len(sys.argv) > 1 else "build/smoke"
    run_dir = os.path.join(out_dir, "run")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    cache = os.path.join(run_dir, "cache")
    try:
        reference = run_study(WorldConfig.small(), workers=WORKERS)
        expected = headline(reference)

        fill_replay_diff(run_dir, expected)
        check_baseline(cache)
        check_trace(run_dir, reference)
        check_partly_warm(cache, expected)
    except ReproError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    print(
        "OK: the reference headline held through cold, warm and partly "
        f"warm runs; artifacts in {out_dir}/"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
