"""Study benchmark: repeated engine runs in one long-lived process, warm
over a filled cache or cold with the cache off, scaled by the host's
speed sampled while they run, with a layer breakdown timed from outside
the program.

Run from the repository root::

    python3 perfbench/run.py --workload warm --seed 1 --seconds 30 --trace 0

The world is the ``small`` preset at its default seed: what ``repro
run`` runs when given no options.  ``--seed`` does not change it, because
``small`` worlds at other seeds differ in size (32.5K to 39.3K panel
requests over six seeds), so the run-to-run spread would measure the
worlds rather than the program.  Operations repeat until ``--seconds``
have passed, at least ``child.MIN_OPS`` of them.

Workloads, and why each is here (``child.py`` runs both):

``warm``
    Set-up imports the program and makes a cold run of the whole stage
    graph that fills a cache, as a user's first ``repro run --cache-dir``
    does.  Each operation re-runs the config against that cache, the
    body of a ``repro serve`` job: every shard is a hit, and import,
    program model and world were paid once, so what remains is cache
    reads, merges, manifest, ledger and report.
``cold``
    The cache is off, so every shard of the panel and classification
    stages (the sub-graph behind Table 2) executes on each operation:
    browsing simulation and tracker classification.  Set-up imports the
    program and makes one such run, which also builds the program model
    and the world.

Scaling: on a shared host each vCPU moves between speeds up to 1.8x
apart every few seconds, and which speed a run meets is not the
program's doing.  ``child.py`` pins the program to one vCPU and, while
set-up and each operation run, times a one-millisecond pass of a fixed
reference loop every 40 ms on that vCPU.  Each time is reported as it
would be on a host where a pass takes ``REFERENCE_S``: wall time less
the passes, times ``REFERENCE_S`` over the passes' harmonic mean.  Over
five runs on a 2-vCPU Xeon VM, an operation's wall time and its passes'
mean moved together (correlation 0.99 in log-log, slope 1.06), and the
runs' median latency spread (IQR/median) fell from 0.29 unscaled to 0.03.
The unscaled times go to stderr.

Correctness: the set-up run must execute every shard, every operation
must hit the cache on every shard (``warm``) or execute every shard
(``cold``) and reproduce the set-up run's answer exactly (Table 2, and
for ``warm`` also Fig. 7(a)/(b), Sect. 6, Table 5), and Fig. 7 shares
must sum to 100%.  A traced run also fails when a layer hook found no
target.

The last stdout line is one JSON object ``{correct, attempted, failed,
metrics}``.  ``--trace 0`` reports ``latency_s`` (median operation),
``peak_rss_mib`` (peak resident set of the operations, set-up excluded)
and ``setup_s`` (import plus the set-up run); ``--trace 1`` reports, for
the operations (median) and for set-up (``setup_`` prefix), each layer's
self time (``layers.py``) and the wall time outside every layer
(``unaccounted_s``), all scaled alike, plus the operations' cache
counters and world builds.  ``import_s`` is the process's one import,
part of set-up.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from child import WORKLOADS
from layers import LAYERS

ROOT = Path(__file__).resolve().parents[1]
CHILD = Path(__file__).resolve().parent / "child.py"
WORK_ROOT = ROOT / ".perfbench_work"

#: a reference pass's time on a quiet host (Xeon vCPU, Python 3.11);
#: operations are reported as they would take there
REFERENCE_S = 0.001
#: the longest the program process may take before the run fails
CHILD_TIMEOUT_S = 170.0


class BenchmarkError(Exception):
    """The program process failed; the run has no result."""


def _child(args: argparse.Namespace, work: Path) -> Dict[str, Any]:
    """Run ``child.py`` to completion; return its output."""
    command = [
        sys.executable, str(CHILD), "--workload", args.workload,
        "--trace", str(args.trace), "--work-dir", str(work),
        "--seconds", str(args.seconds),
    ]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise BenchmarkError(
            f"child exited {done.returncode}:\n{done.stderr[-4000:]}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


class Checks:
    """Collects failed correctness checks."""

    def __init__(self) -> None:
        self.failures: List[str] = []

    def expect(self, condition: bool, message: str) -> None:
        if not condition:
            self.failures.append(message)
            print(f"perfbench: check failed: {message}", file=sys.stderr)


def _shares_ok(shares: Dict[str, float]) -> bool:
    return bool(shares) and abs(sum(shares.values()) - 100.0) < 1e-6


def _check_fill(checks: Checks, fill: Dict[str, Any]) -> None:
    """The set-up run must have executed every shard."""
    answer = fill["answer"]
    checks.expect(
        fill["hits"] == 0 and fill["misses"] > 0, "set-up run hit the cache"
    )
    checks.expect(bool(answer["table2"]), "Table 2 is empty")
    if "fig7a" in answer:
        checks.expect(
            _shares_ok(answer["fig7a"]) and _shares_ok(answer["fig7b"]),
            "Fig. 7 shares do not sum to 100%",
        )


def _check_op(
    checks: Checks, record: Dict[str, Any], fill: Dict[str, Any],
    cached: bool,
) -> bool:
    """Check one operation against the set-up run; True when every
    check passed."""
    before = len(checks.failures)
    checks.expect(
        record["answer"] == fill["answer"],
        "answer differs from the set-up run's",
    )
    shards = fill["misses"]
    checks.expect(
        (record["hits"], record["misses"])
        == ((shards, 0) if cached else (0, shards)),
        "warm run missed the cache" if cached
        else "cold run did not execute every shard",
    )
    return len(checks.failures) == before


def _metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def _median(
    ops: List[Dict[str, Any]], value: Callable[[Dict[str, Any]], float]
) -> float:
    return statistics.median(value(op) for op in ops)


def _scale(timed: Dict[str, Any]) -> float:
    """The factor from a span's wall time to its time on the reference
    host with the sampler's passes left out (``child.HostSpeed``)."""
    return (
        (1.0 - timed["sampled_s"] / timed["wall_s"])
        * REFERENCE_S / timed["reference_s"]
    )


def _scaled_s(timed: Dict[str, Any]) -> float:
    return timed["wall_s"] * _scale(timed)


def _end_to_end(out: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "latency_s": _metric(_median(out["ops"], _scaled_s), "s"),
        "peak_rss_mib": _metric(out["rss_kib"] / 1024.0, "MiB"),
        "setup_s": _metric(_scaled_s(out["setup"]), "s"),
    }


def _layer_times(
    records: List[Dict[str, Any]], prefix: str
) -> Dict[str, Any]:
    """Median over ``records`` of each layer's self time and of the
    time outside every layer."""
    metrics = {
        f"{prefix}{layer}_s": _metric(
            _median(records, lambda r: r["layers"].get(layer, 0.0)), "s"
        )
        for layer in LAYERS
    }
    metrics[f"{prefix}unaccounted_s"] = _metric(
        _median(records, lambda r: r["unaccounted_s"]), "s"
    )
    return metrics


def _per_layer(out: Dict[str, Any]) -> Dict[str, Any]:
    ops, fill, setup = out["ops"], out["fill"], out["setup"]
    # the set-up run's passes are set-up's, which also holds the import
    for record, timed in [(fill, setup)] + [(op, op) for op in ops]:
        scale = _scale(timed)
        layers = record["layers"]
        record["unaccounted_s"] = (
            record["wall_s"] - sum(layers.values())
        ) * scale
        record["layers"] = {
            layer: self_s * scale for layer, self_s in layers.items()
        }
        # the process imported once, at the start of set-up
        record["layers"]["import"] = out["import_s"] * _scale(setup)
    return {
        **_layer_times(ops, ""),
        "cache_hits": _metric(_median(ops, lambda op: op["hits"]), "count"),
        "cache_misses": _metric(
            _median(ops, lambda op: op["misses"]), "count"
        ),
        "world_builds": _metric(
            _median(ops, lambda op: op["calls"].get("build_world", 0)),
            "count",
        ),
        **_layer_times([fill], "setup_"),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2

    work = WORK_ROOT / f"{args.workload}-{args.seed}-{time.time_ns()}"
    work.mkdir(parents=True)
    try:
        out = _child(args, work)
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it, or it is already gone
    checks = Checks()
    fill, ops = out["fill"], out["ops"]
    _check_fill(checks, fill)
    cached = WORKLOADS[args.workload][1]
    for record in ops:
        record["ok"] = _check_op(checks, record, fill, cached)
    if args.trace:
        checks.expect(
            not out["missing_hooks"],
            f"layer hooks found no target: {out['missing_hooks']}",
        )
    unscaled = [
        [round(timed["wall_s"] - timed["sampled_s"], 4),
         round(timed["reference_s"] * 1e3, 4)]
        for timed in [out["setup"]] + ops
    ]
    print(
        f"perfbench: {args.workload}: unscaled [wall s less passes, "
        f"pass ms] of set-up, then of each operation: "
        f"{json.dumps(unscaled)}",
        file=sys.stderr,
    )
    metrics = _per_layer(out) if args.trace else _end_to_end(out)
    print(json.dumps({
        "correct": not checks.failures,
        "attempted": len(ops),
        "failed": sum(not op["ok"] for op in ops),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
