"""The benchmark's program process; ``run.py`` starts it and reads its
last line.

A long-lived process, as ``repro serve`` is.  Set-up imports the program
and makes the workload's engine run once: for ``warm`` a full cold run
that fills a cache, for ``cold`` a run of the Table 2 sub-graph with the
cache off.  Either also builds the program model that cache salts come
from, and the world, which stay in memory for the operations.  The
kernel's peak-RSS mark is then reset, so ``rss_kib`` is the peak of the
operations alone.

Operations repeat until the measurement window closes.  Each is the
workload's engine run plus its headline numbers, the body of a serve
job.  While set-up and each operation run, :class:`HostSpeed` times
short passes of a fixed reference loop that read how fast the host runs
the process just then, and ``run.py`` scales their times by them.

With ``--trace 1`` the program's layers are hooked (``layers.py``) and
every engine run, set-up included, reports its self time per layer.
The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import re
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

SRC = Path(__file__).resolve().parents[1] / "src"

#: operations a run makes even when the measurement window is shorter
MIN_OPS = 5

#: workload -> (engine targets, whether the cache is on); ``()`` is the
#: whole stage graph, ``classification`` the panel and classification
#: stages behind Table 2
WORKLOADS: Dict[str, Tuple[Tuple[str, ...], bool]] = {
    "warm": ((), True),
    "cold": (("classification",), False),
}


def world_config() -> Any:
    """The benchmark world: the ``small`` preset at its default seed,
    the world ``repro run`` runs when given no options."""
    from repro import WorldConfig

    return WorldConfig.small()


def headline(run: Any, targets: Sequence[str]) -> Dict[str, Any]:
    """The numbers ``repro run --json`` prints, plus Fig. 7(a) and
    Table 5, as they read back from JSON; Table 2 alone for the Table 2
    sub-graph."""
    answer: Dict[str, Any] = {"table2": run.table2_counts()}
    if not targets:
        answer.update({
            "fig7a": run.eu28_destination_regions("MaxMind"),
            "fig7b": run.eu28_destination_regions("RIPE IPmap"),
            "sensitive": run.sensitive_summary(),
            "table5": [
                [row.scenario.name, row.n_flows, row.country_pct,
                 row.region_pct]
                for row in run.scenario_table()
            ],
        })
    return json.loads(json.dumps(answer, sort_keys=True))


#: entries one reference pass builds: about a millisecond of work
REFERENCE_ENTRIES = 3_000
#: how often the sampler times a reference pass while set-up or an
#: operation runs
SAMPLE_EVERY_S = 0.04


def reference_s() -> float:
    """Wall time of one pass of a fixed pure-Python loop (string keys,
    dict inserts, small tuples and lists, as the program's record paths
    make), with the collector off so the program's heap does not enter
    it.  The loop is part of the benchmark, never of the program."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table: Dict[str, Tuple[int, str, List[int]]] = {}
        for i in range(REFERENCE_ENTRIES):
            key = f"k{i}"
            table[key] = (i, key, [i, i + 1])
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


class HostSpeed:
    """Times a reference pass every ``SAMPLE_EVERY_S`` from a second
    thread while the ``with`` block runs.  The process is pinned to one
    vCPU (:func:`main`), so the passes run where the program runs; a
    pass holds the GIL for about a millisecond, well inside the
    interpreter's 5 ms switch interval, so the program waits while it
    runs."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self) -> None:
        while not self._stop.wait(SAMPLE_EVERY_S):
            self.samples.append(reference_s())

    def __enter__(self) -> "HostSpeed":
        self._thread.start()
        return self

    def __exit__(self, *exc: Any) -> None:
        self._stop.set()
        self._thread.join()

    def summary(self) -> Dict[str, float]:
        """``reference_s``, the harmonic mean of the passes (work done is
        wall time times mean speed, and speed is one over a pass's
        time), and ``sampled_s``, the passes' total time inside the
        block."""
        # a block shorter than one period is read by a pass after it
        passes = self.samples or [reference_s()]
        return {
            "reference_s": len(passes) / sum(1.0 / s for s in passes),
            "sampled_s": sum(self.samples),
        }


class Process:
    """The imported program, with the layer clock when tracing."""

    def __init__(self, trace: bool) -> None:
        sys.path.insert(0, str(SRC))
        start = time.perf_counter()
        import repro.cli  # noqa: F401  (``repro run`` imports the CLI)
        from repro.runtime import run_study

        self.import_s = time.perf_counter() - start
        self.clock: Optional[Any] = None
        self.missing_hooks: List[str] = []
        if trace:
            from layers import LayerClock, install

            self.clock = LayerClock()
            self.missing_hooks = install(self.clock)
        # looked up after the hooks are installed, so it is timed
        self.run_study = run_study

    def engine_run(
        self, cache_dir: Optional[str], targets: Tuple[str, ...]
    ) -> Dict[str, Any]:
        """One engine run and its headline numbers, with their wall time
        and, when tracing, the self time of each layer and the calls of
        each hooked callable."""
        if self.clock is not None:
            self.clock.reset()
        start = time.perf_counter()
        run = self.run_study(
            world_config(), workers=1, cache_dir=cache_dir, targets=targets
        )
        record = {
            "answer": headline(run, targets),
            "hits": run.cache_hits,
            "misses": run.cache_misses,
            "wall_s": time.perf_counter() - start,
        }
        if self.clock is not None:
            record["layers"] = dict(self.clock.self_s)
            record["calls"] = dict(self.clock.calls)
        return record


def _peak_rss_kib() -> int:
    with open("/proc/self/status") as status:
        return int(re.search(r"VmHWM:\s+(\d+)", status.read()).group(1))


def main(argv: Optional[List[str]] = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    # one vCPU for the program and the speed sampler alike: on a shared
    # host each vCPU has its own speed
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    targets, cached = WORKLOADS[args.workload]
    cache = str(Path(args.work_dir) / "cache") if cached else None

    start = time.perf_counter()
    with HostSpeed() as speed:
        process = Process(bool(args.trace))
        fill = process.engine_run(cache, targets)
    setup = {"wall_s": time.perf_counter() - start, **speed.summary()}
    with open("/proc/self/clear_refs", "w") as refs:
        refs.write("5")  # resets the peak-RSS mark (VmHWM)
    ops: List[Dict[str, Any]] = []
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline or len(ops) < MIN_OPS:
        # every operation starts from a fully collected heap, as in a
        # fresh interpreter: otherwise whether it pays for a full
        # collection depends on what ran before it
        gc.collect()
        with HostSpeed() as speed:
            record = process.engine_run(cache, targets)
        record.update(speed.summary())
        ops.append(record)
    print(json.dumps({
        "setup": setup,
        "import_s": process.import_s,
        "missing_hooks": process.missing_hooks,
        "rss_kib": _peak_rss_kib(),
        "fill": fill,
        "ops": ops,
    }, sort_keys=True))


if __name__ == "__main__":
    main()
