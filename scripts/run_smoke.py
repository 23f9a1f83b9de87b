#!/usr/bin/env python
"""End-to-end smoke test of the runtime engine.

Usage::

    python scripts/run_smoke.py [cache_dir]

Runs the full stage graph three times on the tiny ``small`` preset
through the sharded engine (2 workers):

1. cold: the run populates the artifact cache;
2. warm: every stage must replay from it, executing no shard;
3. partly warm: with everything under ``<cache>/localization/``
   removed, localization must execute all its shards and every other
   stage must hit.  Localization's shards run on the fork path, so the
   parent decodes the classification, inventory and geolocation bodies
   before its pool starts.

Exits non-zero if the warm or partly warm run disagrees with the cold
run on the headline numbers (Table 2, Fig. 7, Sect. 6, Table 5) or
executes the wrong shards.  ``make run-smoke`` wires this into CI.
"""

import os
import shutil
import sys
import tempfile
from typing import List

from repro import WorldConfig
from repro.runtime import run_study

#: the stage the partly warm run finds missing from the cache
MISSING_STAGE = "localization"


def headline(run):
    return (
        run.table2_counts(),
        run.eu28_destination_regions(),
        run.sensitive_summary(),
        [
            (row.scenario.name, row.n_flows, row.country_pct, row.region_pct)
            for row in run.scenario_table()
        ],
    )


def shard_errors(run, executing: str = "") -> List[str]:
    """Stages that executed other than all (``executing``) or none of
    their shards."""
    errors = []
    for name, stage in run.result.metrics.items():
        expected = stage.n_shards if name == executing else 0
        if stage.executed_shards != expected:
            errors.append(
                f"{name} executed {stage.executed_shards} of "
                f"{stage.n_shards} shard(s), expected {expected}"
            )
    return errors


def main() -> int:
    with tempfile.TemporaryDirectory() as fallback:
        cache_dir = sys.argv[1] if len(sys.argv) > 1 else fallback
        config = WorldConfig.small()

        cold = run_study(config, workers=2, cache_dir=cache_dir)
        print("cold run:")
        print(cold.metrics_report())
        warm = run_study(config, workers=2, cache_dir=cache_dir)
        print("warm run:")
        print(warm.metrics_report())
        shutil.rmtree(os.path.join(cache_dir, MISSING_STAGE))
        partly = run_study(config, workers=2, cache_dir=cache_dir)
        print(f"partly warm run, {MISSING_STAGE} removed:")
        print(partly.metrics_report())

        if warm.cache_hits < 1:
            print("FAIL: warm run had no cache hits", file=sys.stderr)
            return 1
        failures = [f"warm run: {e}" for e in shard_errors(warm)] + [
            f"partly warm run: {e}"
            for e in shard_errors(partly, MISSING_STAGE)
        ]
        expected = headline(cold)
        for label, run in (("warm", warm), ("partly warm", partly)):
            if headline(run) != expected:
                failures.append(f"{label} run changed the headline numbers")
        if failures:
            for failure in failures:
                print(f"FAIL: {failure}", file=sys.stderr)
            return 1
    print(
        f"OK: warm run replayed all {warm.cache_hits} shards from cache, "
        f"the partly warm run re-executed {partly.cache_misses} "
        f"{MISSING_STAGE} shards, both with identical headline numbers"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
