"""Manifest assembly: turning a finished run into provenance.

The obs layer (:mod:`repro.obs.manifest`) defines *what* a manifest is;
this module knows *how to fill one in* from a live
:class:`~repro.runtime.engine.RunResult` — it is the only place where
the stage graph, the cache salts, the seed-derivation scheme and the
merged metrics registry meet.

Seed lineage deserves a note: the runtime never draws from the world's
root RNG directly.  Every random decision flows through named streams
derived with :func:`repro.util.rng.derive_seed` —
``runtime:ipmap-campaign``, ``runtime:sensitive`` and the per-shard
``runtime:<shard_key>`` streams — so the manifest can list the exact
child seeds a run consumed, making "which randomness produced this
number?" answerable after the fact.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional

from repro.obs.ledger import LEDGER_SCHEMA
from repro.obs.manifest import MANIFEST_SCHEMA
from repro.util.rng import derive_seed

#: the fixed runtime-level derivation streams (per-shard streams are
#: appended per run, keyed on the planned shard keys)
_FIXED_STREAMS = ("runtime:ipmap-campaign", "runtime:sensitive")


def seed_lineage(seed: int, shard_keys: List[str]) -> Dict[str, Any]:
    """Every derived child seed a run can draw from, by stream name."""
    streams: Dict[str, int] = {
        name: derive_seed(seed, name) for name in _FIXED_STREAMS
    }
    for shard_key in sorted(set(shard_keys)):
        name = f"runtime:{shard_key}"
        streams[name] = derive_seed(seed, name)
    return {"seed": seed, "streams": streams}


def build_manifest(
    result: Any,
    digest: str,
    salts: Mapping[str, str],
    footprints: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble a v1 manifest from a finished :class:`RunResult`.

    ``result`` carries the merged registry, the tracer and the per-stage
    :class:`StageMetrics`; ``digest``/``salts`` are the cache identity
    the run executed under.  ``footprints`` optionally maps stage names,
    and the world's key, to
    :class:`~repro.runtime.footprint.Footprint` records; when present
    the manifest gains a ``footprints`` section recording which modules
    each salt covered.  The v1 schema is open, so manifests without
    that section stay valid.
    The output validates against
    :func:`repro.obs.manifest.validate_manifest` by construction.
    """
    stages: List[Dict[str, Any]] = []
    all_shard_keys: List[str] = []
    for metrics in result.metrics.values():
        all_shard_keys.extend(metrics.shard_keys)
        stages.append({
            "stage": metrics.name,
            "shards": metrics.n_shards,
            "shard_keys": list(metrics.shard_keys),
            "cache_hits": metrics.cache_hits,
            "cache_misses": metrics.cache_misses,
            "wall_s": round(metrics.wall_s, 6),
            "records_in": dict(metrics.records_in),
            "records_out": dict(metrics.records_out),
        })
    manifest: Dict[str, Any] = {
        "schema": MANIFEST_SCHEMA,
        "config": {
            "digest": digest,
            "seed": result.config.seed,
            "preset_sizes": {
                "users": result.config.panel.n_users,
                "publishers": result.config.ecosystem.n_publishers,
            },
        },
        "workers": result.workers,
        "salts": dict(salts),
        "stages": stages,
        "metrics": result.registry.to_dict(),
        "spans": result.tracer.rows(),
        "seed_lineage": seed_lineage(result.config.seed, all_shard_keys),
    }
    if footprints:
        manifest["footprints"] = {
            name: {
                "salt": fp.salt,
                "stage_modules": list(fp.stage_modules),
                "modules": list(fp.modules),
            }
            for name, fp in sorted(footprints.items())
        }
    return manifest


def build_ledger_record(
    result: Any,
    digest: str,
    salts: Mapping[str, str],
    footprints: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble a run-kind ledger record from a finished run.

    Where the manifest is the *full* audit document of one run (spans,
    shard keys, seed lineage), the ledger record is the *comparable*
    subset that must line up across months of runs: config digest,
    effective salts, footprint salts, the registry snapshot, and
    per-stage timings / cache counts / metric ownership.  Identity
    fields (``seq``/``run_id``) are stamped by
    :func:`repro.obs.ledger.append_record` at append time.
    """
    stages: List[Dict[str, Any]] = []
    for metrics in result.metrics.values():
        stages.append({
            "stage": metrics.name,
            "shards": metrics.n_shards,
            "cache_hits": metrics.cache_hits,
            "cache_misses": metrics.cache_misses,
            "wall_s": round(metrics.wall_s, 6),
            "cpu_s": round(metrics.cpu_s, 6),
            "metric_keys": list(metrics.metric_keys),
        })
    record: Dict[str, Any] = {
        "schema": LEDGER_SCHEMA,
        "kind": "run",
        "config": {"digest": digest, "seed": result.config.seed},
        "workers": result.workers,
        "salts": dict(salts),
        "stages": stages,
        "metrics": result.registry.to_dict(),
        "world_build_s": round(result.world_build_s, 6),
    }
    if footprints:
        record["footprints"] = {
            name: fp.salt for name, fp in sorted(footprints.items())
        }
    return record
