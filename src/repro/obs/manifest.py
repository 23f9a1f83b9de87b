"""Per-run provenance manifests.

A manifest is one JSON document answering, for a finished pipeline run:
*what configuration ran, under which code, over which shards, producing
how many records, with what cache behaviour.*
It is the auditable hand-off artifact between a run and whoever reads
its numbers — every run keeps its manifest in memory, and ``repro run
--trace`` writes it atomically (temp file + ``os.replace``) wherever
that flag points.

This module owns the **schema** (:data:`MANIFEST_SCHEMA`), the
**validator** (:func:`validate_manifest`, used by tests and the
``make smoke`` CI gate) and the **atomic writer/loader**.  The
*assembly* of a manifest from a live run belongs to the runtime layer
(:mod:`repro.runtime.provenance`), which knows the stage graph; this
module stays import-free of it.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Mapping, Union

from repro.errors import ObservabilityError
from repro.obs.persist import atomic_write_json

#: schema identifier stamped into (and required of) every manifest
MANIFEST_SCHEMA = "repro.obs/manifest/v1"

#: required top-level fields and their types
_TOP_FIELDS: Dict[str, type] = {
    "schema": str,
    "config": dict,
    "workers": int,
    "salts": dict,
    "stages": list,
    "metrics": dict,
    "spans": list,
}

#: required per-stage fields and their types
_STAGE_FIELDS: Dict[str, Any] = {
    "stage": str,
    "shards": int,
    "cache_hits": int,
    "cache_misses": int,
    "wall_s": (int, float),
    "records_in": dict,
    "records_out": dict,
    "shard_keys": list,
}

PathLike = Union[str, "os.PathLike[str]"]


def validate_manifest(payload: Mapping[str, Any]) -> None:
    """Check a manifest against the v1 schema; raise on any violation.

    Extra keys are allowed everywhere (the schema is open for forward
    compatibility); missing or mistyped required keys are not.
    """
    if not isinstance(payload, Mapping):
        raise ObservabilityError(
            f"manifest must be a mapping, got {type(payload).__name__}"
        )
    for key, expected in sorted(_TOP_FIELDS.items()):
        if key not in payload:
            raise ObservabilityError(f"manifest is missing {key!r}")
        if not isinstance(payload[key], expected):
            raise ObservabilityError(
                f"manifest field {key!r} must be {expected.__name__}, "
                f"got {type(payload[key]).__name__}"
            )
    if payload["schema"] != MANIFEST_SCHEMA:
        raise ObservabilityError(
            f"unsupported manifest schema {payload['schema']!r} "
            f"(expected {MANIFEST_SCHEMA!r})"
        )
    config = payload["config"]
    for key in ("digest", "seed"):
        if key not in config:
            raise ObservabilityError(f"manifest config is missing {key!r}")
    for position, stage in enumerate(payload["stages"]):
        if not isinstance(stage, Mapping):
            raise ObservabilityError(
                f"manifest stage #{position} must be a mapping"
            )
        for key, expected in sorted(_STAGE_FIELDS.items()):
            if key not in stage:
                raise ObservabilityError(
                    f"manifest stage #{position} is missing {key!r}"
                )
            if not isinstance(stage[key], expected):
                name = getattr(expected, "__name__", "number")
                raise ObservabilityError(
                    f"manifest stage #{position} field {key!r} must be "
                    f"{name}, got {type(stage[key]).__name__}"
                )
        if stage["cache_hits"] + stage["cache_misses"] != stage["shards"]:
            raise ObservabilityError(
                f"manifest stage {stage['stage']!r}: hits + misses "
                f"({stage['cache_hits']} + {stage['cache_misses']}) "
                f"!= shards ({stage['shards']})"
            )


def write_manifest(payload: Mapping[str, Any], path: PathLike) -> None:
    """Validate ``payload`` and write it atomically as JSON.

    The write goes through a ``.tmp.<pid>`` sibling and ``os.replace``
    (:func:`repro.obs.persist.atomic_write_json`), mirroring the
    artifact cache's discipline: a crashed run can never leave a
    truncated manifest where a complete one is expected.
    """
    validate_manifest(payload)
    atomic_write_json(payload, path)


def load_manifest(path: PathLike) -> Dict[str, Any]:
    """Load and validate a manifest written by :func:`write_manifest`."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError) as exc:
        raise ObservabilityError(
            f"cannot read manifest {os.fspath(path)!r}: {exc}"
        ) from exc
    validate_manifest(payload)
    return payload
