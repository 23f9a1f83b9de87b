"""Regression diffing between ledger records.

Two runs of the pipeline disagree on a metric for exactly one of three
reasons, and the diff engine names which:

* **config-driven** — the runs executed different configs (different
  ``config.digest``): every delta is expected and attributed to the
  config change;
* **code-driven** — the configs agree but some stage **footprint
  salts** (PR 4's module-closure digests) changed between the records:
  a delta is attributed to the owning stage(s) whose *effective* salt
  changed, with the footprint-changed stages listed as the cause;
* **unexplained drift** — same config, same salts, different value:
  the red flag.  A deterministic pipeline must never produce one; any
  occurrence is a nondeterminism bug (and ``make smoke`` gates CI on
  exactly this being empty).

Cache-behaviour counters (hits/misses/executed/corrupt) legitimately
differ between a cold and a warm run of identical code, so they get
their own ``cache`` class and can never count as drift; the wall-time
and throughput gauges of ``kind="bench"`` records classify as
``timing``.  Stage wall/CPU timings are reported separately — timing is
never drift.

Metric ownership comes from the records themselves: each run record's
stage entries list the metric keys its shards touched, so attribution
needs no hand-maintained metric→stage table and automatically covers
future metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.obs.metrics import base_name
from repro.obs.names import (
    RUNTIME_CACHE_CORRUPT,
    RUNTIME_CACHE_HITS,
    RUNTIME_CACHE_MISSES,
    RUNTIME_SHARDS_EXECUTED,
)

#: metric base names that vary between cold and warm runs by design
CACHE_VARIABLE_METRICS = frozenset({
    RUNTIME_CACHE_HITS,
    RUNTIME_CACHE_MISSES,
    RUNTIME_CACHE_CORRUPT,
    RUNTIME_SHARDS_EXECUTED,
})

#: metric name prefixes that carry wall-time or throughput statistics
#: (never drift).  Nothing writes any of them any more, but the ledger
#: is append-only history: records appended before the sampling
#: profiler was removed carry ``profile.self_s`` gauges, and ``bench``
#: records appended before the scripts that folded benchmark timings
#: and serve throughput into the ledger were removed carry
#: ``bench.time_s``, ``lint.time_s`` and ``serve.requests_per_s`` gauges
TIMING_METRIC_PREFIXES = (
    "bench.", "lint.", "profile.", "serve.requests_per_s",
)

#: classification labels, in report order
CLASSIFICATIONS = ("config", "code", "cache", "timing", "drift")


def _stage_label(key: str) -> Optional[str]:
    """The ``stage=...`` label value of a metric key, if it has one."""
    brace = key.find("{")
    if brace < 0:
        return None
    for part in key[brace + 1:-1].split(","):
        label, _, value = part.partition("=")
        if label == "stage":
            return value
    return None


@dataclass
class MetricDelta:
    """One metric whose value differs between the two records."""

    key: str
    a: Any
    b: Any
    classification: str
    stages: Tuple[str, ...] = ()
    caused_by: Tuple[str, ...] = ()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "key": self.key,
            "a": self.a,
            "b": self.b,
            "classification": self.classification,
            "stages": list(self.stages),
            "caused_by": list(self.caused_by),
        }


@dataclass
class LedgerDiff:
    """The classified difference between two ledger records."""

    run_a: str
    run_b: str
    digest_a: str
    digest_b: str
    config_changed: bool
    workers_changed: bool
    changed_salts: Tuple[str, ...]
    changed_footprints: Tuple[str, ...]
    deltas: List[MetricDelta] = field(default_factory=list)
    timings: List[Dict[str, Any]] = field(default_factory=list)
    unchanged: int = 0

    def unexplained(self) -> List[MetricDelta]:
        """The drift deltas — must be empty for a deterministic pipeline."""
        return [d for d in self.deltas if d.classification == "drift"]

    def counts(self) -> Dict[str, int]:
        """Delta count per classification (zero-filled)."""
        counts = {name: 0 for name in CLASSIFICATIONS}
        for delta in self.deltas:
            counts[delta.classification] += 1
        return counts

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able report (what ``repro obs diff --json`` emits)."""
        return {
            "schema": "repro.obs/diff/v1",
            "run_a": self.run_a,
            "run_b": self.run_b,
            "config": {
                "digest_a": self.digest_a,
                "digest_b": self.digest_b,
                "changed": self.config_changed,
            },
            "workers_changed": self.workers_changed,
            "changed_salts": list(self.changed_salts),
            "changed_footprints": list(self.changed_footprints),
            "counts": self.counts(),
            "deltas": [delta.to_dict() for delta in self.deltas],
            "unexplained": [
                delta.to_dict() for delta in self.unexplained()
            ],
            "timings": list(self.timings),
            "unchanged": self.unchanged,
        }


def _metric_owners(record: Mapping[str, Any]) -> Dict[str, List[str]]:
    """metric key -> stages whose shards touched it, from one record."""
    owners: Dict[str, List[str]] = {}
    for stage in record.get("stages", ()):
        for key in stage.get("metric_keys", ()):
            owners.setdefault(key, []).append(stage["stage"])
    return owners


def _changed_keys(
    a: Mapping[str, Any], b: Mapping[str, Any]
) -> Tuple[str, ...]:
    """Keys present in either mapping whose values differ (or are
    missing on one side)."""
    return tuple(
        key for key in sorted(set(a) | set(b)) if a.get(key) != b.get(key)
    )


def diff_records(
    record_a: Mapping[str, Any], record_b: Mapping[str, Any]
) -> LedgerDiff:
    """Classify every metric delta between two ledger records.

    Both records must share the ledger schema; ``bench`` records diff
    fine (they just have no stages or salts, so any non-timing delta
    would surface as drift).
    """
    digest_a = record_a.get("config", {}).get("digest", "")
    digest_b = record_b.get("config", {}).get("digest", "")
    config_changed = digest_a != digest_b
    workers_changed = record_a.get("workers") != record_b.get("workers")
    changed_salts = _changed_keys(
        record_a.get("salts", {}), record_b.get("salts", {})
    )
    changed_footprints = _changed_keys(
        record_a.get("footprints", {}), record_b.get("footprints", {})
    )
    # Effective salts fold dependencies, so footprint changes surface in
    # changed_salts too; when footprints were never recorded, attribute
    # causes to the effective-salt changes themselves.
    causes = changed_footprints if changed_footprints else changed_salts

    owners_a = _metric_owners(record_a)
    owners_b = _metric_owners(record_b)
    metrics_a = record_a.get("metrics", {})
    metrics_b = record_b.get("metrics", {})

    diff = LedgerDiff(
        run_a=record_a.get("run_id", "?"),
        run_b=record_b.get("run_id", "?"),
        digest_a=digest_a,
        digest_b=digest_b,
        config_changed=config_changed,
        workers_changed=workers_changed,
        changed_salts=changed_salts,
        changed_footprints=changed_footprints,
    )
    changed_salt_set = set(changed_salts)
    for key in sorted(set(metrics_a) | set(metrics_b)):
        value_a = metrics_a.get(key)
        value_b = metrics_b.get(key)
        if value_a == value_b:
            diff.unchanged += 1
            continue
        base = base_name(key)
        owners = sorted(set(owners_a.get(key, [])) | set(owners_b.get(key, [])))
        stage_label = _stage_label(key)
        if stage_label is not None and base.startswith("runtime."):
            owners = [stage_label]
        if config_changed:
            classification, stages, caused_by = "config", tuple(owners), ()
        elif base in CACHE_VARIABLE_METRICS:
            classification, stages, caused_by = "cache", tuple(owners), ()
        elif base.startswith(TIMING_METRIC_PREFIXES):
            classification, stages, caused_by = "timing", (), ()
        elif changed_salt_set and (
            not owners or changed_salt_set.intersection(owners)
        ):
            # Code change: attribute to the owning stages whose salt
            # moved; a metric with no recorded owner is conservatively
            # attributed to the code change rather than flagged.
            stages = tuple(
                stage for stage in owners if stage in changed_salt_set
            ) or tuple(owners)
            classification, caused_by = "code", tuple(causes)
        else:
            classification, stages, caused_by = "drift", tuple(owners), ()
        diff.deltas.append(MetricDelta(
            key=key,
            a=value_a,
            b=value_b,
            classification=classification,
            stages=stages,
            caused_by=caused_by,
        ))

    stages_a = {s["stage"]: s for s in record_a.get("stages", ())}
    stages_b = {s["stage"]: s for s in record_b.get("stages", ())}
    for name in sorted(set(stages_a) | set(stages_b)):
        entry_a = stages_a.get(name, {})
        entry_b = stages_b.get(name, {})
        wall_a = float(entry_a.get("wall_s", 0.0))
        wall_b = float(entry_b.get("wall_s", 0.0))
        diff.timings.append({
            "stage": name,
            "wall_a_s": wall_a,
            "wall_b_s": wall_b,
            "wall_delta_pct": round(
                100.0 * (wall_b - wall_a) / wall_a, 2
            ) if wall_a > 0 else None,
            "cpu_a_s": float(entry_a.get("cpu_s", 0.0)),
            "cpu_b_s": float(entry_b.get("cpu_s", 0.0)),
        })
    return diff


def _summarize(entry: Any) -> str:
    """A compact rendering of one metric snapshot entry for the text
    report (entries are ``{"kind": ..., "value": ...}``)."""
    if entry is None:
        return "(absent)"
    if isinstance(entry, Mapping):
        value = entry.get("value")
        if isinstance(value, Mapping):  # histogram payload
            return (
                f"hist(n={value.get('count')}, total={value.get('total')})"
            )
        return str(value)
    return str(entry)


def render_diff_text(diff: LedgerDiff) -> str:
    """Human-readable diff report (what ``repro obs diff`` prints)."""
    lines = [f"ledger diff: {diff.run_a} -> {diff.run_b}"]
    if diff.config_changed:
        lines.append(
            f"  config changed: {diff.digest_a[:12]} -> {diff.digest_b[:12]}"
        )
    else:
        lines.append(f"  config unchanged ({diff.digest_a[:12]})")
    if diff.workers_changed:
        lines.append("  workers changed (metrics must still agree)")
    if diff.changed_footprints:
        lines.append(
            "  changed footprints: " + ", ".join(diff.changed_footprints)
        )
    if diff.changed_salts:
        lines.append(
            "  changed effective salts: " + ", ".join(diff.changed_salts)
        )
    counts = diff.counts()
    lines.append(
        "  deltas: " + ", ".join(
            f"{name}={counts[name]}" for name in CLASSIFICATIONS
        ) + f", unchanged={diff.unchanged}"
    )
    for delta in diff.deltas:
        attribution = ""
        if delta.stages:
            attribution = f" [{','.join(delta.stages)}]"
        if delta.caused_by:
            attribution += f" <- {','.join(delta.caused_by)}"
        lines.append(
            f"    {delta.classification:<6} {delta.key}: "
            f"{_summarize(delta.a)} -> {_summarize(delta.b)}{attribution}"
        )
    drift = diff.unexplained()
    if drift:
        lines.append(
            f"  UNEXPLAINED DRIFT in {len(drift)} metric(s) — "
            "same config, same code, different values"
        )
    else:
        lines.append("  no unexplained drift")
    return "\n".join(lines)
