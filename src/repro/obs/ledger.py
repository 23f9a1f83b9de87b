"""The run ledger: an append-only history of engine runs.

PR 3's spans/metrics/manifests describe *one* run and evaporate with
the process; the paper's longitudinal claims (Tables 2/5/8, Figure 7
over months of snapshots) need the runs themselves to accumulate.  The
ledger is that accumulation point: a JSONL journal
(``<cache_dir>/ledger.jsonl``, schema :data:`LEDGER_SCHEMA`) where
every ``run_study`` invocation appends one record carrying

* the **config digest** and seed the run executed under,
* the **effective per-stage salts** and **footprint salts** (digests
  of the code each stage, and the world, can run) — the evidence the
  diff engine uses to attribute metric deltas to code changes,
* the full **metrics-registry snapshot** (worker-count invariant, so
  two records are comparable regardless of how they were sharded),
* per-stage **wall/CPU timings**, **cache hit/miss counts** and the
  **metric keys** each stage's shards touched (the ownership map the
  diff engine attributes domain metrics with).

Records are identified by a deterministic ``run_id`` — a content hash
of the record plus its sequence number (no wall clock, no randomness)
— so a record can be named unambiguously months later and the same
ledger always reproduces the same ids.  Appends are single-write
(:mod:`repro.obs.persist`) and drop a killed writer's torn tail first;
loading is strict: a corrupt or truncated line raises
:class:`~repro.errors.ObservabilityError` with the line number, never a
raw ``json.JSONDecodeError``.

Besides run records the ledger accepts ``kind="bench"`` records: no
tool writes them any more, but ledgers that hold them (benchmark
timings and serve throughput folded in by since-removed scripts) keep
loading, listing and diffing, their gauges classified as timing.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from typing import Any, Dict, List, Mapping, Optional, Union

from repro.errors import ObservabilityError
from repro.obs.persist import (
    append_jsonl_line,
    atomic_write_json,
    exclusive_lock,
    last_jsonl_record,
    read_jsonl_lines,
)

#: schema identifier stamped into (and required of) every ledger record
LEDGER_SCHEMA = "repro.obs/ledger/v1"

#: ledger filename inside a cache directory
LEDGER_FILENAME = "ledger.jsonl"

#: record kinds the v1 schema admits
RECORD_KINDS = ("run", "bench")

#: required per-stage fields of a run record and their types
_STAGE_FIELDS: Dict[str, Any] = {
    "stage": str,
    "shards": int,
    "cache_hits": int,
    "cache_misses": int,
    "wall_s": (int, float),
    "cpu_s": (int, float),
    "metric_keys": list,
}

#: required top-level fields of a run record (beyond the common ones)
_RUN_FIELDS: Dict[str, Any] = {
    "config": dict,
    "workers": int,
    "salts": dict,
    "stages": list,
}

PathLike = Union[str, "os.PathLike[str]"]

#: serializes read-then-append within this process: engine runs on
#: threads of one process may share one ledger, and an unlocked
#: interleaving would stamp two records with the same seq
#: (across processes, :func:`~repro.obs.persist.exclusive_lock` does)
_APPEND_LOCK = threading.Lock()


def ledger_path(cache_dir: PathLike) -> str:
    """The canonical ledger location inside a cache directory."""
    return os.path.join(os.fspath(cache_dir), LEDGER_FILENAME)


def run_id_for(payload: Mapping[str, Any], seq: int) -> str:
    """Deterministic record identity: content hash of payload + seq.

    No wall clock, no randomness — rebuilding the id of a stored
    record always reproduces it, which keeps the ledger pipeline
    inside the tree's determinism rules.
    """
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    digest = hashlib.blake2b(digest_size=8)
    digest.update(canon.encode("utf-8"))
    digest.update(f"#{seq}".encode("utf-8"))
    return digest.hexdigest()


def validate_record(payload: Mapping[str, Any]) -> None:
    """Check one ledger record against the v1 schema; raise on violation.

    Extra keys are allowed everywhere (forward compatibility); missing
    or mistyped required keys are not.
    """
    if not isinstance(payload, Mapping):
        raise ObservabilityError(
            f"ledger record must be a mapping, got {type(payload).__name__}"
        )
    for key, expected in (("schema", str), ("kind", str), ("run_id", str),
                          ("seq", int), ("metrics", dict)):
        if key not in payload:
            raise ObservabilityError(f"ledger record is missing {key!r}")
        if not isinstance(payload[key], expected) or isinstance(
            payload[key], bool
        ):
            raise ObservabilityError(
                f"ledger record field {key!r} must be {expected.__name__}, "
                f"got {type(payload[key]).__name__}"
            )
    if payload["schema"] != LEDGER_SCHEMA:
        raise ObservabilityError(
            f"unsupported ledger schema {payload['schema']!r} "
            f"(expected {LEDGER_SCHEMA!r})"
        )
    if payload["kind"] not in RECORD_KINDS:
        raise ObservabilityError(
            f"unknown ledger record kind {payload['kind']!r} "
            f"(expected one of {RECORD_KINDS})"
        )
    if payload["seq"] < 0:
        raise ObservabilityError(
            f"ledger record seq must be >= 0, got {payload['seq']}"
        )
    if payload["kind"] != "run":
        return
    for key, expected in sorted(_RUN_FIELDS.items()):
        if key not in payload:
            raise ObservabilityError(f"run record is missing {key!r}")
        if not isinstance(payload[key], expected):
            raise ObservabilityError(
                f"run record field {key!r} must be {expected.__name__}, "
                f"got {type(payload[key]).__name__}"
            )
    config = payload["config"]
    for key in ("digest", "seed"):
        if key not in config:
            raise ObservabilityError(f"run record config is missing {key!r}")
    for position, stage in enumerate(payload["stages"]):
        if not isinstance(stage, Mapping):
            raise ObservabilityError(
                f"run record stage #{position} must be a mapping"
            )
        for key, expected in sorted(_STAGE_FIELDS.items()):
            if key not in stage:
                raise ObservabilityError(
                    f"run record stage #{position} is missing {key!r}"
                )
            if not isinstance(stage[key], expected):
                name = getattr(expected, "__name__", "number")
                raise ObservabilityError(
                    f"run record stage #{position} field {key!r} must be "
                    f"{name}, got {type(stage[key]).__name__}"
                )


def append_record(path: PathLike, payload: Mapping[str, Any]) -> Dict[str, Any]:
    """Stamp ``seq``/``run_id`` onto ``payload``, validate and append it.

    ``payload`` carries everything *but* the identity fields; the
    sequence number is one past the ``seq`` of the ledger's last record
    (0 for an absent or empty ledger), read from the end of the file so
    an append costs the same however long the history, and the run id
    is content-derived (:func:`run_id_for`).  Read and append happen
    under the thread lock and an exclusive ``flock`` on the ledger, so
    threads of one process and separate processes (two ``repro run``
    sharing one ``--cache-dir``) never stamp the same seq, and pruning
    the head of a ledger never makes a seq repeat.  Bytes after the
    ledger's last newline are a killed writer's unfinished record
    (every append is one ``write``); they are dropped before the
    append, so the new record starts on its own line and the ledger
    loads again.  Returns the completed record as written.
    """
    record = dict(payload)
    record.pop("run_id", None)
    record.pop("seq", None)
    with _APPEND_LOCK, exclusive_lock(path):
        last, whole = last_jsonl_record(path)
        if last is not None:
            validate_record(last)
        seq = 0 if last is None else last["seq"] + 1
        record["seq"] = seq
        record["run_id"] = run_id_for(record, seq)
        validate_record(record)
        os.truncate(path, whole)
        append_jsonl_line(path, record)
    return record


def load_ledger(path: PathLike) -> List[Dict[str, Any]]:
    """Every record of a ledger, in append order, schema-validated.

    A corrupt or truncated line — and equally a well-formed JSON line
    that is not a valid ledger record — raises
    :class:`ObservabilityError` naming the file and line number.
    """
    records: List[Dict[str, Any]] = []
    for number, record in read_jsonl_lines(path):
        try:
            validate_record(record)
        except ObservabilityError as exc:
            raise ObservabilityError(
                f"{os.fspath(path)!r} line {number}: {exc}"
            ) from exc
        records.append(record)
    return records


# -- selectors ---------------------------------------------------------------

def _baseline_pointer(path: PathLike) -> str:
    return f"{os.fspath(path)}.baseline"


def read_baseline(path: PathLike) -> Optional[str]:
    """The run id the ledger's baseline pointer names (None when unset)."""
    try:
        with open(_baseline_pointer(path), "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except FileNotFoundError:
        return None
    except ValueError as exc:
        raise ObservabilityError(
            f"corrupt baseline pointer {_baseline_pointer(path)!r}: {exc}"
        ) from exc
    run_id = payload.get("run_id") if isinstance(payload, dict) else None
    if not isinstance(run_id, str) or not run_id:
        raise ObservabilityError(
            f"baseline pointer {_baseline_pointer(path)!r} carries no run_id"
        )
    return run_id


def write_baseline(path: PathLike, run_id: str) -> None:
    """Point the ledger's ``baseline`` selector at ``run_id`` (atomic)."""
    atomic_write_json(
        {"schema": LEDGER_SCHEMA, "run_id": run_id},
        _baseline_pointer(path),
    )


def select_record(
    records: List[Dict[str, Any]],
    selector: str,
    baseline_id: Optional[str] = None,
) -> Dict[str, Any]:
    """Resolve a record selector against a loaded ledger.

    Selectors, in resolution order:

    * ``latest`` — the last record; ``latest~N`` — N records before it;
    * ``baseline`` — the record ``baseline_id`` names (set via
      ``repro obs baseline``), falling back to the ledger's **first**
      record when no pointer was ever written;
    * a decimal number — the record with that ``seq``;
    * anything else — a unique ``run_id`` prefix.

    Raises :class:`ObservabilityError` when the ledger is empty, the
    selector matches nothing, or a prefix is ambiguous — the CLI turns
    these into friendly messages, never tracebacks.
    """
    if not records:
        raise ObservabilityError(
            f"cannot resolve {selector!r}: the ledger is empty"
        )
    if selector == "latest" or selector.startswith("latest~"):
        back = 0
        if selector.startswith("latest~"):
            suffix = selector[len("latest~"):]
            if not suffix.isdigit():
                raise ObservabilityError(
                    f"bad selector {selector!r}: expected latest~N"
                )
            back = int(suffix)
        if back >= len(records):
            raise ObservabilityError(
                f"cannot resolve {selector!r}: the ledger holds only "
                f"{len(records)} record(s)"
            )
        return records[-1 - back]
    if selector == "baseline":
        if baseline_id is None:
            return records[0]
        for record in records:
            if record["run_id"] == baseline_id:
                return record
        raise ObservabilityError(
            f"baseline points at {baseline_id!r}, which is not in the ledger"
        )
    if selector.isdigit():
        seq = int(selector)
        for record in records:
            if record["seq"] == seq:
                return record
        raise ObservabilityError(f"no ledger record with seq {seq}")
    matches = [
        record for record in records
        if record["run_id"].startswith(selector)
    ]
    if not matches:
        raise ObservabilityError(
            f"no ledger record matches run id prefix {selector!r}"
        )
    if len(matches) > 1:
        ids = ", ".join(record["run_id"] for record in matches[:4])
        raise ObservabilityError(
            f"run id prefix {selector!r} is ambiguous ({ids}, ...)"
        )
    return matches[0]
